//! Network link model.
//!
//! The paper's real deployment (§5.2) interconnects five PCs through a
//! dedicated 100 Mb full-duplex hub, except one PC on a 54 Mb point-to-point
//! wireless link. A [`LinkSpec`] captures exactly what matters for query
//! allocation: a fixed propagation/processing latency plus a serialization
//! delay proportional to message size. Both the discrete-event simulator
//! (`qa-sim`) and the threaded cluster (`qa-cluster`) delay messages with
//! this model.

use crate::time::SimDuration;

/// Latency + bandwidth description of a (directed) network link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Fixed one-way latency.
    pub(crate) latency: SimDuration,
    /// Bandwidth in bytes per second of virtual time.
    pub(crate) bandwidth_bytes_per_sec: f64,
}

impl LinkSpec {
    /// A link with the given latency and bandwidth.
    ///
    /// # Panics
    /// Panics if bandwidth is not strictly positive and finite.
    pub(crate) fn new(latency: SimDuration, bandwidth_bytes_per_sec: f64) -> Self {
        assert!(
            bandwidth_bytes_per_sec.is_finite() && bandwidth_bytes_per_sec > 0.0,
            "bad bandwidth {bandwidth_bytes_per_sec}"
        );
        LinkSpec {
            latency,
            bandwidth_bytes_per_sec,
        }
    }

    /// The paper's wired link: 100 Mb/s full duplex, sub-millisecond
    /// switch latency.
    pub fn fast_ethernet() -> Self {
        LinkSpec::new(SimDuration::from_micros(200), 100e6 / 8.0)
    }

    /// Time to move `bytes` across this link: latency plus serialization.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        let ser = bytes as f64 / self.bandwidth_bytes_per_sec;
        self.latency + SimDuration::from_secs_f64(ser)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_includes_latency_and_serialization() {
        let link = LinkSpec::new(SimDuration::from_millis(1), 1_000_000.0); // 1 MB/s
                                                                            // 500 KB at 1 MB/s = 0.5 s serialization + 1 ms latency.
        let t = link.transfer_time(500_000);
        assert_eq!(t.as_millis(), 501);
    }

    #[test]
    fn zero_bytes_costs_only_latency() {
        let link = LinkSpec::fast_ethernet();
        assert_eq!(link.transfer_time(0), link.latency);
    }

    #[test]
    #[should_panic(expected = "bad bandwidth")]
    fn rejects_zero_bandwidth() {
        let _ = LinkSpec::new(SimDuration::ZERO, 0.0);
    }
}
