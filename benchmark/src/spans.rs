//! In-memory spans around the benchmark's calls into each layer.
//!
//! Recorded from the benchmark's own files (the program under test is
//! not instrumented), kept in memory, written once at exit. A span's
//! self time is its duration minus what its direct children cover.

use qa_simnet::json::Json;
use std::time::Instant;

struct SpanRec {
    name: &'static str,
    parent: Option<usize>,
    start_us: u64,
    end_us: u64,
}

/// A span recorder for one run; spans nest by call structure.
pub struct Spans {
    origin: Instant,
    recs: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Runs `f` inside a span called `name`, a child of whichever span is
    /// open; returns `f`'s result and the span's duration in seconds.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let id = self.recs.len();
        let start_us = self.now_us();
        self.recs.push(SpanRec {
            name,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_us = self.now_us();
        self.recs[id].end_us = end_us;
        (out, (end_us - start_us) as f64 / 1e6)
    }

    /// Every span with its parent, bounds and self time.
    pub fn to_json(&self) -> Json {
        let mut child_us = vec![0u64; self.recs.len()];
        for r in &self.recs {
            if let Some(p) = r.parent {
                child_us[p] += r.end_us - r.start_us;
            }
        }
        Json::Arr(
            self.recs
                .iter()
                .enumerate()
                .map(|(id, r)| {
                    let dur = r.end_us - r.start_us;
                    Json::object([
                        ("id", Json::Int(id as i64)),
                        ("name", Json::Str(r.name.to_string())),
                        (
                            "parent",
                            r.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                        ),
                        ("start_us", Json::Int(r.start_us as i64)),
                        ("end_us", Json::Int(r.end_us as i64)),
                        (
                            "self_us",
                            Json::Int(dur.saturating_sub(child_us[id]) as i64),
                        ),
                    ])
                })
                .collect(),
        )
    }
}
