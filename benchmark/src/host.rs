//! Host and process facts read from `/proc` (Linux; std-only, no FFI).
//!
//! CPU times come from `/proc/self/stat` in clock ticks, so one reading
//! resolves 10 ms: callers difference readings over whole timed sections
//! (seconds), never over one rep.

use qa_simnet::json::Json;
use std::fs;

/// `USER_HZ`: the unit of the tick fields in `/proc/*/stat` and
/// `/proc/stat`. Fixed at 100 by the Linux ABI on every architecture the
/// repo builds on; std offers no `sysconf` to ask.
const USER_HZ: f64 = 100.0;

/// CPU seconds and minor faults of one process, cumulative since it
/// started.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

impl ProcStat {
    /// The counters of `pid` (or this process) now. All zero where the
    /// process or `/proc` is gone.
    pub fn of(pid: Option<u32>) -> ProcStat {
        let path = pid.map_or("/proc/self/stat".to_string(), |p| format!("/proc/{p}/stat"));
        let Ok(text) = fs::read_to_string(path) else {
            return ProcStat::default();
        };
        // Fields after the parenthesised command name, which may itself
        // hold spaces: index 0 is field 3 (state) of proc(5).
        let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<&str> = rest.split_whitespace().collect();
        let num =
            |field: usize| -> u64 { f.get(field - 3).and_then(|s| s.parse().ok()).unwrap_or(0) };
        ProcStat {
            minor_faults: num(10),
            user_s: num(14) as f64 / USER_HZ,
            sys_s: num(15) as f64 / USER_HZ,
        }
    }

    /// Counters accrued since `earlier`.
    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }

    /// User + system CPU of the process itself.
    pub fn own_cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Peak resident set (`VmHWM`) of `pid` (or this process) in MB; 0 when
/// the process is gone.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Live child processes of this process, by scanning `/proc/*/stat` for
/// our pid in the parent field.
pub fn child_pids() -> Vec<u32> {
    let me = std::process::id().to_string();
    let Ok(dir) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut pids: Vec<u32> = dir
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|t| {
                    let rest = t.rsplit_once(')')?.1.to_string();
                    Some(rest.split_whitespace().nth(1)? == me)
                })
                .unwrap_or(false)
        })
        .collect();
    pids.sort_unstable();
    pids
}

/// `(steal, total)` CPU ticks of the whole host from `/proc/stat`.
pub fn host_ticks() -> (u64, u64) {
    let text = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|s| s.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user/nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Share of the host's CPU time the hypervisor may take during a
/// measurement before the untraced runs measure longer or again: quiet
/// runs read under 0.01, the disturbed ones 0.04 to 0.13.
pub const STEAL_LIMIT: f64 = 0.03;

/// Share of host CPU time stolen by the hypervisor since `earlier`.
pub fn steal_share_since(earlier: (u64, u64)) -> f64 {
    let (steal, total) = host_ticks();
    let dt = total.saturating_sub(earlier.1);
    if dt == 0 {
        0.0
    } else {
        steal.saturating_sub(earlier.0) as f64 / dt as f64
    }
}

/// Hardware threads the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One budget for every parallel layer: `min(nproc, 4)`.
pub fn thread_budget() -> usize {
    nproc().min(4)
}

/// Facts that let a noisy result be recognised after the fact.
pub fn facts(seed: u64, threads: usize, steal_share: f64) -> Json {
    let loadavg = fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    Json::object([
        ("nproc", Json::Int(nproc() as i64)),
        ("thread_budget", Json::Int(threads as i64)),
        ("seed", Json::Int(seed as i64)),
        ("rustc", Json::Str(rustc)),
        ("loadavg_1m", Json::Float(loadavg)),
        ("steal_share", Json::Float(steal_share)),
    ])
}
