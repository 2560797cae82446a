//! The repo benchmark: four workloads over the flat simulator, the broker
//! market over shards, and a five-process `qad` fleet on loopback TCP.
//! See `README.md` for the metric tables and `../BENCHMARK.json` for the
//! contract (names, units, directions, bounds).
//!
//! ```text
//! qa-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! qa-benchmark [--seed N] [--seconds S] [--runs R] [--quick] [--trace]
//!                                                              every workload, a table
//! qa-benchmark compare A.json B.json                           two sets against the bounds
//! ```

mod alloc;
mod fleet;
mod host;
mod micro;
mod report;
mod sim;
mod spans;

use qa_simnet::stats::LogHistogram;
use std::collections::BTreeMap;
use std::path::PathBuf;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Every workload, in report order.
pub const WORKLOADS: [&str; 4] = [
    sim::FLAT1K.name,
    sim::PAPER100_OVERLOAD.name,
    sim::BROKER10K.name,
    fleet::NAME,
];

/// End-to-end metrics `(name, unit)`: what `--trace 0` prints, for every
/// workload. `BENCHMARK.json` adds direction and bound.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("response_ms", "ms"),
    ("response_ms_p50", "ms"),
    ("response_ms_p90", "ms"),
];

/// Per-layer metrics `(name, unit)`: what `--trace 1` prints, for every
/// workload. One a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 69] = [
    // Set-up, by layer (-> setup_s).
    ("scenario.build_s", "s"),
    ("workload.trace_gen_s", "s"),
    ("sharded.plan_build_s", "s"),
    ("ctl.spawn_s", "s"),
    ("ctl.connect_s", "s"),
    ("ctl.shutdown_reap_s", "s"),
    // One traced sim run from outside (-> queries_per_s).
    ("federation.period_us", "us"),
    ("federation.query_ns", "ns"),
    ("federation.retries_per_query", "count"),
    ("federation.greedy_query_ns", "ns"),
    ("federation.eager_over_deferred", "ratio"),
    ("sharded.s1_over_flat", "ratio"),
    // The engine's own five span sites; eager path only.
    ("eager.allocate_share", "share"),
    ("eager.period_update_share", "share"),
    ("eager.supply_solve_share", "share"),
    ("eager.price_update_share", "share"),
    // Exact counts: a behaviour change shows as a diff, not as noise.
    ("sim.completed", "count"),
    ("sim.unserved", "count"),
    ("sim.retries", "count"),
    ("sim.periods", "count"),
    ("sim.cross_messages", "count"),
    ("sim.parent_rounds", "count"),
    // Unit costs of one layer call (every workload carries them).
    ("qant.begin_period_ns", "ns"),
    ("qant.on_request_ns", "ns"),
    ("supply.greedy_cached_ns.k2", "ns"),
    ("supply.greedy_cached_ns.k100", "ns"),
    ("supply.greedy_uncached_ns.k100", "ns"),
    ("pricer.period_end_ns", "ns"),
    ("pricer.rejections_batch_ns", "ns"),
    ("pricer.reject_eager_ns", "ns"),
    ("event.schedule_pop_ns.256", "ns"),
    ("event.schedule_pop_ns.100k", "ns"),
    ("sharded.merge_us", "us"),
    ("parent.clear_us.qant", "us"),
    ("parent.clear_us.walras", "us"),
    ("par.fanout_us", "us"),
    ("telemetry.emit_disabled_ns", "ns"),
    ("telemetry.emit_enabled_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.bytes_per_query", "B"),
    ("conn.rtt_us_p50", "us"),
    ("minidb.explain_us", "us"),
    ("minidb.execute_us", "us"),
    // Modelled split of the traced sim run: unit cost x exact count.
    ("share.qant_begin_period", "share"),
    ("share.pricer_period_end", "share"),
    ("share.event_queue", "share"),
    ("share.unexplained", "share"),
    // The fleet, driver side (-> response_ms_p90).
    ("driver.assign_ms_p50", "ms"),
    ("driver.assign_ms_p90", "ms"),
    ("driver.assign_ms_p99", "ms"),
    ("driver.total_ms_p99", "ms"),
    ("driver.rpc_ms_p50", "ms"),
    ("driver.poll_round_us", "us"),
    ("driver.issue_overrun_share", "share"),
    ("driver.retries_per_query", "count"),
    ("transport.channel.assign_ms_p50", "ms"),
    // The fleet, node side, scraped over the wire (-> response_ms_p50).
    ("qad.exec_ms_p50", "ms"),
    ("qad.period_ms_p50", "ms"),
    ("net.frames_per_query", "count"),
    ("net.bytes_per_query", "B"),
    // The process and the host (-> queries_per_s, peak_rss_mb).
    ("proc.cpu_us_per_query", "us"),
    ("proc.user_s", "s"),
    ("proc.sys_s", "s"),
    ("proc.minor_faults", "count"),
    ("alloc.calls_per_query", "count"),
    ("alloc.bytes_per_query", "B"),
    ("host.steal_share", "share"),
    ("trace.overhead_share", "share"),
];

/// What one run found: counts for the contract's `attempted`/`failed`,
/// metric values by name, and every reason the outputs were wrong.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<String, f64>,
    failures: Vec<String>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Records a failed correctness check; the run reports `correct: false`.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }
}

/// Median of unsorted values (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// `q`-quantile of sorted values, linearly interpolated (NaN when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The `q`-quantile of a log-bucket histogram, interpolated
/// geometrically inside the bucket that holds it (`LogHistogram::quantile`
/// itself answers with the bucket's upper bound, a power of two).
pub fn hist_quantile(hist: &LogHistogram, q: f64) -> f64 {
    let total = hist.count();
    if total == 0 {
        return f64::NAN;
    }
    let target = q * total as f64;
    let mut below = 0u64;
    for (i, &count) in hist.buckets().iter().enumerate() {
        if count > 0 && (below + count) as f64 >= target {
            let Some(upper) = LogHistogram::bucket_bound(i) else {
                break;
            };
            let inside = ((target - below as f64) / count as f64).clamp(0.0, 1.0);
            // Bucket `i` spans `(upper/2, upper]`.
            return (upper / 2.0) * 2f64.powf(inside);
        }
        below += count;
    }
    hist.max().unwrap_or(f64::NAN)
}

/// `benchmark/out` under the working directory (the repo root; `run.sh`
/// goes there first), created on demand.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Default measuring time of one run (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 15.0;
const DEFAULT_SEED: u64 = 2007;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Untraced runs per workload of the all-workloads command, on
    /// consecutive seeds; the set reports their medians.
    pub runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        runs: 1,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                }
                out.workload = Some(w.clone());
            }
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            // `--trace 0|1` from the driver; a bare `--trace` means 1.
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => out.quick = true,
            "--runs" => {
                out.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&out.runs) {
                    return Err("--runs must be in 1..=100".to_string());
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// Runs one workload in this process and prints the contract's JSON line.
fn run_one(workload: &str, args: &Args, threads: usize) -> Result<(), String> {
    let steal0 = host::host_ticks();
    let seconds = if args.quick { 1.0 } else { args.seconds };
    let spec = [sim::FLAT1K, sim::PAPER100_OVERLOAD, sim::BROKER10K]
        .into_iter()
        .find(|s| s.name == workload);
    let (outcome, spans) = match (spec, args.trace) {
        (Some(spec), false) => sim::run(&spec, args.seed, seconds, args.quick, threads),
        (Some(spec), true) => sim::run_traced(&spec, args.seed, args.quick, threads),
        (None, false) => fleet::run(args.seed, seconds, args.quick)?,
        (None, true) => fleet::run_traced(args.seed, seconds, threads)?,
    };
    let facts = host::facts(args.seed, threads, host::steal_share_since(steal0));
    report::emit(workload, args, &outcome, &spans, facts)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => report::compare(a, b),
            _ => Err("usage: compare A.json B.json".to_string()),
        };
    }
    let args = parse_args(&args)?;
    // One budget for every parallel layer, recorded with the result: the
    // flat engine reads the ambient `QA_THREADS`, the sharded run takes
    // it as `ShardRunOptions::budget`, and `qad` children inherit it.
    let threads = host::thread_budget();
    std::env::set_var("QA_THREADS", threads.to_string());
    match &args.workload {
        // The JSON line carries the verdict; the exit code says it was printed.
        Some(w) => run_one(w, &args, threads).map(|()| true),
        None => report::run_set(&args),
    }
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("qa-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
