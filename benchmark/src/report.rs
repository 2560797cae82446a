//! Result output: the contract's JSON line and result file of one run,
//! the all-workloads set with its table, and the two-set comparison
//! against the bounds in `BENCHMARK.json`.

use crate::spans::Spans;
use crate::{host, median, out_dir, Args, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use qa_simnet::json::Json;
use std::process::{Command, Stdio};

const CONTRACT: &str = "BENCHMARK.json";

/// Prints one run: metrics by name with units on stderr, the contract's
/// JSON object as the last line of stdout. Also leaves the result with
/// the host facts and the run's spans under `benchmark/out`.
pub fn emit(
    workload: &str,
    args: &Args,
    outcome: &Outcome,
    spans: &Spans,
    facts: Json,
) -> Result<(), String> {
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut outcome_ok = outcome.failures.is_empty();
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = outcome.values.get(name).copied().unwrap_or(0.0);
        // An end-to-end metric must be a real, positive measurement.
        let positive = value.is_finite() && value > 0.0;
        if !args.trace && !positive {
            eprintln!("FAIL {workload}: {name} = {value} is not a positive number");
            outcome_ok = false;
        }
        eprintln!("{workload:<18} {name:<34} {value:>16.4} {unit}");
        // `{"value": v, "unit": u}`, as the contract spells a metric.
        let metric = Json::object([
            ("value", Json::Float(value)),
            ("unit", Json::Str(unit.to_string())),
        ]);
        metrics.push((name, metric));
    }
    for name in outcome.values.keys() {
        if !table.iter().any(|(n, _)| n == name) {
            return Err(format!("metric {name} is not in the benchmark's tables"));
        }
    }
    for note in &outcome.notes {
        eprintln!("{workload}: {note}");
    }
    for why in &outcome.failures {
        eprintln!("FAIL {workload}: {why}");
    }
    let result = Json::object([
        ("correct", Json::Bool(outcome_ok)),
        ("attempted", Json::Int(outcome.attempted.max(1) as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        ("metrics", Json::object(metrics)),
    ]);

    let dir = out_dir()?;
    let trace = u8::from(args.trace);
    let file = Json::object([
        ("workload", Json::Str(workload.to_string())),
        ("host", facts),
        ("result", result.clone()),
        ("spans", spans.to_json()),
    ]);
    let path = dir.join(format!(
        "run_{workload}_seed{}_trace{trace}.json",
        args.seed
    ));
    std::fs::write(&path, file.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{}", result.dump());
    Ok(())
}

/// Runs `--workload name` as a child of this executable, so each
/// workload's peak RSS is its own; returns the child's JSON line.
fn run_child(name: &str, args: &Args, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{name} (trace {trace}) exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{name} printed nothing"))?;
    Json::parse(last).map_err(|e| format!("{name} printed no JSON result: {e}"))
}

fn names_in(contract: &Json, section: &str) -> Vec<String> {
    contract
        .get(section)
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| m.get("name")?.as_str().map(str::to_string))
        .collect()
}

/// The contract and this binary must name the same things.
fn check_contract() -> Result<(), String> {
    let text = std::fs::read_to_string(CONTRACT).map_err(|e| format!("read {CONTRACT}: {e}"))?;
    let contract = Json::parse(&text)?;
    for (section, ours) in [
        ("workloads", WORKLOADS.to_vec()),
        ("end_to_end", END_TO_END.iter().map(|m| m.0).collect()),
        ("per_layer", PER_LAYER.iter().map(|m| m.0).collect()),
    ] {
        if names_in(&contract, section) != ours {
            return Err(format!(
                "{CONTRACT} {section} differ from the benchmark's own list"
            ));
        }
    }
    Ok(())
}

/// `args.runs` untraced runs of one workload on consecutive seeds, folded
/// into one result: each metric's median as its `value`, with every
/// run's value beside it.
fn run_untraced(name: &str, args: &Args) -> Result<Json, String> {
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    for run in 0..args.runs {
        let result = run_child(name, args, args.seed + run as u64, false)?;
        correct &= result.get("correct") == Some(&Json::Bool(true));
        attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        for (column, (metric, _)) in values.iter_mut().zip(END_TO_END) {
            let value = result
                .get("metrics")
                .and_then(|m| m.get(metric)?.get("value")?.as_f64())
                .ok_or_else(|| format!("{name} printed no {metric}"))?;
            column.push(value);
        }
    }
    let metrics = END_TO_END
        .iter()
        .zip(&values)
        .map(|(&(metric, unit), column)| {
            let entry = Json::object([
                ("value", Json::Float(median(column))),
                ("unit", Json::Str(unit.to_string())),
                (
                    "runs",
                    Json::Arr(column.iter().map(|&v| Json::Float(v)).collect()),
                ),
            ]);
            (metric, entry)
        });
    Ok(Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", Json::object(metrics)),
    ]))
}

/// Every workload in turn — `--runs N` untraced runs on seeds `seed..`,
/// then with `--trace` one traced run — a table of the medians, and
/// `benchmark/out/result_seed<N>.json`.
pub fn run_set(args: &Args) -> Result<bool, String> {
    check_contract()?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for name in WORKLOADS {
        let mut entry = vec![("end_to_end", run_untraced(name, args)?)];
        if args.trace {
            entry.push(("per_layer", run_child(name, args, args.seed, true)?));
        }
        all_correct &= entry
            .iter()
            .all(|(_, result)| result.get("correct") == Some(&Json::Bool(true)));
        workloads.push((name, Json::object(entry)));
    }
    let set = Json::object([
        ("host", host::facts(args.seed, host::thread_budget(), 0.0)),
        ("seconds", Json::Float(args.seconds)),
        ("runs", Json::Int(args.runs as i64)),
        ("quick", Json::Bool(args.quick)),
        ("workloads", Json::object(workloads)),
    ]);
    let path = out_dir()?.join(format!("result_seed{}.json", args.seed));
    std::fs::write(&path, set.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
    print_set(&set);
    println!(
        "\nwrote {}; outputs {}",
        path.display(),
        if all_correct { "correct" } else { "WRONG" }
    );
    Ok(all_correct)
}

/// Distance between the first and third quartile of a set's runs as a
/// share of their median, quartiles as Python's `statistics.quantiles(
/// values, n=4)` gives them; `None` with fewer than four runs.
fn spread_of(set: &Json, workload: &str, metric: &str) -> Option<f64> {
    let runs = set
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .get(metric)?
        .get("runs")?
        .as_array()?;
    let mut v: Vec<f64> = runs.iter().filter_map(Json::as_f64).collect();
    if v.len() < 4 {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let m = v.len() + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median(&v))
}

fn value_of(set: &Json, workload: &str, section: &str, metric: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get(section)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn print_set(set: &Json) {
    for (section, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        if value_of(set, WORKLOADS[0], section, table[0].0).is_none() {
            continue;
        }
        print!("\n{:<34} {:<6}", section, "unit");
        for w in WORKLOADS {
            print!(" {w:>18}");
        }
        println!();
        for &(name, unit) in table {
            print!("{name:<34} {unit:<6}");
            for w in WORKLOADS {
                match value_of(set, w, section, name) {
                    Some(v) => print!(" {v:>18.4}"),
                    None => print!(" {:>18}", "-"),
                }
            }
            println!();
        }
    }
}

/// Metrics of the sim workloads that must repeat to the last bit when two
/// sets ran the same seed on the same code.
fn is_exact(workload: &str, metric: &str) -> bool {
    workload != crate::fleet::NAME
        && (metric.starts_with("sim.") || metric.starts_with("response_ms"))
}

/// Compares set `b` against set `a`, metric by metric, with the bounds
/// and directions from `BENCHMARK.json`. `false` when an end-to-end
/// metric of `b` is worse than `a`'s by more than its bound, when the
/// runs of either set spread wider than the bound, or when an exact
/// metric differs although both sets ran the same seeds.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?)
    };
    let (a, b, contract) = (load(a_path)?, load(b_path)?, load(CONTRACT)?);
    // The same seeds: the first, and how many consecutive ones.
    let seeds = |s: &Json| {
        let first = s.get("host")?.get("seed")?.as_u64()?;
        Some((first, s.get("runs")?.as_u64()?))
    };
    let same_seed = seeds(&a).is_some() && seeds(&a) == seeds(&b);
    let mut ok = true;
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>8} {:>7} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "worse", "spread A", "spread B", "bound"
    );
    for m in contract
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        let (Some(name), Some(better), Some(bound)) = (
            m.get("name").and_then(Json::as_str),
            m.get("better").and_then(Json::as_str),
            m.get("bound").and_then(Json::as_f64),
        ) else {
            return Err(format!("{CONTRACT}: malformed end_to_end entry"));
        };
        for w in WORKLOADS {
            let (Some(va), Some(vb)) = (
                value_of(&a, w, "end_to_end", name),
                value_of(&b, w, "end_to_end", name),
            ) else {
                return Err(format!("{w}/{name} is missing from a set"));
            };
            // Share of A by which B is worse (negative: better).
            let worse = if better == "lower" {
                vb / va - 1.0
            } else {
                1.0 - vb / va
            };
            // Run-to-run spread of each set; set-up time is exempt.
            let spreads = [spread_of(&a, w, name), spread_of(&b, w, name)];
            let unsteady = name != "setup_s" && spreads.iter().flatten().any(|&s| s > bound);
            let verdict = if worse > bound {
                ok = false;
                "OUTSIDE BOUND"
            } else if unsteady {
                ok = false;
                "SPREAD OVER BOUND"
            } else if same_seed && is_exact(w, name) && va.to_bits() != vb.to_bits() {
                ok = false;
                "NOT BIT-EQUAL"
            } else {
                "ok"
            };
            let [sa, sb] = spreads.map(|s| s.map_or("-".to_string(), |s| format!("{s:.3}")));
            println!(
                "{w:<18} {name:<18} {va:>14.4} {vb:>14.4} {:>8.4} {:>+7.3} {sa:>8} {sb:>8} {bound:>6.2}  {verdict}",
                vb / va,
                worse
            );
        }
    }
    if same_seed {
        for w in WORKLOADS {
            for (name, _) in PER_LAYER.iter().filter(|(n, _)| is_exact(w, n)) {
                let (va, vb) = (
                    value_of(&a, w, "per_layer", name),
                    value_of(&b, w, "per_layer", name),
                );
                if let (Some(va), Some(vb)) = (va, vb) {
                    if va.to_bits() != vb.to_bits() {
                        ok = false;
                        println!("{w:<18} {name:<18} {va:>14} {vb:>14}  NOT BIT-EQUAL");
                    }
                }
            }
        }
    }
    println!(
        "{}",
        if ok {
            "every end-to-end metric within its bound"
        } else {
            "REGRESSION"
        }
    );
    Ok(ok)
}
