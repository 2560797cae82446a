//! Deterministic protocol exploration: drives the model-checking harness
//! (`qa_cluster::explore`) through a bounded systematic sweep plus a
//! seeded-random sweep, for both allocation mechanisms, and checks the
//! four protocol invariants after every explored schedule.
//!
//! Scale (`QA_SCALE`): `ci` runs a systematic sweep of ≥1k schedules and
//! 200 random seeds per mechanism; `full` multiplies both.
//!
//! On a violation the failing schedule's seed/trail is printed so the
//! exact interleaving can be replayed:
//!
//!   `explore --replay-seed <N>`        — re-run one seeded schedule
//!   `explore --replay-trail "1,0,2"`   — re-run one explicit choice trail
//!
//! Exits non-zero if any schedule violates an invariant.

use qa_bench::{render_table, scale, write_json, Scale};
use qa_cluster::{
    explore_random, explore_systematic, run_seed, run_trail, ClusterMechanism, ExploreConfig,
    ExploreReport, ScheduleOutcome,
};
use qa_simnet::json::Json;
use std::process::ExitCode;

fn base_seed() -> u64 {
    std::env::var("QA_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2007)
}

fn config_for(mechanism: ClusterMechanism) -> ExploreConfig {
    let mut cfg = ExploreConfig::small();
    cfg.mechanism = mechanism;
    cfg
}

fn print_outcome(outcome: &ScheduleOutcome) -> bool {
    println!("schedule:  {}", outcome.description);
    println!("trail:     {}", outcome.trail);
    println!(
        "completed: {} unserved: {} actions: {} steps: {} drops: {}+{} crashes at {:?}",
        outcome.completed,
        outcome.unserved,
        outcome.actions,
        outcome.net.steps,
        outcome.net.dropped_requests,
        outcome.net.dropped_replies,
        outcome.net.crash_steps,
    );
    for v in &outcome.violations {
        println!("VIOLATION [{}]: {}", v.invariant, v.detail);
    }
    outcome.passed()
}

fn report_row(label: &str, mech: &str, r: &ExploreReport) -> Vec<String> {
    vec![
        label.to_string(),
        mech.to_string(),
        r.schedules.to_string(),
        r.schedules_failed.to_string(),
        r.completed.to_string(),
        r.unserved.to_string(),
        format!("{}+{}", r.dropped_requests, r.dropped_replies),
        r.crashes.to_string(),
        r.crash_points.len().to_string(),
        if r.exhausted { "yes" } else { "no" }.to_string(),
    ]
}

fn print_failures(r: &ExploreReport) {
    for f in &r.failures {
        eprintln!("FAILED schedule: {}", f.description);
        eprintln!("  trail: {}", f.trail);
        for v in &f.violations {
            eprintln!("  [{}] {}", v.invariant, v.detail);
        }
        eprintln!("  replay: explore --replay-trail \"{}\"", f.trail);
    }
}

fn report_json(label: &str, mech: &str, r: &ExploreReport) -> Json {
    Json::object([
        ("sweep", Json::Str(label.to_string())),
        ("mechanism", Json::Str(mech.to_string())),
        ("schedules", Json::Int(r.schedules as i64)),
        ("schedules_failed", Json::Int(r.schedules_failed as i64)),
        ("completed", Json::Int(r.completed as i64)),
        ("unserved", Json::Int(r.unserved as i64)),
        ("dropped_requests", Json::Int(r.dropped_requests as i64)),
        ("dropped_replies", Json::Int(r.dropped_replies as i64)),
        ("crashes", Json::Int(r.crashes as i64)),
        ("crash_points", Json::Int(r.crash_points.len() as i64)),
        ("exhausted", Json::Bool(r.exhausted)),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => {}
        [flag, value] if flag == "--replay-seed" => {
            let Ok(seed) = value.parse::<u64>() else {
                eprintln!("--replay-seed: not a u64: {value}");
                return ExitCode::FAILURE;
            };
            let mut ok = true;
            for mech in [ClusterMechanism::QaNt, ClusterMechanism::Greedy] {
                ok &= print_outcome(&run_seed(&config_for(mech), seed));
            }
            return if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        [flag, value] if flag == "--replay-trail" => {
            let indices: Result<Vec<u32>, _> = value
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| s.trim().parse::<u32>())
                .collect();
            let Ok(indices) = indices else {
                eprintln!("--replay-trail: expected comma-separated u32 list");
                return ExitCode::FAILURE;
            };
            // A trail replays against the mechanism it was recorded
            // under; QA-NT is the default protocol under test.
            let outcome = run_trail(
                &config_for(ClusterMechanism::QaNt),
                indices,
                "of recorded trail",
            );
            return if print_outcome(&outcome) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        _ => {
            eprintln!("usage: explore [--replay-seed N | --replay-trail \"1,0,2\"]");
            return ExitCode::FAILURE;
        }
    }

    let (sys_depth, sys_budget, random_count) = match scale() {
        Scale::Ci => (6, 1_200, 200),
        Scale::Full => (8, 10_000, 1_000),
    };
    let seed = base_seed();
    let mut rows = Vec::new();
    let mut summaries = Vec::new();
    let mut all_passed = true;
    let mut total_schedules = 0u64;

    for mech in [ClusterMechanism::QaNt, ClusterMechanism::Greedy] {
        let mech_name = match mech {
            ClusterMechanism::QaNt => "qant",
            ClusterMechanism::Greedy => "greedy",
        };
        let cfg = config_for(mech);

        let sys = explore_systematic(&cfg, sys_depth, sys_budget);
        total_schedules += sys.schedules;
        all_passed &= sys.passed();
        print_failures(&sys);
        rows.push(report_row("systematic", mech_name, &sys));
        summaries.push(report_json("systematic", mech_name, &sys));

        let rand = explore_random(&cfg, seed, random_count);
        total_schedules += rand.schedules;
        all_passed &= rand.passed();
        print_failures(&rand);
        rows.push(report_row("random", mech_name, &rand));
        summaries.push(report_json("random", mech_name, &rand));
    }

    println!(
        "{}",
        render_table(
            &[
                "sweep",
                "mech",
                "schedules",
                "failed",
                "completed",
                "unserved",
                "drops",
                "crashes",
                "crash pts",
                "exhausted",
            ],
            &rows,
        )
    );
    println!(
        "explored {total_schedules} schedules total (seed base {seed}); invariants: {}",
        if all_passed { "all hold" } else { "VIOLATED" }
    );

    let summary = Json::object([
        ("seed", Json::Int(seed as i64)),
        ("total_schedules", Json::Int(total_schedules as i64)),
        ("passed", Json::Bool(all_passed)),
        ("sweeps", Json::Arr(summaries)),
    ]);
    match write_json("explore", &summary) {
        Ok(path) => println!("summary -> {}", path.display()),
        Err(e) => {
            eprintln!("explore: cannot write summary: {e}");
            return ExitCode::FAILURE;
        }
    }
    if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
