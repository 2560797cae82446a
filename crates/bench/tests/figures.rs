//! The committed figures and the claims EXPERIMENTS.md makes about them.
//!
//! Every row of `qa_bench::FIGURES` marked `committed` is regenerated
//! in-process at full scale and must reproduce its `figures/<file>` byte
//! for byte; a mismatch names the figure and its first differing line,
//! and leaves the fresh file in `bench_results/`. There is no bless
//! switch: a committed figure changes by copying that file over it, with
//! the reason in CHANGES.md.
//!
//! Each fidelity verdict EXPERIMENTS.md gives Figs. 3, 4, 5a, 5b and 6 is
//! a predicate over the committed files, with the verdict recorded next to
//! it: a ✓ that stops holding, or a withdrawn one that starts to, fails
//! until EXPERIMENTS.md and the verdict here are re-judged together.

use qa_bench::{Scale, FIGURES};
use qa_simnet::json::Json;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn committed_file(file: &str) -> Option<String> {
    std::fs::read_to_string(repo_root().join("figures").join(file)).ok()
}

/// Why `fresh` is not the committed `file` of `figure`: its first
/// differing line (`None` when they are equal).
fn mismatch(figure: &str, file: &str, committed: Option<&str>, fresh: &str) -> Option<String> {
    let committed = match committed {
        None => return Some(format!("{figure}: figures/{file} is not committed")),
        Some(c) if c == fresh => return None,
        Some(c) => c,
    };
    let (mut old, mut new) = (committed.lines(), fresh.lines());
    for line in 1.. {
        match (old.next(), new.next()) {
            (Some(a), Some(b)) if a == b => continue,
            (None, None) => return Some(format!("{figure}: figures/{file} differs at its end")),
            (a, b) => {
                return Some(format!(
                    "{figure}: figures/{file} line {line}: committed {a:?}, regenerated {b:?}"
                ))
            }
        }
    }
    unreachable!("an iterator of lines ends")
}

#[test]
fn committed_figures_regenerate_byte_for_byte() {
    let threads = qa_simnet::thread_budget();
    let mut failures = Vec::new();
    for fig in FIGURES.iter().filter(|f| f.committed) {
        let report = (fig.run)(Scale::Full, threads);
        assert!(!report.files.is_empty(), "{} writes no file", fig.name);
        for (file, fresh) in &report.files {
            let committed = committed_file(file);
            if let Some(why) = mismatch(fig.name, file, committed.as_deref(), fresh) {
                let dir = repo_root().join("bench_results");
                std::fs::create_dir_all(&dir).expect("bench_results/");
                std::fs::write(dir.join(file), fresh).expect("write the fresh file");
                failures.push(why);
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{}\n(the fresh files are in bench_results/; copy one over its committed file \
         only with an intended behaviour change)",
        failures.join("\n")
    );
}

#[test]
fn a_planted_edit_fails_naming_its_figure() {
    let fig = FIGURES.iter().find(|f| f.name == "fig1_motivating");
    let report = (fig.expect("fig1 is a row").run)(Scale::Full, 1);
    let (file, fresh) = &report.files[0];
    let committed = committed_file(file).expect("fig1 is committed");
    assert_eq!(
        mismatch("fig1_motivating", file, Some(&committed), fresh),
        None
    );
    let planted = committed.replacen("662.5", "662.6", 1);
    let why = mismatch("fig1_motivating", file, Some(&planted), fresh).expect("caught");
    assert!(
        why.starts_with("fig1_motivating: figures/fig1_motivating.json line 2:")
            && why.contains("662.6"),
        "{why}"
    );
}

// ------------------------------------------------------------- fidelity

fn figure(name: &str) -> Json {
    let text = committed_file(&format!("{name}.json")).expect("a committed figure");
    Json::parse(&text).expect("committed figures parse")
}

/// `field` of every element of the array `json`, as floats.
fn column(json: &Json, field: &str) -> Vec<f64> {
    let rows = json.as_array().expect("an array of points");
    rows.iter()
        .map(|p| p.get(field).and_then(Json::as_f64).expect("a number"))
        .collect()
}

/// Fig. 3's Q1 and Q2 arrivals per period.
fn fig3_series() -> [Vec<f64>; 2] {
    let f = figure("fig3_sinusoid_workload");
    ["q1_per_period", "q2_per_period"].map(|k| {
        let xs = f.get(k).and_then(Json::as_array).expect("a series");
        xs.iter().map(|x| x.as_f64().expect("a count")).collect()
    })
}

/// The amplitude and phase (degrees) of the DFT component `k` of `xs`.
fn dft(xs: &[f64], k: usize) -> (f64, f64) {
    let w = 2.0 * std::f64::consts::PI * k as f64 / xs.len() as f64;
    let (re, im) = xs.iter().enumerate().fold((0.0, 0.0), |(re, im), (t, x)| {
        (re + x * (w * t as f64).cos(), im - x * (w * t as f64).sin())
    });
    (re.hypot(im), im.atan2(re).to_degrees())
}

/// Fig. 3: both classes oscillate at the workload's 0.05 Hz, a quarter
/// wave apart.
fn fig3_wave() -> (bool, String) {
    let f = figure("fig3_sinusoid_workload");
    let period_s = f.get("period_ms").and_then(Json::as_f64).expect("period") / 1e3;
    let [q1, q2] = fig3_series();
    let k = (0.05 * q1.len() as f64 * period_s).round() as usize;
    let strongest = |xs: &[f64]| {
        (1..xs.len() / 2)
            .max_by(|&a, &b| dft(xs, a).0.total_cmp(&dft(xs, b).0))
            .expect("a spectrum")
    };
    let offset = (dft(&q1, k).1 - dft(&q2, k).1).rem_euclid(360.0);
    let quarter = (offset - 90.0).abs().min((offset - 270.0).abs());
    let holds = strongest(&q1) == k && strongest(&q2) == k && quarter <= 15.0;
    let detail = format!(
        "strongest bins {} and {} (0.05 Hz is bin {k}), phase offset {offset:.1}°",
        strongest(&q1),
        strongest(&q2)
    );
    (holds, detail)
}

/// Fig. 3: Q1 carries twice Q2's volume, measured within 1.9–2.1.
fn fig3_volume() -> (bool, String) {
    let [q1, q2] = fig3_series();
    let ratio = q1.iter().sum::<f64>() / q2.iter().sum::<f64>();
    ((1.9..=2.1).contains(&ratio), format!("Q1/Q2 = {ratio:.3}"))
}

/// Fig. 4's normalized responses, by mechanism.
fn fig4() -> Vec<(String, f64)> {
    let rows = figure("fig4_all_algorithms");
    let rows = rows.get("rows").expect("rows");
    let names = rows.as_array().expect("rows").iter().map(|r| {
        let name = r.get("mechanism").and_then(Json::as_str);
        name.expect("a mechanism").to_string()
    });
    names.zip(column(rows, "normalized_response")).collect()
}

fn of(rows: &[(String, f64)], mechanism: &str) -> f64 {
    rows.iter()
        .find(|(m, _)| m == mechanism)
        .expect("a mechanism")
        .1
}

/// Fig. 4, the head of the paper's ordering: QA-NT and Greedy both ahead
/// of BNQRD.
fn fig4_head() -> (bool, String) {
    let r = fig4();
    let holds = of(&r, "QA-NT").max(of(&r, "Greedy")) < of(&r, "BNQRD");
    (holds, format!("normalized responses {r:?}"))
}

/// Fig. 4, the tail of the paper's ordering: BNQRD ahead of two-probes,
/// two-probes ahead of random and round-robin.
fn fig4_tail() -> (bool, String) {
    let r = fig4();
    let holds = of(&r, "BNQRD") < of(&r, "Two-probes")
        && of(&r, "Two-probes") < of(&r, "Random").min(of(&r, "Round-robin"));
    (holds, format!("normalized responses {r:?}"))
}

/// Fig. 5a: the greedy/QA-NT ratio dips below 1 and then rises above 1
/// for good; the crossover load is interpolated.
fn fig5a_dip_then_rise() -> (bool, String) {
    let pts = figure("fig5a_load_sweep");
    let (load, ratio) = (column(&pts, "x"), column(&pts, "normalized_greedy"));
    let Some(last_below) = ratio.iter().rposition(|&r| r < 1.0) else {
        return (false, format!("never below 1: {ratio:?}"));
    };
    let rise = last_below + 1;
    if rise == ratio.len() || ratio[rise..].iter().any(|&r| r <= 1.0) {
        return (false, format!("no rise above 1 after the dip: {ratio:?}"));
    }
    let (x0, x1, r0, r1) = (load[rise - 1], load[rise], ratio[rise - 1], ratio[rise]);
    let crossover = x0 + (x1 - x0) * (1.0 - r0) / (r1 - r0);
    let detail = format!(
        "crossover at {:.0} % load (paper: 75 %); ratios {ratio:?}",
        crossover * 100.0
    );
    (true, detail)
}

/// Fig. 5b: the gap shrinks with frequency — |1 − ratio| is smaller at
/// 2 Hz than at 0.05 Hz.
fn fig5b_gap_shrinks() -> (bool, String) {
    let pts = figure("fig5b_frequency_sweep");
    let (freq, ratio) = (column(&pts, "x"), column(&pts, "normalized_greedy"));
    let gap_at = |hz: f64| {
        let i = freq
            .iter()
            .position(|&f| f == hz)
            .expect("a swept frequency");
        (1.0 - ratio[i]).abs()
    };
    let (slow, fast) = (gap_at(0.05), gap_at(2.0));
    (
        fast < slow,
        format!("|1 − ratio| {slow:.3} at 0.05 Hz, {fast:.3} at 2 Hz"),
    )
}

/// Fig. 6: parity to a small QA-NT edge at the unloaded end — every
/// inter-arrival of 2.5 s or more has 1 ≤ greedy/QA-NT ≤ 1.05.
fn fig6_unloaded_parity() -> (bool, String) {
    let pts = figure("fig6_zipf_sweep");
    let (gap, ratio) = (column(&pts, "x"), column(&pts, "normalized_greedy"));
    let unloaded: Vec<f64> = gap
        .iter()
        .zip(&ratio)
        .filter(|(g, _)| **g >= 2_500.0)
        .map(|(_, r)| *r)
        .collect();
    let holds = !unloaded.is_empty() && unloaded.iter().all(|r| (1.0..=1.05).contains(r));
    (holds, format!("ratios at ≥ 2.5 s: {unloaded:?}"))
}

/// One fidelity verdict of EXPERIMENTS.md: the claim, the predicate over
/// the committed files, and whether EXPERIMENTS.md says it holds.
struct Claim {
    claim: &'static str,
    check: fn() -> (bool, String),
    holds: bool,
}

const CLAIMS: &[Claim] = &[
    Claim {
        claim: "Fig. 3: both classes oscillate at 0.05 Hz, 90° apart",
        check: fig3_wave,
        holds: true,
    },
    Claim {
        claim: "Fig. 3: Q1/Q2 volume within 1.9–2.1",
        check: fig3_volume,
        holds: false,
    },
    Claim {
        claim: "Fig. 4: QA-NT and Greedy both ahead of BNQRD",
        check: fig4_head,
        holds: false,
    },
    Claim {
        claim: "Fig. 4: BNQRD < two-probes < random, round-robin",
        check: fig4_tail,
        holds: true,
    },
    Claim {
        claim: "Fig. 5a: greedy/QA-NT dips below 1, then rises above 1",
        check: fig5a_dip_then_rise,
        holds: true,
    },
    Claim {
        claim: "Fig. 5b: |1 − greedy/QA-NT| smaller at 2 Hz than at 0.05 Hz",
        check: fig5b_gap_shrinks,
        holds: true,
    },
    Claim {
        claim: "Fig. 6: 1 ≤ greedy/QA-NT ≤ 1.05 at every inter-arrival ≥ 2.5 s",
        check: fig6_unloaded_parity,
        holds: true,
    },
];

#[test]
fn experiments_verdicts_match_the_committed_figures() {
    let mut stale = Vec::new();
    for c in CLAIMS {
        let (holds, detail) = (c.check)();
        let mark = if holds { "✓" } else { "✗" };
        println!("{mark} {} — {detail}", c.claim);
        if holds != c.holds {
            stale.push(format!("{} now {mark}: {detail}", c.claim));
        }
    }
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md's verdict is stale; re-judge it and the one recorded here:\n{}",
        stale.join("\n")
    );
}
