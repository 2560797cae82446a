//! The committed figures and the claims EXPERIMENTS.md makes about them.
//!
//! Every row of `qa_bench::FIGURES` marked `committed` is regenerated
//! in-process at full scale and must reproduce its `figures/<file>` byte
//! for byte; a mismatch names the figure and its first differing line,
//! and leaves the fresh file in `bench_results/`. `figures/` holds
//! exactly the files those rows write, the two seeded telemetry traces
//! among them, and each committed trace also keeps the trace contract.
//! There is no bless switch: a committed figure changes by copying that
//! file over it, with the reason in CHANGES.md.
//!
//! Each fidelity verdict EXPERIMENTS.md gives Figs. 3, 4, 5a, 5b and 6 is
//! a predicate over the committed files, with the verdict recorded next to
//! it: a ✓ that stops holding, or a withdrawn one that starts to, fails
//! until EXPERIMENTS.md and the verdict here are re-judged together.
//!
//! The tables EXPERIMENTS.md quotes from Table 2, Figs. 4, 5a, 5b and 6
//! and the ablation sit between `<!-- table: NAME -->` and
//! `<!-- /table -->` markers and are rendered here from `figures/NAME.json`
//! and compared verbatim: a hand-edited number fails, printing the table
//! the committed file gives.

use qa_bench::{Scale, FIGURES};
use qa_simnet::json::Json;
use qa_simnet::telemetry::{census, read_trace};
use std::collections::BTreeSet;
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
    let shown = |l: Option<&str>| l.map_or("<end of file>".to_string(), |l| format!("{l:?}"));
    for line in 1.. {
        match (old.next(), new.next()) {
            (Some(a), Some(b)) if a == b => continue,
            (None, None) => return Some(format!("{figure}: figures/{file} differs at its end")),
            (a, b) => {
                let (a, b) = (shown(a), shown(b));
                return Some(format!(
                    "{figure}: figures/{file} line {line}: committed {a}, regenerated {b}"
                ));
            }
        }
    }
    unreachable!("an iterator of lines ends")
}

#[test]
fn committed_figures_regenerate_byte_for_byte() {
    let threads = qa_simnet::thread_budget();
    let mut failures = Vec::new();
    let mut written = BTreeSet::new();
    for fig in FIGURES.iter().filter(|f| f.committed) {
        let report = (fig.run)(Scale::Full, threads);
        assert!(!report.files.is_empty(), "{} writes no file", fig.name);
        for (file, fresh) in &report.files {
            written.insert(file.clone());
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
    let present: BTreeSet<String> = std::fs::read_dir(repo_root().join("figures"))
        .expect("figures/")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("UTF-8")
        })
        .collect();
    let stray: Vec<&String> = present.difference(&written).collect();
    assert!(stray.is_empty(), "no committed row writes {stray:?}");
}

#[test]
fn committed_traces_keep_the_trace_contract() {
    // The flat trace holds the taxonomy `scripts/check_trace.sh` requires
    // of a seeded faulty run; the broker trace, the broker tier's.
    let flat = [
        "price_adjusted",
        "supply_computed",
        "request_rejected",
        "query_assigned",
        "query_completed",
        "message_dropped",
        "node_crashed",
        "node_recovered",
        "period_started",
    ];
    let broker = ["broker_bid", "parent_cleared", "demand_escalated"];
    for (file, kinds) in [
        ("trace_seed2007.jsonl", &flat[..]),
        ("fig_scale_trace.jsonl", &broker[..]),
    ] {
        let text = committed_file(file).unwrap_or_else(|| panic!("figures/{file}"));
        let records = read_trace(&text).unwrap_or_else(|e| panic!("figures/{file}: {e}"));
        let census = census(&records);
        for kind in kinds {
            assert!(census.contains_key(kind), "figures/{file} lacks {kind}");
        }
    }
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

    // One digit flipped mid-trace: the kind of change a wrong pricer
    // constant makes.
    let fig = FIGURES.iter().find(|f| f.name == "trace_seed2007");
    let report = (fig.expect("the golden trace is a row").run)(Scale::Full, 1);
    let (file, fresh) = &report.files[0];
    let committed = committed_file(file).expect("the golden trace is committed");
    let mut lines: Vec<String> = committed.lines().map(str::to_string).collect();
    let victim = lines.len() / 2;
    let at = lines[victim]
        .find(|c: char| c.is_ascii_digit())
        .expect("a digit");
    let digit = lines[victim].as_bytes()[at] - b'0';
    let flipped = char::from(b'0' + (digit + 1) % 10).to_string();
    lines[victim].replace_range(at..=at, &flipped);
    let planted = lines.join("\n") + "\n";
    let why = mismatch("trace_seed2007", file, Some(&planted), fresh).expect("caught");
    let line = format!(
        "trace_seed2007: figures/trace_seed2007.jsonl line {}:",
        victim + 1
    );
    assert!(why.starts_with(&line), "{why}");

    // A truncated trace reports where the committed file ends.
    let truncated = committed
        .lines()
        .take(victim)
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    let why = mismatch("trace_seed2007", file, Some(&truncated), fresh).expect("caught");
    let end = format!("line {}: committed <end of file>, regenerated", victim + 1);
    assert!(why.contains(&end), "{why}");
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

// ------------------------------------------------- EXPERIMENTS' tables

/// `x` rounded to an integer, thousands grouped by spaces: `26 713`.
fn grouped(x: f64) -> String {
    let digits = format!("{:.0}", x.round());
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(' ');
        }
        out.push(c);
    }
    out
}

/// A markdown table: the header, its rule and one line per row.
fn table(head: &[String], rows: &[Vec<String>]) -> String {
    let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
    let rule = format!("|{}\n", "---|".repeat(head.len()));
    let mut out = line(head) + &rule;
    for row in rows {
        out += &line(row);
    }
    out
}

fn strings(cells: &[&str]) -> Vec<String> {
    cells.iter().map(|c| c.to_string()).collect()
}

/// What the paper says of each mechanism: Table 2's performance column
/// and Fig. 4's qualitative ranking.
fn paper_says(mechanism: &str) -> (&'static str, &'static str) {
    match mechanism {
        "QA-NT" => ("Very Good", "best/equal-best"),
        "Greedy" => ("Very Good", "≈ QA-NT"),
        "BNQRD" => ("Poor", "\"balanced load but performed poorly\""),
        "Two-probes" => ("(between)", "better than round-robin, worse than BNQRD"),
        "Random" | "Round-robin" => ("Poor", "worst tier"),
        "Markov" => ("Excellent", "—"),
        other => panic!("no paper entry for {other}"),
    }
}

fn text_of<'a>(row: &'a Json, field: &str) -> &'a str {
    row.get(field).and_then(Json::as_str).expect("a string")
}

fn number(row: &Json, field: &str) -> f64 {
    row.get(field).and_then(Json::as_f64).expect("a number")
}

fn table2(f: &Json) -> String {
    let mark = |row: &Json, field: &str| {
        let set = row.get(field) == Some(&Json::Bool(true));
        if set { "X" } else { "–" }.to_string()
    };
    let measured = |row: &Json, field: &str, shown: fn(f64) -> String| {
        row.get(field)
            .and_then(Json::as_f64)
            .map_or("n/a".to_string(), shown)
    };
    let rows: Vec<Vec<String>> = f
        .as_array()
        .expect("rows")
        .iter()
        .map(|r| {
            let m = text_of(r, "mechanism");
            vec![
                m.to_string(),
                mark(r, "distributed"),
                text_of(r, "workload_type").to_string(),
                mark(r, "conflicts_with_dqo"),
                mark(r, "autonomy"),
                paper_says(m).0.to_string(),
                measured(r, "measured_normalized_response", |x| format!("{x:.2}")),
                measured(r, "measured_messages_per_query", grouped),
            ]
        })
        .collect();
    let head = strings(&[
        "mechanism",
        "distributed",
        "workload",
        "conflicts w/ DQO",
        "autonomy",
        "paper perf.",
        "measured norm. resp.",
        "msgs/query",
    ]);
    table(&head, &rows)
}

fn fig4_table(f: &Json) -> String {
    let rows: Vec<Vec<String>> = f
        .get("rows")
        .and_then(Json::as_array)
        .expect("rows")
        .iter()
        .map(|r| {
            let m = text_of(r, "mechanism");
            vec![
                m.to_string(),
                paper_says(m).1.to_string(),
                grouped(number(r, "mean_response_ms")),
                format!("{:.2}", number(r, "normalized_response")),
            ]
        })
        .collect();
    let head = strings(&[
        "mechanism",
        "paper (qualitative)",
        "measured mean (ms)",
        "normalized",
    ]);
    table(&head, &rows)
}

/// A sweep as one row of greedy/QA-NT ratios under a header of its
/// points, each point's `x` labelled by `label`.
fn sweep(f: &Json, axis: &str, label: fn(f64) -> String) -> String {
    let points = f.as_array().expect("points");
    let mut head = vec![axis.to_string()];
    head.extend(points.iter().map(|p| label(number(p, "x"))));
    let mut row = vec!["measured greedy/QA-NT".to_string()];
    row.extend(
        points
            .iter()
            .map(|p| format!("{:.3}", number(p, "normalized_greedy"))),
    );
    table(&head, &[row])
}

fn ablation_table(f: &Json) -> String {
    let rows: Vec<Vec<String>> = f
        .as_array()
        .expect("variants")
        .iter()
        .map(|r| {
            vec![
                text_of(r, "variant").to_string(),
                grouped(number(r, "mean_ms_at_0_9")),
                grouped(number(r, "mean_ms_at_2_0")),
                format!("{} k", grouped(number(r, "retries_at_2_0") / 1e3)),
            ]
        })
        .collect();
    let head = strings(&["variant", "@90 %", "@200 %", "retries @200 %"]);
    table(&head, &rows)
}

/// A committed figure's table, as EXPERIMENTS.md quotes it.
type Render = fn(&Json) -> String;

/// Each table EXPERIMENTS.md quotes, by the figure it renders.
const TABLES: &[(&str, Render)] = &[
    ("table2_comparison", table2),
    ("fig4_all_algorithms", fig4_table),
    ("fig5a_load_sweep", |f| {
        sweep(f, "load", |x| format!("{:.0}%", x * 100.0))
    }),
    ("fig5b_frequency_sweep", |f| {
        sweep(f, "frequency", |x| format!("{x} Hz"))
    }),
    ("fig6_zipf_sweep", |f| {
        sweep(f, "min inter-arrival", |ms| {
            if ms < 1e3 {
                format!("{ms} ms")
            } else {
                format!("{} s", ms / 1e3)
            }
        })
    }),
    ("ablation_market", ablation_table),
];

/// Why the marked tables of `experiments` are not what `TABLES` renders
/// from the committed figures: each stale table with the one expected,
/// and each table that is not marked exactly once.
fn stale_tables(experiments: &str) -> Vec<String> {
    let mut stale = Vec::new();
    for &(name, render) in TABLES {
        let open = format!("<!-- table: {name} -->\n");
        let mut marked = experiments.split(&open).skip(1);
        let (Some(body), None) = (marked.next(), marked.next()) else {
            stale.push(format!("{name}: not marked exactly once"));
            continue;
        };
        let body = body.split("<!-- /table -->").next().unwrap_or(body);
        let expected = render(&figure(name));
        if body != expected {
            stale.push(format!(
                "{name}: EXPERIMENTS.md's table is not figures/{name}.json's; expected\n{expected}"
            ));
        }
    }
    stale
}

fn experiments() -> String {
    std::fs::read_to_string(repo_root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md")
}

#[test]
fn experiments_tables_are_the_committed_figures() {
    let stale = stale_tables(&experiments());
    assert!(stale.is_empty(), "{}", stale.join("\n"));
}

#[test]
fn a_hand_edited_experiments_number_is_caught() {
    let text = experiments();
    let planted = text.replacen(
        "| QA-NT | best/equal-best | 1 572 |",
        "| QA-NT | best/equal-best | 1 527 |",
        1,
    );
    assert_ne!(planted, text, "the planted row is in EXPERIMENTS.md");
    let stale = stale_tables(&planted);
    assert_eq!(stale.len(), 1, "{stale:?}");
    assert!(
        stale[0].starts_with("fig4_all_algorithms:")
            && stale[0].contains("| QA-NT | best/equal-best | 1 572 | 1.00 |"),
        "{}",
        stale[0]
    );
    let unmarked = text.replacen("<!-- table: ablation_market -->", "", 1);
    assert_eq!(
        stale_tables(&unmarked),
        ["ablation_market: not marked exactly once"]
    );
}
