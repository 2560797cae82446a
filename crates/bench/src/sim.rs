//! The simulator's figures: Tables 2–3, Figs. 3–6, the market ablation
//! and the equitable-allocation extension.

use crate::{fmt_ms, Report, Scale};
use qa_core::MechanismKind;
use qa_sim::config::SimConfig;
use qa_sim::experiments::{run_cell, two_class_trace};
use qa_sim::federation::RunOutcome;
use qa_sim::scenario::Scenario;
use qa_simnet::{json_obj, par_map_indexed_with, DetRng, SimDuration, SimTime};
use qa_workload::arrival::{ArrivalProcess, ZipfProcess};
use qa_workload::{ClassId, Trace};

/// One mechanism's row of Fig. 4 and Table 2.
#[derive(Debug, Clone)]
struct MechanismSummary {
    /// Mechanism display name.
    mechanism: String,
    /// Mean response time in ms.
    mean_response_ms: f64,
    /// Response normalized by QA-NT's.
    normalized_response: f64,
    /// Completed queries.
    completed: u64,
    /// Unserved queries.
    unserved: u64,
    /// Messages per completed query.
    messages_per_query: f64,
}

qa_simnet::impl_to_json!(MechanismSummary {
    mechanism,
    mean_response_ms,
    normalized_response,
    completed,
    unserved,
    messages_per_query
});

/// Fig. 4's rows, one per mechanism, QA-NT first.
#[derive(Debug, Clone)]
struct Fig4Result {
    rows: Vec<MechanismSummary>,
}

qa_simnet::impl_to_json!(Fig4Result { rows });

/// The Fig. 4 (and Table 2) workload: a 0.05 Hz sinusoid whose peak sits
/// slightly below total system capacity ("peek load was slightly below
/// total system capacity" — a ~95 % peak is a ~0.71 average, i.e.
/// 0.75 × 0.95).
fn fig4_workload(config: &SimConfig, secs: u64) -> (Scenario, Trace) {
    let scenario = Scenario::two_class(config.clone());
    let trace = two_class_trace(&scenario, 0.05, 0.95 * 0.75, secs);
    (scenario, trace)
}

/// Folds per-mechanism outcomes (QA-NT first, as in
/// [`MechanismKind::DYNAMIC`]) into the Fig. 4 rows, normalizing every
/// response by QA-NT's.
fn fig4_summarize(outcomes: &[RunOutcome]) -> Fig4Result {
    let qant = &outcomes[0].metrics;
    let rows = outcomes
        .iter()
        .map(|o| MechanismSummary {
            mechanism: o.mechanism.to_string(),
            mean_response_ms: o.metrics.mean_response_ms().unwrap_or(f64::NAN),
            normalized_response: o.metrics.normalized_response_vs(qant).unwrap_or(f64::NAN),
            completed: o.metrics.completed,
            unserved: o.metrics.unserved,
            messages_per_query: o.metrics.messages as f64 / o.metrics.completed.max(1) as f64,
        })
        .collect();
    Fig4Result { rows }
}

/// Table 2: qualitative comparison of query-allocation mechanisms, with
/// the measurable columns backed by an actual run (messages per query and
/// relative performance under a near-capacity sinusoid).
pub(crate) fn table2(scale: Scale, threads: usize) -> Report {
    let (config, secs) = match scale {
        Scale::Ci => (SimConfig::small_test(2007), 25),
        Scale::Full => (SimConfig::paper_defaults(), 90),
    };
    let (scenario, trace) = fig4_workload(&config, secs);
    let outcomes = par_map_indexed_with(threads, &MechanismKind::DYNAMIC, |_, &m| {
        run_cell(&scenario, &trace, m)
    });
    let measured = fig4_summarize(&outcomes);

    let mut r = Report::titled("Table 2 — comparison of query allocation mechanisms");
    let check = |b: bool| if b { "X" } else { "-" }.to_string();
    let measure = |v: Option<f64>, digits| v.map_or("n/a".into(), |v| format!("{v:.digits$}"));
    let (mut rows, mut results) = (Vec::new(), Vec::new());
    for m in MechanismKind::ALL {
        let meas = measured.rows.iter().find(|r| r.mechanism == m.to_string());
        let workload = if m.handles_dynamic_workload() {
            "Dynamic"
        } else {
            "Static"
        };
        let dqo = m.conflicts_with_distributed_query_optimization();
        let (norm, msgs) = (
            meas.map(|r| r.normalized_response),
            meas.map(|r| r.messages_per_query),
        );
        rows.push(vec![
            m.to_string(),
            check(m.is_distributed()),
            workload.to_string(),
            check(dqo),
            check(m.respects_autonomy()),
            measure(norm, 2),
            measure(msgs, 1),
        ]);
        results.push(json_obj! {
            "mechanism": m.to_string(),
            "distributed": m.is_distributed(),
            "workload_type": workload,
            "conflicts_with_dqo": dqo,
            "autonomy": m.respects_autonomy(),
            "measured_normalized_response": norm,
            "measured_messages_per_query": msgs,
        });
    }
    r.table(
        "mechanism|distributed|workload|conflicts DQO|autonomy|norm. resp.|msgs/query",
        &rows,
    );
    r.line(
        "(Markov runs only on static workloads, hence no measured row in the dynamic experiment)",
    );
    r.json("table2_comparison", &results);
    r
}

/// Table 3: the simulation parameters — printed from the actual generated
/// world, so the table is a measurement, not a restatement. The world is
/// the paper's at either scale.
pub(crate) fn table3(_: Scale, threads: usize) -> Report {
    let s = Scenario::table3(SimConfig::paper_defaults());

    // Each table row is an independent measurement over the shared world.
    let stats: [fn(&Scenario) -> f64; 11] = [
        |s| s.hardware.len() as f64,
        |s| s.hardware.iter().filter(|h| h.hash_join).count() as f64,
        |s| s.hardware.iter().map(|h| h.cpu_ghz).sum::<f64>() / s.hardware.len() as f64,
        |s| s.hardware.iter().map(|h| h.io_mbps).sum::<f64>() / s.hardware.len() as f64,
        |s| s.hardware.iter().map(|h| h.buffer_mb).sum::<f64>() / s.hardware.len() as f64,
        |s| s.dataset.num_relations() as f64,
        |s| {
            (0..s.dataset.num_relations())
                .map(|i| {
                    s.dataset
                        .relation(qa_workload::RelationId(i as u32))
                        .size_bytes as f64
                        / (1 << 20) as f64
                })
                .sum::<f64>()
                / s.dataset.num_relations() as f64
        },
        |s| s.dataset.mean_mirrors(),
        |s| s.templates.num_classes() as f64,
        |s| {
            s.templates.iter().map(|t| t.joins as f64).sum::<f64>()
                / s.templates.num_classes() as f64
        },
        |s| s.templates.mean_base_cost().as_millis_f64(),
    ];
    let v = par_map_indexed_with(threads, &stats, |_, f| f(&s));
    let count = |i: usize| v[i] as usize;

    let mut r =
        Report::titled("Table 3 — simulation parameters (measured from the generated world)");
    let rows = [
        (
            "Total size of network",
            format!("{} nodes", count(0)),
            "100 nodes",
        ),
        ("Hash-join capable nodes", count(1).to_string(), "95"),
        ("CPU (avg)", format!("{:.2} GHz", v[2]), "2.3 GHz"),
        ("I/O speed (avg)", format!("{:.1} MB/s", v[3]), "42.5 MB/s"),
        ("Sort/hash buffers (avg)", format!("{:.1} MB", v[4]), "6 MB"),
        ("# of relations", count(5).to_string(), "1,000"),
        ("Relation size (avg)", format!("{:.1} MB", v[6]), "10.5 MB"),
        ("Mirrors per relation (avg)", format!("{:.1}", v[7]), "5"),
        ("# of query classes", count(8).to_string(), "100"),
        ("Joins per query (avg)", format!("{:.1}", v[9]), "24"),
        (
            "Best execution time (avg)",
            format!("{:.0} ms", v[10]),
            "2,000 ms",
        ),
    ];
    let rows = rows.map(|(name, measured, paper)| vec![name.into(), measured, paper.into()]);
    r.table("parameter|measured|paper", &rows);
    let table = json_obj! {
        "num_nodes": count(0),
        "hash_join_nodes": count(1),
        "cpu_ghz_mean": v[2],
        "io_mbps_mean": v[3],
        "buffer_mb_mean": v[4],
        "num_relations": count(5),
        "relation_mb_mean": v[6],
        "mean_mirrors": v[7],
        "num_classes": count(8),
        "joins_mean": v[9],
        "base_cost_ms_mean": v[10],
    };
    r.json("table3_parameters", &table);
    r
}

/// Fig. 3's series: arrivals per period for each class.
#[derive(Debug, Clone)]
struct Fig3Result {
    /// Bin width in ms (500 in the paper).
    period_ms: u64,
    /// Q1 arrivals per bin.
    q1_per_period: Vec<u64>,
    /// Q2 arrivals per bin.
    q2_per_period: Vec<u64>,
}

qa_simnet::impl_to_json!(Fig3Result {
    period_ms,
    q1_per_period,
    q2_per_period
});

/// Figure 3: an example sinusoid workload — Q1/Q2 arrivals per
/// half-second for the canonical two-class workload (0.05 Hz, 90° phase
/// offset, peak Q1 = 2 × peak Q2).
pub(crate) fn fig3(scale: Scale, threads: usize) -> Report {
    let (config, secs) = match scale {
        Scale::Ci => (SimConfig::small_test(2007), 40),
        Scale::Full => (SimConfig::paper_defaults(), 60),
    };
    let scenario = Scenario::two_class(config.clone());
    let trace = two_class_trace(&scenario, 0.05, 0.6, secs);
    let classes = [ClassId(0), ClassId(1)];
    let mut series = par_map_indexed_with(threads, &classes, |_, &c| {
        trace.arrivals_per_period(config.qant.period, Some(c))
    })
    .into_iter();
    let f = Fig3Result {
        period_ms: config.qant.period.as_millis(),
        q1_per_period: series.next().expect("two series"),
        q2_per_period: series.next().expect("two series"),
    };

    let title = "Figure 3 — example sinusoid workload (arrivals per";
    let mut r = Report::titled(format!("{title} {} ms)", f.period_ms));
    let rows: Vec<Vec<String>> = f
        .q1_per_period
        .iter()
        .enumerate()
        .map(|(i, &q1)| {
            let t = i as u64 * f.period_ms;
            let q2 = f.q2_per_period.get(i).copied().unwrap_or(0);
            let bar = "#".repeat((q1 + q2) as usize / 2);
            vec![format!("{t} ms"), q1.to_string(), q2.to_string(), bar]
        })
        .collect();
    r.table("t|Q1|Q2|total", &rows);

    let q1: u64 = f.q1_per_period.iter().sum();
    let q2: u64 = f.q2_per_period.iter().sum();
    let ratio = q1 as f64 / q2.max(1) as f64;
    r.line(format!(
        "total Q1 = {q1}, total Q2 = {q2} (target ratio 2:1 ≈ {ratio:.2})"
    ));
    r.json("fig3_sinusoid_workload", &f);
    r
}

/// Figure 4: normalized average query response time of all algorithms.
///
/// 0.05 Hz sinusoid with peak load slightly below total system capacity;
/// every dynamic mechanism runs the same trace; responses are normalized
/// by QA-NT's (the paper's y-axis).
pub(crate) fn fig4(scale: Scale, threads: usize) -> Report {
    let (config, secs) = match scale {
        Scale::Ci => (SimConfig::small_test(2007), 30),
        Scale::Full => (SimConfig::paper_defaults(), 120),
    };
    let (scenario, trace) = fig4_workload(&config, secs);
    let outcomes = par_map_indexed_with(threads, &MechanismKind::DYNAMIC, |_, &m| {
        run_cell(&scenario, &trace, m)
    });
    let f = fig4_summarize(&outcomes);

    let mut r = Report::titled(
        "Figure 4 — normalized average query response time (0.05 Hz sinusoid, peak ≈ capacity)",
    );
    let rows: Vec<Vec<String>> = f
        .rows
        .iter()
        .map(|m| {
            vec![
                m.mechanism.clone(),
                fmt_ms(m.mean_response_ms),
                format!("{:.2}", m.normalized_response),
                m.completed.to_string(),
                m.unserved.to_string(),
                format!("{:.1}", m.messages_per_query),
            ]
        })
        .collect();
    r.table(
        "mechanism|mean (ms)|normalized|completed|unserved|msgs/query",
        &rows,
    );
    r.line(
        "paper shape: QA-NT & Greedy far ahead; BNQRD mid; two-probes, round-robin, random worst",
    );
    r.json("fig4_all_algorithms", &f);
    r
}

/// One point of a Greedy-vs-QA-NT sweep (Figs. 5a, 5b and 6).
#[derive(Debug, Clone)]
struct SweepPoint {
    /// The swept parameter (load fraction for 5a, frequency for 5b,
    /// inter-arrival ms for Fig. 6).
    x: f64,
    /// QA-NT mean response (ms).
    qant_ms: f64,
    /// Greedy mean response (ms).
    greedy_ms: f64,
    /// Greedy normalized by QA-NT (the paper's y-axis; > 1 = QA-NT wins).
    normalized_greedy: f64,
    /// QA-NT unserved queries.
    qant_unserved: u64,
    /// Greedy unserved queries.
    greedy_unserved: u64,
}

qa_simnet::impl_to_json!(SweepPoint {
    x,
    qant_ms,
    greedy_ms,
    normalized_greedy,
    qant_unserved,
    greedy_unserved
});

/// Runs the QA-NT/Greedy pair on one trace and folds both outcomes into a
/// [`SweepPoint`] at abscissa `x`. One sweep cell.
fn sweep_point(scenario: &Scenario, trace: &Trace, x: f64) -> SweepPoint {
    let q = run_cell(scenario, trace, MechanismKind::QaNt);
    let g = run_cell(scenario, trace, MechanismKind::Greedy);
    SweepPoint {
        x,
        qant_ms: q.metrics.mean_response_ms().unwrap_or(f64::NAN),
        greedy_ms: g.metrics.mean_response_ms().unwrap_or(f64::NAN),
        normalized_greedy: g
            .metrics
            .normalized_response_vs(&q.metrics)
            .unwrap_or(f64::NAN),
        qant_unserved: q.metrics.unserved,
        greedy_unserved: g.metrics.unserved,
    }
}

/// One Fig. 5a cell: the QA-NT/Greedy pair at load fraction `frac`
/// (0.05 Hz sinusoid).
fn fig5a_point(scenario: &Scenario, frac: f64, secs: u64) -> SweepPoint {
    let trace = two_class_trace(scenario, 0.05, frac, secs);
    sweep_point(scenario, &trace, frac)
}

/// One Fig. 5b cell: the QA-NT/Greedy pair at sinusoid frequency
/// `freq_hz` (80 % average load).
fn fig5b_point(scenario: &Scenario, freq_hz: f64, secs: u64) -> SweepPoint {
    let trace = two_class_trace(scenario, freq_hz, 0.8, secs);
    sweep_point(scenario, &trace, freq_hz)
}

/// The rows of a Greedy-vs-QA-NT sweep, each point's abscissa rendered by
/// `x`.
fn sweep_rows(pts: &[SweepPoint], x: impl Fn(f64) -> String) -> Vec<Vec<String>> {
    let row = |p: &SweepPoint| {
        let ratio = format!("{:.3}", p.normalized_greedy);
        vec![x(p.x), fmt_ms(p.qant_ms), fmt_ms(p.greedy_ms), ratio]
    };
    pts.iter().map(row).collect()
}

/// Figure 5a: Greedy's normalized response time vs average workload
/// (10–300 % of total system capacity, 0.05 Hz sinusoid).
pub(crate) fn fig5a(scale: Scale, threads: usize) -> Report {
    let (config, fractions, secs): (SimConfig, Vec<f64>, u64) = match scale {
        Scale::Ci => (SimConfig::small_test(2007), vec![0.3, 0.8, 1.5], 20),
        Scale::Full => (
            SimConfig::paper_defaults(),
            vec![0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0],
            60,
        ),
    };
    let scenario = Scenario::two_class(config);
    let pts = par_map_indexed_with(threads, &fractions, |_, &f| fig5a_point(&scenario, f, secs));

    let mut r = Report::titled(
        "Figure 5a — Greedy normalized response vs average load (fraction of capacity)",
    );
    let mut rows = sweep_rows(&pts, |x| format!("{:.0}%", x * 100.0));
    for (row, p) in rows.iter_mut().zip(&pts) {
        row.extend([p.qant_unserved.to_string(), p.greedy_unserved.to_string()]);
    }
    r.table(
        "load|QA-NT (ms)|Greedy (ms)|greedy/qant|qant uns.|greedy uns.",
        &rows,
    );
    r.line("paper shape: ratio < 1 at light load (greedy ~5% faster), > 1 beyond the crossover");
    r.json("fig5a_load_sweep", &pts);
    r
}

/// Figure 5b: Greedy's normalized response vs sinusoid frequency
/// (0.05–2 Hz at 80 % average load).
pub(crate) fn fig5b(scale: Scale, threads: usize) -> Report {
    let (config, freqs, secs): (SimConfig, Vec<f64>, u64) = match scale {
        Scale::Ci => (SimConfig::small_test(2007), vec![0.05, 0.5], 20),
        Scale::Full => (
            SimConfig::paper_defaults(),
            vec![0.05, 0.1, 0.25, 0.5, 1.0, 2.0],
            60,
        ),
    };
    let scenario = Scenario::two_class(config);
    let pts = par_map_indexed_with(threads, &freqs, |_, &f| fig5b_point(&scenario, f, secs));

    let mut r =
        Report::titled("Figure 5b — Greedy normalized response vs workload frequency (80% load)");
    let rows = sweep_rows(&pts, |x| format!("{x:.2} Hz"));
    r.table("frequency|QA-NT (ms)|Greedy (ms)|greedy/qant", &rows);
    r.line("paper shape: QA-NT's edge shrinks as frequency rises (market adaptation lags)");
    r.json("fig5b_frequency_sweep", &pts);
    r
}

/// Fig. 5c's series: Q1 arrivals and Q1 completions per period under
/// QA-NT and Greedy.
#[derive(Debug, Clone)]
struct Fig5cResult {
    /// Bin width (ms).
    period_ms: u64,
    /// Q1 arrivals per bin.
    arrivals_q1: Vec<u64>,
    /// Q1 completions per bin under QA-NT.
    executed_q1_qant: Vec<u64>,
    /// Q1 completions per bin under Greedy.
    executed_q1_greedy: Vec<u64>,
}

qa_simnet::impl_to_json!(Fig5cResult {
    period_ms,
    arrivals_q1,
    executed_q1_qant,
    executed_q1_greedy
});

/// Figure 5c: Q1 arrivals vs Q1 executions per half-second, near system
/// capacity — QA-NT tracks the load curve, Greedy falls behind.
pub(crate) fn fig5c(scale: Scale, threads: usize) -> Report {
    let (config, secs) = match scale {
        Scale::Ci => (SimConfig::small_test(2007), 15),
        Scale::Full => (SimConfig::paper_defaults(), 30),
    };
    // 0.05 Hz sinusoid at 95 % of capacity.
    let scenario = Scenario::two_class(config.clone());
    let trace = two_class_trace(&scenario, 0.05, 0.95, secs);
    let mechanisms = [MechanismKind::QaNt, MechanismKind::Greedy];
    let outcomes =
        par_map_indexed_with(threads, &mechanisms, |_, &m| run_cell(&scenario, &trace, m));
    let q1 = |o: &RunOutcome| o.metrics.executed_per_period_of(ClassId(0)).to_vec();
    let f = Fig5cResult {
        period_ms: config.qant.period.as_millis(),
        arrivals_q1: trace.arrivals_per_period(config.qant.period, Some(ClassId(0))),
        executed_q1_qant: q1(&outcomes[0]),
        executed_q1_greedy: q1(&outcomes[1]),
    };

    let title = "Figure 5c — Q1 arrivals vs executions per";
    let mut r = Report::titled(format!("{title} {} ms window", f.period_ms));
    let bins = f
        .arrivals_q1
        .len()
        .max(f.executed_q1_qant.len())
        .max(f.executed_q1_greedy.len());
    let get = |v: &Vec<u64>, i: usize| v.get(i).copied().unwrap_or(0);
    let rows: Vec<Vec<String>> = (0..bins)
        .map(|i| {
            vec![
                format!("{} ms", i as u64 * f.period_ms),
                get(&f.arrivals_q1, i).to_string(),
                get(&f.executed_q1_qant, i).to_string(),
                get(&f.executed_q1_greedy, i).to_string(),
            ]
        })
        .collect();
    r.table("t|Q1 arrivals|QA-NT exec|Greedy exec", &rows);

    // Tracking error: total absolute deviation from the arrival curve.
    let err = |ex: &Vec<u64>| -> u64 {
        (0..bins)
            .map(|i| get(&f.arrivals_q1, i).abs_diff(get(ex, i)))
            .sum()
    };
    r.line(format!(
        "tracking error (Σ|arrivals−executed|): QA-NT {}, Greedy {} (paper: QA-NT tracks closely)",
        err(&f.executed_q1_qant),
        err(&f.executed_q1_greedy)
    ));
    r.json("fig5c_tracking", &f);
    r
}

/// The Fig. 6 world: the Table-3 generator with the §5.1 threshold
/// engaged.
///
/// The zipf world has 100 classes whose execution times (≈2–8 s) dwarf
/// the 500 ms period, so per-period integer supply is fractional for
/// every class and strict admission control mostly adds quantization
/// friction. This is exactly the deployment the paper's §5.1 threshold
/// remark addresses ("track query prices but only use them ... if they
/// are above a specific threshold"), so the Fig. 6 runs use it.
fn fig6_scenario(config: &SimConfig) -> Scenario {
    let mut config = config.clone();
    config.qant.price_threshold = Some(2.0);
    config.qant.renormalize_prices = false; // incompatible with thresholds
    Scenario::table3(config)
}

/// One Fig. 6 cell: zipf trace at minimum inter-arrival `gap_ms`,
/// truncated to roughly `max_queries` arrivals.
fn fig6_point(scenario: &Scenario, gap_ms: u64, max_queries: usize) -> SweepPoint {
    let num_classes = scenario.templates.num_classes();
    let process = ZipfProcess::paper(num_classes, SimDuration::from_millis(gap_ms));
    let mut rng = DetRng::seed_from_u64(scenario.config.seed).derive("zipf-trace");
    // Horizon sized to produce roughly `max_queries` arrivals.
    let horizon_s =
        (max_queries as f64 * process.mean_gap_secs() / num_classes as f64).clamp(10.0, 3_600.0);
    let horizon = SimTime::from_micros((horizon_s.max(0.0) * 1e6) as u64);
    let mut arrivals = process.generate(horizon, &mut rng);
    arrivals.sort_by_key(|(t, c)| (*t, c.index()));
    arrivals.truncate(max_queries);
    let trace = Trace::from_arrivals(arrivals, scenario.config.num_nodes, &mut rng);
    sweep_point(scenario, &trace, gap_ms as f64)
}

/// Figure 6: the heterogeneous zipf workload — Greedy's normalized
/// response vs per-class mean inter-arrival time (Table 3 world: 100
/// classes, 0–49 joins, 1 000 relations, ~5 mirrors).
pub(crate) fn fig6(scale: Scale, threads: usize) -> Report {
    let (config, gaps, max_queries): (SimConfig, Vec<u64>, usize) = match scale {
        Scale::Ci => {
            let mut c = SimConfig::small_test(2007);
            c.num_nodes = 20;
            (c, vec![2_000, 10_000], 400)
        }
        Scale::Full => (
            SimConfig::paper_defaults(),
            vec![10, 100, 1_000, 2_500, 5_000, 10_000, 14_000, 17_000, 20_000],
            10_000,
        ),
    };
    let scenario = fig6_scenario(&config);
    let pts = par_map_indexed_with(threads, &gaps, |_, &gap| {
        fig6_point(&scenario, gap, max_queries)
    });

    let mut r = Report::titled(
        "Figure 6 — zipf workload: Greedy normalized response vs inter-arrival time",
    );
    let rows = sweep_rows(&pts, |x| format!("{x:.0} ms"));
    r.table("inter-arrival|QA-NT (ms)|Greedy (ms)|greedy/qant", &rows);
    r.line(
        "paper shape: QA-NT gains 13–26% under overload, gains vanish once the system is unloaded",
    );
    r.json("fig6_zipf_sweep", &pts);
    r
}

/// One ablation cell: QA-NT under `config` at load `frac`; returns (mean
/// ms, retries). The scenario rebuild is a pure function of the config,
/// so cells are independent.
fn variant_cell(config: &SimConfig, frac: f64, secs: u64) -> (f64, u64) {
    let scenario = Scenario::two_class(config.clone());
    let trace = two_class_trace(&scenario, 0.05, frac, secs);
    let r = run_cell(&scenario, &trace, MechanismKind::QaNt);
    (
        r.metrics.mean_response_ms().unwrap_or(f64::NAN),
        r.metrics.retries,
    )
}

/// The market design choices DESIGN.md calls out, one variant each:
///
/// * period-end price **renormalization** — without it long overloads
///   saturate the floor/ceiling clamps and erase relative prices,
/// * adjustment speed **λ**,
/// * the §5.1 **price-threshold** deployment mode.
///
/// Each variant runs the near-capacity and 2× overload sinusoid scenarios;
/// lower mean response is better.
pub(crate) fn ablation(scale: Scale, threads: usize) -> Report {
    let (base, secs) = match scale {
        Scale::Ci => {
            let mut c = SimConfig::small_test(2007);
            c.num_nodes = 20;
            (c, 20)
        }
        Scale::Full => (SimConfig::paper_defaults(), 60),
    };
    let variant = |name: &'static str, edit: fn(&mut SimConfig)| {
        let mut c = base.clone();
        edit(&mut c);
        (name, c)
    };
    let variants = [
        variant("default (renorm, λ=0.1)", |_| {}),
        variant("no renormalization", |c| c.qant.renormalize_prices = false),
        variant("λ = 0.02 (slow)", |c| c.qant.pricer.lambda = 0.02),
        variant("λ = 0.30 (fast)", |c| c.qant.pricer.lambda = 0.3),
        variant("price threshold = 5 (§5.1 mode)", |c| {
            c.qant.price_threshold = Some(5.0);
            c.qant.renormalize_prices = false;
        }),
    ];

    // One cell per (variant, load): 10 independent runs.
    let cells: Vec<(usize, f64)> = (0..variants.len())
        .flat_map(|i| [(i, 0.9), (i, 2.0)])
        .collect();
    let cell_out = par_map_indexed_with(threads, &cells, |_, &(i, frac)| {
        variant_cell(&variants[i].1, frac, secs)
    });
    let mut r = Report::titled("Market-design ablation — QA-NT mean response (ms)");
    let (mut rows, mut results) = (Vec::new(), Vec::new());
    for (i, (name, _)) in variants.iter().enumerate() {
        let ((at_0_9, _), (at_2_0, retries)) = (cell_out[2 * i], cell_out[2 * i + 1]);
        let retries_s = retries.to_string();
        rows.push(vec![
            name.to_string(),
            fmt_ms(at_0_9),
            fmt_ms(at_2_0),
            retries_s,
        ]);
        results.push(json_obj! {
            "variant": name,
            "mean_ms_at_0_9": at_0_9,
            "mean_ms_at_2_0": at_2_0,
            "retries_at_2_0": retries,
        });
    }
    r.table("variant|@90% load|@200% load|retries @200%", &rows);
    r.json("ablation_market", &results);
    r
}

/// Extension: equitable allocation (§6 future work).
///
/// The paper's future work names "the constraint of equitable allocation,
/// in which the utility (satisfaction) of all nodes is equalized". This
/// figure measures how evenly each mechanism treats the federation's
/// *client* nodes under overload: Jain's fairness index over the
/// per-origin mean response times (1.0 = perfectly even).
pub(crate) fn fairness(scale: Scale, threads: usize) -> Report {
    let (config, secs, frac) = match scale {
        Scale::Ci => {
            let mut c = SimConfig::small_test(2007);
            c.num_nodes = 20;
            (c, 25, 1.5)
        }
        Scale::Full => (SimConfig::paper_defaults(), 60, 1.5),
    };
    let scenario = Scenario::two_class(config);
    let trace = two_class_trace(&scenario, 0.05, frac, secs);
    let mut r = Report::titled(format!(
        "Equitable-allocation extension — {} queries at {:.0}% of capacity",
        trace.len(),
        frac * 100.0
    ));

    let cells = par_map_indexed_with(threads, &MechanismKind::DYNAMIC, |_, &m| {
        let out = run_cell(&scenario, &trace, m);
        let mean = out.metrics.mean_response_ms().unwrap_or(f64::NAN);
        (m, mean, out.metrics.origin_fairness().unwrap_or(f64::NAN))
    });
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|(m, mean, jain)| vec![m.to_string(), fmt_ms(*mean), format!("{jain:.4}")])
        .collect();
    r.table("mechanism|mean (ms)|Jain fairness", &rows);
    r.line(
        "Higher is fairer. The negotiation-based mechanisms (QA-NT, Greedy, two-probes)\n\
         treat origins near-symmetrically; blind balancing (random/round-robin) spreads\n\
         load but not *outcomes*, since capable-node sets differ per class.",
    );
    let results: Vec<_> = cells
        .iter()
        .map(|(m, mean, jain)| {
            json_obj! { "mechanism": m.to_string(), "mean_response_ms": mean, "origin_fairness": jain }
        })
        .collect();
    r.json("ext_fairness", &results);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_simnet::json::Json;

    fn cfg() -> SimConfig {
        SimConfig::small_test(2007)
    }

    /// The one JSON file `report` writes.
    fn file(report: Report) -> Json {
        let [(_, text)] = &report.files[..] else {
            panic!("one file")
        };
        Json::parse(text).expect("the row's JSON parses")
    }

    /// The `u64` series `key` of `json`.
    fn series(json: &Json, key: &str) -> Vec<u64> {
        json.field(key).expect("a series")
    }

    #[test]
    fn fig3_waveform_oscillates_with_phase_offset() {
        // The CI row: 10 nodes, 0.05 Hz at 60 % load for 40 s.
        let r = file(fig3(Scale::Ci, 1));
        assert_eq!(r.field::<u64>("period_ms"), Ok(500));
        let (q1, q2) = (series(&r, "q1_per_period"), series(&r, "q2_per_period"));
        let max_q1 = *q1.iter().max().unwrap();
        let min_q1 = *q1.iter().min().unwrap();
        assert!(
            max_q1 >= 3 * (min_q1 + 1) / 2,
            "waveform too flat: {max_q1} vs {min_q1}"
        );
        // Total Q1 ≈ 2 × total Q2.
        let ratio = q1.iter().sum::<u64>() as f64 / q2.iter().sum::<u64>().max(1) as f64;
        // Expected 2.0; wide tolerance for a short, small-sample trace.
        assert!((1.3..3.0).contains(&ratio), "Q1/Q2 ratio {ratio}");
    }

    #[test]
    fn fig4_qant_first_and_normalized_to_one() {
        let (scenario, trace) = fig4_workload(&cfg(), 20);
        let outcomes: Vec<_> = MechanismKind::DYNAMIC
            .iter()
            .map(|&m| run_cell(&scenario, &trace, m))
            .collect();
        let r = fig4_summarize(&outcomes);
        assert_eq!(r.rows.len(), 6);
        assert_eq!(r.rows[0].mechanism, "QA-NT");
        assert!((r.rows[0].normalized_response - 1.0).abs() < 1e-9);
        // Load balancers should be slower than QA-NT near capacity.
        let random = r.rows.iter().find(|x| x.mechanism == "Random").unwrap();
        assert!(
            random.normalized_response > 1.0,
            "{}",
            random.normalized_response
        );
    }

    #[test]
    fn fig5a_sweep_produces_monotone_x() {
        let scenario = Scenario::two_class(cfg());
        let pts: Vec<_> = [0.3, 1.0]
            .iter()
            .map(|&f| fig5a_point(&scenario, f, 15))
            .collect();
        assert!(pts[0].x < pts[1].x);
        assert!(pts.iter().all(|p| p.qant_ms.is_finite()));
    }

    #[test]
    fn fig5c_series_cover_the_horizon() {
        // The CI row: 10 nodes, 15 s.
        let r = file(fig5c(Scale::Ci, 1));
        let arrivals = series(&r, "arrivals_q1");
        let executed = series(&r, "executed_q1_qant");
        assert!(!arrivals.is_empty());
        assert!(!executed.is_empty());
        let arr: u64 = arrivals.iter().sum();
        let done: u64 = executed.iter().sum();
        assert!(done <= arr + 1);
        assert!(done > 0);
    }

    #[test]
    fn fig6_runs_at_small_scale() {
        let mut c = cfg();
        c.num_nodes = 20;
        let scenario = fig6_scenario(&c);
        for gap_ms in [2_000, 10_000] {
            let p = fig6_point(&scenario, gap_ms, 300);
            assert!(p.qant_ms.is_finite() && p.qant_ms > 0.0, "{p:?}");
        }
    }
}
