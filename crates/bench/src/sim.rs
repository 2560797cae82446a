//! The simulator's figures: Tables 2–3, Figs. 3–6, the market ablation
//! and the equitable-allocation extension.

use crate::{fmt_ms, Report, Scale};
use qa_core::MechanismKind;
use qa_sim::config::SimConfig;
use qa_sim::experiments::{
    fig4_summarize, fig4_workload, fig5a_point, fig5b_point, fig5c_from_outcomes, fig5c_workload,
    fig6_point, fig6_scenario, run_cell, two_class_trace, Fig3Result, SweepPoint,
};
use qa_sim::scenario::Scenario;
use qa_simnet::{json_obj, par_map_indexed_with};
use qa_workload::ClassId;

/// Table 2: qualitative comparison of query-allocation mechanisms, with
/// the measurable columns backed by an actual run (messages per query and
/// relative performance under a near-capacity sinusoid).
pub fn table2(scale: Scale, threads: usize) -> Report {
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
pub fn table3(_: Scale, threads: usize) -> Report {
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

/// Figure 3: an example sinusoid workload — Q1/Q2 arrivals per
/// half-second for the canonical two-class workload (0.05 Hz, 90° phase
/// offset, peak Q1 = 2 × peak Q2).
pub fn fig3(scale: Scale, threads: usize) -> Report {
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
pub fn fig4(scale: Scale, threads: usize) -> Report {
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
pub fn fig5a(scale: Scale, threads: usize) -> Report {
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
pub fn fig5b(scale: Scale, threads: usize) -> Report {
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

/// Figure 5c: Q1 arrivals vs Q1 executions per half-second, near system
/// capacity — QA-NT tracks the load curve, Greedy falls behind.
pub fn fig5c(scale: Scale, threads: usize) -> Report {
    let (config, secs) = match scale {
        Scale::Ci => (SimConfig::small_test(2007), 15),
        Scale::Full => (SimConfig::paper_defaults(), 30),
    };
    let (scenario, trace) = fig5c_workload(&config, secs);
    let mechanisms = [MechanismKind::QaNt, MechanismKind::Greedy];
    let outcomes =
        par_map_indexed_with(threads, &mechanisms, |_, &m| run_cell(&scenario, &trace, m));
    let f = fig5c_from_outcomes(&config, &trace, &outcomes[0], &outcomes[1]);

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

/// Figure 6: the heterogeneous zipf workload — Greedy's normalized
/// response vs per-class mean inter-arrival time (Table 3 world: 100
/// classes, 0–49 joins, 1 000 relations, ~5 mirrors).
pub fn fig6(scale: Scale, threads: usize) -> Report {
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
/// * per-node initial price **jitter** (σ = 0 vs default 1.5) — without it
///   identical sellers flip their supply priorities in lockstep,
/// * period-end price **renormalization** — without it long overloads
///   saturate the floor/ceiling clamps and erase relative prices,
/// * adjustment speed **λ**,
/// * the §5.1 **price-threshold** deployment mode.
///
/// Each variant runs the near-capacity and 2× overload sinusoid scenarios;
/// lower mean response is better.
pub fn ablation(scale: Scale, threads: usize) -> Report {
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
        variant("default (jitter 1.5, renorm, λ=0.1)", |_| {}),
        variant("no price jitter", |c| c.qant.initial_price_jitter = 0.0),
        variant("no renormalization", |c| c.qant.renormalize_prices = false),
        variant("λ = 0.02 (slow)", |c| c.qant.pricer.lambda = 0.02),
        variant("λ = 0.30 (fast)", |c| c.qant.pricer.lambda = 0.3),
        variant("price threshold = 5 (§5.1 mode)", |c| {
            c.qant.price_threshold = Some(5.0);
            c.qant.renormalize_prices = false;
        }),
    ];

    // One cell per (variant, load): 12 independent runs.
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
pub fn fairness(scale: Scale, threads: usize) -> Report {
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
