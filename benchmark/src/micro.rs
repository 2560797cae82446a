//! Unit-cost probes: one public call of a layer on a fixed input, timed
//! from outside. They run in every traced run so each workload's result
//! carries them; the sim workloads multiply three of them by the run's
//! exact counts to model where an opaque run's time goes.

use crate::{median, Outcome};
use qa_cluster::FedConfig;
use qa_core::{QantConfig, QantNode};
use qa_economics::{
    solve_supply_greedy, solve_supply_greedy_cached, DensityOrderCache, LinearCapacitySet,
    NonTatonnementPricer, PriceVector, PricerConfig, QuantityVector,
};
use qa_minidb::Database;
use qa_net::wire::CLIENT_NODE;
use qa_net::{ConnConfig, Connection, WireMsg};
use qa_sim::config::BrokerConfig;
use qa_sim::metrics::RunMetrics;
use qa_sim::BrokerTier;
use qa_simnet::telemetry::{CountingSink, PriceReason, Telemetry, TelemetryEvent};
use qa_simnet::{par_for_each_chunk_mut, EventQueue, SimDuration, SimTime};
use qa_workload::{ClassId, NodeId};
use std::hint::black_box;
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Time budget of one probe.
const PROBE_BUDGET: Duration = Duration::from_millis(40);

/// The unit costs the modelled shares are built from.
pub struct UnitCosts {
    pub begin_period_ns: f64,
    pub period_end_ns: f64,
    pub schedule_pop_ns: f64,
}

/// Mean ns per call of `f`: the fastest of the batches that fit the
/// probe budget, after a warm-up call (noise only ever adds time).
fn time_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    let warm = Instant::now();
    black_box(f());
    let estimate = warm.elapsed().as_secs_f64().max(1e-9);
    let batch = ((PROBE_BUDGET.as_secs_f64() / 8.0 / estimate) as u64).clamp(1, 1 << 20);
    let started = Instant::now();
    let mut best = f64::INFINITY;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        best = best.min(t.elapsed().as_nanos() as f64 / batch as f64);
        if started.elapsed() >= PROBE_BUDGET {
            return best;
        }
    }
}

fn costs(k: usize) -> Vec<Option<f64>> {
    (0..k)
        .map(|i| (i % 10 != 9).then(|| 50.0 + (i as f64 * 37.0) % 2_000.0))
        .collect()
}

fn probe_qant(out: &mut Outcome) -> f64 {
    // Two classes, like every sim workload here.
    let unit_costs = [Some(120.0), Some(340.0)];
    let mut node = QantNode::new(2, QantConfig::default());
    let begin = time_ns(|| node.begin_period(black_box(&unit_costs), None));
    let request = time_ns(|| node.on_request(black_box(ClassId(0))));
    out.set("qant.begin_period_ns", begin);
    out.set("qant.on_request_ns", request);
    begin
}

fn probe_supply(out: &mut Outcome) {
    for k in [2usize, 100] {
        let set = LinearCapacitySet::new(costs(k), 500.0);
        let prices = PriceVector::from_prices((0..k).map(|i| 0.5 + (i as f64 % 7.0)).collect());
        let mut cache = DensityOrderCache::new();
        out.set(
            &format!("supply.greedy_cached_ns.k{k}"),
            time_ns(|| solve_supply_greedy_cached(black_box(&prices), &set, None, &mut cache)),
        );
        if k == 100 {
            out.set(
                "supply.greedy_uncached_ns.k100",
                time_ns(|| solve_supply_greedy(black_box(&prices), &set, None)),
            );
        }
    }
}

fn probe_pricer(out: &mut Outcome) -> f64 {
    let leftover = QuantityVector::from_counts(vec![1, 0]);
    let mut pricer = NonTatonnementPricer::new(2, PricerConfig::default());
    let period_end = time_ns(|| pricer.on_period_end(black_box(&leftover)));
    out.set("pricer.period_end_ns", period_end);

    // 64 nodes refusing 1..=24 requests each: the deferred batch replay
    // against the same refusals applied one at a time. Both per refusal.
    let counts: Vec<u64> = (0..64u64).map(|i| 1 + (i * 7) % 24).collect();
    let refusals: u64 = counts.iter().sum();
    let mut pricers: Vec<NonTatonnementPricer> = (0..64)
        .map(|_| NonTatonnementPricer::new(2, PricerConfig::default()))
        .collect();
    let batch = time_ns(|| {
        let mut refs: Vec<&mut NonTatonnementPricer> = pricers.iter_mut().collect();
        NonTatonnementPricer::on_rejections_batch(&mut refs, 0, black_box(&counts));
    });
    out.set("pricer.rejections_batch_ns", batch / refusals as f64);
    let eager = time_ns(|| {
        for (p, &c) in pricers.iter_mut().zip(&counts) {
            for _ in 0..c {
                p.on_rejection(black_box(0));
            }
        }
    });
    out.set("pricer.reject_eager_ns", eager / refusals as f64);
    period_end
}

/// Schedule-then-pop cost per event at a working set of `n` events.
fn schedule_pop_ns(n: u64) -> f64 {
    time_ns(|| {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..n {
            // Scattered, not sorted, insertion order.
            q.schedule(SimTime::from_micros((i * 7919) % (16 * n)), i);
        }
        let mut acc = 0u64;
        while let Some(ev) = q.pop() {
            acc = acc.wrapping_add(ev.payload);
        }
        acc
    }) / n as f64
}

fn probe_shard_tier(out: &mut Outcome, threads: usize) {
    const SHARDS: usize = 32;
    let shard_metrics: Vec<RunMetrics> = (0..SHARDS)
        .map(|s| {
            let mut m = RunMetrics::new(SimDuration::from_millis(500), 2);
            for i in 0..500u64 {
                m.record_completion_from(
                    ClassId((i % 2) as u32),
                    NodeId(((s * 37 + i as usize) % 312) as u32),
                    SimTime::from_millis(i * 16),
                    SimTime::from_millis(i * 16 + 900),
                );
            }
            m
        })
        .collect();
    let merge = time_ns(|| {
        let mut acc = shard_metrics[0].clone();
        for m in &shard_metrics[1..] {
            acc.merge_from(black_box(m));
        }
        acc
    });
    out.set("sharded.merge_us", merge / 1e3);

    let home_shards: Vec<Vec<usize>> = (0..2).map(|_| (0..SHARDS).collect()).collect();
    let supply: Vec<Vec<u64>> = (0..SHARDS as u64)
        .map(|s| (0..2u64).map(|k| 3 + (s * 7 + k) % 20).collect())
        .collect();
    let lnp: Vec<Vec<f64>> = (0..SHARDS)
        .map(|s| {
            (0..2)
                .map(|k| ((s * 13 + k * 5) % 17) as f64 / 8.0 - 1.0)
                .collect()
        })
        .collect();
    let demand = [700u64, 350];
    for (name, config) in [
        ("parent.clear_us.qant", BrokerConfig::qant()),
        ("parent.clear_us.walras", BrokerConfig::walras()),
    ] {
        let mut tier = BrokerTier::new(2, &config, Telemetry::disabled());
        let mut weights: Vec<Vec<f64>> = (0..2).map(|_| vec![1.0; SHARDS]).collect();
        let ns = time_ns(|| {
            tier.clear_window(
                black_box(&home_shards),
                &supply,
                &lnp,
                black_box(&demand),
                &mut weights,
            )
        });
        out.set(name, ns / 1e3);
    }

    let mut chunks = [0u8; SHARDS];
    let fanout = time_ns(|| par_for_each_chunk_mut(threads, &mut chunks, |_, c| c[0] += 1));
    out.set("par.fanout_us", fanout / 1e3);
}

fn probe_telemetry(out: &mut Outcome) {
    let event = || TelemetryEvent::PriceAdjusted {
        node: black_box(3),
        class: 7,
        old: 1.0,
        new: 1.1,
        reason: PriceReason::Rejection,
    };
    let disabled = Telemetry::disabled();
    out.set(
        "telemetry.emit_disabled_ns",
        time_ns(|| disabled.emit(event)),
    );
    let enabled = Telemetry::with_sink(Box::new(CountingSink::new()));
    out.set("telemetry.emit_enabled_ns", time_ns(|| enabled.emit(event)));
}

/// The fleet deployment's first evaluable class, instantiated, with its
/// capable nodes.
fn fleet_query(fed: &FedConfig) -> (Vec<usize>, u32, String) {
    let spec = fed.spec();
    let class = spec
        .classes
        .iter()
        .find(|c| !spec.capable_nodes(c.id).is_empty())
        .expect("ClusterSpec::generate keeps every class evaluable");
    let mid = (class.const_range.0 + class.const_range.1) / 2;
    (
        spec.capable_nodes(class.id),
        class.id.0,
        class.instantiate(mid),
    )
}

fn probe_wire(out: &mut Outcome, fed: &FedConfig) {
    let (capable, class, sql) = fleet_query(fed);
    let call = WireMsg::CallForOffers {
        token: 77,
        class,
        sql: sql.clone(),
    };
    let offer = WireMsg::OfferReply {
        token: 77,
        node: 3,
        offered: true,
        completion_ms: 12.5,
    };
    let (call_bytes, offer_bytes) = (call.encode(), offer.encode());
    // One negotiation leg: the call and its reply.
    out.set(
        "wire.encode_ns",
        time_ns(|| (black_box(&call).encode(), black_box(&offer).encode())),
    );
    out.set(
        "wire.decode_ns",
        time_ns(|| {
            (
                WireMsg::decode(black_box(&call_bytes)),
                WireMsg::decode(black_box(&offer_bytes)),
            )
        }),
    );
    // Payload of one query that is placed first time: a leg per capable
    // node, then the execution and its reply.
    let exec = WireMsg::Execute {
        token: 78,
        class,
        sql,
    }
    .encode()
    .len();
    let reply = WireMsg::ExecReply {
        token: 78,
        node: 3,
        rows: 20,
        exec_ms: 1.5,
        error: None,
    }
    .encode()
    .len();
    out.set(
        "wire.bytes_per_query",
        (capable.len() * (call_bytes.len() + offer_bytes.len()) + exec + reply) as f64,
    );
}

/// Request-then-reply round trip between two `Connection`s of this
/// process over loopback, median of `ROUNDS`.
fn probe_conn(out: &mut Outcome) {
    const ROUNDS: usize = 300;
    let rtts = (|| -> Result<Vec<f64>, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let echo = std::thread::spawn(move || -> Result<(), String> {
            let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
            let (conn, rx) =
                Connection::accept(stream, 0, &ConnConfig::default(), &Telemetry::disabled())
                    .map_err(|e| e.to_string())?;
            for msg in rx {
                if let WireMsg::Estimate { token, .. } = msg {
                    let reply = WireMsg::EstimateReply {
                        token,
                        node: 0,
                        exec_ms: 1.0,
                    };
                    if conn.send(reply).is_err() {
                        break;
                    }
                }
            }
            conn.close();
            Ok(())
        });
        let (conn, rx) = Connection::dial(
            &addr,
            CLIENT_NODE,
            0,
            &ConnConfig::default(),
            &Telemetry::disabled(),
        )
        .map_err(|e| e.to_string())?;
        let mut rtts = Vec::with_capacity(ROUNDS);
        for token in 0..ROUNDS as u64 {
            let t = Instant::now();
            conn.send(WireMsg::Estimate {
                token,
                sql: "SELECT 1".to_string(),
            })
            .map_err(|e| e.to_string())?;
            rx.recv_timeout(Duration::from_secs(5))
                .map_err(|e| format!("echo reply: {e}"))?;
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
        conn.close();
        echo.join()
            .map_err(|_| "echo thread panicked".to_string())??;
        Ok(rtts)
    })();
    match rtts {
        Ok(rtts) => out.set("conn.rtt_us_p50", median(&rtts)),
        Err(e) => out.fail(format!("conn probe: {e}")),
    }
}

fn probe_minidb(out: &mut Outcome, fed: &FedConfig) {
    let spec = fed.spec();
    let (capable, _, sql) = fleet_query(fed);
    let node = capable[0];
    let mut db = Database::new();
    for statement in spec.node_statements(node) {
        db.execute(&statement)
            .expect("spec-generated DDL must execute");
    }
    for table in spec.tables.iter().filter(|t| t.copies.contains(&node)) {
        db.load_rows(&table.name, spec.table_rows(table, fed.seed))
            .expect("spec-generated rows must match the schema");
    }
    out.set(
        "minidb.explain_us",
        time_ns(|| db.explain(black_box(&sql)).expect("class SQL explains")) / 1e3,
    );
    out.set(
        "minidb.execute_us",
        time_ns(|| db.query(black_box(&sql)).expect("class SQL runs")) / 1e3,
    );
}

/// Runs every probe, recording each under its metric name.
pub fn run_all(out: &mut Outcome, threads: usize, fed: &FedConfig) -> UnitCosts {
    let begin_period_ns = probe_qant(out);
    probe_supply(out);
    let period_end_ns = probe_pricer(out);
    let schedule_pop_ns = schedule_pop_ns(256);
    out.set("event.schedule_pop_ns.256", schedule_pop_ns);
    out.set("event.schedule_pop_ns.100k", self::schedule_pop_ns(100_000));
    probe_shard_tier(out, threads);
    probe_telemetry(out);
    probe_wire(out, fed);
    probe_conn(out);
    probe_minidb(out, fed);
    UnitCosts {
        begin_period_ns,
        period_end_ns,
        schedule_pop_ns,
    }
}
