//! Prometheus text exposition (format 0.0.4) for registry snapshots.
//!
//! Renders a [`MetricsRegistry`](crate::telemetry::MetricsRegistry)
//! snapshot — or a fleet-merged one — as the plain-text format every
//! Prometheus-compatible scraper speaks. Hand-rolled on purpose: the
//! workspace is hermetic (zero registry deps) and the format is four
//! line shapes over text we already own.
//!
//! Mapping from the registry's four sections:
//!
//! * counters → `counter` (value line as-is),
//! * gauges → `gauge`,
//! * stats (Welford) → `summary` with `_count` and `_sum` series
//!   (`sum = mean × count`; quantile series are deliberately omitted —
//!   a mean/variance accumulator has no honest quantiles),
//! * histograms ([`LogHistogram`]) →
//!   `histogram` with cumulative `_bucket{le="…"}` series at each
//!   non-empty bucket bound, the mandatory `le="+Inf"` bucket, `_sum`
//!   and `_count`.
//!
//! Metric names are sanitized to the exposition charset
//! (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other byte becomes `_`, so the
//! registry's dotted names (`qad.queries_executed`) become the
//! conventional underscore form (`qad_queries_executed`).

use crate::json::Json;
use crate::stats::LogHistogram;
use std::fmt::Write;

/// Sanitizes a registry metric name into the exposition charset.
pub(crate) fn metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for (i, c) in raw.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn fmt_f64(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_string()
    } else if x == f64::INFINITY {
        "+Inf".to_string()
    } else if x == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{x}")
    }
}

fn section<'j>(snapshot: &'j Json, key: &str) -> Vec<(&'j String, &'j Json)> {
    match snapshot.get(key) {
        Some(Json::Obj(pairs)) => pairs.iter().map(|(k, v)| (k, v)).collect(),
        _ => Vec::new(),
    }
}

/// Renders a registry snapshot (the JSON from
/// [`MetricsRegistry::snapshot`](crate::telemetry::MetricsRegistry::snapshot))
/// as Prometheus text exposition format 0.0.4. Entries that fail to
/// parse (foreign JSON) are skipped — exposition must never panic on a
/// scraped payload.
pub fn prometheus_text(snapshot: &Json) -> String {
    let mut out = String::new();

    for (name, v) in section(snapshot, "counters") {
        let Some(n) = v.as_u64() else { continue };
        let name = metric_name(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {n}");
    }

    for (name, v) in section(snapshot, "gauges") {
        let Some(x) = v.as_f64() else { continue };
        let name = metric_name(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", fmt_f64(x));
    }

    for (name, v) in section(snapshot, "stats") {
        let Some(count) = v.get("count").and_then(Json::as_u64) else {
            continue;
        };
        let mean = v.get("mean").and_then(Json::as_f64).unwrap_or(0.0);
        let name = metric_name(name);
        let _ = writeln!(out, "# TYPE {name} summary");
        let _ = writeln!(out, "{name}_count {count}");
        let _ = writeln!(out, "{name}_sum {}", fmt_f64(mean * count as f64));
    }

    for (name, v) in section(snapshot, "histograms") {
        let Some(h) = LogHistogram::from_json(v) else {
            continue;
        };
        let name = metric_name(name);
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, &c) in h.buckets().iter().enumerate() {
            let Some(bound) = LogHistogram::bucket_bound(i) else {
                break; // overflow bucket is covered by le="+Inf"
            };
            if c == 0 {
                continue;
            }
            cumulative += c;
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                fmt_f64(bound)
            );
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
        let _ = writeln!(out, "{name}_sum {}", fmt_f64(h.sum()));
        let _ = writeln!(out, "{name}_count {}", h.count());
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::MetricsRegistry;

    #[test]
    fn sanitizes_metric_names() {
        assert_eq!(metric_name("qad.queries_executed"), "qad_queries_executed");
        assert_eq!(metric_name("net.bytes-in"), "net_bytes_in");
        assert_eq!(metric_name("9lives"), "_9lives");
        assert_eq!(metric_name("span.poll_us"), "span_poll_us");
        assert_eq!(metric_name(""), "_");
    }

    #[test]
    fn renders_all_four_metric_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("qad.queries").add(5);
        reg.gauge("qad.backlog_ms").set(12.5);
        reg.welford("alloc.assign_ms").observe(2.0);
        reg.welford("alloc.assign_ms").observe(4.0);
        for x in [0.5, 3.0, 3.5, 2_000_000.0] {
            reg.histogram("rpc.round_trip_ms").observe(x);
        }
        let text = prometheus_text(&reg.snapshot());
        assert!(text.contains("# TYPE qad_queries counter\nqad_queries 5\n"));
        assert!(text.contains("# TYPE qad_backlog_ms gauge\nqad_backlog_ms 12.5\n"));
        assert!(text.contains("# TYPE alloc_assign_ms summary"));
        assert!(text.contains("alloc_assign_ms_count 2"));
        assert!(text.contains("alloc_assign_ms_sum 6"));
        assert!(text.contains("# TYPE rpc_round_trip_ms histogram"));
        // Cumulative buckets: 0.5 ≤ 0.5, then 3.0/3.5 ≤ 4, overflow at +Inf.
        assert!(text.contains("rpc_round_trip_ms_bucket{le=\"0.5\"} 1"));
        assert!(text.contains("rpc_round_trip_ms_bucket{le=\"4\"} 3"));
        assert!(text.contains("rpc_round_trip_ms_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("rpc_round_trip_ms_count 4"));
    }

    #[test]
    fn bucket_series_is_cumulative_and_monotone() {
        let reg = MetricsRegistry::new();
        for i in 1..=64 {
            reg.histogram("h").observe(i as f64);
        }
        let text = prometheus_text(&reg.snapshot());
        let mut last = 0u64;
        let mut saw_inf = false;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("h_bucket{le=\"") {
                let (_, count) = rest.split_once("\"} ").unwrap();
                let count: u64 = count.parse().unwrap();
                assert!(count >= last, "bucket counts must be cumulative: {line}");
                last = count;
                saw_inf |= rest.starts_with("+Inf");
            }
        }
        assert!(saw_inf, "the +Inf bucket is mandatory");
        assert_eq!(last, 64);
    }

    #[test]
    fn every_line_matches_the_exposition_grammar() {
        let reg = MetricsRegistry::new();
        reg.counter("c").incr();
        reg.gauge("g").set(-0.25);
        reg.welford("w").observe(1.0);
        reg.histogram("h").observe(1.0);
        let text = prometheus_text(&reg.snapshot());
        assert!(text.ends_with('\n'));
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split(' ');
                let (name, kind) = (it.next().unwrap(), it.next().unwrap());
                assert!(it.next().is_none());
                assert!(name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'));
                assert!(["counter", "gauge", "summary", "histogram"].contains(&kind));
            } else {
                // `name{labels} value` or `name value`
                let (name_part, value) = line.rsplit_once(' ').unwrap();
                let name = name_part.split('{').next().unwrap();
                assert!(!name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit()));
                assert!(
                    value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
                    "unparseable sample value in {line:?}"
                );
            }
        }
    }

    #[test]
    fn empty_and_foreign_snapshots_render_without_panicking() {
        assert_eq!(prometheus_text(&MetricsRegistry::new().snapshot()), "");
        assert_eq!(prometheus_text(&Json::Null), "");
        let garbage = Json::object([("histograms", Json::object([("x", Json::Int(3))]))]);
        assert_eq!(prometheus_text(&garbage), "");
    }
}
