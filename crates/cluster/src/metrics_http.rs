//! A hand-rolled `/metrics` endpoint (HTTP/1.0, std only).
//!
//! `qad --metrics-addr 127.0.0.1:0` serves its live
//! [`MetricsRegistry`] in the Prometheus text
//! exposition format (version 0.0.4) so any off-the-shelf scraper — or
//! plain `curl` — can watch one node of a federation. The server is
//! deliberately minimal: one `GET /metrics` route, `Connection: close`
//! semantics, one short-lived thread per request. A metrics scrape every
//! few seconds does not justify a connection pool.
//!
//! The wire-level stats scrape ([`qa_net::WireMsg::StatsRequest`]) and
//! this endpoint render the *same* registry snapshot; the former feeds
//! fleet-side aggregation (`qa-ctl stats`), the latter per-node pull
//! monitoring.

use qa_simnet::prometheus_text;
use qa_simnet::telemetry::MetricsRegistry;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Per-request socket deadline: a stalled scraper must not pin threads.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// Cap on a request's line plus headers. The deadline applies per read,
/// so without it a client that kept sending bytes and no newline would
/// grow the buffer without limit; past it the request is answered 400.
const MAX_HEAD: u64 = 8 * 1024;

/// Binds `addr`, then serves `GET /metrics` forever on a background
/// thread. Returns the bound address (so `addr` may use port 0).
///
/// # Errors
/// The bind failure, as readable text. Per-request failures are absorbed.
pub(crate) fn serve_metrics(addr: &str, registry: MetricsRegistry) -> Result<SocketAddr, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let bound = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    std::thread::Builder::new()
        .name("qad-metrics".into())
        .spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let registry = registry.clone();
                std::thread::spawn(move || {
                    let _ = handle_request(stream, &registry);
                });
            }
        })
        .map_err(|e| format!("spawn metrics thread: {e}"))?;
    Ok(bound)
}

/// Reads one request line, answers, closes. Header bytes after the
/// request line are drained but ignored — this endpoint has no routes
/// that depend on them.
fn handle_request(mut stream: TcpStream, registry: &MetricsRegistry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    let Some(request_line) = read_head(&stream)? else {
        return respond(
            &mut stream,
            "400 Bad Request",
            "text/plain; charset=utf-8",
            "request head too large\n",
        );
    };
    match route(&request_line) {
        Route::Metrics => {
            let body = prometheus_text(&registry.snapshot());
            respond(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        Route::MetricsJson => {
            let body = format!("{}\n", registry.snapshot().dump());
            respond(&mut stream, "200 OK", "application/json", &body)
        }
        Route::NotFound => respond(
            &mut stream,
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found; try GET /metrics\n",
        ),
        Route::BadMethod => respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n",
        ),
    }
}

/// The request line, after draining the headers up to the blank line so
/// the peer never sees a reset while still sending; `None` when the two
/// run past [`MAX_HEAD`].
fn read_head(stream: &TcpStream) -> std::io::Result<Option<String>> {
    let mut head = BufReader::new(stream.take(MAX_HEAD));
    let mut request_line = String::new();
    head.read_line(&mut request_line)?;
    let mut line = request_line.clone();
    while line.ends_with('\n') && !line.trim().is_empty() {
        line.clear();
        head.read_line(&mut line)?;
    }
    // A line cut short with the cap spent: the head did not fit.
    let cut = !line.ends_with('\n') && head.get_ref().limit() == 0;
    Ok((!cut).then_some(request_line))
}

enum Route {
    Metrics,
    MetricsJson,
    NotFound,
    BadMethod,
}

/// Routes on the request line only: `GET <path> HTTP/x.y`.
fn route(request_line: &str) -> Route {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        return Route::BadMethod;
    }
    match path {
        "/metrics" => Route::Metrics,
        "/metrics.json" => Route::MetricsJson,
        _ => Route::NotFound,
    }
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Fetches `path` from a `serve_metrics` endpoint over a plain
/// [`TcpStream`] and returns `(status_line, body)`. Used by the smoke
/// validator (`check_metrics --fetch`) and the tests — the toolchain has
/// no HTTP client and `curl` is not a dependency we want in CI.
///
/// # Errors
/// Connect/IO failures and malformed responses, as readable text.
pub fn http_get(addr: &SocketAddr, path: &str) -> Result<(String, String), String> {
    let mut stream = TcpStream::connect_timeout(addr, REQUEST_TIMEOUT)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT))
        .and_then(|_| stream.set_write_timeout(Some(REQUEST_TIMEOUT)))
        .map_err(|e| format!("socket deadline: {e}"))?;
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n").as_bytes())
        .map_err(|e| format!("send request: {e}"))?;
    let mut raw = String::new();
    std::io::Read::read_to_string(&mut stream, &mut raw).map_err(|e| format!("read reply: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or("malformed HTTP reply (no header terminator)")?;
    let status = head.lines().next().unwrap_or("").to_string();
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_simnet::Json;

    fn endpoint() -> (SocketAddr, MetricsRegistry) {
        let registry = MetricsRegistry::new();
        registry.counter("qad.queries_executed").add(7);
        registry.gauge("qad.backlog_ms").set(12.5);
        registry.histogram("qad.exec_ms").observe(3.0);
        let bound = serve_metrics("127.0.0.1:0", registry.clone()).expect("bind");
        (bound, registry)
    }

    #[test]
    fn serves_prometheus_text_on_get_metrics() {
        let (addr, _registry) = endpoint();
        let (status, body) = http_get(&addr, "/metrics").expect("GET /metrics");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("# TYPE qad_queries_executed counter"));
        assert!(body.contains("qad_queries_executed 7"));
        assert!(body.contains("qad_backlog_ms 12.5"));
        assert!(body.contains("qad_exec_ms_bucket"));
    }

    #[test]
    fn serves_snapshot_json_on_get_metrics_json() {
        let (addr, _registry) = endpoint();
        let (status, body) = http_get(&addr, "/metrics.json").expect("GET /metrics.json");
        assert!(status.contains("200"), "{status}");
        let snap = Json::parse(&body).expect("body must be valid JSON");
        assert!(snap.get("counters").is_some());
        assert!(snap.get("histograms").is_some());
    }

    #[test]
    fn unknown_path_is_404_and_post_is_405() {
        let (addr, _registry) = endpoint();
        let (status, _) = http_get(&addr, "/nope").expect("GET /nope");
        assert!(status.contains("404"), "{status}");

        // A non-GET request by hand (http_get always sends GET).
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut raw = String::new();
        std::io::Read::read_to_string(&mut stream, &mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.0 405"), "{raw}");
    }

    #[test]
    fn endless_request_line_is_refused_promptly() {
        let (addr, _registry) = endpoint();
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(REQUEST_TIMEOUT)).unwrap();
        let mut writer = stream.try_clone().unwrap();
        // 2 MiB and no newline; the write fails once the server hangs up.
        let flood = std::thread::spawn(move || {
            let _ = writer.write_all(&vec![b'a'; 2 << 20]);
        });
        let started = std::time::Instant::now();
        let mut status = [0u8; 12];
        (&stream).read_exact(&mut status).unwrap();
        assert_eq!(&status, b"HTTP/1.0 400");
        assert!(
            started.elapsed() < REQUEST_TIMEOUT,
            "{:?}",
            started.elapsed()
        );
        flood.join().unwrap();
    }

    #[test]
    fn scrape_reflects_live_registry_updates() {
        let (addr, registry) = endpoint();
        registry.counter("qad.queries_executed").add(5);
        let (_, body) = http_get(&addr, "/metrics").expect("GET /metrics");
        assert!(body.contains("qad_queries_executed 12"), "{body}");
    }
}
