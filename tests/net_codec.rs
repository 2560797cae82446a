//! qa-net codec error paths, end to end.
//!
//! A peer that completes the handshake and then misbehaves — sends a
//! mangled frame, or simply never answers — must surface through the
//! transport as typed errors and prompt receiver disconnects, never as a
//! hang that waits out the idle-death timer or the pending-reply TTL.

use query_markets::cluster::node::{EstimateReply, Reply};
use query_markets::cluster::{ClusterError, NodeMsg, TcpTransport, Transport};
use query_markets::net::{
    recv_msg, send_msg, write_frame, ConnConfig, NetError, WireMsg, MAX_FRAME,
};
use query_markets::simnet::telemetry::Telemetry;
use query_markets::simnet::with_watchdog;
use std::error::Error as _;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What the fake server does after completing a valid handshake.
enum Misbehaviour {
    /// Answer the first request frame with a frame whose payload starts
    /// with an unknown message tag, then hold the socket open.
    MangledFrame,
    /// Read requests forever, never replying, socket held open.
    NeverReply,
}

/// A minimal `qad` impostor: accepts one connection, completes a real
/// handshake (Hello in, HelloAck out), then misbehaves as told. Holds
/// the socket open afterwards so nothing but the misbehaviour itself can
/// kill the connection.
fn fake_server(mis: Misbehaviour) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut stream = stream;
        serve(&mut stream, mis);
    });
    (addr, handle)
}

fn serve(stream: &mut TcpStream, mis: Misbehaviour) {
    match recv_msg(stream, MAX_FRAME) {
        Ok(WireMsg::Hello { .. }) => {}
        other => panic!("fake server: expected hello, got {other:?}"),
    }
    send_msg(stream, &WireMsg::HelloAck { node: 0 }).expect("hello_ack");
    loop {
        let msg = match recv_msg(stream, MAX_FRAME) {
            Ok(m) => m,
            // Client tore the connection down; our job is done.
            Err(_) => return,
        };
        match (&mis, msg) {
            // Pings keep the client's idle deadline satisfied: the only
            // way the connection may die in these tests is the codec
            // error or a deliberate local disconnect.
            (_, WireMsg::Ping { nonce }) => {
                if send_msg(stream, &WireMsg::Pong { nonce }).is_err() {
                    return;
                }
            }
            (Misbehaviour::MangledFrame, _) => {
                // A syntactically valid frame (honest length prefix)
                // whose payload starts with a tag no protocol version
                // has ever assigned.
                write_frame(stream, &[0xFE, 1, 2, 3]).expect("mangled frame");
                let _ = stream.flush();
                // Hold the socket open; drain until the client closes.
            }
            (Misbehaviour::NeverReply, _) => {}
        }
    }
}

fn estimate(sql: &str, reply: Reply<EstimateReply>) -> NodeMsg {
    let sql = sql.to_string();
    NodeMsg::Estimate { sql, reply }
}

fn connect(addr: &str) -> TcpTransport {
    let cfg = ConnConfig::default();
    TcpTransport::connect(&[addr.to_string()], &cfg, &Telemetry::disabled()).expect("connect")
}

#[test]
fn mangled_frame_fails_fast_with_typed_source_chain() {
    with_watchdog("mangled frame surfaces as ClusterError::Net", 60, || {
        let (addr, server) = fake_server(Misbehaviour::MangledFrame);
        let transport = connect(&addr);

        let (tx, rx) = Reply::channel();
        transport
            .send(0, estimate("SELECT 1", tx))
            .expect("send ok");

        // The mangled reply must kill the connection and disconnect the
        // parked receiver well before the 15 s idle-death deadline (the
        // server answers pings, so idle death cannot fire here at all).
        let start = Instant::now();
        let got = rx.recv_timeout(Duration::from_secs(10));
        assert!(got.is_err(), "no valid reply can exist: {got:?}");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "receiver must disconnect promptly, not time out"
        );

        // The connection is now dead: a follow-up request errors
        // immediately and the error is typed all the way down.
        let (tx2, _rx2) = Reply::channel();
        let err = transport
            .send(0, estimate("SELECT 2", tx2))
            .expect_err("connection must be dead");
        match &err {
            ClusterError::Net {
                phase,
                node,
                source,
                ..
            } => {
                assert_eq!(*phase, "estimate");
                assert_eq!(*node, 0);
                assert_eq!(*source, NetError::PeerClosed);
            }
            other => panic!("expected ClusterError::Net, got {other}"),
        }
        // `source()` chaining stays intact through the cluster layer.
        let chained = err.source().expect("Net must expose its NetError");
        assert_eq!(chained.to_string(), NetError::PeerClosed.to_string());

        transport.disconnect();
        server.join().expect("fake server exits");
    });
}

#[test]
fn codec_errors_chain_through_cluster_error_source() {
    // Unit-level companion to the e2e path above: a decode failure keeps
    // its full chain, ClusterError::Net -> NetError::Codec -> CodecError.
    let decode_err = WireMsg::decode(&[0xFE, 1, 2, 3]).expect_err("unknown tag must not decode");
    let err = ClusterError::net("estimate", 0, "127.0.0.1:1", decode_err.into());
    let net = err.source().expect("cluster error exposes net error");
    assert!(net.to_string().contains("codec error"), "{net}");
    let codec = net.source().expect("net error exposes codec error");
    assert!(codec.to_string().contains("unknown message tag"), "{codec}");
    assert!(codec.to_string().contains("0xfe"), "{codec}");
}

/// One fixed example of every message, with its bytes as protocol v2
/// puts them on the wire. A `qad` built from an older commit of the same
/// version must read what this one writes, so none of these may move.
fn pinned_examples() -> Vec<(WireMsg, &'static str)> {
    let sql = || "SELECT a FROM t".to_string();
    vec![
        (WireMsg::Hello { node: 7 }, "0151414e54020007000000"),
        (WireMsg::HelloAck { node: 3 }, "0251414e54020003000000"),
        (
            WireMsg::Ping {
                nonce: 0x0102_0304_0506_0708,
            },
            "030807060504030201",
        ),
        (WireMsg::Pong { nonce: 42 }, "042a00000000000000"),
        (
            WireMsg::Estimate {
                token: 9,
                sql: "SELECT 1".into(),
            },
            "1009000000000000000800000053454c4543542031",
        ),
        (
            WireMsg::EstimateReply {
                token: 9,
                node: 2,
                exec_ms: 1.5,
            },
            "11090000000000000002000000000000000000f83f",
        ),
        (
            WireMsg::CallForOffers {
                token: 10,
                class: 4,
                sql: sql(),
            },
            "120a00000000000000040000000f00000053454c45435420612046524f4d2074",
        ),
        (
            WireMsg::OfferReply {
                token: 10,
                node: 1,
                offered: true,
                completion_ms: 12.25,
            },
            "130a0000000000000001000000010000000000802840",
        ),
        (
            WireMsg::Execute {
                token: 11,
                class: 4,
                sql: sql(),
            },
            "140b00000000000000040000000f00000053454c45435420612046524f4d2074",
        ),
        (
            WireMsg::ExecReply {
                token: 11,
                node: 1,
                rows: 20,
                exec_ms: 3.5,
                error: None,
            },
            "150b000000000000000100000014000000000000000000000000000c4000",
        ),
        (
            WireMsg::ExecReply {
                token: 12,
                node: 0,
                rows: 0,
                exec_ms: 0.25,
                error: Some("no such table: t".into()),
            },
            "150c00000000000000000000000000000000000000000000000000d03f01\
             100000006e6f2073756368207461626c653a2074",
        ),
        (WireMsg::PeriodTick, "20"),
        (WireMsg::DumpPrices { token: 13 }, "210d00000000000000"),
        (
            WireMsg::Prices {
                token: 13,
                node: 4,
                prices: vec![1.0, 0.5],
            },
            "220d000000000000000400000002000000000000000000f03f000000000000e03f",
        ),
        (WireMsg::StatsRequest { token: 14 }, "230e00000000000000"),
        (
            WireMsg::StatsReply {
                token: 14,
                node: 4,
                json: "{}".into(),
            },
            "240e0000000000000004000000020000007b7d",
        ),
        (WireMsg::Shutdown, "2f"),
    ]
}

#[test]
fn every_message_keeps_its_pinned_wire_bytes() {
    let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
    let examples = pinned_examples();
    for (msg, want) in &examples {
        let got = hex(&msg.encode());
        assert_eq!(
            &got,
            want,
            "{} encodes to different bytes: bump `PROTOCOL_VERSION` (crates/net/src/frame.rs) \
             and re-pin, or restore the encoding",
            msg.kind()
        );
        let bytes: Vec<u8> = (0..want.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&want[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(
            WireMsg::decode(&bytes).as_ref(),
            Ok(msg),
            "{}'s pinned bytes decode differently: bump `PROTOCOL_VERSION`",
            msg.kind()
        );
    }
    let mut kinds: Vec<&str> = examples.iter().map(|(m, _)| m.kind()).collect();
    kinds.dedup();
    assert_eq!(
        kinds,
        WireMsg::KINDS,
        "one example per message, in table order"
    );
}

#[test]
fn disconnect_fails_pending_requests_immediately() {
    with_watchdog("disconnect fails pending requests", 60, || {
        let (addr, server) = fake_server(Misbehaviour::NeverReply);
        let transport = connect(&addr);

        let (tx, rx) = Reply::channel();
        transport
            .send(0, estimate("SELECT 1", tx))
            .expect("send ok");
        // Give the request time to actually reach the server, so the
        // pending slot is genuinely outstanding when we disconnect.
        std::thread::sleep(Duration::from_millis(50));

        let start = Instant::now();
        transport.disconnect();
        // Regression: the pending map must be failed on disconnect, not
        // aged out by the TTL sweep — the waiter observes dead-peer
        // semantics (disconnected receiver) right away.
        let got = rx.recv_timeout(Duration::from_secs(5));
        assert!(
            matches!(got, Err(mpsc::RecvTimeoutError::Disconnected)),
            "pending reply must be failed by disconnect, got {got:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "disconnect must fail waiters immediately"
        );
        server.join().expect("fake server exits");
    });
}
