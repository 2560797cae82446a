//! Codec robustness: exhaustive round-trips plus adversarial input.
//!
//! Three properties, all driven by the deterministic `DetRng` so every
//! failure is replayable from a seed:
//!
//! 1. **Round-trip**: `decode(encode(m)) == m` for randomly generated
//!    messages across every variant, including hostile-ish strings
//!    (empty, NUL bytes, multi-byte UTF-8) and extreme floats.
//! 2. **Truncation**: every strict prefix of a valid encoding decodes to
//!    a typed error — never a panic, never a bogus success.
//! 3. **Mangling**: random byte flips either decode to a typed error or
//!    to some valid message (a flip inside free-form payload bytes is
//!    legitimately undetectable without a checksum) — but never panic
//!    and never round-trip to different bytes claiming to be canonical.

use qa_net::{CodecError, WireMsg, MAX_FRAME};
use qa_simnet::rng::DetRng;
use std::collections::BTreeSet;

/// A deterministic, occasionally nasty string.
fn arb_string(rng: &mut DetRng) -> String {
    let pool: &[&str] = &[
        "",
        "SELECT 1",
        "SELECT v3.a, v7.b FROM v3 JOIN v7 ON v3.k = v7.k WHERE v3.a > 17",
        "nul\0byte",
        "ünïcödé — 查询 🛰",
        "quote\"back\\slash\nnewline",
    ];
    if rng.chance(0.5) {
        (*rng.pick(pool)).to_string()
    } else {
        let len = rng.int_in(0, 64) as usize;
        (0..len)
            .map(|_| char::from_u32(rng.int_in(32, 0x24F) as u32).unwrap_or('?'))
            .collect()
    }
}

/// A deterministic float including the weird-but-encodable corners.
fn arb_f64(rng: &mut DetRng) -> f64 {
    match rng.int_in(0, 5) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::MAX,
        3 => f64::MIN_POSITIVE,
        4 => rng.float_in(-1e9, 1e9),
        _ => rng.float_in(0.0, 1000.0),
    }
}

/// One random message, its kind drawn uniformly from `WireMsg::KINDS`.
fn arb_msg(rng: &mut DetRng) -> WireMsg {
    match *rng.pick(WireMsg::KINDS) {
        "hello" => WireMsg::Hello {
            node: rng.next_u32(),
        },
        "hello_ack" => WireMsg::HelloAck {
            node: rng.next_u32(),
        },
        "ping" => WireMsg::Ping {
            nonce: rng.next_u64(),
        },
        "pong" => WireMsg::Pong {
            nonce: rng.next_u64(),
        },
        "estimate" => WireMsg::Estimate {
            token: rng.next_u64(),
            sql: arb_string(rng),
        },
        "estimate_reply" => WireMsg::EstimateReply {
            token: rng.next_u64(),
            node: rng.next_u32(),
            exec_ms: arb_f64(rng),
        },
        "call_for_offers" => WireMsg::CallForOffers {
            token: rng.next_u64(),
            class: rng.next_u32(),
            sql: arb_string(rng),
        },
        "offer_reply" => WireMsg::OfferReply {
            token: rng.next_u64(),
            node: rng.next_u32(),
            offered: rng.chance(0.5),
            completion_ms: arb_f64(rng),
        },
        "execute" => WireMsg::Execute {
            token: rng.next_u64(),
            class: rng.next_u32(),
            sql: arb_string(rng),
        },
        "exec_reply" => WireMsg::ExecReply {
            token: rng.next_u64(),
            node: rng.next_u32(),
            rows: rng.next_u64(),
            exec_ms: arb_f64(rng),
            error: if rng.chance(0.3) {
                Some(arb_string(rng))
            } else {
                None
            },
        },
        "period_tick" => WireMsg::PeriodTick,
        "dump_prices" => WireMsg::DumpPrices {
            token: rng.next_u64(),
        },
        "prices" => WireMsg::Prices {
            token: rng.next_u64(),
            node: rng.next_u32(),
            prices: {
                let n = rng.int_in(0, 32) as usize;
                (0..n).map(|_| arb_f64(rng)).collect()
            },
        },
        "stats_request" => WireMsg::StatsRequest {
            token: rng.next_u64(),
        },
        "stats_reply" => WireMsg::StatsReply {
            token: rng.next_u64(),
            node: rng.next_u32(),
            json: arb_string(rng),
        },
        "shutdown" => WireMsg::Shutdown,
        other => panic!("arb_msg has no generator for {other:?}"),
    }
}

/// Records each message's kind, and at the end asserts every kind came up.
#[derive(Default)]
struct Coverage(BTreeSet<&'static str>);

impl Coverage {
    fn saw(&mut self, msg: &WireMsg) {
        self.0.insert(msg.kind());
    }

    fn assert_complete(&self, property: &str) {
        let missed: Vec<&str> = WireMsg::KINDS
            .iter()
            .copied()
            .filter(|k| !self.0.contains(k))
            .collect();
        assert!(missed.is_empty(), "{property} never drew {missed:?}");
    }
}

#[test]
fn round_trip_property_all_variants() {
    let mut rng = DetRng::seed_from_u64(0x5eed_c0dec);
    let mut seen = Coverage::default();
    for i in 0..4000 {
        let msg = arb_msg(&mut rng);
        seen.saw(&msg);
        let bytes = msg.encode();
        assert!(
            bytes.len() as u64 <= MAX_FRAME as u64,
            "iteration {i}: encoding exceeds frame cap"
        );
        let back = WireMsg::decode(&bytes)
            .unwrap_or_else(|e| panic!("iteration {i}: {msg:?} failed to decode: {e}"));
        assert_eq!(back, msg, "iteration {i}: round trip must be lossless");
        // Canonical form: re-encoding the decoded value is byte-identical.
        assert_eq!(back.encode(), bytes, "iteration {i}: encoding is canonical");
    }
    seen.assert_complete("the round trip");
}

#[test]
fn every_truncation_is_a_typed_error() {
    let mut rng = DetRng::seed_from_u64(0x7c47_0001);
    let mut seen = Coverage::default();
    for _ in 0..400 {
        let msg = arb_msg(&mut rng);
        seen.saw(&msg);
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            let err = WireMsg::decode(&bytes[..cut]).expect_err("strict prefix must not decode");
            assert!(
                matches!(
                    err,
                    CodecError::Truncated { .. } | CodecError::BadValue { .. }
                ),
                "truncation at {cut}/{} of {msg:?} gave unexpected error {err:?}",
                bytes.len()
            );
        }
    }
    seen.assert_complete("the truncation loop");
}

#[test]
fn random_byte_flips_never_panic_and_never_break_canonical_form() {
    let mut rng = DetRng::seed_from_u64(0xf1b_f1b);
    let mut seen = Coverage::default();
    for _ in 0..2000 {
        let msg = arb_msg(&mut rng);
        seen.saw(&msg);
        let mut bytes = msg.encode();
        let pos = rng.index(bytes.len());
        let bit = 1u8 << rng.int_in(0, 7);
        bytes[pos] ^= bit;
        // A flip in payload data can be undetectable (typed rejection is
        // always acceptable); what decoded must still be a well-formed
        // message that encodes back to exactly the mangled bytes (no
        // silent normalisation).
        if let Ok(decoded) = WireMsg::decode(&bytes) {
            assert_eq!(
                decoded.encode(),
                bytes,
                "accepted mangled input must be canonical ({msg:?}, pos {pos})"
            );
        }
    }
    seen.assert_complete("the byte-flip loop");
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = DetRng::seed_from_u64(0xdead_beef);
    for _ in 0..2000 {
        let len = rng.int_in(0, 256) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.int_in(0, 255) as u8).collect();
        // Any result is fine; the property is "no panic, no hang".
        let _ = WireMsg::decode(&bytes);
    }
}

#[test]
fn length_fields_cannot_trigger_oversized_allocation() {
    // A Prices message whose count field claims u32::MAX entries: the
    // decoder must reject it from the remaining-bytes bound, not try to
    // allocate 32 GiB.
    let mut bytes = WireMsg::Prices {
        token: 1,
        node: 2,
        prices: vec![1.0, 2.0],
    }
    .encode();
    // Layout: tag, token u64, node u32, count u32, then floats. Overwrite
    // the count (offset 1 + 8 + 4 = 13).
    bytes[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = WireMsg::decode(&bytes).expect_err("bogus count must fail");
    assert!(matches!(err, CodecError::Truncated { .. }), "got {err:?}");
}
