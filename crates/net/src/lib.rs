//! # qa-net — a from-scratch TCP transport for the federation
//!
//! The paper validates QA-NT on a real deployment of five heterogeneous
//! PCs (§5.2); `qa-cluster` reproduced that with five OS *threads* over
//! `std::sync::mpsc`, so nothing ever crossed a socket. This crate is the
//! wire layer that lets the same federation run as real processes:
//!
//! * [`wire`] — a versioned binary codec for every cluster protocol
//!   message ([`WireMsg`]): explicit little-endian encode/decode, one tag
//!   byte per message, typed [`CodecError`]s for every malformed input.
//!   No serde — the workspace is hermetic (zero registry deps) and the
//!   format is small enough to own.
//! * [`frame`] — length-prefixed frames over any `Read`/`Write` pair,
//!   with a hard frame-size cap (an adversarial length prefix errors
//!   out before any allocation) and the magic + protocol-version
//!   handshake ([`frame::PROTOCOL_VERSION`]).
//! * [`conn`] — a per-peer [`Connection`]: dedicated reader and writer
//!   threads, an outgoing send queue, ping/pong heartbeats with an idle
//!   deadline, and dial-time retry with the capped exponential backoff
//!   the cluster driver established (base × 2^attempt, capped at 8×).
//!
//! Everything observable — connect, handshake, retry, frame drop, peer
//! death — flows through the `qa_simnet::telemetry` taxonomy
//! (`peer_connected`, `handshake_completed`, `connect_retried`,
//! `frame_dropped`, `peer_died`), so JSONL traces from a multi-process
//! run read through the same strict `qa_simnet::telemetry::read_trace`
//! (`qa-trace summary`) as simulator traces.
//!
//! The crate is std-only and knows nothing about query allocation: it
//! moves [`WireMsg`] values between processes. `qa-cluster` builds its
//! transport-agnostic driver on top.

pub mod conn;
pub mod frame;
pub mod wire;

pub use conn::{backoff, ConnConfig, Connection};
pub use frame::{read_frame, recv_msg, send_msg, write_frame, MAGIC, MAX_FRAME, PROTOCOL_VERSION};
pub use wire::{CodecError, NetError, WireMsg};
