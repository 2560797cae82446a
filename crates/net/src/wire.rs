//! The versioned binary codec for cluster protocol messages.
//!
//! One frame payload is `[tag: u8][fields…]`, all integers and floats
//! explicit little-endian. Strings are `u32` byte-length + UTF-8 bytes;
//! optional strings and vectors carry a presence byte / element count.
//! The decoder is strict: every length is validated against the bytes
//! actually present **before** any allocation, unknown tags and protocol
//! versions are typed errors, and trailing bytes after a complete message
//! are rejected — a desynced stream can never be silently misparsed.
//!
//! The vocabulary is one `messages!` table: a row per message gives its
//! tag, name and fields, and the table generates [`WireMsg`], its codec
//! and, for each reply, the token-less answer type ([`ReplyBody`]) that
//! the node produces and the asker receives. A new message is one row.
//!
//! [`WireMsg::Hello`]/[`WireMsg::HelloAck`] carry the magic and protocol
//! version inline, so version negotiation flows through the same decode
//! path (and the same adversarial tests) as everything else.

use crate::frame::{MAGIC, PROTOCOL_VERSION};
use std::fmt;

/// A malformed byte sequence, detected during decode (or an oversized
/// frame detected by the frame reader).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the named field was complete.
    Truncated {
        /// The field being read when bytes ran out.
        field: &'static str,
    },
    /// A frame length prefix exceeded the cap. Raised before any
    /// allocation, so a hostile prefix cannot balloon memory.
    FrameTooLarge {
        /// The claimed payload length.
        len: u64,
        /// The configured cap.
        max: u32,
    },
    /// The first payload byte names no known message.
    UnknownTag(u8),
    /// A handshake frame did not start with `b"QANT"`.
    BadMagic([u8; 4]),
    /// The peer speaks a protocol version we do not.
    UnknownVersion(u16),
    /// A complete message left unconsumed bytes behind it.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A string field held invalid UTF-8.
    BadUtf8 {
        /// The offending field.
        field: &'static str,
    },
    /// A field held a value outside its domain (e.g. a bool that is
    /// neither 0 nor 1).
    BadValue {
        /// The offending field.
        field: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { field } => write!(f, "truncated frame while reading {field}"),
            CodecError::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            CodecError::UnknownTag(tag) => write!(f, "unknown message tag {tag:#04x}"),
            CodecError::BadMagic(m) => write!(f, "bad handshake magic {m:02x?}"),
            CodecError::UnknownVersion(v) => {
                write!(f, "unknown protocol version {v} (ours: {PROTOCOL_VERSION})")
            }
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after message")
            }
            CodecError::BadUtf8 { field } => write!(f, "field {field} is not valid UTF-8"),
            CodecError::BadValue { field } => write!(f, "field {field} holds an invalid value"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A transport-layer failure. IO errors are captured as operation +
/// message so the type stays `Clone + PartialEq` (and hence can ride
/// inside `ClusterError`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The byte stream was malformed.
    Codec(CodecError),
    /// An OS-level socket failure.
    Io {
        /// What we were doing ("connect", "read frame", …).
        op: &'static str,
        /// The OS error text.
        detail: String,
    },
    /// The handshake did not complete.
    Handshake {
        /// Why.
        reason: String,
    },
    /// Dialing gave up after exhausting its retry budget.
    ConnectFailed {
        /// The address dialed.
        addr: String,
        /// Attempts made.
        attempts: u32,
        /// The last attempt's error text.
        detail: String,
    },
    /// The peer is gone (socket closed, heartbeat deadline missed, or the
    /// connection was torn down under us).
    PeerClosed,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Codec(e) => write!(f, "codec error: {e}"),
            NetError::Io { op, detail } => write!(f, "io error during {op}: {detail}"),
            NetError::Handshake { reason } => write!(f, "handshake failed: {reason}"),
            NetError::ConnectFailed {
                addr,
                attempts,
                detail,
            } => write!(
                f,
                "connect to {addr} failed after {attempts} attempts: {detail}"
            ),
            NetError::PeerClosed => write!(f, "peer connection closed"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> NetError {
        NetError::Codec(e)
    }
}

impl NetError {
    /// Wraps an `io::Error` with the operation that hit it.
    pub fn io(op: &'static str, e: &std::io::Error) -> NetError {
        NetError::Io {
            op,
            detail: e.to_string(),
        }
    }
}

/// The node id drivers/controllers present in their [`WireMsg::Hello`] —
/// they are clients of every node, not members of the fleet.
pub const CLIENT_NODE: u32 = u32::MAX;

/// The answer one reply message carries, without the token that routes
/// it back: what a node hands its reply, and what the asker receives.
pub trait ReplyBody: Sized {
    /// The reply message carrying this answer under the request's `token`.
    fn frame(self, token: u64) -> WireMsg;

    /// The answer inside `msg`, or `None` when `msg` is another message.
    fn unframe(msg: WireMsg) -> Option<Self>;
}

/// The protocol vocabulary, declared once. One row per message: the
/// variant, its tag byte, its [`WireMsg::kind`] name, an optional
/// preamble written ahead of the fields (the [`Handshake`]), and its
/// fields in wire order, each written and read through its type's
/// [`Field`] impl. A reply row names, after `=>`, the type of the answer
/// it carries; its variant gets the request's `token` ahead of those
/// fields. The table generates [`WireMsg`], its codec, [`WireMsg::KINDS`],
/// [`WireMsg::reply_token`] and, per reply, the answer type with its
/// [`ReplyBody`] impl.
macro_rules! messages {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $tag:literal, $kind:literal $(, $preamble:ident)?
        $({ $( $(#[$field_doc:meta])* $field:ident: $ty:ty, )* })?
        $(=> $body:ident { $( $(#[$body_doc:meta])* $body_field:ident: $body_ty:ty, )+ })?
    )+) => {
        /// One cluster protocol message on the wire.
        ///
        /// Request/reply pairs correlate through a `token` the requester chose;
        /// replies also carry the responding `node` id so they are
        /// self-describing in captured traces. Classes are raw `u32`s (the
        /// `ClassId` newtype lives upstream in `qa-workload`; the wire layer
        /// stays dependency-light).
        #[derive(Debug, Clone, PartialEq)]
        pub enum WireMsg {
            $(
                $(#[$doc])*
                $variant
                $({ $( $(#[$field_doc])* $field: $ty, )* })?
                $({
                    /// The request's token.
                    token: u64,
                    $( $(#[$body_doc])* $body_field: $body_ty, )+
                })?,
            )+
        }

        impl WireMsg {
            /// Every message's [`WireMsg::kind`], in tag order.
            pub const KINDS: &'static [&'static str] = &[$($kind),+];

            /// Encodes this message as one frame payload (tag + fields; the
            /// length prefix is the frame layer's job).
            pub fn encode(&self) -> Vec<u8> {
                let mut out = Vec::with_capacity(16);
                match self {
                    $(
                        WireMsg::$variant { $($( $field, )*)? $( token, $( $body_field, )+ )? } => {
                            out.push($tag);
                            $( $preamble::put(&mut out); )?
                            $($( $field.put(&mut out); )*)?
                            $( token.put(&mut out); $( $body_field.put(&mut out); )+ )?
                        }
                    )+
                }
                out
            }

            /// Decodes one frame payload. Strict: unknown tags/versions, short
            /// buffers, invalid values and trailing bytes are all typed errors,
            /// never panics.
            pub fn decode(payload: &[u8]) -> Result<WireMsg, CodecError> {
                let mut c = Cursor { buf: payload, pos: 0 };
                let msg = match c.take(1, "tag")?[0] {
                    $(
                        $tag => {
                            $( $preamble::check(&mut c)?; )?
                            WireMsg::$variant {
                                $($( $field: Field::take(&mut c, stringify!($field))?, )*)?
                                $( token: Field::take(&mut c, "token")?,
                                   $( $body_field: Field::take(&mut c, stringify!($body_field))?, )+ )?
                            }
                        }
                    )+
                    other => return Err(CodecError::UnknownTag(other)),
                };
                c.finish()?;
                Ok(msg)
            }

            /// A short stable name for logs and telemetry contexts.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( WireMsg::$variant { .. } => $kind, )+
                }
            }

            /// The token a reply answers, `None` for a message that is no
            /// reply.
            pub fn reply_token(&self) -> Option<u64> {
                match self {
                    $($( WireMsg::$variant { token, $( $body_field: _, )+ } => Some(*token), )?)+
                    _ => None,
                }
            }
        }

        $($(
            #[doc = concat!("The answer a [`WireMsg::", stringify!($variant), "`] carries.")]
            #[derive(Debug, Clone, PartialEq)]
            pub struct $body {
                $( $(#[$body_doc])* pub $body_field: $body_ty, )+
            }

            impl ReplyBody for $body {
                fn frame(self, token: u64) -> WireMsg {
                    WireMsg::$variant { token, $( $body_field: self.$body_field, )+ }
                }

                fn unframe(msg: WireMsg) -> Option<$body> {
                    match msg {
                        WireMsg::$variant { $( $body_field, )+ .. } => Some($body { $( $body_field, )+ }),
                        _ => None,
                    }
                }
            }
        )?)+
    };
}

messages! {
    /// Dialer's handshake: magic + protocol version + the dialer's node
    /// id (drivers use [`CLIENT_NODE`]).
    Hello = 0x01, "hello", Handshake {
        /// The dialing peer's node id.
        node: u32,
    }
    /// Listener's handshake reply: magic + version + its node id.
    HelloAck = 0x02, "hello_ack", Handshake {
        /// The listening node's id.
        node: u32,
    }
    /// Heartbeat probe.
    Ping = 0x03, "ping" {
        /// Echo nonce.
        nonce: u64,
    }
    /// Heartbeat answer.
    Pong = 0x04, "pong" {
        /// The probe's nonce.
        nonce: u64,
    }
    /// Greedy's estimate poll.
    Estimate = 0x10, "estimate" {
        /// Reply-correlation token.
        token: u64,
        /// The SQL to estimate.
        sql: String,
    }
    /// Reply to [`WireMsg::Estimate`].
    EstimateReply = 0x11, "estimate_reply" => EstimateReply {
        /// The responding node.
        node: u32,
        /// History-corrected execution estimate (ms).
        exec_ms: f64,
    }
    /// QA-NT's call-for-offers.
    CallForOffers = 0x12, "call_for_offers" {
        /// Reply-correlation token.
        token: u64,
        /// The query's class.
        class: u32,
        /// The SQL backing the offer's execution estimate.
        sql: String,
    }
    /// Reply to [`WireMsg::CallForOffers`].
    OfferReply = 0x13, "offer_reply" => OfferReply {
        /// The responding node.
        node: u32,
        /// Whether the node offers (QA-NT supply available).
        offered: bool,
        /// Estimated completion (queue backlog + execution), ms. The server
        /// voluntarily includes its own backlog — autonomy-preserving.
        completion_ms: f64,
    }
    /// Execute an accepted assignment.
    Execute = 0x14, "execute" {
        /// Reply-correlation token.
        token: u64,
        /// The query's class.
        class: u32,
        /// The SQL.
        sql: String,
    }
    /// Reply to [`WireMsg::Execute`].
    ExecReply = 0x15, "exec_reply" => ExecReply {
        /// The executing node.
        node: u32,
        /// Rows returned (row count only; the driver does not need payloads).
        rows: u64,
        /// Measured execution time (ms, wall clock including slowdown).
        exec_ms: f64,
        /// Error text if the query failed.
        error: Option<String>,
    }
    /// A QA-NT market period boundary.
    PeriodTick = 0x20, "period_tick"
    /// Ask the node for its private per-class price vector.
    DumpPrices = 0x21, "dump_prices" {
        /// Reply-correlation token.
        token: u64,
    }
    /// Reply to [`WireMsg::DumpPrices`] (empty for non-market nodes).
    Prices = 0x22, "prices" => PricesReply {
        /// The responding node.
        node: u32,
        /// Private per-class prices (empty when the node runs no market).
        prices: Vec<f64>,
    }
    /// Ask the node for a snapshot of its metrics registry (counters,
    /// gauges, Welford summaries, log-bucket histograms). The fleet
    /// scrape (`qa-ctl stats`) fans this to every node and merges the
    /// replies.
    StatsRequest = 0x23, "stats_request" {
        /// Reply-correlation token.
        token: u64,
    }
    /// Reply to [`WireMsg::StatsRequest`].
    StatsReply = 0x24, "stats_reply" => NodeStats {
        /// The responding node.
        node: u32,
        /// The registry snapshot as compact JSON
        /// (`MetricsRegistry::snapshot().dump()`): self-describing,
        /// forward-compatible as metric families come and go, and
        /// directly mergeable via `MetricsRegistry::merge_snapshot`.
        json: String,
    }
    /// Shut the node down.
    Shutdown = 0x2f, "shutdown"
}

/// The preamble of [`WireMsg::Hello`] and [`WireMsg::HelloAck`]: [`MAGIC`],
/// then [`PROTOCOL_VERSION`], both checked on read, so a peer speaking
/// another protocol or version fails the decode with a typed error.
struct Handshake;

impl Handshake {
    fn put(out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC);
        PROTOCOL_VERSION.put(out);
    }

    fn check(c: &mut Cursor<'_>) -> Result<(), CodecError> {
        let magic = c.take(4, "magic")?;
        let magic: [u8; 4] = magic.try_into().expect("take yields the 4 bytes asked for");
        if magic != MAGIC {
            return Err(CodecError::BadMagic(magic));
        }
        match u16::take(c, "version")? {
            PROTOCOL_VERSION => Ok(()),
            version => Err(CodecError::UnknownVersion(version)),
        }
    }
}

/// Bounds-checked little-endian reader over a payload slice. Every take
/// validates the remaining length first, so decode never over-reads and
/// never allocates more than the buffer actually holds.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { field });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(CodecError::TrailingBytes { extra }),
        }
    }
}

/// A field type's wire form: how a value is written, and how it is read
/// back strictly, naming `field` in any error.
trait Field: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn take(c: &mut Cursor<'_>, field: &'static str) -> Result<Self, CodecError>;
}

macro_rules! le_field {
    ($($t:ty),+) => {$(
        impl Field for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn take(c: &mut Cursor<'_>, field: &'static str) -> Result<$t, CodecError> {
                let bytes = c.take(std::mem::size_of::<$t>(), field)?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("take yields the width asked for")))
            }
        }
    )+};
}

le_field!(u16, u32, u64);

/// By its IEEE-754 bits.
impl Field for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }

    fn take(c: &mut Cursor<'_>, field: &'static str) -> Result<f64, CodecError> {
        u64::take(c, field).map(f64::from_bits)
    }
}

/// One byte, 0 or 1; anything else is [`CodecError::BadValue`].
impl Field for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn take(c: &mut Cursor<'_>, field: &'static str) -> Result<bool, CodecError> {
        match c.take(1, field)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::BadValue { field }),
        }
    }
}

/// `u32` byte length, then UTF-8.
impl Field for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn take(c: &mut Cursor<'_>, field: &'static str) -> Result<String, CodecError> {
        let len = u32::take(c, field)? as usize;
        let bytes = c.take(len, field)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8 { field })
    }
}

/// A presence flag (a `bool`), then the value when present.
impl<T: Field> Field for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }

    fn take(c: &mut Cursor<'_>, field: &'static str) -> Result<Option<T>, CodecError> {
        match bool::take(c, field)? {
            true => T::take(c, field).map(Some),
            false => Ok(None),
        }
    }
}

/// `u32` element count, then the elements.
impl Field for Vec<f64> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for x in self {
            x.put(out);
        }
    }

    fn take(c: &mut Cursor<'_>, field: &'static str) -> Result<Vec<f64>, CodecError> {
        let count = u32::take(c, field)? as usize;
        // Validate against the bytes present before reserving anything:
        // a hostile count cannot trigger an unbounded allocation.
        if c.remaining() < count * 8 {
            return Err(CodecError::Truncated { field });
        }
        (0..count).map(|_| f64::take(c, field)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The autonomy invariant (§3.3: "Query prices are never disclosed or
    /// exchanged over the network"), read off the vocabulary itself: no
    /// field of any `messages!` row is named like a price, except in the
    /// operator tooling that dumps a node's prices or its metrics.
    #[test]
    fn no_message_carries_a_price() {
        const TOOLING: [&str; 3] = ["DumpPrices", "Prices", "StatsReply"];
        let source = include_str!("wire.rs");
        let table = source.split("\nmessages! {\n").nth(1).expect("the table");
        let table = &table[..table.find("\n}\n").expect("its end")];
        let (mut rows, mut tooling_prices) = (Vec::new(), 0);
        for line in table.lines() {
            let code = line.trim_start();
            let indent = line.len() - code.len();
            let name = code
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .next();
            match (indent, name) {
                (4, Some(row)) if code.contains(" = 0x") => rows.push(row),
                (8, Some(field)) if code.contains(": ") && field.contains("price") => {
                    let row = rows.last().expect("a field inside a row");
                    assert!(TOOLING.contains(row), "{row}.{field} carries a price");
                    tooling_prices += 1;
                }
                _ => {}
            }
        }
        let market = ["CallForOffers", "OfferReply", "Execute", "ExecReply"];
        assert!(
            market.iter().chain(&TOOLING).all(|r| rows.contains(r)),
            "{rows:?}"
        );
        assert_eq!(tooling_prices, 1, "Prices.prices is the one priced field");
    }

    #[test]
    fn unknown_version_is_typed() {
        let mut bytes = WireMsg::Hello { node: 3 }.encode();
        // Version field sits after tag + 4 magic bytes.
        bytes[5] = 0xFF;
        bytes[6] = 0xFF;
        assert_eq!(
            WireMsg::decode(&bytes),
            Err(CodecError::UnknownVersion(0xFFFF))
        );
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = WireMsg::HelloAck { node: 0 }.encode();
        bytes[1] = b'X';
        assert!(matches!(
            WireMsg::decode(&bytes),
            Err(CodecError::BadMagic(_))
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = WireMsg::PeriodTick.encode();
        bytes.push(0);
        assert_eq!(
            WireMsg::decode(&bytes),
            Err(CodecError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn empty_payload_is_truncated() {
        assert_eq!(
            WireMsg::decode(&[]),
            Err(CodecError::Truncated { field: "tag" })
        );
    }

    #[test]
    fn bogus_float_count_cannot_allocate() {
        // Prices frame claiming u32::MAX floats but holding none.
        let mut bytes = vec![0x22];
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            WireMsg::decode(&bytes),
            Err(CodecError::Truncated { field: "prices" })
        );
    }

    #[test]
    fn bool_field_must_be_binary() {
        let mut bytes = WireMsg::OfferReply {
            token: 1,
            node: 2,
            offered: true,
            completion_ms: 3.0,
        }
        .encode();
        // The offered byte sits after tag + token(8) + node(4).
        bytes[13] = 7;
        assert_eq!(
            WireMsg::decode(&bytes),
            Err(CodecError::BadValue { field: "offered" })
        );
    }

    #[test]
    fn stats_messages_round_trip() {
        let req = WireMsg::StatsRequest { token: 42 };
        assert_eq!(WireMsg::decode(&req.encode()), Ok(req.clone()));
        assert_eq!(req.kind(), "stats_request");
        let reply = WireMsg::StatsReply {
            token: 42,
            node: 3,
            json:
                r#"{"counters":{"qad.queries_executed":7},"gauges":{},"stats":{},"histograms":{}}"#
                    .into(),
        };
        assert_eq!(WireMsg::decode(&reply.encode()), Ok(reply.clone()));
        assert_eq!(reply.kind(), "stats_reply");
        // Truncating the JSON length field is a typed error, not a panic.
        let mut bytes = reply.encode();
        bytes.truncate(14);
        assert_eq!(
            WireMsg::decode(&bytes),
            Err(CodecError::Truncated { field: "json" })
        );
    }

    #[test]
    fn reply_bodies_frame_and_unframe_under_their_token() {
        let body = OfferReply {
            node: 2,
            offered: true,
            completion_ms: 3.0,
        };
        let msg = body.clone().frame(9);
        let want = WireMsg::OfferReply {
            token: 9,
            node: 2,
            offered: true,
            completion_ms: 3.0,
        };
        assert_eq!(msg, want);
        assert_eq!(msg.reply_token(), Some(9));
        assert_eq!(OfferReply::unframe(msg), Some(body));
        // Any other message, reply or not, holds no offer.
        let stats = NodeStats {
            node: 2,
            json: "{}".into(),
        };
        assert_eq!(OfferReply::unframe(stats.frame(9)), None);
        assert_eq!(WireMsg::DumpPrices { token: 9 }.reply_token(), None);
    }

    #[test]
    fn errors_display_and_chain() {
        let e = NetError::from(CodecError::UnknownTag(0xEE));
        assert!(e.to_string().contains("0xee"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
