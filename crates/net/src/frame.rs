//! Length-prefixed frames and the connection handshake.
//!
//! The stream format is `[len: u32 LE][payload: len bytes]` repeated; a
//! payload is one [`WireMsg`] encoding. The reader
//! validates the prefix against a hard cap **before** allocating, so a
//! mangled or hostile prefix costs four bytes of reading, not gigabytes
//! of memory.
//!
//! The handshake is the first frame in each direction: the dialer sends
//! [`WireMsg::Hello`] (magic + version +
//! node id), the listener answers with `HelloAck`. Magic and version are
//! validated by the codec itself, so a peer speaking a different protocol
//! or version surfaces as a typed [`CodecError`]
//! rather than garbage.

use crate::wire::{CodecError, NetError, WireMsg};
use std::io::{Read, Write};

/// Handshake magic: the first four payload bytes of a `Hello`.
pub(crate) const MAGIC: [u8; 4] = *b"QANT";

/// The protocol version this build speaks. Bump on any wire change: the
/// root package's `every_message_keeps_its_pinned_wire_bytes` test
/// (`tests/net_codec.rs`) fails when a message's bytes move.
/// v2: added `StatsRequest`/`StatsReply` (fleet metrics scrape).
pub(crate) const PROTOCOL_VERSION: u16 = 2;

/// Hard cap on one frame's payload (1 MiB — generous for SQL text, tiny
/// against a hostile length prefix).
pub const MAX_FRAME: u32 = 1 << 20;

/// Writes one frame (length prefix + payload) and flushes.
///
/// # Errors
/// [`NetError::Codec`] when the payload exceeds [`MAX_FRAME`] (programmer
/// error upstream, but never silently truncated), [`NetError::Io`] on a
/// socket failure.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), NetError> {
    if payload.len() as u64 > MAX_FRAME as u64 {
        return Err(CodecError::FrameTooLarge {
            len: payload.len() as u64,
            max: MAX_FRAME,
        }
        .into());
    }
    let len = (payload.len() as u32).to_le_bytes();
    w.write_all(&len)
        .and_then(|_| w.write_all(payload))
        .and_then(|_| w.flush())
        .map_err(|e| NetError::io("write frame", &e))
}

/// Reads one frame payload, enforcing `max` before any allocation.
///
/// # Errors
/// [`NetError::PeerClosed`] on clean EOF at a frame boundary,
/// [`NetError::Codec`] for an oversized prefix or mid-frame EOF,
/// [`NetError::Io`] on a socket failure.
pub(crate) fn read_frame(r: &mut impl Read, max: u32) -> Result<Vec<u8>, NetError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Err(NetError::PeerClosed),
            Ok(0) => return Err(CodecError::Truncated { field: "frame len" }.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(NetError::io("read frame len", &e)),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > max {
        return Err(CodecError::FrameTooLarge {
            len: len as u64,
            max,
        }
        .into());
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            NetError::Codec(CodecError::Truncated {
                field: "frame payload",
            })
        } else {
            NetError::io("read frame payload", &e)
        }
    })?;
    Ok(payload)
}

/// Encodes and writes one message as a frame.
pub fn send_msg(w: &mut impl Write, msg: &WireMsg) -> Result<(), NetError> {
    write_frame(w, &msg.encode())
}

/// Reads and decodes one message frame.
pub fn recv_msg(r: &mut impl Read, max: u32) -> Result<WireMsg, NetError> {
    let payload = read_frame(r, max)?;
    Ok(WireMsg::decode(&payload)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip_over_a_buffer() {
        let msgs = [
            WireMsg::Hello { node: 7 },
            WireMsg::Estimate {
                token: 9,
                sql: "SELECT 1".into(),
            },
            WireMsg::Shutdown,
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            send_msg(&mut buf, m).unwrap();
        }
        let mut r = &buf[..];
        for m in &msgs {
            assert_eq!(&recv_msg(&mut r, MAX_FRAME).unwrap(), m);
        }
        assert_eq!(recv_msg(&mut r, MAX_FRAME), Err(NetError::PeerClosed));
    }

    #[test]
    fn oversized_prefix_errors_before_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        // No payload follows; if the reader tried to allocate first this
        // would be a 4 GiB Vec.
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, MAX_FRAME),
            Err(NetError::Codec(CodecError::FrameTooLarge {
                len: u32::MAX as u64,
                max: MAX_FRAME,
            }))
        );
    }

    #[test]
    fn mid_frame_eof_is_truncated() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(&[1, 2, 3]);
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, MAX_FRAME),
            Err(NetError::Codec(CodecError::Truncated {
                field: "frame payload",
            }))
        );
    }

    #[test]
    fn mid_prefix_eof_is_truncated() {
        let buf = [0u8, 1];
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, MAX_FRAME),
            Err(NetError::Codec(CodecError::Truncated {
                field: "frame len"
            }))
        );
    }

    #[test]
    fn oversized_payload_refused_on_write() {
        let payload = vec![0u8; MAX_FRAME as usize + 1];
        let mut out = Vec::new();
        assert!(matches!(
            write_frame(&mut out, &payload),
            Err(NetError::Codec(CodecError::FrameTooLarge { .. }))
        ));
        assert!(out.is_empty(), "nothing may be written");
    }
}
