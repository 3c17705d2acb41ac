//! The wire frame: a fixed header plus a CRC32-checked payload.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"LCF1"
//! 4       1     frame type (see [`FrameType`])
//! 5       4     payload length (little-endian u32, ≤ 1 GiB)
//! 9       4     CRC32 of the payload (little-endian u32)
//! 13      …     payload bytes
//! ```
//!
//! The header is read separately from the payload on purpose: the
//! coordinator's reader threads peek at the type of an incoming frame and
//! wait for the merge gate *before* pulling a (potentially large) shard
//! payload into memory — see [`crate::coordinator`]. The CRC uses the same
//! IEEE polynomial as snapshot sections ([`locec_store::format::crc32`]),
//! so a shard payload's integrity is checked twice with one code path:
//! once per frame, once per snapshot section when it is decoded.
//!
//! Every way a frame can go wrong on the wire is a distinct
//! [`FrameError`] variant, so callers can tell "the peer hung up cleanly"
//! from "the peer sent garbage" — the worker's reconnect loop treats both
//! as transient, but diagnostics and tests pin the exact failure.

use locec_store::format::crc32;
use std::fmt;
use std::io::{Read, Write};

/// The 4-byte frame magic (protocol revision 1).
pub const FRAME_MAGIC: [u8; 4] = *b"LCF1";

/// Largest payload a reader accepts — bounds allocation against a corrupt
/// or hostile length field.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 30;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Worker → coordinator: handshake (protocol version, identity, auth).
    Hello = 1,
    /// Coordinator → worker: world + divide parameters.
    Welcome = 2,
    /// Coordinator → worker: one leased ego range.
    Lease = 3,
    /// Worker → coordinator: the divided shard of one lease.
    ShardResult = 4,
    /// Worker → coordinator: liveness signal (refreshes lease deadlines).
    Heartbeat = 5,
    /// Coordinator → worker: no more work; exit cleanly.
    Shutdown = 6,
    /// Coordinator → worker: handshake refused (version or auth); the
    /// payload carries a typed [`crate::protocol::RejectReason`].
    Reject = 7,
    /// Serve client → daemon: handshake (serve protocol version).
    ServeHello = 8,
    /// Daemon → serve client: handshake accepted (epoch + world shape).
    ServeWelcome = 9,
    /// Serve client → daemon: classify one edge `⟨u, v⟩`.
    EdgeQuery = 10,
    /// Daemon → serve client: the edge's predicted relationship type and
    /// class probabilities, stamped with the answering epoch.
    EdgeReply = 11,
    /// Serve client → daemon: list every local community a node belongs to.
    CommunityQuery = 12,
    /// Daemon → serve client: the node's (overlapping) community
    /// memberships.
    CommunityReply = 13,
    /// Serve client → daemon: the node's top-k most intimate neighbors.
    TopKQuery = 14,
    /// Daemon → serve client: the ranked `(neighbor, intimacy)` list.
    TopKReply = 15,
    /// Serve client → daemon: daemon status/stats request.
    StatusQuery = 16,
    /// Daemon → serve client: epoch, uptime and per-verb counters.
    StatusReply = 17,
    /// Serve client → daemon: hot-swap to a new division snapshot.
    Reload = 18,
    /// Daemon → serve client: the reload outcome (new epoch or a refusal).
    ReloadReply = 19,
}

impl FrameType {
    /// Parses the header field.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => FrameType::Hello,
            2 => FrameType::Welcome,
            3 => FrameType::Lease,
            4 => FrameType::ShardResult,
            5 => FrameType::Heartbeat,
            6 => FrameType::Shutdown,
            7 => FrameType::Reject,
            8 => FrameType::ServeHello,
            9 => FrameType::ServeWelcome,
            10 => FrameType::EdgeQuery,
            11 => FrameType::EdgeReply,
            12 => FrameType::CommunityQuery,
            13 => FrameType::CommunityReply,
            14 => FrameType::TopKQuery,
            15 => FrameType::TopKReply,
            16 => FrameType::StatusQuery,
            17 => FrameType::StatusReply,
            18 => FrameType::Reload,
            19 => FrameType::ReloadReply,
            _ => return None,
        })
    }

    /// The spelling used by `--fault-plan` specs and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            FrameType::Hello => "hello",
            FrameType::Welcome => "welcome",
            FrameType::Lease => "lease",
            FrameType::ShardResult => "shard-result",
            FrameType::Heartbeat => "heartbeat",
            FrameType::Shutdown => "shutdown",
            FrameType::Reject => "reject",
            FrameType::ServeHello => "serve-hello",
            FrameType::ServeWelcome => "serve-welcome",
            FrameType::EdgeQuery => "edge-query",
            FrameType::EdgeReply => "edge-reply",
            FrameType::CommunityQuery => "community-query",
            FrameType::CommunityReply => "community-reply",
            FrameType::TopKQuery => "top-k-query",
            FrameType::TopKReply => "top-k-reply",
            FrameType::StatusQuery => "status-query",
            FrameType::StatusReply => "status-reply",
            FrameType::Reload => "reload",
            FrameType::ReloadReply => "reload-reply",
        }
    }
}

/// A parsed frame header; the payload is still on the wire.
#[derive(Clone, Copy, Debug)]
pub struct FrameHeader {
    /// What the payload is.
    pub frame_type: FrameType,
    /// Payload byte count.
    pub len: u32,
    /// Declared CRC32 of the payload.
    pub crc: u32,
}

/// Everything that can go wrong between "bytes on a socket" and "one
/// verified frame". Each variant is a distinct, testable failure mode;
/// none of them panic.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying read or write failed.
    Io(std::io::Error),
    /// Clean EOF *between* frames — the peer hung up at a frame boundary.
    Closed,
    /// EOF after some but not all of the 13 header bytes.
    TruncatedHeader,
    /// EOF inside the payload a header announced.
    TruncatedPayload,
    /// The first four bytes were not `LCF1`.
    BadMagic,
    /// The type byte is outside the [`FrameType`] registry.
    UnknownType(u8),
    /// The declared payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversize(u32),
    /// The payload arrived but its CRC32 does not match the header.
    ChecksumMismatch,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Closed => write!(f, "connection closed between frames"),
            FrameError::TruncatedHeader => write!(f, "connection closed inside a frame header"),
            FrameError::TruncatedPayload => write!(f, "connection closed inside a frame payload"),
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::UnknownType(v) => write!(f, "unknown frame type {v}"),
            FrameError::Oversize(len) => {
                write!(f, "frame payload of {len} bytes exceeds the size cap")
            }
            FrameError::ChecksumMismatch => write!(f, "frame payload checksum mismatch"),
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Serializes one frame (header + payload) into a byte vector — useful for
/// prebuilding a frame that is written to many peers. Payloads past the
/// size cap are a typed error (a `u32` length field cannot represent them,
/// and receivers reject them anyway).
pub fn frame_bytes(frame_type: FrameType, payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    if payload.len() > MAX_FRAME_PAYLOAD as usize {
        return Err(FrameError::Oversize(
            payload.len().min(u32::MAX as usize) as u32
        ));
    }
    let mut out = Vec::with_capacity(13 + payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(frame_type as u8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Writes one frame.
pub fn write_frame<W: Write>(
    w: &mut W,
    frame_type: FrameType,
    payload: &[u8],
) -> Result<(), FrameError> {
    w.write_all(&frame_bytes(frame_type, payload)?)?;
    w.flush()?;
    Ok(())
}

/// Reads a frame header. A clean EOF *before the first header byte* is the
/// peer hanging up between frames and surfaces as [`FrameError::Closed`];
/// an EOF inside the header is [`FrameError::TruncatedHeader`].
pub fn read_header<R: Read>(r: &mut R) -> Result<FrameHeader, FrameError> {
    let mut buf = [0u8; 13];
    let mut got = 0usize;
    while got < buf.len() {
        let k = r.read(&mut buf[got..])?;
        if k == 0 {
            return Err(if got == 0 {
                FrameError::Closed
            } else {
                FrameError::TruncatedHeader
            });
        }
        got += k;
    }
    if buf[..4] != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let frame_type = FrameType::from_u8(buf[4]).ok_or(FrameError::UnknownType(buf[4]))?;
    let len = u32::from_le_bytes([buf[5], buf[6], buf[7], buf[8]]);
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Oversize(len));
    }
    let crc = u32::from_le_bytes([buf[9], buf[10], buf[11], buf[12]]);
    Ok(FrameHeader {
        frame_type,
        len,
        crc,
    })
}

/// Reads and checksum-verifies the payload a header announced. The buffer
/// starts at most 64 KiB and grows with the bytes that arrive, so a lying
/// length costs memory for what the peer sends, not for what it declares.
pub fn read_payload<R: Read>(r: &mut R, header: &FrameHeader) -> Result<Vec<u8>, FrameError> {
    let len = header.len as usize;
    let mut payload = Vec::with_capacity(len.min(64 << 10));
    r.take(u64::from(header.len)).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(FrameError::TruncatedPayload);
    }
    if crc32(&payload) != header.crc {
        return Err(FrameError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Convenience header-plus-payload read.
pub fn read_frame<R: Read>(r: &mut R) -> Result<(FrameType, Vec<u8>), FrameError> {
    let header = read_header(r)?;
    let payload = read_payload(r, &header)?;
    Ok((header.frame_type, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameType::Lease, b"abc").unwrap();
        write_frame(&mut wire, FrameType::Heartbeat, b"").unwrap();
        let mut r = wire.as_slice();
        assert_eq!(
            read_frame(&mut r).unwrap(),
            (FrameType::Lease, b"abc".to_vec())
        );
        assert_eq!(
            read_frame(&mut r).unwrap(),
            (FrameType::Heartbeat, Vec::new())
        );
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn every_frame_type_roundtrips_through_the_wire() {
        let all = [
            FrameType::Hello,
            FrameType::Welcome,
            FrameType::Lease,
            FrameType::ShardResult,
            FrameType::Heartbeat,
            FrameType::Shutdown,
            FrameType::Reject,
            FrameType::ServeHello,
            FrameType::ServeWelcome,
            FrameType::EdgeQuery,
            FrameType::EdgeReply,
            FrameType::CommunityQuery,
            FrameType::CommunityReply,
            FrameType::TopKQuery,
            FrameType::TopKReply,
            FrameType::StatusQuery,
            FrameType::StatusReply,
            FrameType::Reload,
            FrameType::ReloadReply,
        ];
        for (i, &ft) in all.iter().enumerate() {
            // Distinct payloads per type, including the empty one.
            let payload = vec![i as u8; i];
            let wire = frame_bytes(ft, &payload).unwrap();
            assert_eq!(FrameType::from_u8(wire[4]), Some(ft), "{ft:?}");
            assert!(!ft.name().is_empty());
            assert_eq!(
                read_frame(&mut wire.as_slice()).unwrap(),
                (ft, payload),
                "{ft:?}"
            );
        }
        // The registered discriminants are dense (1..=last) and every one
        // round-trips; the registry ends at ReloadReply — the next
        // discriminant is unknown, as is 0.
        for (i, &ft) in all.iter().enumerate() {
            assert_eq!(ft as u8, i as u8 + 1, "{ft:?} discriminant");
        }
        assert_eq!(FrameType::from_u8(0), None);
        assert_eq!(FrameType::from_u8(FrameType::ReloadReply as u8 + 1), None);
    }

    /// Every corruption mode yields its own [`FrameError`] variant on the
    /// one-shot `read_frame` path.
    #[test]
    fn corruption_and_truncation_are_typed_errors() {
        let wire = frame_bytes(FrameType::ShardResult, b"payload").unwrap();
        // Flip a payload byte: checksum failure.
        let mut bad = wire.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(FrameError::ChecksumMismatch)
        ));
        // Flip a CRC byte instead of a payload byte: same typed failure.
        let mut bad = wire.clone();
        bad[9] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(FrameError::ChecksumMismatch)
        ));
        // Bad magic.
        let mut bad = wire.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(FrameError::BadMagic)
        ));
        // Unknown type.
        let mut bad = wire.clone();
        bad[4] = 99;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(FrameError::UnknownType(99))
        ));
        // Truncation inside the header and inside the payload.
        assert!(matches!(
            read_frame(&mut &wire[..7]),
            Err(FrameError::TruncatedHeader)
        ));
        assert!(matches!(
            read_frame(&mut &wire[..wire.len() - 2]),
            Err(FrameError::TruncatedPayload)
        ));
        // Oversize length field is rejected before allocating.
        let mut bad = wire;
        bad[5..9].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(FrameError::Oversize(_))
        ));
    }

    /// The same corruption modes through the split `read_header` +
    /// `read_payload` path the coordinator's reader threads use.
    #[test]
    fn split_read_path_reports_the_same_typed_errors() {
        let wire = frame_bytes(FrameType::ShardResult, b"split-path").unwrap();

        // Happy path first, so the split readers are known-good.
        let mut r = wire.as_slice();
        let header = read_header(&mut r).unwrap();
        assert_eq!(header.frame_type, FrameType::ShardResult);
        assert_eq!(read_payload(&mut r, &header).unwrap(), b"split-path");

        // Clean EOF at a frame boundary vs. truncated mid-header.
        assert!(matches!(
            read_header(&mut &wire[..0]),
            Err(FrameError::Closed)
        ));
        assert!(matches!(
            read_header(&mut &wire[..5]),
            Err(FrameError::TruncatedHeader)
        ));

        // Header-level corruption never reaches read_payload.
        let mut bad = wire.clone();
        bad[0] = b'Y';
        assert!(matches!(
            read_header(&mut bad.as_slice()),
            Err(FrameError::BadMagic)
        ));
        let mut bad = wire.clone();
        bad[4] = 200;
        assert!(matches!(
            read_header(&mut bad.as_slice()),
            Err(FrameError::UnknownType(200))
        ));
        let mut bad = wire.clone();
        bad[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_header(&mut bad.as_slice()),
            Err(FrameError::Oversize(_))
        ));

        // Payload truncation and corruption after a good header.
        let mut r = &wire[..wire.len() - 3];
        let header = read_header(&mut r).unwrap();
        assert!(matches!(
            read_payload(&mut r, &header),
            Err(FrameError::TruncatedPayload)
        ));
        let mut bad = wire.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x55;
        let mut r = bad.as_slice();
        let header = read_header(&mut r).unwrap();
        assert!(matches!(
            read_payload(&mut r, &header),
            Err(FrameError::ChecksumMismatch)
        ));
    }

    /// A header may declare up to `MAX_FRAME_PAYLOAD` bytes and then send
    /// three: the reader's buffer follows the bytes, not the declaration.
    #[test]
    fn a_lying_length_is_not_allocated_up_front() {
        struct Recording<'a> {
            bytes: &'a [u8],
            largest: usize,
        }
        impl Read for Recording<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.largest = self.largest.max(buf.len());
                self.bytes.read(buf)
            }
        }
        let mut wire = frame_bytes(FrameType::ShardResult, b"abc").unwrap();
        wire[5..9].copy_from_slice(&MAX_FRAME_PAYLOAD.to_le_bytes());
        let mut r = Recording {
            bytes: &wire,
            largest: 0,
        };
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::TruncatedPayload)
        ));
        assert!(r.largest <= 64 << 10, "asked to fill {} bytes", r.largest);
    }
}
