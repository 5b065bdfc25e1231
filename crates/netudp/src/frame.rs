//! The UDP wire frame: how transport packets travel inside real datagrams.
//!
//! A UDP socket gives us payload bytes and a source *socket address* — but
//! the transport routes by [`NodeId`]. The frame prepends the node-id routing
//! header the wire itself cannot carry:
//!
//! ```text
//! offset  size  field
//! 0       1     magic (0xD6)
//! 1       1     version (1)
//! 2       4     source NodeId, little-endian
//! 6       4     destination NodeId, little-endian
//! 10      4     payload length, little-endian
//! 14      4     CRC-32C over bytes 0..14, little-endian
//! 18      …     payload (an encoded transport packet)
//! ```
//!
//! The frame CRC covers only the routing header: payload integrity is the
//! transport packet's own job ([`UdpLink`](crate::UdpLink) reports
//! `LinkCaps::body_checksum`, so every DATA packet's CRC covers its body).
//! Covering the payload twice would buy nothing and cost a second pass over
//! every byte.

use portals_types::NodeId;
use portals_wire::checksum::crc32;

/// First byte of every frame. Distinct from the transport packet magic
/// (`0xB3`) so a frame mistakenly fed to the packet decoder (or vice versa)
/// is rejected at the first byte.
pub const FRAME_MAGIC: u8 = 0xD6;

/// Frame layout version.
pub const FRAME_VERSION: u8 = 1;

/// Bytes of framing before the payload.
pub const FRAME_HEADER: usize = 1 + 1 + 4 + 4 + 4 + 4;

/// Why an inbound datagram was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than the header, or shorter than the declared payload length.
    /// (Longer is also rejected: UDP preserves message boundaries, so extra
    /// bytes mean a corrupt length field that happened to pass the CRC — or
    /// a foreign sender.)
    Truncated,
    /// Wrong magic or version byte.
    BadMagic,
    /// The header CRC did not verify.
    Checksum,
}

/// Encode a frame around `payload_len` payload bytes; the payload itself is
/// appended by the caller (straight from the gather's segments, no
/// intermediate copy of the payload into a second buffer).
pub fn encode_header(src: NodeId, dst: NodeId, payload_len: usize, out: &mut Vec<u8>) {
    out.push(FRAME_MAGIC);
    out.push(FRAME_VERSION);
    out.extend_from_slice(&src.0.to_le_bytes());
    out.extend_from_slice(&dst.0.to_le_bytes());
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    let crc = crc32(&out[out.len() - 14..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Validate the frame in `buf` (one whole received datagram) and return
/// `(src, dst, payload)` on success.
pub fn decode(buf: &[u8]) -> Result<(NodeId, NodeId, &[u8]), FrameError> {
    if buf.len() < FRAME_HEADER {
        // Too short to even carry a magic byte check? Distinguish: an empty
        // or tiny datagram with a wrong first byte is still "not ours".
        if !buf.is_empty() && buf[0] != FRAME_MAGIC {
            return Err(FrameError::BadMagic);
        }
        return Err(FrameError::Truncated);
    }
    if buf[0] != FRAME_MAGIC || buf[1] != FRAME_VERSION {
        return Err(FrameError::BadMagic);
    }
    let stored = u32::from_le_bytes(buf[14..18].try_into().expect("4 bytes"));
    if crc32(&buf[..14]) != stored {
        return Err(FrameError::Checksum);
    }
    let src = NodeId(u32::from_le_bytes(buf[2..6].try_into().expect("4 bytes")));
    let dst = NodeId(u32::from_le_bytes(buf[6..10].try_into().expect("4 bytes")));
    let len = u32::from_le_bytes(buf[10..14].try_into().expect("4 bytes")) as usize;
    if buf.len() != FRAME_HEADER + len {
        return Err(FrameError::Truncated);
    }
    Ok((src, dst, &buf[FRAME_HEADER..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(src: u32, dst: u32, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(FRAME_HEADER + payload.len());
        encode_header(NodeId(src), NodeId(dst), payload.len(), &mut buf);
        buf.extend_from_slice(payload);
        buf
    }

    #[test]
    fn roundtrip() {
        let buf = frame(3, 9, b"payload bytes");
        let (src, dst, payload) = decode(&buf).unwrap();
        assert_eq!(src, NodeId(3));
        assert_eq!(dst, NodeId(9));
        assert_eq!(payload, b"payload bytes");
    }

    #[test]
    fn empty_payload_roundtrips() {
        let buf = frame(0, 1, b"");
        let (_, _, payload) = decode(&buf).unwrap();
        assert!(payload.is_empty());
    }

    #[test]
    fn rejects_short_wrong_and_corrupt() {
        assert_eq!(decode(&[]), Err(FrameError::Truncated));
        assert_eq!(decode(&[0x00, 0x01, 0x02]), Err(FrameError::BadMagic));
        assert_eq!(
            decode(&[FRAME_MAGIC, FRAME_VERSION, 0]),
            Err(FrameError::Truncated)
        );

        let good = frame(1, 2, b"x");
        // Wrong version.
        let mut bad = good.clone();
        bad[1] = 7;
        assert_eq!(decode(&bad), Err(FrameError::BadMagic));
        // Any header bit flip fails the CRC.
        for byte in 2..14 {
            let mut bad = good.clone();
            bad[byte] ^= 0x10;
            assert_eq!(decode(&bad), Err(FrameError::Checksum), "byte {byte}");
        }
        // Truncated payload (datagram cut short in flight).
        assert_eq!(decode(&good[..good.len() - 1]), Err(FrameError::Truncated));
        // Trailing garbage: length field no longer matches the datagram.
        let mut long = good.clone();
        long.push(0xAA);
        assert_eq!(decode(&long), Err(FrameError::Truncated));
    }
}
