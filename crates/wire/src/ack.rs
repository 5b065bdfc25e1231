//! The acknowledgment (Table 2), alone or in a batch.
//!
//! A batch carries the acks one dispatch step owes one node in one message:
//! a little-endian `u32` count, then that many Table 2 headers, each exactly
//! the body a lone [`Ack`] would have. It is decoded all or nothing: a count
//! of zero, or a body that does not hold exactly `count` headers, is an
//! error, and no ack of it is delivered.

use crate::error::WireError;
use crate::header::{check_len, ResponseHeader};
use bytes::{BufMut, BytesMut};

/// An acknowledgment of a put.
///
/// §4.7: "Most of the information is simply echoed from the put request.
/// Notice that the initiator and target ... are swapped in generating the
/// acknowledgment. The only new piece of information in the acknowledgment is
/// the manipulated length, which is determined as the put request is
/// satisfied." Carries no payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// The echoed-and-swapped fields plus the manipulated length.
    pub header: ResponseHeader,
}

impl Ack {
    /// Size on the wire (headers only; acks never carry data).
    pub const WIRE_SIZE: usize = ResponseHeader::WIRE_SIZE;

    pub(crate) fn encode_body(&self, buf: &mut BytesMut) {
        self.header.encode(buf);
    }

    pub(crate) fn decode_body(buf: &[u8]) -> Result<Ack, WireError> {
        check_len(buf, Self::WIRE_SIZE)?;
        let mut cursor = buf;
        let header = ResponseHeader::decode(&mut cursor);
        Ok(Ack { header })
    }

    /// Size of a batch's count field.
    pub(crate) const BATCH_COUNT_SIZE: usize = 4;

    /// Size on the wire of a batch of `count` acks.
    pub(crate) const fn batch_wire_size(count: usize) -> usize {
        Self::BATCH_COUNT_SIZE + count * Self::WIRE_SIZE
    }

    pub(crate) fn encode_batch(acks: &[Ack], buf: &mut BytesMut) {
        buf.put_u32_le(acks.len() as u32);
        for ack in acks {
            ack.encode_body(buf);
        }
    }

    pub(crate) fn decode_batch(buf: &[u8]) -> Result<Vec<Ack>, WireError> {
        check_len(buf, Self::BATCH_COUNT_SIZE)?;
        let (count, headers) = buf.split_at(Self::BATCH_COUNT_SIZE);
        let count = u32::from_le_bytes(count.try_into().expect("four bytes")) as usize;
        // Checked before anything is allocated: the count is only believed
        // once the body holds exactly that many headers.
        let declared = count.saturating_mul(Self::WIRE_SIZE);
        if count == 0 || headers.len() != declared {
            return Err(WireError::LengthMismatch {
                declared,
                actual: headers.len(),
            });
        }
        headers
            .chunks_exact(Self::WIRE_SIZE)
            .map(Self::decode_body)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::RAW_HANDLE_NONE;
    use portals_types::{MatchBits, ProcessId};

    fn sample() -> Ack {
        Ack {
            header: ResponseHeader {
                initiator: ProcessId::new(1, 1), // the put's target
                target: ProcessId::new(0, 1),    // the put's initiator
                portal_index: 4,
                match_bits: MatchBits::new(42),
                offset: 0,
                md_handle: 9,
                eq_handle: 10,
                requested_length: 128,
                manipulated_length: 100, // truncated delivery
            },
        }
    }

    #[test]
    fn roundtrip() {
        let ack = sample();
        let mut buf = BytesMut::new();
        ack.encode_body(&mut buf);
        assert_eq!(buf.len(), Ack::WIRE_SIZE);
        assert_eq!(Ack::decode_body(&buf).unwrap(), ack);
    }

    #[test]
    fn truncated_rejected() {
        let ack = sample();
        let mut buf = BytesMut::new();
        ack.encode_body(&mut buf);
        assert!(matches!(
            Ack::decode_body(&buf[..8]),
            Err(WireError::Truncated { .. })
        ));
    }

    fn batch(count: u64) -> Vec<Ack> {
        (0..count)
            .map(|i| Ack {
                header: ResponseHeader {
                    offset: i * 1024,
                    ..sample().header
                },
            })
            .collect()
    }

    fn encoded_batch(acks: &[Ack]) -> BytesMut {
        let mut buf = BytesMut::new();
        Ack::encode_batch(acks, &mut buf);
        buf
    }

    #[test]
    fn a_batch_of_zero_is_rejected() {
        let mut buf = encoded_batch(&[]);
        assert_eq!(buf.len(), Ack::BATCH_COUNT_SIZE);
        assert!(Ack::decode_batch(&buf).is_err());
        // Nor does a zero count make room for headers after it.
        buf.extend_from_slice(&encoded_batch(&batch(1))[Ack::BATCH_COUNT_SIZE..]);
        assert!(Ack::decode_batch(&buf).is_err());
    }

    #[test]
    fn a_batch_count_must_agree_with_its_body() {
        let mut buf = encoded_batch(&batch(3));
        for count in [2u32, 4, u32::MAX] {
            buf[..Ack::BATCH_COUNT_SIZE].copy_from_slice(&count.to_le_bytes());
            assert!(matches!(
                Ack::decode_batch(&buf),
                Err(WireError::LengthMismatch { .. })
            ));
        }
    }

    #[test]
    fn a_batch_with_a_truncated_header_is_rejected() {
        let buf = encoded_batch(&batch(3));
        for cut in [0, 2, Ack::batch_wire_size(1) + 8, buf.len() - 1] {
            assert!(Ack::decode_batch(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn a_batch_with_trailing_bytes_is_rejected() {
        let mut buf = encoded_batch(&batch(2));
        buf.extend_from_slice(&[0]);
        assert!(Ack::decode_batch(&buf).is_err());
        buf.extend_from_slice(&[0; Ack::WIRE_SIZE - 1]);
        assert!(Ack::decode_batch(&buf).is_err(), "a whole header too many");
    }

    #[test]
    fn manipulated_length_may_differ_from_requested() {
        let ack = sample();
        assert_ne!(ack.header.manipulated_length, ack.header.requested_length);
        let _ = RAW_HANDLE_NONE; // silence unused import in cfg(test)
    }
}
