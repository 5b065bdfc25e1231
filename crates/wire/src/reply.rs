//! The reply (Table 4).

use crate::error::WireError;
use crate::header::{check_len, ResponseHeader};
use portals_types::Gather;

/// A reply carrying a get's data back to its initiator.
///
/// §4.7: "Like an acknowledgment, most of the information is simply echoed from
/// the get request ... The only new information ... are the manipulated length
/// and the data which are determined as the get request is satisfied."
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Echoed-and-swapped fields; `manipulated_length` is the byte count
    /// actually read from the target's memory region.
    pub header: ResponseHeader,
    /// The data read from the target (length == `manipulated_length`), as a
    /// gather of region views.
    pub payload: Gather,
}

impl Reply {
    /// Fixed-size portion on the wire (excludes payload).
    pub const WIRE_HEADER_SIZE: usize = ResponseHeader::WIRE_SIZE;

    /// Read the fixed-size portion (envelope excluded) off the front of
    /// `buf`: the reply with an empty payload.
    pub(crate) fn decode_header(buf: &mut &[u8]) -> Result<Reply, WireError> {
        check_len(buf, Self::WIRE_HEADER_SIZE)?;
        Ok(Reply {
            header: ResponseHeader::decode(buf),
            payload: Gather::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::RAW_HANDLE_NONE;
    use crate::PortalsMessage;
    use portals_types::{MatchBits, ProcessId};

    fn sample(len: usize) -> Reply {
        Reply {
            header: ResponseHeader {
                initiator: ProcessId::new(1, 1),
                target: ProcessId::new(0, 1),
                portal_index: 2,
                match_bits: MatchBits::new(7),
                offset: 0,
                md_handle: 33,
                eq_handle: RAW_HANDLE_NONE,
                requested_length: len as u64,
                manipulated_length: len as u64,
            },
            payload: Gather::from_vec(vec![3u8; len]),
        }
    }

    #[test]
    fn roundtrip() {
        let reply = PortalsMessage::Reply(sample(64));
        let buf = reply.encode();
        let at = PortalsMessage::ENVELOPE_SIZE + Reply::WIRE_HEADER_SIZE;
        assert_eq!(buf.len(), at + 64);
        assert_eq!(PortalsMessage::decode(&buf).unwrap(), reply);
    }

    #[test]
    fn empty_reply_roundtrip() {
        let reply = PortalsMessage::Reply(sample(0));
        assert_eq!(PortalsMessage::decode(&reply.encode()).unwrap(), reply);
    }

    #[test]
    fn payload_must_match_manipulated_length() {
        let mut reply = sample(32);
        reply.header.manipulated_length = 16; // lie about the length
        assert!(matches!(
            PortalsMessage::decode(&PortalsMessage::Reply(reply).encode()),
            Err(WireError::LengthMismatch {
                declared: 16,
                actual: 32
            })
        ));
    }
}
