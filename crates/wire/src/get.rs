//! The get request (Table 3).

use crate::error::WireError;
use crate::header::{check_len, RawHandle, RequestHeader};
use bytes::{Buf, BufMut, BytesMut};

/// A get request: "the initiator sends a get request to the target" and the
/// target replies with data (§4.3).
///
/// Table 3 mirrors Table 1 minus the payload, and §4.7 is explicit that "unlike
/// put requests, get requests do not include the event queue handle. In this
/// case, the reply is generated whenever the operation succeeds and the memory
/// descriptor must not be unlinked until the reply is received" — so the only
/// local handle on the wire is the reply MD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetRequest {
    /// Common request fields; `length` is the number of bytes requested.
    pub header: RequestHeader,
    /// "Local memory region for the reply" — the initiator's MD handle, echoed
    /// back in the reply.
    pub reply_md: RawHandle,
}

impl GetRequest {
    /// Size on the wire (gets carry no payload).
    pub const WIRE_SIZE: usize = RequestHeader::WIRE_SIZE + 8;

    pub(crate) fn encode_body(&self, buf: &mut BytesMut) {
        self.header.encode(buf);
        buf.put_u64_le(self.reply_md);
    }

    /// Read one get request off the front of `buf`.
    pub(crate) fn decode_body(buf: &mut &[u8]) -> Result<GetRequest, WireError> {
        check_len(buf, Self::WIRE_SIZE)?;
        Ok(GetRequest {
            header: RequestHeader::decode(buf),
            reply_md: buf.get_u64_le(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portals_types::{MatchBits, ProcessId};

    fn sample() -> GetRequest {
        GetRequest {
            header: RequestHeader {
                initiator: ProcessId::new(0, 1),
                target: ProcessId::new(1, 1),
                portal_index: 2,
                cookie: 1,
                match_bits: MatchBits::new(0x1111_2222_3333_4444),
                offset: 512,
                length: 8192,
            },
            reply_md: 33,
        }
    }

    #[test]
    fn roundtrip() {
        let get = sample();
        let mut buf = BytesMut::new();
        get.encode_body(&mut buf);
        assert_eq!(buf.len(), GetRequest::WIRE_SIZE);
        assert_eq!(GetRequest::decode_body(&mut &buf[..]).unwrap(), get);
    }

    #[test]
    fn truncated_rejected() {
        let get = sample();
        let mut buf = BytesMut::new();
        get.encode_body(&mut buf);
        assert!(matches!(
            GetRequest::decode_body(&mut &buf[..20]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn get_is_smaller_than_put_header() {
        // Table 3 has one fewer handle field than our put request (no event
        // queue handle on gets, per §4.7).
        assert!(GetRequest::WIRE_SIZE < crate::put::PutRequest::WIRE_HEADER_SIZE);
    }
}
