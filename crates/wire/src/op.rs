//! Operation codes.

use crate::error::WireError;

/// The four Portals message types (§4.6: "The Portals API uses four types of
/// messages: put requests, acknowledgments, get requests, and replies"), plus
/// the atomic extension (Portals 4 lineage: `PtlAtomic`/`PtlFetchAtomic`)
/// carrying a target-side read-modify-write request, and a batch of
/// acknowledgments sharing one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Operation {
    /// A put (send) request carrying data toward the target (Table 1).
    PutRequest = 0x01,
    /// The optional acknowledgment of a put (Table 2).
    Ack = 0x02,
    /// A get (read) request (Table 3).
    GetRequest = 0x03,
    /// The reply carrying data back to a get's initiator (Table 4).
    Reply = 0x04,
    /// An atomic request: operand in, read-modify-write at the target, no
    /// value returned (acked like a put).
    AtomicRequest = 0x05,
    /// A fetching atomic request: operand in, prior value returned via a
    /// reply (like a get).
    FetchAtomicRequest = 0x06,
    /// Several acknowledgments in one message, each a whole Table 2 header.
    AckBatch = 0x07,
}

impl Operation {
    /// Decode from the wire byte.
    pub fn from_byte(b: u8) -> Result<Operation, WireError> {
        match b {
            0x01 => Ok(Operation::PutRequest),
            0x02 => Ok(Operation::Ack),
            0x03 => Ok(Operation::GetRequest),
            0x04 => Ok(Operation::Reply),
            0x05 => Ok(Operation::AtomicRequest),
            0x06 => Ok(Operation::FetchAtomicRequest),
            0x07 => Ok(Operation::AckBatch),
            other => Err(WireError::UnknownOperation(other)),
        }
    }

    /// The wire byte.
    #[inline]
    pub fn to_byte(self) -> u8 {
        self as u8
    }

    /// §4.8: acknowledgments and replies are *responses* — they "bypass the
    /// access control checks and the translation step". Put and get requests
    /// take the full validation path.
    #[inline]
    pub fn is_response(self) -> bool {
        matches!(
            self,
            Operation::Ack | Operation::AckBatch | Operation::Reply
        )
    }

    /// True for the two request types.
    #[inline]
    pub fn is_request(self) -> bool {
        !self.is_response()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_roundtrip() {
        for op in [
            Operation::PutRequest,
            Operation::Ack,
            Operation::GetRequest,
            Operation::Reply,
            Operation::AtomicRequest,
            Operation::FetchAtomicRequest,
            Operation::AckBatch,
        ] {
            assert_eq!(Operation::from_byte(op.to_byte()).unwrap(), op);
        }
    }

    #[test]
    fn unknown_bytes_rejected() {
        assert_eq!(
            Operation::from_byte(0x00),
            Err(WireError::UnknownOperation(0))
        );
        assert_eq!(
            Operation::from_byte(0xff),
            Err(WireError::UnknownOperation(0xff))
        );
    }

    #[test]
    fn request_response_split_matches_section_4_8() {
        assert!(Operation::PutRequest.is_request());
        assert!(Operation::GetRequest.is_request());
        assert!(Operation::AtomicRequest.is_request());
        assert!(Operation::FetchAtomicRequest.is_request());
        assert!(Operation::Ack.is_response());
        assert!(Operation::AckBatch.is_response());
        assert!(Operation::Reply.is_response());
    }
}
