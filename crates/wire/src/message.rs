//! The top-level Portals message envelope.
//!
//! One byte of operation code (plus a magic/version byte to catch cross-version
//! or corrupted traffic) selects among the four §4.6 message types, the atomic
//! extension, and the ack batch: the acks one dispatch step owes one node,
//! sent as one message and decoded all or nothing (see [`crate::ack`]).
//!
//! Every message is its envelope, its fixed fields, then its payload. One
//! decoder, [`PortalsMessage::head`], reads the first two and says where the
//! payload lies; every other decode is built on it.

use crate::ack::Ack;
use crate::atomic::AtomicRequest;
use crate::error::WireError;
use crate::get::GetRequest;
use crate::header::check_len;
use crate::op::Operation;
use crate::put::PutRequest;
use crate::reply::Reply;
use bytes::{Bytes, BytesMut};
use portals_types::{Gather, ProcessId};
use std::ops::Range;

/// Magic byte identifying Portals 3.0 traffic ('P' ^ 0x30).
const MAGIC: u8 = b'P' ^ 0x30;

/// Any of the Portals messages, ready for the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortalsMessage {
    /// Table 1.
    Put(PutRequest),
    /// Table 2.
    Ack(Ack),
    /// Table 2 several times over, in the order the acks were owed. Never
    /// empty: the decoder refuses a count of zero.
    AckBatch(Vec<Ack>),
    /// Table 3.
    Get(GetRequest),
    /// Table 4.
    Reply(Reply),
    /// Atomic extension: plain or fetching read-modify-write (the
    /// [`AtomicRequest::fetch`] flag selects the operation byte).
    Atomic(AtomicRequest),
}

/// A message's envelope and fixed fields, read by [`PortalsMessage::head`]
/// before its payload has arrived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Head {
    /// The message with an empty payload (an ack batch: with no acks yet).
    pub msg: PortalsMessage,
    /// Where the payload lies in the encoded message: it starts after the
    /// fixed fields and runs for the length the header declares (an atomic's
    /// operand bytes, a batch's acks); its end was computed without overflow.
    pub payload: Range<usize>,
}

impl PortalsMessage {
    /// Envelope overhead: magic + operation code.
    pub const ENVELOPE_SIZE: usize = 2;

    /// Envelope plus the largest fixed part (an atomic's): enough leading
    /// bytes to read any message's head.
    const HEAD_MAX: usize = Self::ENVELOPE_SIZE + AtomicRequest::WIRE_HEADER_SIZE;

    /// The operation code of this message.
    pub fn operation(&self) -> Operation {
        match self {
            PortalsMessage::Put(_) => Operation::PutRequest,
            PortalsMessage::Ack(_) => Operation::Ack,
            PortalsMessage::AckBatch(_) => Operation::AckBatch,
            PortalsMessage::Get(_) => Operation::GetRequest,
            PortalsMessage::Reply(_) => Operation::Reply,
            PortalsMessage::Atomic(m) if m.fetch => Operation::FetchAtomicRequest,
            PortalsMessage::Atomic(_) => Operation::AtomicRequest,
        }
    }

    /// Stable lowercase name of the operation, for lifecycle traces and
    /// reports. A batch is named for the acks it carries.
    pub fn kind_name(&self) -> &'static str {
        match self {
            PortalsMessage::Put(_) => "put",
            PortalsMessage::Ack(_) | PortalsMessage::AckBatch(_) => "ack",
            PortalsMessage::Get(_) => "get",
            PortalsMessage::Reply(_) => "reply",
            PortalsMessage::Atomic(m) if m.fetch => "fetch_atomic",
            PortalsMessage::Atomic(_) => "atomic",
        }
    }

    /// How many Portals messages this one carries: a batch's acks, else 1.
    pub fn carried(&self) -> usize {
        match self {
            PortalsMessage::AckBatch(acks) => acks.len(),
            _ => 1,
        }
    }

    /// The process this message must be delivered to. This is how the runtime
    /// on the receiving node demultiplexes traffic among its processes (§4.8:
    /// "the runtime system first checks that the target process identified in
    /// the request is a valid process"). A batch answers with its first
    /// ack's; each ack in it names its own.
    pub fn wire_target(&self) -> ProcessId {
        match self {
            PortalsMessage::Put(m) => m.header.target,
            PortalsMessage::Ack(m) => m.header.target,
            PortalsMessage::AckBatch(m) => m[0].header.target,
            PortalsMessage::Get(m) => m.header.target,
            PortalsMessage::Reply(m) => m.header.target,
            PortalsMessage::Atomic(m) => m.header.target,
        }
    }

    /// The process that sent this message (a batch: its first ack's).
    pub fn wire_initiator(&self) -> ProcessId {
        match self {
            PortalsMessage::Put(m) => m.header.initiator,
            PortalsMessage::Ack(m) => m.header.initiator,
            PortalsMessage::AckBatch(m) => m[0].header.initiator,
            PortalsMessage::Get(m) => m.header.initiator,
            PortalsMessage::Reply(m) => m.header.initiator,
            PortalsMessage::Atomic(m) => m.header.initiator,
        }
    }

    /// Serialize to one contiguous buffer: [`PortalsMessage::encode_gather`]
    /// joined, for tests, tables and header-cost probes.
    pub fn encode(&self) -> Bytes {
        self.encode_gather().to_bytes()
    }

    /// Serialize via vectored gather: one fresh segment holds the envelope and
    /// fixed-size header, followed by the payload's own segments shared
    /// without copying. The one encoder.
    pub fn encode_gather(&self) -> Gather {
        let mut hdr = BytesMut::with_capacity(match self {
            PortalsMessage::AckBatch(m) => Self::ENVELOPE_SIZE + Ack::batch_wire_size(m.len()),
            _ => Self::HEAD_MAX,
        });
        hdr.extend_from_slice(&[MAGIC, self.operation().to_byte()]);
        let payload = match self {
            PortalsMessage::Put(m) => {
                m.encode_header(&mut hdr);
                Some(&m.payload)
            }
            PortalsMessage::Ack(m) => {
                m.encode_body(&mut hdr);
                None
            }
            PortalsMessage::AckBatch(m) => {
                Ack::encode_batch(m, &mut hdr);
                None
            }
            PortalsMessage::Get(m) => {
                m.encode_body(&mut hdr);
                None
            }
            PortalsMessage::Reply(m) => {
                m.header.encode(&mut hdr);
                Some(&m.payload)
            }
            PortalsMessage::Atomic(m) => {
                m.encode_header(&mut hdr);
                Some(&m.payload)
            }
        };
        let mut out = Gather::from_bytes(hdr.freeze());
        if let Some(p) = payload {
            out.append(p.clone());
        }
        out
    }

    /// Payload bytes this message carries (0 for acks and gets; operand bytes
    /// for atomics).
    pub fn payload_len(&self) -> usize {
        match self {
            PortalsMessage::Put(m) => m.payload.len(),
            PortalsMessage::Reply(m) => m.payload.len(),
            PortalsMessage::Atomic(m) => m.payload.len(),
            PortalsMessage::Ack(_) | PortalsMessage::AckBatch(_) | PortalsMessage::Get(_) => 0,
        }
    }

    /// The one decoder of the message layout: read the envelope and fixed
    /// fields from the leading bytes of `buf`, which may be a prefix of the
    /// message. `Ok(None)` means more bytes are needed (at most the largest
    /// fixed part). A bad envelope or fixed field is an error at once, and so
    /// is a declared payload whose end would not fit a `usize`: no buffer can
    /// hold it, so the message is garbage before anything acts on it.
    pub fn head(buf: &Gather) -> Result<Option<Head>, WireError> {
        match Self::read_head(buf) {
            Err(WireError::Truncated { .. }) => Ok(None),
            head => head.map(Some),
        }
    }

    /// [`PortalsMessage::head`], with a short prefix reported as
    /// [`WireError::Truncated`].
    fn read_head(buf: &Gather) -> Result<Head, WireError> {
        let mut prefix = [0u8; Self::HEAD_MAX];
        let got = buf.peek(&mut prefix);
        let prefix = &prefix[..got];
        check_len(prefix, Self::ENVELOPE_SIZE)?;
        if prefix[0] != MAGIC {
            return Err(WireError::BadMagic);
        }
        let op = Operation::from_byte(prefix[1])?;
        let mut body = &prefix[Self::ENVELOPE_SIZE..];
        let (declared, msg) = match op {
            Operation::PutRequest => {
                let m = PutRequest::decode_header(&mut body)?;
                (Some(m.header.length), PortalsMessage::Put(m))
            }
            Operation::Ack => (Some(0), PortalsMessage::Ack(Ack::decode_body(&mut body)?)),
            Operation::AckBatch => {
                let count = Ack::decode_batch_count(&mut body)?;
                let acks = count * Ack::WIRE_SIZE as u64;
                (Some(acks), PortalsMessage::AckBatch(Vec::new()))
            }
            Operation::GetRequest => (
                Some(0),
                PortalsMessage::Get(GetRequest::decode_body(&mut body)?),
            ),
            Operation::Reply => {
                let m = Reply::decode_header(&mut body)?;
                (Some(m.header.manipulated_length), PortalsMessage::Reply(m))
            }
            Operation::AtomicRequest | Operation::FetchAtomicRequest => {
                let fetch = op == Operation::FetchAtomicRequest;
                let m = AtomicRequest::decode_header(&mut body, fetch)?;
                (m.op.operand_len(m.header.length), PortalsMessage::Atomic(m))
            }
        };
        // The fixed fields end where their decoder stopped reading.
        let start = got - body.len();
        let end = declared
            .and_then(|len| usize::try_from(len).ok())
            .and_then(|len| start.checked_add(len))
            .ok_or(WireError::LengthMismatch {
                declared: usize::MAX,
                actual: buf.len() - start,
            })?;
        Ok(Head {
            msg,
            payload: start..end,
        })
    }

    /// Parse a message held as a [`Gather`] without coalescing it: its
    /// [`PortalsMessage::head`], then a payload of exactly the declared
    /// length as a zero-copy sub-gather of `buf`, so the payload bytes stay
    /// wherever the transport received them. A batch's acks are read from
    /// one contiguous view of theirs.
    pub fn decode_gather(buf: &Gather) -> Result<PortalsMessage, WireError> {
        let Head { mut msg, payload } = Self::read_head(buf)?;
        let actual = buf.len() - payload.start;
        if actual != payload.len() {
            return Err(WireError::LengthMismatch {
                declared: payload.len(),
                actual,
            });
        }
        let body = buf.slice(payload.start, actual);
        match &mut msg {
            PortalsMessage::Put(m) => m.payload = body,
            PortalsMessage::Reply(m) => m.payload = body,
            PortalsMessage::Atomic(m) => m.payload = body,
            PortalsMessage::AckBatch(acks) => {
                *acks = body
                    .to_bytes()
                    .chunks_exact(Ack::WIRE_SIZE)
                    .map(|mut ack| Ack::decode_body(&mut ack))
                    .collect::<Result<_, _>>()?;
            }
            PortalsMessage::Ack(_) | PortalsMessage::Get(_) => {}
        }
        Ok(msg)
    }

    /// Parse one contiguous encoded message: [`PortalsMessage::decode_gather`]
    /// over a copy of `buf`.
    pub fn decode(buf: &[u8]) -> Result<PortalsMessage, WireError> {
        Self::decode_gather(&Gather::copy_from_slice(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::{AtomicDatatype, AtomicOp};
    use crate::header::{RequestHeader, ResponseHeader, RAW_HANDLE_NONE};
    use portals_types::MatchBits;
    use proptest::prelude::*;

    fn req_header(len: u64) -> RequestHeader {
        RequestHeader {
            initiator: ProcessId::new(0, 0),
            target: ProcessId::new(1, 0),
            portal_index: 1,
            cookie: 0,
            match_bits: MatchBits::new(99),
            offset: 0,
            length: len,
        }
    }

    fn resp_header(req: u64, man: u64) -> ResponseHeader {
        ResponseHeader {
            initiator: ProcessId::new(1, 0),
            target: ProcessId::new(0, 0),
            portal_index: 1,
            match_bits: MatchBits::new(99),
            offset: 0,
            md_handle: 5,
            eq_handle: RAW_HANDLE_NONE,
            requested_length: req,
            manipulated_length: man,
        }
    }

    fn golden_req(length: u64) -> RequestHeader {
        RequestHeader {
            initiator: ProcessId::new(3, 7),
            target: ProcessId::new(5, 9),
            portal_index: 4,
            cookie: 2,
            match_bits: MatchBits::new(0x0102_0304_0506_0708),
            offset: 0x100,
            length,
        }
    }

    fn golden_resp(offset: u64, length: u64) -> ResponseHeader {
        ResponseHeader {
            initiator: ProcessId::new(5, 9),
            target: ProcessId::new(3, 7),
            portal_index: 4,
            match_bits: MatchBits::new(0x0102_0304_0506_0708),
            offset,
            md_handle: 0x11,
            eq_handle: 0x22,
            requested_length: length,
            manipulated_length: length,
        }
    }

    /// One message per operation code, in code order.
    fn golden_messages() -> [PortalsMessage; 7] {
        let mut cas = 1u64.to_le_bytes().to_vec();
        cas.extend_from_slice(&2u64.to_le_bytes());
        [
            PortalsMessage::Put(PutRequest {
                header: golden_req(3),
                ack_md: 0x11,
                ack_eq: 0x22,
                payload: Gather::copy_from_slice(b"abc"),
            }),
            PortalsMessage::Ack(Ack {
                header: golden_resp(0x100, 3),
            }),
            PortalsMessage::Get(GetRequest {
                header: golden_req(4),
                reply_md: 0x33,
            }),
            PortalsMessage::Reply(Reply {
                header: golden_resp(0x100, 4),
                payload: Gather::copy_from_slice(b"wxyz"),
            }),
            PortalsMessage::Atomic(AtomicRequest {
                header: golden_req(8),
                op: AtomicOp::Sum,
                datatype: AtomicDatatype::U64,
                fetch: false,
                ack_md: 0x11,
                ack_eq: 0x22,
                reply_md: RAW_HANDLE_NONE,
                payload: Gather::copy_from_slice(&7u64.to_le_bytes()),
            }),
            PortalsMessage::Atomic(AtomicRequest {
                header: golden_req(8),
                op: AtomicOp::Cas,
                datatype: AtomicDatatype::I64,
                fetch: true,
                ack_md: RAW_HANDLE_NONE,
                ack_eq: RAW_HANDLE_NONE,
                reply_md: 0x33,
                payload: Gather::from_vec(cas),
            }),
            PortalsMessage::AckBatch(vec![
                Ack {
                    header: golden_resp(0x100, 3),
                },
                Ack {
                    header: golden_resp(0x200, 5),
                },
            ]),
        ]
    }

    /// The bytes of [`golden_messages`], one literal per operation code, field
    /// by field: the reference for the wire format (little-endian throughout).
    fn golden_bytes() -> [&'static str; 7] {
        [
            // PutRequest
            concat!(
                "6001 ",              // envelope
                "03000000 07000000 ", // initiator
                "05000000 09000000 ", // target
                "04000000 02000000 ", // portal index, cookie
                "08070605 04030201 ", // match bits
                "00010000 00000000 ", // offset
                "03000000 00000000 ", // length
                "11000000 00000000 ", // ack md
                "22000000 00000000 ", // ack eq
                "616263 ",            // payload
            ),
            // Ack
            concat!(
                "6002 ",              // envelope
                "05000000 09000000 ", // initiator
                "03000000 07000000 ", // target
                "04000000 ",          // portal index
                "08070605 04030201 ", // match bits
                "00010000 00000000 ", // offset
                "11000000 00000000 ", // md handle
                "22000000 00000000 ", // eq handle
                "03000000 00000000 ", // requested length
                "03000000 00000000 ", // manipulated length
            ),
            // GetRequest
            concat!(
                "6003 ",              // envelope
                "03000000 07000000 ", // initiator
                "05000000 09000000 ", // target
                "04000000 02000000 ", // portal index, cookie
                "08070605 04030201 ", // match bits
                "00010000 00000000 ", // offset
                "04000000 00000000 ", // length
                "33000000 00000000 ", // reply md
            ),
            // Reply
            concat!(
                "6004 ",              // envelope
                "05000000 09000000 ", // initiator
                "03000000 07000000 ", // target
                "04000000 ",          // portal index
                "08070605 04030201 ", // match bits
                "00010000 00000000 ", // offset
                "11000000 00000000 ", // md handle
                "22000000 00000000 ", // eq handle
                "04000000 00000000 ", // requested length
                "04000000 00000000 ", // manipulated length
                "7778797a ",          // payload
            ),
            // AtomicRequest
            concat!(
                "6005 ",              // envelope
                "03000000 07000000 ", // initiator
                "05000000 09000000 ", // target
                "04000000 02000000 ", // portal index, cookie
                "08070605 04030201 ", // match bits
                "00010000 00000000 ", // offset
                "08000000 00000000 ", // length
                "0101 ",              // op, datatype
                "11000000 00000000 ", // ack md
                "22000000 00000000 ", // ack eq
                "ffffffff ffffffff ", // reply md
                "07000000 00000000 ", // operand
            ),
            // FetchAtomicRequest
            concat!(
                "6006 ",                                // envelope
                "03000000 07000000 ",                   // initiator
                "05000000 09000000 ",                   // target
                "04000000 02000000 ",                   // portal index, cookie
                "08070605 04030201 ",                   // match bits
                "00010000 00000000 ",                   // offset
                "08000000 00000000 ",                   // length
                "0502 ",                                // op, datatype
                "ffffffff ffffffff ",                   // ack md
                "ffffffff ffffffff ",                   // ack eq
                "33000000 00000000 ",                   // reply md
                "01000000 00000000 02000000 00000000 ", // compare, operand
            ),
            // AckBatch
            concat!(
                "6007 ",              // envelope
                "02000000 ",          // count
                "05000000 09000000 ", // ack 1: initiator
                "03000000 07000000 ", // ack 1: target
                "04000000 ",          // ack 1: portal index
                "08070605 04030201 ", // ack 1: match bits
                "00010000 00000000 ", // ack 1: offset
                "11000000 00000000 ", // ack 1: md handle
                "22000000 00000000 ", // ack 1: eq handle
                "03000000 00000000 ", // ack 1: requested length
                "03000000 00000000 ", // ack 1: manipulated length
                "05000000 09000000 ", // ack 2: initiator
                "03000000 07000000 ", // ack 2: target
                "04000000 ",          // ack 2: portal index
                "08070605 04030201 ", // ack 2: match bits
                "00020000 00000000 ", // ack 2: offset
                "11000000 00000000 ", // ack 2: md handle
                "22000000 00000000 ", // ack 2: eq handle
                "05000000 00000000 ", // ack 2: requested length
                "05000000 00000000 ", // ack 2: manipulated length
            ),
        ]
    }

    fn unhex(hex: &str) -> Vec<u8> {
        let digits: Vec<u8> = hex.bytes().filter(u8::is_ascii_hexdigit).collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    #[test]
    fn every_operation_encodes_to_its_golden_bytes() {
        for (m, hex) in golden_messages().into_iter().zip(golden_bytes()) {
            let golden = unhex(hex);
            assert_eq!(m.encode_gather().to_vec(), golden, "{:?}", m.operation());
            assert_eq!(golden[1], m.operation().to_byte());
            assert_eq!(
                PortalsMessage::decode_gather(&Gather::from_vec(golden.clone())),
                Ok(m.clone())
            );
            assert_eq!(PortalsMessage::decode(&golden), Ok(m));
        }
    }

    fn sample_messages() -> Vec<PortalsMessage> {
        vec![
            PortalsMessage::Put(PutRequest {
                header: req_header(3),
                ack_md: 1,
                ack_eq: 2,
                payload: Gather::copy_from_slice(b"abc"),
            }),
            PortalsMessage::Ack(Ack {
                header: resp_header(3, 3),
            }),
            PortalsMessage::AckBatch(vec![
                Ack {
                    header: resp_header(3, 3),
                },
                Ack {
                    header: resp_header(5, u64::MAX),
                },
            ]),
            PortalsMessage::Get(GetRequest {
                header: req_header(100),
                reply_md: 6,
            }),
            PortalsMessage::Reply(Reply {
                header: resp_header(4, 4),
                payload: Gather::copy_from_slice(b"wxyz"),
            }),
            PortalsMessage::Atomic(AtomicRequest {
                header: req_header(8),
                op: AtomicOp::Sum,
                datatype: AtomicDatatype::U64,
                fetch: false,
                ack_md: 1,
                ack_eq: 2,
                reply_md: RAW_HANDLE_NONE,
                payload: Gather::copy_from_slice(&7u64.to_le_bytes()),
            }),
            PortalsMessage::Atomic(AtomicRequest {
                header: req_header(8),
                op: AtomicOp::Cas,
                datatype: AtomicDatatype::I64,
                fetch: true,
                ack_md: RAW_HANDLE_NONE,
                ack_eq: RAW_HANDLE_NONE,
                reply_md: 6,
                payload: Gather::copy_from_slice(&[9u8; 16]),
            }),
        ]
    }

    /// `m` with its payload taken out: what its head alone carries.
    fn without_payload(m: &PortalsMessage) -> PortalsMessage {
        let mut m = m.clone();
        match &mut m {
            PortalsMessage::Put(p) => p.payload = Gather::new(),
            PortalsMessage::Reply(r) => r.payload = Gather::new(),
            PortalsMessage::Atomic(a) => a.payload = Gather::new(),
            PortalsMessage::AckBatch(acks) => acks.clear(),
            PortalsMessage::Ack(_) | PortalsMessage::Get(_) => {}
        }
        m
    }

    #[test]
    fn all_four_types_roundtrip() {
        for m in sample_messages() {
            assert_eq!(PortalsMessage::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn gather_paths_do_not_copy_the_payload() {
        let payload = Gather::copy_from_slice(b"stay right where you are");
        let payload_ptr = payload.segments()[0].as_ref().as_ptr();
        let m = PortalsMessage::Put(PutRequest {
            header: req_header(payload.len() as u64),
            ack_md: 1,
            ack_eq: 2,
            payload,
        });
        let encoded = m.encode_gather();
        assert_eq!(encoded.segments()[1].as_ref().as_ptr(), payload_ptr);
        let decoded = PortalsMessage::decode_gather(&encoded).unwrap();
        let PortalsMessage::Put(put) = decoded else {
            panic!("wrong type");
        };
        assert_eq!(put.payload.segments()[0].as_ref().as_ptr(), payload_ptr);
    }

    #[test]
    fn decode_gather_rejects_length_mismatch() {
        let m = PortalsMessage::Put(PutRequest {
            header: req_header(10), // header claims 10 bytes
            ack_md: 1,
            ack_eq: 2,
            payload: Gather::copy_from_slice(b"only7by"),
        });
        assert!(matches!(
            PortalsMessage::decode_gather(&m.encode_gather()),
            Err(WireError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn atomic_fixed_header_fits_the_classification_prefix() {
        // `head` peeks HEAD_MAX bytes; every fixed part must fit in them.
        const {
            assert!(PutRequest::WIRE_HEADER_SIZE <= AtomicRequest::WIRE_HEADER_SIZE);
            assert!(Ack::WIRE_SIZE <= AtomicRequest::WIRE_HEADER_SIZE);
            assert!(Ack::BATCH_COUNT_SIZE <= AtomicRequest::WIRE_HEADER_SIZE);
            assert!(GetRequest::WIRE_SIZE <= AtomicRequest::WIRE_HEADER_SIZE);
            assert!(Reply::WIRE_HEADER_SIZE <= AtomicRequest::WIRE_HEADER_SIZE);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let m = PortalsMessage::Get(GetRequest {
            header: req_header(0),
            reply_md: 0,
        });
        let mut encoded = m.encode().to_vec();
        encoded[0] ^= 0xff;
        assert_eq!(PortalsMessage::decode(&encoded), Err(WireError::BadMagic));
    }

    #[test]
    fn empty_buffer_rejected() {
        assert!(matches!(
            PortalsMessage::decode(&[]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn wire_target_and_initiator() {
        let m = PortalsMessage::Get(GetRequest {
            header: req_header(0),
            reply_md: 0,
        });
        assert_eq!(m.wire_target(), ProcessId::new(1, 0));
        assert_eq!(m.wire_initiator(), ProcessId::new(0, 0));
    }

    #[test]
    fn stream_head_classifies_every_type_from_its_fixed_prefix() {
        for m in sample_messages() {
            let bytes = m.encode_gather();
            let head = PortalsMessage::head(&bytes)
                .unwrap()
                .expect("whole message");
            assert_eq!(head.msg, without_payload(&m));
            assert_eq!(head.payload.end, bytes.len(), "{:?}", m.operation());
            let fixed = bytes.slice(0, head.payload.start);
            assert_eq!(PortalsMessage::head(&fixed).unwrap(), Some(head));
        }
    }

    #[test]
    fn stream_head_asks_for_more_bytes_on_short_prefixes() {
        let m = PortalsMessage::Put(PutRequest {
            header: req_header(3),
            ack_md: 1,
            ack_eq: 2,
            payload: Gather::copy_from_slice(b"abc"),
        });
        let bytes = m.encode_gather();
        let at = PortalsMessage::ENVELOPE_SIZE + PutRequest::WIRE_HEADER_SIZE;
        for cut in [0, 1, PortalsMessage::ENVELOPE_SIZE, at - 1] {
            assert_eq!(
                PortalsMessage::head(&bytes.slice(0, cut)).unwrap(),
                None,
                "prefix of {cut} must ask for more"
            );
        }
        let head = PortalsMessage::head(&bytes.slice(0, at)).unwrap().unwrap();
        assert_eq!(head.payload, at..at + 3);
    }

    #[test]
    fn stream_head_rejects_garbage_immediately() {
        let head = |bytes: &[u8]| PortalsMessage::head(&Gather::copy_from_slice(bytes));
        assert_eq!(head(&[0xff, 0x00]), Err(WireError::BadMagic));
        assert!(matches!(
            head(&[MAGIC, 0xee]),
            Err(WireError::UnknownOperation { .. })
        ));
    }

    /// The encoded fixed part of `m` with its declared length field set to
    /// `length`, and no payload behind it.
    fn declaring(m: PortalsMessage, length: u64) -> Vec<u8> {
        let mut bytes = m.encode().to_vec();
        let at = match &m {
            PortalsMessage::Put(_) | PortalsMessage::Atomic(_) => {
                PortalsMessage::ENVELOPE_SIZE + RequestHeader::WIRE_SIZE - 8
            }
            PortalsMessage::Reply(_) => {
                PortalsMessage::ENVELOPE_SIZE + ResponseHeader::WIRE_SIZE - 8
            }
            _ => unreachable!("no declared length"),
        };
        bytes[at..at + 8].copy_from_slice(&length.to_le_bytes());
        bytes.truncate(bytes.len() - m.payload_len());
        bytes
    }

    /// A declared length whose end cannot be counted is refused by every
    /// decode, never overflowed: a CAS doubles its length into the operand
    /// count, and a put or reply adds its length to where its payload starts.
    #[test]
    fn a_length_too_large_to_count_is_an_error() {
        let samples = sample_messages();
        let (put, reply, cas) = (&samples[0], &samples[4], &samples[6]);
        for (m, length) in [
            (cas, 1 << 63),
            (cas, u64::MAX),
            (put, u64::MAX),
            (put, u64::MAX - 10),
            (reply, u64::MAX),
        ] {
            let bytes = declaring(m.clone(), length);
            assert!(PortalsMessage::decode(&bytes).is_err(), "{length}");
            let gathered = Gather::from_vec(bytes);
            assert!(PortalsMessage::decode_gather(&gathered).is_err());
            assert!(
                PortalsMessage::head(&gathered).is_err(),
                "garbage, not short"
            );
        }
        // The largest put whose end still fits is a head, waiting for bytes.
        let at = PortalsMessage::ENVELOPE_SIZE + PutRequest::WIRE_HEADER_SIZE;
        let fits = (usize::MAX - at) as u64;
        let head = PortalsMessage::head(&Gather::from_vec(declaring(put.clone(), fits)));
        assert_eq!(head.unwrap().unwrap().payload, at..usize::MAX);
    }

    #[test]
    fn a_hostile_ack_batch_is_refused_whole() {
        let acks: Vec<Ack> = (0..3)
            .map(|i| Ack {
                header: resp_header(i, i),
            })
            .collect();
        let good = PortalsMessage::AckBatch(acks).encode().to_vec();
        let decode = PortalsMessage::decode;
        assert!(decode(&good).is_ok());
        let count_at = PortalsMessage::ENVELOPE_SIZE;
        let with_count = |count: u32| {
            let mut bytes = good.clone();
            bytes[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
            bytes
        };
        // A count of zero, with or without headers after it.
        assert!(decode(&with_count(0)).is_err());
        let mut empty = good[..count_at].to_vec();
        empty.extend_from_slice(&0u32.to_le_bytes());
        assert!(decode(&empty).is_err());
        // A count that disagrees with the body.
        for count in [1, 2, 4, u32::MAX] {
            assert!(decode(&with_count(count)).is_err(), "count {count}");
        }
        // A truncated header, or no room for the count itself.
        for cut in [count_at + 2, count_at + 4 + 10, good.len() - 1] {
            assert!(decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing bytes.
        let mut long = good.clone();
        long.push(0);
        assert!(decode(&long).is_err());
        // The garbage proptest below draws this operation byte too.
        assert!((0u8..8).contains(&Operation::AckBatch.to_byte()));
    }

    proptest! {
        #[test]
        fn an_ack_batch_roundtrips(
            fields in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..=128)
        ) {
            let acks: Vec<Ack> = fields
                .into_iter()
                .map(|(offset, md_handle, manipulated_length)| Ack {
                    header: ResponseHeader {
                        offset,
                        md_handle,
                        manipulated_length,
                        ..resp_header(1024, 0)
                    },
                })
                .collect();
            let count = acks.len();
            let m = PortalsMessage::AckBatch(acks);
            let gathered = m.encode_gather();
            prop_assert_eq!(gathered.len(), PortalsMessage::ENVELOPE_SIZE + Ack::batch_wire_size(count));
            prop_assert_eq!(PortalsMessage::decode_gather(&gathered).unwrap(), m);
        }

        #[test]
        fn put_roundtrips_any_payload(payload in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let m = PortalsMessage::Put(PutRequest {
                header: req_header(payload.len() as u64),
                ack_md: RAW_HANDLE_NONE,
                ack_eq: RAW_HANDLE_NONE,
                payload: Gather::from_vec(payload),
            });
            prop_assert_eq!(PortalsMessage::decode(&m.encode()).unwrap(), m.clone());
            prop_assert_eq!(PortalsMessage::decode_gather(&m.encode_gather()).unwrap(), m);
        }

        #[test]
        fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = PortalsMessage::decode(&bytes); // must not panic
        }

        /// The head and the whole-message decode agree: a message decodes
        /// exactly when its head reads and its payload ends where the buffer
        /// does, and then it is the head's message with that payload.
        #[test]
        fn decode_garbage_with_valid_envelope_never_panics(
            // Every operation byte, the ack batch's 0x07 included, and 0x00.
            op in 0u8..8, body in proptest::collection::vec(any::<u8>(), 0..256)
        ) {
            let mut buf = vec![MAGIC, op];
            buf.extend_from_slice(&body);
            let buf = Gather::from_vec(buf);
            let decoded = PortalsMessage::decode_gather(&buf);
            match PortalsMessage::head(&buf) {
                Ok(Some(head)) if head.payload.end == buf.len() => {
                    prop_assert_eq!(decoded.map(|m| without_payload(&m)), Ok(head.msg));
                }
                _ => prop_assert!(decoded.is_err()),
            }
        }
    }
}
