//! The top-level Portals message envelope.
//!
//! One byte of operation code (plus a magic/version byte to catch cross-version
//! or corrupted traffic) selects among the four §4.6 message types, the atomic
//! extension, and the ack batch: the acks one dispatch step owes one node,
//! sent as one message and decoded all or nothing (see [`crate::ack`]).

use crate::ack::Ack;
use crate::atomic::AtomicRequest;
use crate::error::WireError;
use crate::get::GetRequest;
use crate::header::{RequestHeader, ResponseHeader};
use crate::op::Operation;
use crate::put::PutRequest;
use crate::reply::Reply;
use bytes::{Bytes, BytesMut};
use portals_types::{Gather, ProcessId};

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
    /// empty: the decoders refuse a count of zero.
    AckBatch(Vec<Ack>),
    /// Table 3.
    Get(GetRequest),
    /// Table 4.
    Reply(Reply),
    /// Atomic extension: plain or fetching read-modify-write (the
    /// [`AtomicRequest::fetch`] flag selects the operation byte).
    Atomic(AtomicRequest),
}

/// What the fixed-size prefix of an incoming message identifies, for
/// consumers that dispatch before the payload has fully arrived (streaming
/// fragment delivery).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamHead {
    /// A put request; payload bytes start at
    /// [`PortalsMessage::PUT_PAYLOAD_AT`] and run for `header.length`.
    Put {
        /// The request header (target, match bits, offset, length, …).
        header: RequestHeader,
        /// Initiator's MD handle to return in the ack.
        ack_md: u64,
        /// Initiator's EQ handle to return in the ack.
        ack_eq: u64,
    },
    /// A reply; payload bytes start at [`PortalsMessage::REPLY_PAYLOAD_AT`]
    /// and run for `header.manipulated_length`.
    Reply {
        /// The response header.
        header: ResponseHeader,
    },
    /// An ack, ack batch, get, or atomic: messages whose whole body (operands
    /// included) is small enough to dispatch without streaming.
    Other,
}

impl PortalsMessage {
    /// Envelope overhead: magic + operation code.
    pub const ENVELOPE_SIZE: usize = 2;

    /// Offset of a put's payload within its encoded message.
    pub const PUT_PAYLOAD_AT: usize = Self::ENVELOPE_SIZE + PutRequest::WIRE_HEADER_SIZE;

    /// Offset of a reply's payload within its encoded message.
    pub const REPLY_PAYLOAD_AT: usize = Self::ENVELOPE_SIZE + Reply::WIRE_HEADER_SIZE;

    /// Envelope plus the largest fixed-size header: a prefix this long
    /// classifies any message via [`PortalsMessage::peek_stream_head`].
    pub const MAX_FIXED: usize = Self::ENVELOPE_SIZE + 80;

    /// Classify a message from a prefix of its encoded bytes, before the
    /// payload has arrived. `Ok(None)` means the prefix is too short to
    /// classify yet — feed more bytes (at most [`PortalsMessage::MAX_FIXED`]
    /// are ever needed). Invalid prefixes (bad magic, unknown operation)
    /// error immediately.
    pub fn peek_stream_head(head: &[u8]) -> Result<Option<StreamHead>, WireError> {
        if head.len() < Self::ENVELOPE_SIZE {
            return Ok(None);
        }
        if head[0] != MAGIC {
            return Err(WireError::BadMagic);
        }
        let op = Operation::from_byte(head[1])?;
        let body = &head[Self::ENVELOPE_SIZE..];
        Ok(match op {
            Operation::PutRequest => {
                if head.len() < Self::PUT_PAYLOAD_AT {
                    return Ok(None);
                }
                let (header, ack_md, ack_eq) = PutRequest::decode_fields(body)?;
                Some(StreamHead::Put {
                    header,
                    ack_md,
                    ack_eq,
                })
            }
            Operation::Reply => {
                if head.len() < Self::REPLY_PAYLOAD_AT {
                    return Ok(None);
                }
                let header = Reply::decode_fields(body)?;
                Some(StreamHead::Reply { header })
            }
            Operation::Ack
            | Operation::AckBatch
            | Operation::GetRequest
            | Operation::AtomicRequest
            | Operation::FetchAtomicRequest => Some(StreamHead::Other),
        })
    }

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

    /// Serialize to one fresh contiguous buffer, copying any payload. This is
    /// the wire-format reference (tests, tables, header-cost probes); the data
    /// path uses [`PortalsMessage::encode_gather`].
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        buf.extend_from_slice(&[MAGIC, self.operation().to_byte()]);
        match self {
            PortalsMessage::Put(m) => m.encode_body(&mut buf),
            PortalsMessage::Ack(m) => m.encode_body(&mut buf),
            PortalsMessage::AckBatch(m) => Ack::encode_batch(m, &mut buf),
            PortalsMessage::Get(m) => m.encode_body(&mut buf),
            PortalsMessage::Reply(m) => m.encode_body(&mut buf),
            PortalsMessage::Atomic(m) => m.encode_body(&mut buf),
        }
        buf.freeze()
    }

    /// Serialize via vectored gather: one fresh segment holds the envelope and
    /// fixed-size header, followed by the payload's own segments shared
    /// without copying. Byte-identical to [`PortalsMessage::encode`].
    pub fn encode_gather(&self) -> Gather {
        let mut hdr = BytesMut::with_capacity(self.encoded_len() - self.payload_len());
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

    /// Exact size [`PortalsMessage::encode`] will produce.
    pub fn encoded_len(&self) -> usize {
        Self::ENVELOPE_SIZE
            + match self {
                PortalsMessage::Put(m) => PutRequest::WIRE_HEADER_SIZE + m.payload.len(),
                PortalsMessage::Ack(_) => Ack::WIRE_SIZE,
                PortalsMessage::AckBatch(m) => Ack::batch_wire_size(m.len()),
                PortalsMessage::Get(_) => GetRequest::WIRE_SIZE,
                PortalsMessage::Reply(m) => Reply::WIRE_HEADER_SIZE + m.payload.len(),
                PortalsMessage::Atomic(m) => AtomicRequest::WIRE_HEADER_SIZE + m.payload.len(),
            }
    }

    /// Parse a message held as a [`Gather`] without coalescing it.
    ///
    /// The envelope and fixed-size header are peeked into a stack buffer; a
    /// put or reply payload becomes a zero-copy sub-gather of `buf`, so the
    /// payload bytes stay wherever the transport received them. An ack batch,
    /// all headers, is read from one contiguous view of `buf`.
    pub fn decode_gather(buf: &Gather) -> Result<PortalsMessage, WireError> {
        // Large enough for the envelope plus the largest fixed-size header.
        let mut hdr = [0u8; PortalsMessage::MAX_FIXED];
        let filled = buf.peek(&mut hdr);
        let head = &hdr[..filled];
        if filled < Self::ENVELOPE_SIZE {
            return Err(WireError::Truncated {
                needed: Self::ENVELOPE_SIZE,
                available: filled,
            });
        }
        if head[0] != MAGIC {
            return Err(WireError::BadMagic);
        }
        let op = Operation::from_byte(head[1])?;
        let body = &head[Self::ENVELOPE_SIZE..];
        let payload_at = |fixed: usize| Self::ENVELOPE_SIZE + fixed;
        Ok(match op {
            Operation::PutRequest => {
                let (header, ack_md, ack_eq) = PutRequest::decode_fields(body)?;
                let at = payload_at(PutRequest::WIRE_HEADER_SIZE);
                let declared = header.length as usize;
                if buf.len() - at != declared {
                    return Err(WireError::LengthMismatch {
                        declared,
                        actual: buf.len() - at,
                    });
                }
                PortalsMessage::Put(PutRequest {
                    header,
                    ack_md,
                    ack_eq,
                    payload: buf.slice(at, declared),
                })
            }
            Operation::Ack => PortalsMessage::Ack(Ack::decode_body(body)?),
            Operation::AckBatch => {
                PortalsMessage::AckBatch(Ack::decode_batch(&buf.to_bytes()[Self::ENVELOPE_SIZE..])?)
            }
            Operation::GetRequest => PortalsMessage::Get(GetRequest::decode_body(body)?),
            Operation::Reply => {
                let header = Reply::decode_fields(body)?;
                let at = payload_at(Reply::WIRE_HEADER_SIZE);
                let declared = header.manipulated_length as usize;
                if buf.len() - at != declared {
                    return Err(WireError::LengthMismatch {
                        declared,
                        actual: buf.len() - at,
                    });
                }
                PortalsMessage::Reply(Reply {
                    header,
                    payload: buf.slice(at, declared),
                })
            }
            Operation::AtomicRequest | Operation::FetchAtomicRequest => {
                let (header, aop, datatype, ack_md, ack_eq, reply_md) =
                    AtomicRequest::decode_fields(body)?;
                let at = payload_at(AtomicRequest::WIRE_HEADER_SIZE);
                let declared = aop.operand_len(header.length) as usize;
                if buf.len() - at != declared {
                    return Err(WireError::LengthMismatch {
                        declared,
                        actual: buf.len() - at,
                    });
                }
                PortalsMessage::Atomic(AtomicRequest {
                    header,
                    op: aop,
                    datatype,
                    fetch: op == Operation::FetchAtomicRequest,
                    ack_md,
                    ack_eq,
                    reply_md,
                    payload: buf.slice(at, declared),
                })
            }
        })
    }

    /// Parse a buffer produced by [`PortalsMessage::encode`].
    pub fn decode(buf: &[u8]) -> Result<PortalsMessage, WireError> {
        if buf.len() < Self::ENVELOPE_SIZE {
            return Err(WireError::Truncated {
                needed: Self::ENVELOPE_SIZE,
                available: buf.len(),
            });
        }
        if buf[0] != MAGIC {
            return Err(WireError::BadMagic);
        }
        let op = Operation::from_byte(buf[1])?;
        let body = &buf[Self::ENVELOPE_SIZE..];
        Ok(match op {
            Operation::PutRequest => PortalsMessage::Put(PutRequest::decode_body(body)?),
            Operation::Ack => PortalsMessage::Ack(Ack::decode_body(body)?),
            Operation::AckBatch => PortalsMessage::AckBatch(Ack::decode_batch(body)?),
            Operation::GetRequest => PortalsMessage::Get(GetRequest::decode_body(body)?),
            Operation::Reply => PortalsMessage::Reply(Reply::decode_body(body)?),
            Operation::AtomicRequest => {
                PortalsMessage::Atomic(AtomicRequest::decode_body(body, false)?)
            }
            Operation::FetchAtomicRequest => {
                PortalsMessage::Atomic(AtomicRequest::decode_body(body, true)?)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                op: crate::atomic::AtomicOp::Sum,
                datatype: crate::atomic::AtomicDatatype::U64,
                fetch: false,
                ack_md: 1,
                ack_eq: 2,
                reply_md: RAW_HANDLE_NONE,
                payload: Gather::copy_from_slice(&7u64.to_le_bytes()),
            }),
            PortalsMessage::Atomic(AtomicRequest {
                header: req_header(8),
                op: crate::atomic::AtomicOp::Cas,
                datatype: crate::atomic::AtomicDatatype::I64,
                fetch: true,
                ack_md: RAW_HANDLE_NONE,
                ack_eq: RAW_HANDLE_NONE,
                reply_md: 6,
                payload: Gather::copy_from_slice(&[9u8; 16]),
            }),
        ]
    }

    #[test]
    fn all_four_types_roundtrip() {
        for m in sample_messages() {
            let encoded = m.encode();
            assert_eq!(encoded.len(), m.encoded_len());
            let decoded = PortalsMessage::decode(&encoded).unwrap();
            assert_eq!(decoded, m);
        }
    }

    #[test]
    fn gather_encoding_matches_contiguous() {
        for m in sample_messages() {
            let gathered = m.encode_gather();
            assert_eq!(gathered.to_vec(), m.encode().to_vec());
            assert_eq!(PortalsMessage::decode_gather(&gathered).unwrap(), m);
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
        // peek_stream_head promises MAX_FIXED bytes classify anything; the
        // atomic header must stay inside that budget.
        const {
            assert!(
                PortalsMessage::ENVELOPE_SIZE + AtomicRequest::WIRE_HEADER_SIZE
                    <= PortalsMessage::MAX_FIXED
            );
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
            let bytes = m.encode();
            let cut = bytes.len().min(PortalsMessage::MAX_FIXED);
            let head = PortalsMessage::peek_stream_head(&bytes[..cut])
                .unwrap()
                .expect("fixed prefix classifies");
            match (&m, head) {
                (
                    PortalsMessage::Put(p),
                    StreamHead::Put {
                        header,
                        ack_md,
                        ack_eq,
                    },
                ) => {
                    assert_eq!(header, p.header);
                    assert_eq!((ack_md, ack_eq), (p.ack_md, p.ack_eq));
                }
                (PortalsMessage::Reply(r), StreamHead::Reply { header }) => {
                    assert_eq!(header, r.header);
                }
                (PortalsMessage::Ack(_), StreamHead::Other)
                | (PortalsMessage::AckBatch(_), StreamHead::Other)
                | (PortalsMessage::Get(_), StreamHead::Other)
                | (PortalsMessage::Atomic(_), StreamHead::Other) => {}
                (m, h) => panic!("misclassified {m:?} as {h:?}"),
            }
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
        let bytes = m.encode();
        for cut in [
            0,
            1,
            PortalsMessage::ENVELOPE_SIZE,
            PortalsMessage::PUT_PAYLOAD_AT - 1,
        ] {
            assert_eq!(
                PortalsMessage::peek_stream_head(&bytes[..cut]).unwrap(),
                None,
                "prefix of {cut} must ask for more"
            );
        }
        assert!(
            PortalsMessage::peek_stream_head(&bytes[..PortalsMessage::PUT_PAYLOAD_AT])
                .unwrap()
                .is_some()
        );
    }

    #[test]
    fn stream_head_rejects_garbage_immediately() {
        assert_eq!(
            PortalsMessage::peek_stream_head(&[0xff, 0x00]),
            Err(WireError::BadMagic)
        );
        assert!(matches!(
            PortalsMessage::peek_stream_head(&[MAGIC, 0xee]),
            Err(WireError::UnknownOperation { .. })
        ));
    }

    /// Every decoder's verdict on `bytes`, which must agree.
    fn decode_both(bytes: &[u8]) -> Result<PortalsMessage, WireError> {
        let flat = PortalsMessage::decode(bytes);
        let gathered = PortalsMessage::decode_gather(&Gather::copy_from_slice(bytes));
        assert_eq!(flat, gathered);
        flat
    }

    #[test]
    fn a_hostile_ack_batch_is_refused_whole() {
        let acks: Vec<Ack> = (0..3)
            .map(|i| Ack {
                header: resp_header(i, i),
            })
            .collect();
        let good = PortalsMessage::AckBatch(acks).encode().to_vec();
        assert!(decode_both(&good).is_ok());
        let count_at = PortalsMessage::ENVELOPE_SIZE;
        let with_count = |count: u32| {
            let mut bytes = good.clone();
            bytes[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
            bytes
        };
        // A count of zero, with or without headers after it.
        assert!(decode_both(&with_count(0)).is_err());
        let mut empty = good[..count_at].to_vec();
        empty.extend_from_slice(&0u32.to_le_bytes());
        assert!(decode_both(&empty).is_err());
        // A count that disagrees with the body.
        for count in [1, 2, 4, u32::MAX] {
            assert!(decode_both(&with_count(count)).is_err(), "count {count}");
        }
        // A truncated header, or no room for the count itself.
        for cut in [count_at + 2, count_at + 4 + 10, good.len() - 1] {
            assert!(decode_both(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing bytes.
        let mut long = good.clone();
        long.push(0);
        assert!(decode_both(&long).is_err());
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
            let m = PortalsMessage::AckBatch(acks);
            let encoded = m.encode();
            prop_assert_eq!(encoded.len(), m.encoded_len());
            prop_assert_eq!(PortalsMessage::decode(&encoded).unwrap(), m.clone());
            let gathered = m.encode_gather();
            prop_assert_eq!(gathered.to_vec(), encoded.to_vec());
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
            let decoded = PortalsMessage::decode(&m.encode()).unwrap();
            prop_assert_eq!(decoded, m.clone());
            // The gather paths agree with the contiguous ones byte-for-byte.
            let gathered = m.encode_gather();
            prop_assert_eq!(gathered.to_vec(), m.encode().to_vec());
            prop_assert_eq!(PortalsMessage::decode_gather(&gathered).unwrap(), m);
        }

        #[test]
        fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = PortalsMessage::decode(&bytes); // must not panic
            let _ = PortalsMessage::decode_gather(&Gather::copy_from_slice(&bytes));
        }

        #[test]
        fn decode_garbage_with_valid_envelope_never_panics(
            // Every operation byte, the ack batch's 0x07 included, and 0x00.
            op in 0u8..8, body in proptest::collection::vec(any::<u8>(), 0..256)
        ) {
            let mut buf = vec![MAGIC, op];
            buf.extend_from_slice(&body);
            let _ = PortalsMessage::decode(&buf);
            let decoded_flat = PortalsMessage::decode(&buf).is_ok();
            let decoded_gather = PortalsMessage::decode_gather(&Gather::from_vec(buf)).is_ok();
            prop_assert_eq!(decoded_flat, decoded_gather);
        }
    }
}
