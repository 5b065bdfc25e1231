//! Property test: a scattered MD is indistinguishable from a contiguous one.
//!
//! Random payloads, random segmentations (segments live at random offsets
//! inside oversized backing regions, so cross-segment addressing is really
//! exercised), random logical offsets. Every data-movement path the engine
//! uses — `write`, `read`, `payload_gather`, `write_gather`/`deliver_gather`
//! with arbitrarily chunked wire gathers — and the §4.8 accept/truncate
//! verdict must agree byte-for-byte between the two layouts, including when
//! `with_length` restricts the contiguous MD to a prefix.

use portals::{Md, MdSpec, MdVerdict, ReqOp, Segment};
use portals_types::{Gather, Region};
use proptest::prelude::*;

/// A scenario: one logical buffer sliced into segments, plus an operation
/// window inside it.
#[derive(Debug, Clone)]
struct Scenario {
    /// Logical length of the descriptor.
    len: usize,
    /// Segment lengths summing to `len` (empty segments allowed).
    seg_lens: Vec<usize>,
    /// Left padding for each segment inside its backing region.
    seg_pads: Vec<usize>,
    /// Payload to write/deliver (fits in the window).
    data: Vec<u8>,
    /// Logical offset of the operation window.
    offset: usize,
    /// Chunk sizes used to split `data` into a wire [`Gather`].
    chunk_lens: Vec<usize>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (1usize..200)
        .prop_flat_map(|len| {
            let cuts = proptest::collection::vec(0..=len, 0..6);
            (Just(len), cuts, 0usize..len)
        })
        .prop_flat_map(|(len, mut cuts, offset)| {
            cuts.push(0);
            cuts.push(len);
            cuts.sort_unstable();
            let seg_lens: Vec<usize> = cuts.windows(2).map(|w| w[1] - w[0]).collect();
            let nsegs = seg_lens.len();
            let window = len - offset;
            (
                Just(len),
                Just(seg_lens),
                proptest::collection::vec(0usize..16, nsegs),
                proptest::collection::vec(any::<u8>(), 1..=window),
                Just(offset),
                proptest::collection::vec(1usize..40, 1..8),
            )
        })
        .prop_map(
            |(len, seg_lens, seg_pads, data, offset, chunk_lens)| Scenario {
                len,
                seg_lens,
                seg_pads,
                data,
                offset,
                chunk_lens,
            },
        )
}

/// Build the two equivalent descriptors: a contiguous MD over a fresh region
/// (restricted by `with_length` when the backing is oversized) and a
/// scattered MD whose segments concatenate to the same logical bytes.
fn build_pair(s: &Scenario, oversize_contiguous: bool) -> (Md, Region, Md, Vec<Segment>) {
    let backing = if oversize_contiguous {
        // Backing longer than the descriptor: with_length must clip it.
        Region::zeroed(s.len + 32)
    } else {
        Region::zeroed(s.len)
    };
    let contiguous = Md::from_spec(MdSpec::new(backing.clone()).with_length(s.len));

    let segments: Vec<Segment> = s
        .seg_lens
        .iter()
        .zip(&s.seg_pads)
        .map(|(&slen, &pad)| Segment::new(Region::zeroed(pad + slen + 7), pad, slen))
        .collect();
    let scattered = Md::from_spec(MdSpec::scattered(segments.clone()));
    (contiguous, backing, scattered, segments)
}

/// Split `data` into a [`Gather`] at the scenario's chunk boundaries.
fn chunked(data: &[u8], chunk_lens: &[usize]) -> Gather {
    let mut g = Gather::new();
    let mut rest = data;
    let mut i = 0;
    while !rest.is_empty() {
        let n = chunk_lens[i % chunk_lens.len()].min(rest.len());
        g.push(Region::copy_from_slice(&rest[..n]).slice(0, n));
        rest = &rest[n..];
        i += 1;
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..Default::default() })]

    /// Plain writes land identically and read back identically, across
    /// segment boundaries and at every logical offset.
    #[test]
    fn write_then_read_matches(s in scenario()) {
        let (contiguous, _, scattered, _) = build_pair(&s, false);
        prop_assert_eq!(contiguous.len(), scattered.len());

        contiguous.write(s.offset as u64, &s.data);
        scattered.write(s.offset as u64, &s.data);

        // The whole logical range agrees (untouched bytes stay zero in both).
        prop_assert_eq!(
            contiguous.read(0, s.len as u64),
            scattered.read(0, s.len as u64)
        );
        // The written window reads back exactly.
        prop_assert_eq!(
            scattered.read(s.offset as u64, s.data.len() as u64),
            s.data.clone()
        );
    }

    /// The zero-copy gather view flattens to the same bytes `read` copies
    /// out, for both layouts.
    #[test]
    fn gather_flattens_to_read(s in scenario()) {
        let (contiguous, _, scattered, _) = build_pair(&s, false);
        contiguous.write(s.offset as u64, &s.data);
        scattered.write(s.offset as u64, &s.data);

        let o = s.offset as u64;
        let m = s.data.len() as u64;
        prop_assert_eq!(contiguous.payload_gather(o, m).to_vec(), contiguous.read(o, m));
        prop_assert_eq!(scattered.payload_gather(o, m).to_vec(), scattered.read(o, m));
        prop_assert_eq!(
            contiguous.payload_gather(0, s.len as u64).to_vec(),
            scattered.payload_gather(0, s.len as u64).to_vec()
        );
    }

    /// Receive-side delivery of an arbitrarily chunked wire gather scatters
    /// into both layouts identically (the engine's rx path).
    #[test]
    fn write_gather_matches(s in scenario()) {
        let (contiguous, _, scattered, _) = build_pair(&s, false);
        let wire = chunked(&s.data, &s.chunk_lens);
        prop_assert_eq!(wire.len(), s.data.len());

        contiguous.region.write_gather(s.offset as u64, &wire);
        scattered.region.write_gather(s.offset as u64, &wire);
        prop_assert_eq!(
            contiguous.read(0, s.len as u64),
            scattered.read(0, s.len as u64)
        );
        prop_assert_eq!(
            contiguous.read(s.offset as u64, s.data.len() as u64),
            s.data.clone()
        );
    }

    /// §4.8 accept/truncate verdicts agree: a `with_length`-restricted
    /// contiguous MD and a scattered MD of the same logical length accept the
    /// same mlength at every request offset, including truncation.
    #[test]
    fn verdicts_agree_including_truncation(
        s in scenario(),
        rlength in 0u64..400,
        req_offset in 0u64..250,
    ) {
        // Oversized backing: with_length must be what limits acceptance.
        let (contiguous, _, scattered, _) = build_pair(&s, true);
        let a = contiguous.evaluate(ReqOp::Put, rlength, req_offset);
        let b = scattered.evaluate(ReqOp::Put, rlength, req_offset);
        prop_assert_eq!(a, b);
        if let MdVerdict::Accept { mlength, offset } = a {
            // A request offset past the region truncates to zero bytes while
            // keeping the raw offset; otherwise the window fits.
            prop_assert!(mlength == 0 || offset + mlength <= s.len as u64);
            // Accepted writes must then land identically.
            let data = vec![0xabu8; mlength as usize];
            contiguous.write(offset, &data);
            scattered.write(offset, &data);
            prop_assert_eq!(
                contiguous.read(0, s.len as u64),
                scattered.read(0, s.len as u64)
            );
        }
    }
}
