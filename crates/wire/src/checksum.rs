//! CRC-32C payload checksums for the real-wire packet framing.
//!
//! The in-process fabric hands refcounted memory between threads — bits cannot
//! flip in flight — but a UDP datagram crossing a real kernel/network boundary
//! can arrive corrupted (and UDP's own 16-bit checksum is optional on IPv4 and
//! weak everywhere). Packets that may touch a real wire therefore carry a
//! CRC-32C over their contents, verified on decode.
//!
//! The implementation dispatches at runtime: on x86-64 with SSE 4.2 and
//! PCLMULQDQ it uses the native `crc32` instruction (the Castagnoli
//! polynomial is the one the hardware implements, and the reason CRC-32C was
//! chosen over plain CRC-32 here), otherwise slice-by-4 table-driven software
//! CRC (four 256-entry tables built once per process, ~1–2 GB/s, no
//! dependencies). Both paths compute the identical reflected-`0x82F63B78`
//! checksum; the unit tests hold them to the same known-answer vectors and to
//! each other at every length up to 4096 bytes.
//!
//! One `crc32` chain waits three cycles per 8-byte fold. Measured on a
//! 2-vCPU Xeon (Sapphire Rapids) VM, one chain reads about 6.5 GiB/s over a
//! long buffer and 10.6–12.7 GiB/s over back-to-back 1432-byte datagram
//! bodies (`wire.crc32c_gib_s`), where the chains of independent bodies
//! overlap. The hardware path therefore folds a buffer of 192 bytes or more
//! as three independent chains over three equal lanes and joins them with
//! two carry-less multiplies by precomputed powers of x (see `hw`): 14–18
//! GiB/s on long buffers and 12.5–17.7 GiB/s over 1432-byte bodies on the
//! same VM, close to the instruction's one-fold-per-cycle throughput limit.
//! Shorter buffers, such as small-message packets, keep the single chain,
//! where the join would cost more than it saves. The rate matters:
//! every DATA packet that crosses the UDP wire pays one CRC pass per byte on
//! each side, and before the lanes the CRC was the largest single share of
//! `bulk_udp`'s CPU (EXPERIMENTS.md, "Where a bulk_udp op's CPU goes"). The
//! streaming [`Crc32`] state lets callers fold in a
//! [`Gather`](portals_types::Gather)'s segments without coalescing them.

use std::sync::OnceLock;

const POLY: u32 = 0x82F6_3B78; // CRC-32C, reflected.

/// Four slice-by-4 lookup tables.
fn tables() -> &'static [[u32; 256]; 4] {
    static TABLES: OnceLock<Box<[[u32; 256]; 4]>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new([[0u32; 256]; 4]);
        for i in 0..256u32 {
            let mut crc = i;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            t[0][i as usize] = crc;
        }
        for i in 0..256usize {
            for k in 1..4 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Streaming CRC-32C state.
///
/// ```
/// use portals_wire::checksum::Crc32;
/// let mut crc = Crc32::new();
/// crc.update(b"hello ");
/// crc.update(b"world");
/// let split = crc.finish();
/// let mut whole = Crc32::new();
/// whole.update(b"hello world");
/// assert_eq!(split, whole.finish());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh state.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Fold `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if hw::available() {
            // SAFETY: guarded by the runtime SSE 4.2 and PCLMULQDQ detection
            // above.
            self.state = unsafe { hw::update(self.state, bytes) };
            return;
        }
        self.state = update_tables(self.state, bytes);
    }

    /// Final checksum value.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// Software slice-by-4 fold: the portable path, and the reference the
/// hardware path is tested against.
fn update_tables(state: u32, bytes: &[u8]) -> u32 {
    let t = tables();
    let mut crc = state;
    let mut chunks = bytes.chunks_exact(4);
    for c in chunks.by_ref() {
        let word = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        crc = t[3][(word & 0xFF) as usize]
            ^ t[2][((word >> 8) & 0xFF) as usize]
            ^ t[1][((word >> 16) & 0xFF) as usize]
            ^ t[0][((word >> 24) & 0xFF) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Buffers shorter than this fold as one chain: below it the join's fixed
/// cost (two carry-less multiplies and one more `crc32`) outweighs what the
/// two extra chains save.
const LANES_MIN: usize = 192;

/// Longest lane in bytes. A longer buffer folds in blocks of three lanes of
/// this length; what is left folds as three equal shorter lanes.
const LANE_MAX: usize = 2048;

/// `SHIFTS[m]` is x^(64·m − 33) mod P, reflected: the carry-less multiplier
/// that, followed by one `crc32` of the 64-bit product, advances a CRC state
/// over `8·m` zero bytes. A lane of `L` bytes joins with `SHIFTS[L / 8]` and
/// `SHIFTS[L / 4]`; entry 0 is unused.
const SHIFTS: [u32; LANE_MAX / 4 + 1] = shifts();

const fn shifts() -> [u32; LANE_MAX / 4 + 1] {
    let mut out = [0u32; LANE_MAX / 4 + 1];
    // x^31 mod P, reflected (bit i holds the coefficient of x^(31 - i)).
    let mut power = 1u32;
    let mut exponent = 31;
    let mut m = 1;
    while m < out.len() {
        while exponent < 64 * m - 33 {
            // Multiply by x: coefficients move one bit down, and x^32
            // reduces to the polynomial's low terms.
            power = (power >> 1) ^ if power & 1 != 0 { POLY } else { 0 };
            exponent += 1;
        }
        out[m] = power;
        m += 1;
    }
    out
}

/// Hardware CRC-32C via the SSE 4.2 `crc32` instruction, 8 bytes per fold.
/// Chains through the same reflected state as the table path, so streaming
/// updates may freely mix the two (detection is per-process, but the states
/// are interchangeable by construction).
///
/// One `crc32` chain is latency-bound: each fold waits three cycles for the
/// last. A buffer of at least [`LANES_MIN`] bytes is therefore cut into three
/// equal lanes folded side by side — the first from the running state, the
/// other two from zero — and joined by linearity: the first lane's state is
/// advanced over the two lanes after it and the second's over the third, each
/// by one `PCLMULQDQ` against its [`SHIFTS`] entry, and one `crc32` of the two
/// products XORed reduces them onto the third lane's state.
#[cfg(target_arch = "x86_64")]
mod hw {
    use super::{LANES_MIN, LANE_MAX, SHIFTS};
    use std::arch::x86_64::{
        _mm_clmulepi64_si128, _mm_crc32_u64, _mm_crc32_u8, _mm_cvtsi128_si64, _mm_cvtsi32_si128,
        _mm_xor_si128,
    };

    pub(super) fn available() -> bool {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("sse4.2")
                && std::arch::is_x86_feature_detected!("pclmulqdq")
        })
    }

    /// # Safety
    /// Caller must ensure SSE 4.2 and PCLMULQDQ are available (see
    /// [`available`]).
    #[target_feature(enable = "sse4.2,pclmulqdq")]
    pub(super) unsafe fn update(state: u32, bytes: &[u8]) -> u32 {
        let mut crc = state;
        let mut rest = bytes;
        while rest.len() >= LANES_MIN {
            let lane = (rest.len() / 24 * 8).min(LANE_MAX);
            let (block, tail) = rest.split_at(3 * lane);
            let (first, others) = block.split_at(lane);
            let (second, third) = others.split_at(lane);
            let (mut a, mut b, mut c) = (u64::from(crc), 0u64, 0u64);
            for ((x, y), z) in first
                .chunks_exact(8)
                .zip(second.chunks_exact(8))
                .zip(third.chunks_exact(8))
            {
                a = _mm_crc32_u64(a, word(x));
                b = _mm_crc32_u64(b, word(y));
                c = _mm_crc32_u64(c, word(z));
            }
            let over_two = _mm_clmulepi64_si128::<0>(
                _mm_cvtsi32_si128(a as i32),
                _mm_cvtsi32_si128(SHIFTS[lane / 4] as i32),
            );
            let over_one = _mm_clmulepi64_si128::<0>(
                _mm_cvtsi32_si128(b as i32),
                _mm_cvtsi32_si128(SHIFTS[lane / 8] as i32),
            );
            let joined = _mm_cvtsi128_si64(_mm_xor_si128(over_two, over_one)) as u64;
            crc = c as u32 ^ _mm_crc32_u64(0, joined) as u32;
            rest = tail;
        }
        let mut chunks = rest.chunks_exact(8);
        let mut crc = u64::from(crc);
        for x in chunks.by_ref() {
            crc = _mm_crc32_u64(crc, word(x));
        }
        let mut crc = crc as u32;
        for &b in chunks.remainder() {
            crc = _mm_crc32_u8(crc, b);
        }
        crc
    }

    fn word(chunk: &[u8]) -> u64 {
        u64::from_le_bytes(chunk.try_into().expect("8 bytes"))
    }
}

/// One-shot CRC-32C of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Canonical CRC-32C test vectors (RFC 3720 appendix / common refs).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xE306_9283);
        assert_eq!(crc32(&[0u8; 32]), 0x8A91_36AA);
    }

    #[test]
    fn table_path_matches_known_vectors() {
        // The dispatching `crc32` above may have taken the hardware path;
        // hold the software fold to the same answers explicitly so the
        // fallback stays verified on machines where it is never dispatched.
        let sw = |bytes: &[u8]| !update_tables(!0, bytes);
        assert_eq!(sw(b""), 0);
        assert_eq!(sw(b"123456789"), 0xE306_9283);
        assert_eq!(sw(&[0u8; 32]), 0x8A91_36AA);
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect()
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hw_path_matches_table_path() {
        if !hw::available() {
            return;
        }
        // Every length up to 4096 covers the single chain below LANES_MIN,
        // lanes up to 1360 bytes and every tail; the rest sit at the edges
        // of a block of three LANE_MAX lanes (the end of the lane table),
        // plus a large odd length. Each runs from a fresh state and from a
        // mid-stream one. The two implementations must agree bit for bit.
        let block = 3 * LANE_MAX;
        let edges = [
            block - 1,
            block,
            block + 1,
            block + LANES_MIN - 1,
            block + LANES_MIN,
            2 * block,
            3 * block - 1,
            100_003,
        ];
        let data = sample(100_003);
        let mid = update_tables(!0, b"a chained mid-stream state");
        for len in (0..=4096).chain(edges) {
            for from in [!0, mid] {
                let sw = update_tables(from, &data[..len]);
                // SAFETY: `hw::available()` was checked above.
                let hw = unsafe { hw::update(from, &data[..len]) };
                assert_eq!(sw, hw, "len {len} from {from:#010x}");
            }
        }
    }

    #[test]
    fn every_shift_is_a_power_of_x() {
        // SHIFTS[m] advances a state over 8·m zero bytes after one more
        // 8-byte fold of the product; check the exponents against the
        // table fold of zeros, which multiplies by x^8 per byte.
        let zeros = [0u8; 2 * LANE_MAX];
        let x31 = 1u32; // x^31, reflected
        for m in 1..SHIFTS.len() {
            // x^31 · x^(64·m − 64) = x^(64·m − 33) = SHIFTS[m]
            let want = update_tables(x31, &zeros[..8 * m - 8]);
            assert_eq!(SHIFTS[m], want, "m {m}");
        }
    }

    proptest::proptest! {
        /// However a buffer is cut into `update` calls — which moves where
        /// each call's lanes start and end — the checksum is the one-shot
        /// value.
        #[test]
        fn any_split_gives_the_one_shot_value(
            len in 0usize..20_000,
            cuts in proptest::collection::vec(0usize..20_000, 0..8),
        ) {
            let data = sample(len);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
            cuts.push(0);
            cuts.push(len);
            cuts.sort_unstable();
            let mut c = Crc32::new();
            for w in cuts.windows(2) {
                c.update(&data[w[0]..w[1]]);
            }
            proptest::prop_assert_eq!(c.finish(), !update_tables(!0, &data));
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31) as u8).collect();
        for split in [0, 1, 3, 500, 999, 1000] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), crc32(&data), "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        // One UDP datagram body: every flip goes through the three-lane
        // fold where the hardware path is taken.
        let mut data = vec![0xA5u8; 1432];
        let clean = crc32(&data);
        for bit in 0..data.len() * 8 {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&data), clean, "bit {bit} flip undetected");
            data[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
