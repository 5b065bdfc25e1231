//! Seeded inputs and the checks on what comes back.
//!
//! Everything a workload sends is generated here from `--seed`; the stack
//! sees only the bytes and tags. Both ranks — in one process or two — build
//! the same [`Inputs`] from the same seed, so a receiver knows what every
//! message must contain.

/// Largest payload any workload moves.
pub const BODY_LEN: usize = 4 * 1024 * 1024;
/// Messages per `msgrate_inproc` burst.
pub const BURST: usize = 64;

/// SplitMix64: small, seedable, good enough to make payload bytes that are
/// neither constant nor compressible.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose whole sequence is a function of `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A permutation of `0..n` (Fisher–Yates).
    fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut v: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            v.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
        v
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    /// Mixed into every sequence stamp, so a stale message from another run
    /// (or another seed) never passes a check.
    key: u64,
    /// Payload bytes; a message of `n` bytes carries `body[..n]` with its
    /// first and last eight bytes replaced by stamps.
    body: Vec<u8>,
    /// Order in which a burst's receives are posted (tag offsets).
    pub post_order: Vec<u32>,
    /// Order in which a burst's messages are sent (tag offsets) — a
    /// different permutation, so matching walks the posted list out of order.
    pub send_order: Vec<u32>,
}

impl Inputs {
    /// Generate the inputs for `seed`.
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = SplitMix64::new(seed);
        let key = rng.next_u64();
        let mut body = Vec::with_capacity(BODY_LEN);
        while body.len() < BODY_LEN {
            body.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        Inputs {
            key,
            body,
            post_order: rng.permutation(BURST),
            send_order: rng.permutation(BURST),
        }
    }

    /// The stamp opening message number `seq`.
    pub fn head_stamp(&self, seq: u64) -> [u8; 8] {
        (seq ^ self.key).to_le_bytes()
    }

    /// The stamp closing message number `seq` (payloads of 16 bytes and more).
    pub fn tail_stamp(&self, seq: u64) -> [u8; 8] {
        (seq ^ self.key).rotate_left(17).to_le_bytes()
    }

    /// The `len`-byte payload of message number `seq` (`len` is 8, or 16 and
    /// more).
    pub fn payload(&self, seq: u64, len: usize) -> Vec<u8> {
        let mut p = self.body[..len].to_vec();
        self.stamp(seq, &mut p);
        p
    }

    /// Overwrite the stamps of `payload` (whose middle already holds
    /// `body[8..len - 8]`) for message number `seq`.
    pub fn stamp(&self, seq: u64, payload: &mut [u8]) {
        let len = payload.len();
        assert!(len == 8 || len >= 16, "payloads are 8 bytes or at least 16");
        payload[..8].copy_from_slice(&self.head_stamp(seq));
        if len >= 16 {
            payload[len - 8..].copy_from_slice(&self.tail_stamp(seq));
        }
    }

    /// The unstamped payload bytes, for a sender that stamps in place.
    pub fn body(&self, len: usize) -> &[u8] {
        &self.body[..len]
    }

    /// Whether `payload` is message number `seq`: the stamps always, and
    /// every byte in between when `whole` (every 64th op asks for that).
    pub fn check(&self, seq: u64, payload: &[u8], whole: bool) -> bool {
        let len = payload.len();
        if len != 8 && len < 16 {
            return false;
        }
        if payload[..8] != self.head_stamp(seq) {
            return false;
        }
        if len >= 16 && payload[len - 8..] != self.tail_stamp(seq) {
            return false;
        }
        !whole || len < 16 || payload[8..len - 8] == self.body[8..len - 8]
    }
}

/// Every 64th op compares the whole payload, the others only the stamps.
pub fn whole_check(seq: u64) -> bool {
    seq % 64 == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Inputs::generate(7);
        let b = Inputs::generate(7);
        let c = Inputs::generate(8);
        assert_eq!(a.payload(3, 1024), b.payload(3, 1024));
        assert_eq!(a.post_order, b.post_order);
        assert_eq!(a.send_order, b.send_order);
        assert_ne!(a.payload(3, 1024), c.payload(3, 1024));
        assert_ne!(a.post_order, c.post_order);
    }

    #[test]
    fn orders_are_distinct_permutations() {
        let i = Inputs::generate(1);
        for order in [&i.post_order, &i.send_order] {
            let mut seen = order.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..BURST as u32).collect::<Vec<_>>());
        }
        assert_ne!(i.post_order, i.send_order);
    }

    #[test]
    fn checks_catch_wrong_sequence_and_corruption() {
        let i = Inputs::generate(1);
        let mut p = i.payload(5, 1024);
        assert!(i.check(5, &p, true));
        assert!(!i.check(6, &p, false));
        p[500] ^= 1;
        assert!(i.check(5, &p, false), "stamps alone do not see the middle");
        assert!(!i.check(5, &p, true));
        let eight = i.payload(9, 8);
        assert!(i.check(9, &eight, true));
        assert!(!i.check(10, &eight, true));
        assert!(!i.check(9, &eight[..7], false));
    }
}
