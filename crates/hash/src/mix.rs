//! The seeded tag hash `H(r, id)`.
//!
//! C1G2 tags carry a pseudo-random generator and simple hash circuitry; the
//! protocols in the paper only require that `H(r, id)` be (a) computable by
//! both the reader and the tag and (b) uniform over its range for each fresh
//! seed `r`. We realize it as two rounds of the SplitMix64 finalizer over the
//! EPC words mixed with the seed — small enough for tag hardware models,
//! strong enough to pass χ² uniformity and avalanche tests (see the
//! `uniformity` module's test-suite).

/// The seeded 64-bit hash over a 96-bit tag ID.
///
/// ```
/// use rfid_hash::TagHash;
///
/// // A round's hash: both reader and tag derive the same h-bit index.
/// let h = TagHash::new(0xC0FFEE);
/// let index = h.index(0x1234, 0x5678_9ABC, 10);
/// assert!(index < 1 << 10);
/// assert_eq!(index, TagHash::new(0xC0FFEE).index(0x1234, 0x5678_9ABC, 10));
/// // A fresh seed reshuffles everyone.
/// assert_ne!(index, TagHash::new(0xC0FFEF).index(0x1234, 0x5678_9ABC, 10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagHash {
    seed: u64,
}

/// SplitMix64 finalizer: a fast 64-bit mixing permutation.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Streaming 64-bit FNV-1a: feed bytes in any number of
/// [`Fnv64::write`] calls; [`Fnv64::finish`] equals [`fnv64`] of their
/// concatenation, so a digest never needs its input in one buffer.
///
/// ```
/// use rfid_hash::{fnv64, Fnv64};
///
/// let mut h = Fnv64::new();
/// h.write(b"{\"at\":0,");
/// h.write(b"\"event\":\"SlotEmpty\"}\n");
/// assert_eq!(h.finish(), fnv64("{\"at\":0,\"event\":\"SlotEmpty\"}\n"));
/// ```
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// The FNV-1a state before any byte (the 64-bit offset basis).
    #[inline]
    pub const fn new() -> Self {
        Fnv64 {
            state: 0xCBF2_9CE4_8422_2325,
        }
    }

    /// Absorbs `bytes`.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.state = h;
    }

    /// The digest of every byte written so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// FNV-1a over a string: the workspace's canonical content digest for
/// bit-identity gates (event-trace digests, sweep cache keys). Shared here
/// so the serving layer and the bench harness agree on one definition.
pub fn fnv64(s: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(s.as_bytes());
    h.finish()
}

impl TagHash {
    /// Creates the hash function for round seed `r`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        TagHash { seed }
    }

    /// `H(r, id)`: the full 64-bit hash of a 96-bit ID given as
    /// `(high 32 bits, low 64 bits)`.
    #[inline]
    pub fn hash(&self, id_hi: u32, id_lo: u64) -> u64 {
        // Absorb the seed, then each ID word, with a mixing round between
        // absorptions so no word can cancel another.
        let mut state = mix64(self.seed ^ 0x243F_6A88_85A3_08D3);
        state = mix64(state ^ id_lo);
        state = mix64(state ^ ((id_hi as u64) << 16 | 0x9E37));
        state
    }

    /// `H(r, id) mod 2^h`: the `h`-bit index a tag picks in a round.
    ///
    /// # Panics
    /// Panics if `h > 64` — index lengths in the protocols are ≤ ⌈log₂ n⌉.
    #[inline]
    pub fn index(&self, id_hi: u32, id_lo: u64, h: u32) -> u64 {
        assert!(h <= 64, "index length {h} exceeds 64 bits");
        if h == 64 {
            self.hash(id_hi, id_lo)
        } else {
            self.hash(id_hi, id_lo) & ((1u64 << h) - 1)
        }
    }

    /// `H(r, id) mod m` for an arbitrary modulus (EHPP's `mod F` selection).
    ///
    /// # Panics
    /// Panics if `m == 0`.
    #[inline]
    pub fn modulo(&self, id_hi: u32, id_lo: u64, m: u64) -> u64 {
        assert!(m > 0, "zero modulus");
        self.hash(id_hi, id_lo) % m
    }

    /// Batch [`TagHash::index`] over structure-of-arrays ID blocks: appends
    /// `index(hi[i], lo[i], h)` to `out` for every `i`. The tight loop over
    /// plain word slices is what the reader's per-round precomputation
    /// compiles down to, without per-tag call or bounds-check overhead.
    ///
    /// # Panics
    /// Panics if the slices differ in length or `h > 64`.
    pub fn index_batch(&self, ids_hi: &[u32], ids_lo: &[u64], h: u32, out: &mut Vec<u64>) {
        assert_eq!(ids_hi.len(), ids_lo.len(), "SoA ID slices differ in length");
        assert!(h <= 64, "index length {h} exceeds 64 bits");
        let mask = if h == 64 { u64::MAX } else { (1u64 << h) - 1 };
        out.reserve(ids_hi.len());
        for (&hi, &lo) in ids_hi.iter().zip(ids_lo) {
            out.push(self.hash(hi, lo) & mask);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_inputs() {
        let h = TagHash::new(7);
        assert_eq!(h.hash(1, 2), h.hash(1, 2));
        assert_eq!(TagHash::new(7).hash(1, 2), h.hash(1, 2));
    }

    #[test]
    fn seed_changes_everything() {
        let a = TagHash::new(1);
        let b = TagHash::new(2);
        let same = (0..256).filter(|&i| a.hash(0, i) == b.hash(0, i)).count();
        assert!(same <= 1, "{same} collisions between distinct seeds");
    }

    #[test]
    fn distinct_ids_rarely_collide_in_64_bits() {
        let h = TagHash::new(99);
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(h.hash((i % 7) as u32, i)), "collision at {i}");
        }
    }

    #[test]
    fn hi_word_matters() {
        let h = TagHash::new(5);
        assert_ne!(h.hash(0, 42), h.hash(1, 42));
    }

    #[test]
    fn index_is_masked_hash() {
        let h = TagHash::new(3);
        for hh in [1u32, 5, 16, 63] {
            let idx = h.index(9, 1234, hh);
            assert_eq!(idx, h.hash(9, 1234) & ((1 << hh) - 1));
            assert!(idx < (1u64 << hh));
        }
        assert_eq!(h.index(9, 1234, 64), h.hash(9, 1234));
    }

    #[test]
    fn modulo_in_range() {
        let h = TagHash::new(11);
        for m in [1u64, 2, 3, 100, 1_000_003] {
            for id in 0..50 {
                assert!(h.modulo(0, id, m) < m);
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero modulus")]
    fn zero_modulus_rejected() {
        TagHash::new(0).modulo(0, 0, 0);
    }

    #[test]
    fn index_batch_matches_scalar_index() {
        let h = TagHash::new(0xABCDEF);
        let ids_hi: Vec<u32> = (0..500).map(|i| i % 13).collect();
        let ids_lo: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        for bits in [1u32, 7, 21, 64] {
            let mut batch = Vec::new();
            h.index_batch(&ids_hi, &ids_lo, bits, &mut batch);
            let scalar: Vec<u64> = ids_hi
                .iter()
                .zip(&ids_lo)
                .map(|(&hi, &lo)| h.index(hi, lo, bits))
                .collect();
            assert_eq!(batch, scalar);
        }
    }

    #[test]
    fn mix64_is_a_permutation_locally() {
        // Spot-check injectivity on a contiguous range.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)));
        }
        // Zero is the finalizer's one well-known fixed point; other small
        // inputs must scatter.
        assert_eq!(mix64(0), 0);
        assert_ne!(mix64(1), 1);
        assert_ne!(mix64(2), 2);
    }
}
