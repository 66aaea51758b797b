//! Indexed hash family `H_j(r, id)` for multi-hash protocols.
//!
//! MIC gives every tag `k` candidate slots `H_1 … H_k`; the paper's own
//! protocols need only `H_1` (the tag-side storage advantage discussed in
//! Section V). The family derives member `j` by mixing `j` into the seed, so
//! members are pairwise independent while tags still only implement a single
//! hash circuit.

use crate::mix::{mix64, TagHash};

/// A family of `k` seeded hash functions.
#[derive(Debug, Clone)]
pub struct HashFamily {
    members: Vec<TagHash>,
}

impl HashFamily {
    /// Builds the family `H_1 … H_k` for round seed `r`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(seed: u64, k: usize) -> Self {
        assert!(k > 0, "hash family needs at least one member");
        let members = (0..k as u64)
            .map(|j| TagHash::new(mix64(seed ^ j.wrapping_mul(0xA076_1D64_78BD_642F))))
            .collect();
        HashFamily { members }
    }

    /// Number of members `k`.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the family is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Appends all `k` candidate slots for a tag in a frame of the given
    /// size to `out`, so one flat buffer holds a whole frame's candidates.
    pub fn slots_into(&self, id_hi: u32, id_lo: u64, frame: u64, out: &mut Vec<u64>) {
        out.extend(self.members.iter().map(|h| h.modulo(id_hi, id_lo, frame)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_are_distinct_functions() {
        let fam = HashFamily::new(42, 7);
        assert_eq!(fam.len(), 7);
        let id = (3u32, 123_456_789u64);
        let outputs: Vec<u64> = (0..7).map(|j| fam.members[j].hash(id.0, id.1)).collect();
        let unique: std::collections::HashSet<_> = outputs.iter().collect();
        assert_eq!(
            unique.len(),
            7,
            "members collided on one input: {outputs:?}"
        );
    }

    #[test]
    fn deterministic_across_instances() {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        HashFamily::new(7, 3).slots_into(1, 2, 97, &mut a);
        HashFamily::new(7, 3).slots_into(1, 2, 97, &mut b);
        assert_eq!(a.len(), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn slots_within_frame() {
        let fam = HashFamily::new(1, 5);
        let mut flat = Vec::new();
        for id in 0..100u64 {
            fam.slots_into(0, id, 37, &mut flat);
        }
        assert_eq!(flat.len(), 500);
        assert!(flat.iter().all(|&s| s < 37));
    }

    #[test]
    fn slots_into_matches_slots() {
        // Each tag's chunk holds its slot under every member, in order.
        let fam = HashFamily::new(9, 7);
        let mut flat = Vec::new();
        for id in 0..20u64 {
            fam.slots_into(1, id, 53, &mut flat);
        }
        for (i, chunk) in flat.chunks_exact(7).enumerate() {
            let want: Vec<u64> = fam
                .members
                .iter()
                .map(|h| h.modulo(1, i as u64, 53))
                .collect();
            assert_eq!(chunk, want);
        }
    }

    #[test]
    fn different_seeds_give_different_families() {
        let a = HashFamily::new(1, 4);
        let b = HashFamily::new(2, 4);
        let matches = (0..4)
            .filter(|&j| a.members[j].hash(0, 5) == b.members[j].hash(0, 5))
            .count();
        assert_eq!(matches, 0);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_family_rejected() {
        let _ = HashFamily::new(0, 0);
    }
}
