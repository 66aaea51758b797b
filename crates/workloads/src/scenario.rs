//! Reproducible experiment scenarios.
//!
//! A [`Scenario`] pins down everything that determines a tag population —
//! size, ID distribution, payload kind and width, and the master seed — so
//! experiments are reproducible.

use rfid_hash::{split_seed, Xoshiro256};
use rfid_system::{BitVec, TagId, TagPopulation};

use crate::ids::IdDistribution;
use crate::payload::PayloadKind;

/// A complete experiment-population description.
///
/// ```
/// use rfid_workloads::{IdDistribution, Scenario};
///
/// let scenario = Scenario::uniform(250, 16)
///     .with_seed(7)
///     .with_ids(IdDistribution::Clustered { categories: 5 });
/// let population = scenario.build_population();
/// assert_eq!(population.len(), 250);
/// // Bit-exact reproducibility: same scenario, same tags.
/// assert_eq!(
///     population.id(0),
///     scenario.build_population().id(0),
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Number of tags `n`.
    pub(crate) n: usize,
    /// How IDs are distributed.
    pub(crate) id_dist: IdDistribution,
    /// Payload width `m` in bits (the paper's `l`).
    pub(crate) info_bits: usize,
    /// What the payload encodes.
    pub(crate) payload: PayloadKind,
    /// Master seed; IDs, payloads and the protocol run derive from it.
    pub seed: u64,
}

impl Scenario {
    /// The paper's default: `n` uniform-random IDs, presence payloads of
    /// `info_bits` bits, seed 0.
    pub fn uniform(n: usize, info_bits: usize) -> Self {
        Scenario {
            n,
            id_dist: IdDistribution::UniformRandom,
            info_bits,
            payload: PayloadKind::Presence,
            seed: 0,
        }
    }

    /// Replaces the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The scenario for Monte-Carlo run `run`: the same population shape
    /// reseeded with `split_seed(master, run)`. Every run of a sweep cell
    /// draws from its own independent stream, so results are identical no
    /// matter how runs are blocked or scheduled across workers.
    pub fn for_run(&self, run: u64) -> Self {
        self.clone().with_seed(split_seed(self.seed, run))
    }

    /// Replaces the ID distribution.
    pub fn with_ids(mut self, id_dist: IdDistribution) -> Self {
        self.id_dist = id_dist;
        self
    }

    /// Replaces the payload kind.
    pub fn with_payload(mut self, payload: PayloadKind) -> Self {
        self.payload = payload;
        self
    }

    /// The seed protocols should run under (distinct from the generation
    /// streams).
    pub fn protocol_seed(&self) -> u64 {
        split_seed(self.seed, 2)
    }

    /// Deterministically builds the tag population.
    pub fn build_population(&self) -> TagPopulation {
        let mut id_rng = Xoshiro256::seed_from_u64(split_seed(self.seed, 0));
        let mut payload_rng = Xoshiro256::seed_from_u64(split_seed(self.seed, 1));
        let ids = self.id_dist.sampler(&mut id_rng);
        let fill = |info: &mut BitVec| self.payload.append(self.info_bits, &mut payload_rng, info);
        TagPopulation::draw(self.n, self.info_bits, ids, fill)
    }

    /// Builds a missing-tag variant: the reader expects all `n` IDs but only
    /// `n - missing` tags are present. Returns `(expected_ids, present)`.
    ///
    /// # Panics
    /// Panics if `missing > n`.
    pub fn split_missing(&self, missing: usize) -> (Vec<TagId>, TagPopulation) {
        assert!(
            missing <= self.n,
            "cannot remove {missing} of {} tags",
            self.n
        );
        let full = self.build_population();
        let expected: Vec<TagId> = full.ids().collect();
        let mut pick_rng = Xoshiro256::seed_from_u64(split_seed(self.seed, 3));
        let mut gone = vec![false; self.n];
        for i in pick_rng.sample_indices(self.n, missing) {
            gone[i] = true;
        }
        let present = TagPopulation::new(
            (0..self.n)
                .filter(|&i| !gone[i])
                .map(|i| (expected[i], full.info(i))),
        );
        (expected, present)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic() {
        let s = Scenario::uniform(200, 8).with_seed(9);
        let a = s.build_population();
        let b = s.build_population();
        assert_eq!(a.len(), 200);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_different_populations() {
        let a = Scenario::uniform(50, 1).with_seed(1).build_population();
        let b = Scenario::uniform(50, 1).with_seed(2).build_population();
        assert!(a.ids().ne(b.ids()));
    }

    #[test]
    fn info_bits_respected() {
        let s = Scenario::uniform(10, 32);
        let population = s.build_population();
        assert!((0..10).all(|i| population.info(i).len() == 32));
    }

    #[test]
    fn split_missing_partitions() {
        let s = Scenario::uniform(100, 1).with_seed(5);
        let (expected, present) = s.split_missing(20);
        assert_eq!(expected.len(), 100);
        assert_eq!(present.len(), 80);
        let present_ids: std::collections::BTreeSet<_> = present.ids().collect();
        let missing = expected
            .iter()
            .filter(|id| !present_ids.contains(id))
            .count();
        assert_eq!(missing, 20);
    }

    #[test]
    fn split_missing_zero_keeps_everyone() {
        let s = Scenario::uniform(30, 1);
        let (expected, present) = s.split_missing(0);
        assert_eq!(expected.len(), present.len());
    }

    #[test]
    fn for_run_matches_manual_reseeding() {
        let s = Scenario::uniform(40, 1).with_seed(11);
        for run in [0u64, 1, 7, 19] {
            assert_eq!(s.for_run(run), s.clone().with_seed(split_seed(11, run)));
        }
    }

    #[test]
    fn for_run_streams_are_independent_across_runs() {
        let s = Scenario::uniform(64, 1).with_seed(3);
        let ids = |sc: &Scenario| -> Vec<_> { sc.build_population().ids().collect() };
        // Distinct runs draw distinct populations...
        assert_ne!(ids(&s.for_run(0)), ids(&s.for_run(1)));
        // ...and distinct protocol seeds.
        assert_ne!(s.for_run(0).protocol_seed(), s.for_run(1).protocol_seed());
        // The same run index is bit-stable.
        assert_eq!(ids(&s.for_run(5)), ids(&s.for_run(5)));
    }

    #[test]
    fn for_run_streams_are_independent_across_cells() {
        // Two cells of a sweep grid (different master seeds) must not share
        // any run stream, or neighbouring grid cells would be correlated.
        let a = Scenario::uniform(64, 1).with_seed(100);
        let b = Scenario::uniform(64, 1).with_seed(101);
        for run in 0..8u64 {
            assert_ne!(a.for_run(run).seed, b.for_run(run).seed);
        }
        // Run seeds within one cell never collide: split_seed is injective
        // in the index (odd-multiplier + rotate + mix64 are all bijections).
        let seeds: std::collections::BTreeSet<u64> =
            (0..256).map(|run| a.for_run(run).seed).collect();
        assert_eq!(seeds.len(), 256);
    }

    /// Builds that draw repeated IDs, pinned by the FNV-1a digest of their
    /// identity JSON: a repeat is drawn again and gets no payload, so
    /// moving the uniqueness check must leave every ID and payload as is.
    #[test]
    fn repeat_heavy_builds_are_pinned() {
        let digest = |ids: IdDistribution, n: usize| {
            let population = Scenario::uniform(n, 16)
                .with_seed(9)
                .with_ids(ids)
                .with_payload(PayloadKind::Random)
                .build_population();
            rfid_hash::fnv64(&population.identity_json().to_string())
        };
        // 60 of the 64 IDs a 90-bit shared prefix leaves: repeats are frequent.
        let shared = IdDistribution::SharedPrefix { prefix_bits: 90 };
        let zipf = IdDistribution::Zipf {
            categories: 4,
            exponent: 1.0,
        };
        let got = [
            digest(shared, 60),
            digest(IdDistribution::Clustered { categories: 3 }, 500),
            digest(zipf, 300),
        ];
        assert_eq!(
            got,
            [
                9256075517602671098,
                17781801068945900532,
                6236744603975769428
            ]
        );
    }

    #[test]
    #[should_panic(expected = "cannot remove")]
    fn split_missing_rejects_overdraw() {
        Scenario::uniform(5, 1).split_missing(6);
    }
}
