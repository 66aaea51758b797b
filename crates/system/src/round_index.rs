//! Per-round singleton index: the reader's precomputation, done once.
//!
//! Every hash-polling round the reader knows all unread IDs and must find
//! the *singleton* indices — values of `H(r, id) mod 2^h` picked by exactly
//! one active tag. The protocols used to recompute this by scanning and
//! sorting the whole population every round; [`RoundIndex`] instead
//! bucket-sorts the hashed indices in one O(active) pass over the
//! population's active-set bitset (batch-hashing the SoA ID blocks through
//! [`rfid_hash::TagHash::index_batch`] when the whole population is still
//! active), then emits the singletons by an ascending bucket sweep. The
//! output is *identical* — same `(index, handle)` pairs in the same
//! ascending-index order — to the historical sort-and-group implementation,
//! which is what pins the bit-identical `Report`/`Counters` guarantee.
//!
//! Bucket arrays are epoch-stamped so rebuilding for the next round costs
//! no clearing pass, and every buffer is reused across rounds: after the
//! first few rounds a build performs no heap allocation at all.

use rfid_hash::TagHash;

use crate::population::TagPopulation;

/// Index lengths above this fall back to sort-and-group (the bucket arrays
/// would outgrow the population they index); every protocol in the paper
/// picks `h ≈ ⌈log₂ n'⌉`, so the counting path covers beyond 4M tags.
const MAX_COUNTING_BITS: u32 = 22;

/// Reusable per-round bucket index over hashed tag indices.
#[derive(Debug, Clone, Default)]
pub(crate) struct RoundIndex {
    /// Epoch stamp per bucket; a bucket is live iff `stamp[b] == epoch`.
    stamp: Vec<u32>,
    /// Number of active tags hashing into each live bucket.
    count: Vec<u32>,
    /// Handle of the first tag that hashed into each live bucket.
    owner: Vec<u32>,
    epoch: u32,
    /// Live bucket range of the latest build (0 when the sort fallback ran).
    built_size: usize,
    /// Scratch for the sort fallback and the full-population batch hash.
    scratch: Vec<(u64, usize)>,
    batch: Vec<u64>,
}

impl RoundIndex {
    /// A fresh index with no capacity reserved.
    pub(crate) fn new() -> Self {
        RoundIndex::default()
    }

    /// Builds the round's index over all *active* tags for `H(seed, ·) mod
    /// 2^h` and writes the singleton `(index, handle)` pairs into `singles`
    /// in ascending index order (clearing it first).
    ///
    /// # Panics
    /// Panics if `h > 64`.
    pub(crate) fn build_into(
        &mut self,
        population: &TagPopulation,
        seed: u64,
        h: u32,
        singles: &mut Vec<(u64, usize)>,
    ) {
        singles.clear();
        let hash = TagHash::new(seed);
        if h > MAX_COUNTING_BITS {
            self.build_sorted(population, &hash, h, singles);
            return;
        }
        let size = 1usize << h;
        self.built_size = size;
        if self.stamp.len() < size {
            self.stamp.resize(size, 0);
            self.count.resize(size, 0);
            self.owner.resize(size, 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.stamp.fill(0);
                1
            }
        };
        let epoch = self.epoch;
        if population.active_count() == population.len() {
            // Whole population active (every first round): stream the SoA ID
            // blocks through the batch hasher, no bitset walk needed.
            let (ids_hi, ids_lo) = population.id_words();
            self.batch.clear();
            hash.index_batch(ids_hi, ids_lo, h, &mut self.batch);
            for (handle, &b) in self.batch.iter().enumerate() {
                let b = b as usize;
                if self.stamp[b] != epoch {
                    self.stamp[b] = epoch;
                    self.count[b] = 1;
                    self.owner[b] = handle as u32;
                } else {
                    self.count[b] += 1;
                }
            }
        } else {
            let (ids_hi, ids_lo) = population.id_words();
            let stamp = &mut self.stamp;
            let count = &mut self.count;
            let owner = &mut self.owner;
            population.for_each_active(|handle| {
                let b = hash.index(ids_hi[handle], ids_lo[handle], h) as usize;
                if stamp[b] != epoch {
                    stamp[b] = epoch;
                    count[b] = 1;
                    owner[b] = handle as u32;
                } else {
                    count[b] += 1;
                }
            });
        }
        for b in 0..size {
            if self.stamp[b] == epoch && self.count[b] == 1 {
                singles.push((b as u64, self.owner[b] as usize));
            }
        }
    }

    /// Sort-and-group fallback for oversized index lengths — identical
    /// output, O(active · log active).
    fn build_sorted(
        &mut self,
        population: &TagPopulation,
        hash: &TagHash,
        h: u32,
        singles: &mut Vec<(u64, usize)>,
    ) {
        self.built_size = 0;
        let (ids_hi, ids_lo) = population.id_words();
        let scratch = &mut self.scratch;
        scratch.clear();
        population.for_each_active(|handle| {
            scratch.push((hash.index(ids_hi[handle], ids_lo[handle], h), handle));
        });
        scratch.sort_unstable();
        let mut i = 0;
        while i < scratch.len() {
            let (index, handle) = scratch[i];
            let mut j = i + 1;
            while j < scratch.len() && scratch[j].0 == index {
                j += 1;
            }
            if j - i == 1 {
                singles.push((index, handle));
            }
            i = j;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::BitVec;
    use crate::context::{SimConfig, SimContext};
    use crate::fault::FaultModel;
    use rfid_hash::prop::{check, CaseResult, Gen};
    use rfid_hash::{prop_assert, prop_assert_eq};

    /// The historical implementation: full scan, sort, group.
    fn naive_singles(pop: &TagPopulation, seed: u64, h: u32) -> Vec<(u64, usize)> {
        let hash = TagHash::new(seed);
        let mut pairs: Vec<(u64, usize)> = pop
            .ids()
            .enumerate()
            .filter(|&(i, _)| pop.is_active(i))
            .map(|(i, id)| (hash.index(id.hi(), id.lo(), h), i))
            .collect();
        pairs.sort_unstable();
        let mut singles = Vec::new();
        let mut i = 0;
        while i < pairs.len() {
            let mut j = i + 1;
            while j < pairs.len() && pairs[j].0 == pairs[i].0 {
                j += 1;
            }
            if j - i == 1 {
                singles.push(pairs[i]);
            }
            i = j;
        }
        singles
    }

    fn naive_bucket(pop: &TagPopulation, seed: u64, h: u32, b: u64) -> Vec<usize> {
        let hash = TagHash::new(seed);
        pop.ids()
            .enumerate()
            .filter(|&(i, id)| pop.is_active(i) && hash.index(id.hi(), id.lo(), h) == b)
            .map(|(i, _)| i)
            .collect()
    }

    /// Every slot's singleton in `singles` is what a per-slot scan finds:
    /// the slot's sole active tag, and no entry for an empty or contended
    /// slot.
    fn slots_match(pop: &TagPopulation, seed: u64, h: u32, singles: &[(u64, usize)]) -> CaseResult {
        for b in 0..(1u64 << h) {
            let want = naive_bucket(pop, seed, h, b);
            let got = singles.iter().find(|&&(i, _)| i == b).map(|&(_, t)| t);
            prop_assert_eq!(got, (want.len() == 1).then(|| want[0]));
        }
        Ok(())
    }

    #[test]
    fn matches_naive_on_partial_population() {
        let mut pop = TagPopulation::sequential(200, |_| BitVec::from_str_bits("1"));
        for i in (0..200).step_by(3) {
            pop.sleep(i);
        }
        pop.deselect(1);
        let mut idx = RoundIndex::new();
        let mut singles = Vec::new();
        for seed in 0..8u64 {
            idx.build_into(&pop, seed, 8, &mut singles);
            assert_eq!(singles, naive_singles(&pop, seed, 8));
        }
    }

    #[test]
    fn sort_fallback_matches_counting_output() {
        let pop = TagPopulation::sequential(300, |_| BitVec::from_str_bits("1"));
        let mut idx = RoundIndex::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        // h = 23 forces the fallback; recompute the same singles naively.
        idx.build_into(&pop, 77, MAX_COUNTING_BITS + 1, &mut a);
        b.extend(naive_singles(&pop, 77, MAX_COUNTING_BITS + 1));
        assert_eq!(a, b);
    }

    #[test]
    fn reuse_across_epochs_stays_correct() {
        let mut pop = TagPopulation::sequential(150, |_| BitVec::from_str_bits("1"));
        let mut idx = RoundIndex::new();
        let mut singles = Vec::new();
        for round in 0..20u64 {
            idx.build_into(&pop, round * 31 + 1, 7, &mut singles);
            assert_eq!(singles, naive_singles(&pop, round * 31 + 1, 7));
            // Sleep the round's singletons, as HPP would.
            let polled: Vec<usize> = singles.iter().map(|&(_, t)| t).collect();
            for t in polled {
                pop.sleep(t);
            }
            if pop.active_count() == 0 {
                break;
            }
        }
    }

    #[test]
    fn prop_buckets_and_singles_match_naive_scan() {
        check("round index matches naive scan", 64, |g: &mut Gen| {
            let n = g.len_in(1, 300);
            let h = g.u64_in(1, 13) as u32;
            let seed = g.u64();
            let mut pop = TagPopulation::sequential(n, |_| BitVec::from_str_bits("1"));
            // Random frame history: sleep / deselect a random subset.
            for i in 0..n {
                match g.u64_below(4) {
                    0 => pop.sleep(i),
                    1 => pop.deselect(i),
                    _ => {}
                }
            }
            let mut idx = RoundIndex::new();
            let mut singles = Vec::new();
            idx.build_into(&pop, seed, h, &mut singles);
            prop_assert_eq!(&singles, &naive_singles(&pop, seed, h));
            slots_match(&pop, seed, h, &singles)
        });
    }

    #[test]
    fn prop_matches_naive_under_active_fault_models() {
        check("round index matches under faults", 24, |g: &mut Gen| {
            let n = g.len_in(2, 120);
            let h = g.u64_in(2, 9) as u32;
            let fault = FaultModel::perfect()
                .with_downlink_loss(g.f64_in(0.0, 0.4))
                .with_corruption(g.f64_in(0.0, 0.4));
            let cfg = SimConfig::paper(g.u64()).with_fault(fault);
            let pop = TagPopulation::sequential(n, |_| BitVec::from_str_bits("1"));
            let mut ctx = SimContext::new(pop, &cfg);
            // Drive a few faulty polling rounds so the population carries a
            // real mid-protocol state (some asleep, some desynchronized).
            for _ in 0..g.u64_in(1, 4) {
                let seed = ctx.draw_round_seed();
                ctx.begin_round(h);
                let singles = ctx.sift_singletons(seed, h);
                prop_assert_eq!(&singles, &naive_singles(&ctx.population, seed, h));
                slots_match(&ctx.population, seed, h, &singles)?;
                for &(_, tag) in &singles {
                    ctx.poll_tag(h as u64, true, tag);
                }
                ctx.recycle_singletons(singles);
                if ctx.population.active_count() == 0 {
                    break;
                }
            }
            prop_assert!(ctx.population.active_count() <= n);
            Ok(())
        });
    }
}
