//! The Tree-based Polling Protocol (Section IV).
//!
//! HPP broadcasts every singleton index in full, so common prefixes go on
//! the air repeatedly. TPP removes that redundancy: per round it
//!
//! 1. **Picks indices** — broadcasts `(h, r)` with the Eq.-(15)-optimal `h`
//!    (load `λ = n'/2^h ∈ [ln 2, 2·ln 2)` maximizes the singleton
//!    probability `μ = λe^{-λ}`); every unread tag picks
//!    `H(r, id) mod 2^h`,
//! 2. **Builds the polling tree** — the reader inserts all singleton
//!    indices into a binary [`PollingTree`],
//! 3. **Polls by tree** — broadcasts the pre-order traversal split at leaf
//!    boundaries; every listening tag overlays each segment onto the tail
//!    of its `h`-bit array `A`, and the unique tag whose own index equals
//!    `A` replies.
//!
//! Each singleton therefore costs only its differential suffix; the
//! analysis (Eq. (16)) caps the average at `2 + 1/ln 2 ≈ 3.44` bits and the
//! simulation settles near 3.06 bits regardless of `n`.

use rfid_analysis::tpp::optimal_index_length;
use rfid_system::SimContext;

use crate::session::{ProtocolStepper, StepDiscipline, StepOutcome};
use crate::tree::PollingTree;
use crate::PollingProtocol;

/// How the per-round index length `h` is chosen — the design choice
/// Section IV-D analyzes (and the `ablation_tpp_h` bench measures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexRule {
    /// Eq. (15): keep the load `λ = n/2^h` in `[ln 2, 2·ln 2)` — maximizes
    /// the singleton probability and minimizes tree bits per read.
    #[default]
    Eq15Optimal,
    /// HPP's rule `2^{h-1} < n ≤ 2^h` (λ ∈ (1/2, 1]) — what TPP would do
    /// without the Section-IV-D analysis.
    HppRule,
}

/// The Tree-based Polling Protocol, as its configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TppConfig {
    /// Index-length rule (Eq. (15) optimum by default).
    pub index_rule: IndexRule,
    /// Safety cap on rounds.
    pub max_rounds: u64,
}

impl Default for TppConfig {
    fn default() -> Self {
        TppConfig {
            index_rule: IndexRule::Eq15Optimal,
            max_rounds: 1_000_000,
        }
    }
}

impl PollingProtocol for TppConfig {
    fn name(&self) -> &'static str {
        "TPP"
    }

    fn open_stepper(&self, _ctx: &SimContext) -> Box<dyn ProtocolStepper> {
        Box::new(*self)
    }
}

/// One step = one TPP round (index pick + tree build + tree broadcast);
/// the config itself is the stepper. Like HPP, all cross-round state is
/// the context's active set.
impl ProtocolStepper for TppConfig {
    fn discipline(&self) -> StepDiscipline {
        StepDiscipline::budgeted(self.max_rounds)
    }

    fn step(&mut self, ctx: &mut SimContext) -> StepOutcome {
        tpp_round(ctx, self);
        StepOutcome::Progressed
    }
}

/// Runs one TPP round; returns the number of tags successfully polled.
/// Like HPP's, the round opens with the 32-bit `(h, r)` broadcast and each
/// tree segment rides behind a 4-bit QueryRep.
pub(crate) fn tpp_round(ctx: &mut SimContext, cfg: &TppConfig) -> usize {
    let n = ctx.population.active_count();
    debug_assert!(n > 0, "round over an empty population");
    let h = match cfg.index_rule {
        IndexRule::Eq15Optimal => optimal_index_length(n as u64),
        IndexRule::HppRule => rfid_analysis::hpp::index_length(n as u64),
    };
    let seed = ctx.draw_round_seed();
    ctx.begin_round(h);

    if h == 0 {
        // One tag left: the bare QueryRep addresses it (0-bit vector).
        let handle = ctx
            .population
            .first_active()
            .expect("a nonempty round has an active tag");
        return ctx.poll_tag(0, true, handle) as usize;
    }

    // Phase 1: picking indices (reader precomputes the singleton sift).
    let singles = ctx.sift_singletons(seed, h);
    if singles.is_empty() {
        // No singleton this round (possible at tiny n'); retry with a new
        // seed next round — only the round initiation was spent.
        ctx.recycle_singletons(singles);
        return 0;
    }

    // Phase 2: building the polling tree over singleton indices.
    let mut tree = PollingTree::new(h);
    for &(index, _) in &singles {
        tree.insert_value(index);
    }
    debug_assert_eq!(tree.leaf_count(), singles.len());

    // Phase 3: tree-based polling. Segments arrive in ascending-index order,
    // matching `singles` (already sorted by index). Every listening tag
    // overlays the segment on its array A; the tag whose index equals A
    // replies — the simulator addresses exactly that tag. The timing model
    // charges each segment by bit count alone, so only the lengths are
    // computed — into a recycled buffer, not one `BitVec` per poll.
    let mut seg_lens = ctx.take_scratch();
    tree.preorder_segment_lengths_into(&mut seg_lens);
    debug_assert_eq!(seg_lens.len(), singles.len());
    let mut polled = 0;
    for (&bits, &(_, tag)) in seg_lens.iter().zip(&singles) {
        if ctx.poll_tag(bits as u64, true, tag) {
            polled += 1;
        }
    }
    ctx.recycle_scratch(seg_lens);
    ctx.recycle_singletons(singles);
    polled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpp::HppConfig;
    use crate::report::Report;
    use rfid_hash::TagHash;
    use rfid_system::{BitVec, Channel, SimConfig, TagPopulation};

    fn run(n: usize, seed: u64, cfg: TppConfig) -> (Report, SimContext) {
        let pop = TagPopulation::sequential(n, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(seed));
        let report = cfg.run(&mut ctx);
        (report, ctx)
    }

    #[test]
    fn reads_every_tag_exactly_once() {
        let (report, ctx) = run(1_000, 1, TppConfig::default());
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 1_000);
        assert_eq!(report.counters.empty_slots, 0);
        assert_eq!(report.counters.collision_slots, 0);
    }

    #[test]
    fn mean_vector_is_about_three_bits() {
        // Fig. 10: TPP levels off at ≈ 3.06 bits regardless of n.
        for (n, seed) in [(2_000usize, 2u64), (10_000, 3)] {
            let (report, _) = run(n, seed, TppConfig::default());
            let w = report.mean_vector_bits();
            assert!((2.6..=3.5).contains(&w), "n = {n}: w = {w}");
        }
    }

    #[test]
    fn stays_below_the_analytic_ceiling() {
        // Eq. (16): w ≤ 3.44 bits. The simulated value must respect it
        // (the bound is per-round worst-case, so the average sits below).
        let (report, _) = run(5_000, 4, TppConfig::default());
        assert!(report.mean_vector_bits() <= rfid_analysis::tpp::global_bound());
    }

    #[test]
    fn vector_is_flat_in_population_size() {
        let (small, _) = run(1_000, 5, TppConfig::default());
        let (large, _) = run(20_000, 6, TppConfig::default());
        let diff = (small.mean_vector_bits() - large.mean_vector_bits()).abs();
        assert!(diff < 0.4, "w varies by {diff} across 20×");
    }

    #[test]
    fn far_fewer_vector_bits_than_hpp_same_seed() {
        let n = 5_000;
        let (tpp, _) = run(n, 7, TppConfig::default());
        let pop = TagPopulation::sequential(n, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(7));
        let hpp = HppConfig::default().run(&mut ctx);
        assert!(
            tpp.counters.vector_bits * 3 < hpp.counters.vector_bits,
            "TPP {} vs HPP {} vector bits",
            tpp.counters.vector_bits,
            hpp.counters.vector_bits
        );
    }

    #[test]
    fn round_reads_more_than_half_like_the_analysis_says() {
        // With λ ∈ [ln2, 2·ln2) the per-round read fraction e^{-λ} lies in
        // (0.25, 0.5]; check the first round lands in that band.
        let pop = TagPopulation::sequential(8_192, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(8));
        let polled = tpp_round(&mut ctx, &TppConfig::default());
        let frac = polled as f64 / 8_192.0;
        assert!((0.22..=0.55).contains(&frac), "first-round fraction {frac}");
    }

    #[test]
    fn tree_equivalence_with_direct_singleton_broadcast() {
        // The tree broadcast must address exactly the tags HPP's sift would,
        // in ascending index order — replayed tag-side: each segment
        // overwrites the tail of the tag's array `A`.
        let pop = TagPopulation::sequential(256, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(9));
        let seed = 0xABCD;
        let h = 9;
        let singles = ctx.sift_singletons(seed, h);
        let tree =
            PollingTree::from_indices(h, &singles.iter().map(|&(i, _)| i).collect::<Vec<_>>());
        let mut a = BitVec::zeros(h as usize);
        let decoded: Vec<u64> = tree
            .preorder_segments()
            .iter()
            .map(|seg| {
                a.overwrite_suffix(seg);
                a.to_value()
            })
            .collect();
        let direct: Vec<u64> = singles.iter().map(|&(i, _)| i).collect();
        assert_eq!(decoded, direct);
        // And every decoded index matches the tag-side hash of its owner.
        for (idx, &(_, tag)) in decoded.iter().zip(&singles) {
            let id = ctx.population.id(tag);
            assert_eq!(*idx, TagHash::new(seed).index(id.hi(), id.lo(), h));
        }
    }

    #[test]
    fn completes_on_a_lossy_channel() {
        let pop = TagPopulation::sequential(300, |_| BitVec::from_value(1, 1));
        let cfg = SimConfig::paper(10).with_channel(Channel::lossy(0.25));
        let mut ctx = SimContext::new(pop, &cfg);
        let report = TppConfig::default().run(&mut ctx);
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 300);
        assert!(report.counters.lost_replies > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, _) = run(700, 11, TppConfig::default());
        let (b, _) = run(700, 11, TppConfig::default());
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.counters.vector_bits, b.counters.vector_bits);
    }

    #[test]
    fn single_tag_costs_zero_vector_bits() {
        let (report, ctx) = run(1, 12, TppConfig::default());
        ctx.assert_complete();
        assert_eq!(report.counters.vector_bits, 0);
    }

    #[test]
    fn trace_shows_tree_segments() {
        let pop = TagPopulation::sequential(64, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(13).with_trace());
        tpp_round(&mut ctx, &TppConfig::default());
        // Every tree segment goes on the air as a timestamped polling-vector
        // broadcast, and polls land strictly after the round start.
        use rfid_system::{BroadcastKind, Event};
        let events = ctx.log.events();
        let has_segment = events.iter().any(|e| {
            matches!(
                e.event,
                Event::ReaderBroadcast {
                    what: BroadcastKind::PollingVector,
                    ..
                }
            )
        });
        assert!(has_segment);
        let t_round = events
            .iter()
            .find(|e| matches!(e.event, Event::RoundStarted { .. }))
            .map(|e| e.at)
            .expect("round start traced");
        assert!(events
            .iter()
            .filter(|e| matches!(e.event, Event::TagPolled { .. }))
            .all(|e| e.at > t_round));
    }

    #[test]
    fn eq15_h_rule_beats_hpp_h_rule() {
        // The Section-IV-D ablation: with HPP's shorter index the tree has
        // fewer singletons per round and the per-read bit cost rises.
        let n = 5_000;
        let (optimal, _) = run(n, 15, TppConfig::default());
        let (hpp_rule, _) = run(
            n,
            15,
            TppConfig {
                index_rule: IndexRule::HppRule,
                ..TppConfig::default()
            },
        );
        assert!(
            optimal.total_time < hpp_rule.total_time,
            "Eq. (15) {} vs HPP-rule {}",
            optimal.total_time,
            hpp_rule.total_time
        );
    }

    #[test]
    fn beats_hpp_in_total_time_at_scale() {
        let n = 10_000;
        let (tpp, _) = run(n, 14, TppConfig::default());
        let pop = TagPopulation::sequential(n, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(14));
        let hpp = HppConfig::default().run(&mut ctx);
        assert!(tpp.total_time < hpp.total_time);
    }
}
