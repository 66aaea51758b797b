//! The Hash Polling Protocol (Section III).
//!
//! HPP replaces the 96-bit ID with a short hashed index:
//!
//! 1. The reader initiates a round by broadcasting `(h, r)` where
//!    `2^{h-1} < n' ≤ 2^h` for the `n'` unread tags and `r` is a fresh seed.
//! 2. Every unread tag picks the index `H(r, id) mod 2^h` (zero-padded to
//!    `h` bits). The reader — knowing every ID — precomputes all picks.
//! 3. The reader broadcasts the *singleton* indices one by one. Only the tag
//!    whose own index matches replies, then sleeps. Collision-index tags
//!    stay awake for the next round; empty indices are never transmitted,
//!    so no slot is ever wasted.
//! 4. Rounds repeat until every tag is read (36.8 %–60.7 % of the residue
//!    is cleared per round).

use rfid_analysis::hpp::index_length;
use rfid_system::SimContext;

use crate::session::{ProtocolStepper, StepDiscipline, StepOutcome};
use crate::PollingProtocol;

/// The Hash Polling Protocol, as its configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HppConfig {
    /// Safety cap on rounds (loops can only persist on a pathologically
    /// lossy channel).
    pub max_rounds: u64,
}

impl Default for HppConfig {
    fn default() -> Self {
        HppConfig {
            max_rounds: 1_000_000,
        }
    }
}

impl PollingProtocol for HppConfig {
    fn name(&self) -> &'static str {
        "HPP"
    }

    fn open_stepper(&self, _ctx: &SimContext) -> Box<dyn ProtocolStepper> {
        Box::new(*self)
    }
}

/// One step = one HPP round; the config itself is the stepper. Round
/// budget and stall guard are the driver's job, and all cross-round state
/// lives in the context (which tags are still awake).
impl ProtocolStepper for HppConfig {
    fn discipline(&self) -> StepDiscipline {
        StepDiscipline::budgeted(self.max_rounds)
    }

    fn step(&mut self, ctx: &mut SimContext) -> StepOutcome {
        hpp_round(ctx);
        StepOutcome::Progressed
    }
}

/// Runs one HPP round over the currently active tags; returns the number of
/// tags successfully polled. The round opens with the 32-bit `(h, r)`
/// broadcast, and each polling vector rides behind a 4-bit QueryRep (the
/// paper's `37.45·(4+w)` accounting).
pub(crate) fn hpp_round(ctx: &mut SimContext) -> usize {
    let n = ctx.population.active_count();
    debug_assert!(n > 0, "round over an empty population");
    let h = index_length(n as u64);
    let seed = ctx.draw_round_seed();
    ctx.begin_round(h);
    // Only indices picked by exactly one tag are polled: collision and
    // empty indices are skipped entirely, which is HPP's zero slot waste.
    let singles = ctx.sift_singletons(seed, h);
    let mut polled = 0;
    for &(_, tag) in &singles {
        if ctx.poll_tag(h as u64, true, tag) {
            polled += 1;
        }
    }
    ctx.recycle_singletons(singles);
    polled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{PollingError, StallCause};
    use crate::report::Report;
    use rfid_c1g2::commands::ROUND_INIT_BITS;
    use rfid_c1g2::{LinkParams, TimeCategory};
    use rfid_hash::TagHash;
    use rfid_system::{BitVec, Channel, SimConfig, TagPopulation};

    fn run(n: usize, seed: u64, cfg: HppConfig) -> (Report, SimContext) {
        let pop = TagPopulation::sequential(n, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(seed));
        let report = cfg.run(&mut ctx);
        (report, ctx)
    }

    #[test]
    fn reads_every_tag_exactly_once() {
        let (report, ctx) = run(500, 1, HppConfig::default());
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 500);
        // Polling never wastes a slot on a perfect channel.
        assert_eq!(report.counters.empty_slots, 0);
        assert_eq!(report.counters.collision_slots, 0);
    }

    #[test]
    fn vector_length_is_bounded_by_log2_n() {
        // Eq. (5): every index is at most ⌈log₂ n⌉ bits.
        let (report, _) = run(1_000, 2, HppConfig::default());
        let w = report.mean_vector_bits();
        assert!(w <= 10.0, "w = {w}");
        // And Fig. 3/10: w ≈ 9.4–10 at n = 1000.
        assert!(w > 8.5, "w = {w}");
    }

    #[test]
    fn matches_analytic_average_within_noise() {
        let n = 2_000u64;
        let analytic = rfid_analysis::hpp::average_vector_length(n);
        let mut acc = 0.0;
        let runs = 5;
        for s in 0..runs {
            let (r, _) = run(n as usize, 100 + s, HppConfig::default());
            acc += r.mean_vector_bits();
        }
        let sim = acc / runs as f64;
        assert!(
            (sim - analytic).abs() < 0.25,
            "simulated {sim} vs analytic {analytic}"
        );
    }

    #[test]
    fn first_round_reads_paper_fraction() {
        // 36.8 %–60.7 % of tags are read in a round (Section III-A).
        let pop = TagPopulation::sequential(4_096, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(3));
        let polled = hpp_round(&mut ctx);
        let frac = polled as f64 / 4_096.0;
        assert!((0.33..=0.64).contains(&frac), "first-round fraction {frac}");
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, _) = run(300, 7, HppConfig::default());
        let (b, _) = run(300, 7, HppConfig::default());
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.counters.rounds, b.counters.rounds);
        let (c, _) = run(300, 8, HppConfig::default());
        assert_ne!(a.total_time, c.total_time);
    }

    #[test]
    fn completes_on_a_lossy_channel() {
        let pop = TagPopulation::sequential(200, |_| BitVec::from_value(1, 1));
        let cfg = SimConfig::paper(5).with_channel(Channel::lossy(0.3));
        let mut ctx = SimContext::new(pop, &cfg);
        let report = HppConfig::default().run(&mut ctx);
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 200);
        assert!(report.counters.lost_replies > 0);
    }

    #[test]
    fn permanently_jammed_downlink_stalls_gracefully() {
        use rfid_system::fault::FaultModel;
        let pop = TagPopulation::sequential(50, |_| BitVec::from_value(1, 1));
        let cfg = SimConfig::paper(5).with_fault(FaultModel::perfect().with_downlink_loss(1.0));
        let mut ctx = SimContext::new(pop, &cfg);
        match HppConfig::default().try_run(&mut ctx) {
            Err(PollingError::Stalled {
                partial_report,
                uncollected,
                cause,
            }) => {
                assert_eq!(partial_report.counters.polls, 0);
                assert_eq!(uncollected.len(), 50);
                assert_eq!(cause, StallCause::NoProgress);
            }
            Ok(_) => panic!("cannot converge when no tag hears any command"),
        }
    }

    #[test]
    fn recovers_under_moderate_downlink_loss() {
        use rfid_system::fault::FaultModel;
        let pop = TagPopulation::sequential(200, |_| BitVec::from_value(1, 1));
        let cfg = SimConfig::paper(6).with_fault(FaultModel::perfect().with_downlink_loss(0.3));
        let mut ctx = SimContext::new(pop, &cfg);
        let report = HppConfig::default()
            .try_run(&mut ctx)
            .expect("must converge");
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 200);
        assert!(report.counters.downlink_losses > 0);
        assert!(report.counters.desync_recoveries > 0);
    }

    #[test]
    fn single_tag_needs_zero_bit_vector() {
        let (report, ctx) = run(1, 9, HppConfig::default());
        ctx.assert_complete();
        assert_eq!(report.counters.vector_bits, 0);
        assert_eq!(report.counters.rounds, 1);
    }

    #[test]
    fn singleton_sift_matches_tag_side_replay() {
        // Fidelity check: replay every tag's own index computation and
        // confirm the reader's sift picked exactly the indices chosen once.
        let pop = TagPopulation::sequential(64, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(11));
        let seed = 0xFEED;
        let h = 6;
        let singles = ctx.sift_singletons(seed, h);
        // The index every tag derives in the round: `H(r, id) mod 2^h`.
        let tag_index = |id: rfid_system::TagId| TagHash::new(seed).index(id.hi(), id.lo(), h);
        let mut counts = std::collections::HashMap::new();
        for id in ctx.population.ids() {
            *counts.entry(tag_index(id)).or_insert(0u32) += 1;
        }
        for &(idx, tag) in &singles {
            assert_eq!(counts[&idx], 1, "index {idx} not a singleton");
            assert_eq!(tag_index(ctx.population.id(tag)), idx);
        }
        let expected = counts.values().filter(|&&c| c == 1).count();
        assert_eq!(singles.len(), expected);
    }

    #[test]
    fn fig2_style_round_with_four_tags() {
        // Four tags, h = 2: at most 4 singleton indices; every polled tag
        // sleeps; the rest stay alert for the next round — the Fig. 2 story.
        let pop = TagPopulation::sequential(4, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(21).with_trace());
        // A single round may read 0–4 tags (all four can pair up into
        // collision indices); whatever it reads goes to sleep, the rest
        // stay alert, and repetition drains everyone — the Fig. 2 story.
        let mut asleep = 0;
        for _ in 0..1_000 {
            if ctx.population.active_count() == 0 {
                break;
            }
            let polled = hpp_round(&mut ctx);
            asleep += polled;
            assert_eq!(ctx.population.asleep_count(), asleep);
            assert_eq!(ctx.population.active_count(), 4 - asleep);
        }
        ctx.assert_complete();
        assert!(!ctx.log.is_empty());
    }

    #[test]
    fn round_init_bits_increase_time_but_not_vector_metric() {
        // Each round's `(h, r)` broadcast is reader air time and counts in
        // the overhead-inclusive `w`, but not in the plain vector metric.
        let (report, ctx) = run(100, 13, HppConfig::default());
        let c = report.counters;
        assert!(c.rounds > 1);
        let init_bits = c.rounds * ROUND_INIT_BITS;
        assert_eq!(
            ctx.clock.breakdown().get(TimeCategory::ReaderCommand),
            LinkParams::paper().reader_tx(c.query_rep_bits + init_bits)
        );
        assert_eq!(c.reader_bits, c.query_rep_bits + c.vector_bits + init_bits);
        let polls = c.polls as f64;
        assert_eq!(report.mean_vector_bits(), c.vector_bits as f64 / polls);
        assert_eq!(
            report.mean_vector_bits_with_overhead(),
            (c.vector_bits + init_bits) as f64 / polls
        );
    }
}
