//! The timed estimation protocol.
//!
//! Runs short 1-bit ALOHA frames on the simulator: a coarse geometric frame
//! brackets the order of magnitude, then zero-estimator frames at load ≈ 1
//! refine until the requested number of refinement rounds completes. The
//! result seeds hashed polling when the reader must size an unknown
//! population (see `examples/estimation.rs`).

use rfid_c1g2::commands::ROUND_INIT_BITS;
use rfid_c1g2::{TimeCategory, QUERY_REP_BITS};
use rfid_hash::TagHash;
use rfid_system::{BroadcastKind, SimContext, SlotOutcome};

use crate::estimators::{geometric_estimator, geometric_slot, zero_estimator};
use crate::frame::FrameObservation;

/// Number of refinement frames after the coarse geometric frame.
const REFINEMENT_FRAMES: u32 = 8;

/// Slots per refinement frame. Tags *thin* their participation with a
/// persistence probability `p = frame / n̂` (Li et al.'s energy-efficient
/// scheme), so the frame stays small regardless of n.
const FRAME_SIZE: u64 = 128;

/// Slots in the coarse geometric frame.
const GEOMETRIC_SLOTS: u32 = 48;

/// Result of one estimation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimationResult {
    /// Final estimate `n̂`.
    pub estimate: f64,
    /// Coarse (geometric) first-pass estimate.
    pub coarse: f64,
    /// Time spent estimating.
    pub time: rfid_c1g2::Micros,
}

/// Derives an independent sub-seed for the join/slot hash pair.
fn mix_seed(seed: u64, salt: u64) -> u64 {
    rfid_hash::split_seed(seed, salt)
}

/// Multi-frame cardinality estimation: one coarse geometric frame of 48
/// slots, then 8 refinement frames of 128 slots, each frame announced by a
/// 32-bit initiation.
#[derive(Debug, Clone, Copy, Default)]
pub struct EstimationProtocol;

impl EstimationProtocol {
    /// Runs estimation over the context's *active* tags. Tags are not read
    /// or slept — estimation precedes inventory.
    pub fn run(&self, ctx: &mut SimContext) -> EstimationResult {
        let started = ctx.clock.total();

        // Phase 1: coarse geometric frame. Tags reply (1 bit) in the slot
        // given by the first set bit of their hash; the reader scans slots
        // in order and uses the first empty one.
        let seed = ctx.draw_round_seed();
        let hash = TagHash::new(seed);
        ctx.reader_tx(
            BroadcastKind::FrameInit,
            ROUND_INIT_BITS,
            TimeCategory::ReaderCommand,
        );
        let last = GEOMETRIC_SLOTS - 1;
        let per_slot = repliers_by_slot(ctx, GEOMETRIC_SLOTS as usize, |hi, lo| {
            Some(geometric_slot(hash.hash(hi, lo)).min(last) as usize)
        });
        let mut first_empty = last;
        for (j, repliers) in per_slot.iter().enumerate() {
            if ctx.slot(repliers, QUERY_REP_BITS, Some(1)) == SlotOutcome::Empty {
                first_empty = j as u32;
                break;
            }
        }
        let coarse = geometric_estimator(first_empty).max(1.0);

        // Phase 2: zero-estimator frames of fixed (small) size. Each tag
        // *persists* into the frame with probability `p = frame / n̂` — the
        // thinning trick of the energy-efficient estimation literature —
        // so the air time per frame is O(frame), not O(n). The per-frame
        // estimate `-f·ln(p₀) / p` feeds a running mean; a saturated frame
        // halves `p` instead of contributing.
        let frame = FRAME_SIZE;
        let mut estimate = coarse;
        let mut p_override: Option<f64> = None;
        let mut contributions: Vec<f64> = Vec::new();
        const JOIN_RANGE: u64 = 1 << 30;
        for _ in 0..REFINEMENT_FRAMES {
            let p = p_override.unwrap_or_else(|| (frame as f64 / estimate.max(1.0)).min(1.0));
            let seed = ctx.draw_round_seed();
            let join_hash = TagHash::new(mix_seed(seed, 1));
            let slot_hash = TagHash::new(mix_seed(seed, 2));
            ctx.reader_tx(
                BroadcastKind::FrameInit,
                ROUND_INIT_BITS,
                TimeCategory::ReaderCommand,
            );
            let join_threshold = (p * JOIN_RANGE as f64) as u64;
            let per_slot = repliers_by_slot(ctx, frame as usize, |hi, lo| {
                (join_hash.modulo(hi, lo, JOIN_RANGE) < join_threshold)
                    .then(|| slot_hash.modulo(hi, lo, frame) as usize)
            });
            // The reader walks every slot and counts what it hears: a lost
            // reply leaves the slot empty to it.
            let (mut empty, mut singleton) = (0, 0);
            for repliers in &per_slot {
                match ctx.slot(repliers, QUERY_REP_BITS, Some(1)) {
                    SlotOutcome::Empty => empty += 1,
                    SlotOutcome::Singleton(_) => singleton += 1,
                    SlotOutcome::Collision(_) | SlotOutcome::Corrupted(_) => {}
                }
            }
            let obs = FrameObservation::new(frame, empty, singleton, frame - empty - singleton);
            match zero_estimator(&obs) {
                Some(participants) => {
                    contributions.push(participants / p);
                    estimate = contributions.iter().sum::<f64>() / contributions.len() as f64;
                    p_override = None;
                }
                None => {
                    // Saturated: too many participants — halve persistence.
                    p_override = Some(p / 2.0);
                }
            }
        }

        EstimationResult {
            estimate,
            coarse,
            time: ctx.clock.total() - started,
        }
    }
}

/// Groups the active tags into `slots` per-slot replier lists: `slot_of`
/// maps a tag's ID words to its slot, or to `None` if it sits the frame
/// out.
fn repliers_by_slot(
    ctx: &SimContext,
    slots: usize,
    slot_of: impl Fn(u32, u64) -> Option<usize>,
) -> Vec<Vec<usize>> {
    let mut per_slot = vec![Vec::new(); slots];
    let pop = &ctx.population;
    let (ids_hi, ids_lo) = pop.id_words();
    pop.for_each_active(|handle| {
        if let Some(j) = slot_of(ids_hi[handle], ids_lo[handle]) {
            per_slot[j].push(handle);
        }
    });
    per_slot
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_system::{BitVec, Counters, Event, SimConfig, TagPopulation, TimedEvent};

    fn estimate(n: usize, seed: u64) -> EstimationResult {
        let pop = TagPopulation::sequential(n, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(seed));
        EstimationProtocol.run(&mut ctx)
    }

    #[test]
    fn estimates_within_ten_percent_on_average() {
        for &n in &[500usize, 5_000, 20_000] {
            let mut acc = 0.0;
            let trials = 10;
            for s in 0..trials {
                acc += estimate(n, s).estimate;
            }
            let est = acc / trials as f64;
            let err = (est - n as f64).abs() / n as f64;
            assert!(
                err < 0.10,
                "n = {n}: estimate {est} ({:.1} % off)",
                err * 100.0
            );
        }
    }

    #[test]
    fn geometric_replies_are_one_bit_whatever_the_payload() {
        let mut decoded = 0;
        for seed in 0..20 {
            let pop = TagPopulation::sequential(20, |i| BitVec::from_value(i as u64, 16));
            let mut ctx = SimContext::new(pop, &SimConfig::paper(seed));
            EstimationProtocol.run(&mut ctx);
            // Every slot opens with a QueryRep prefix; each decoded one
            // adds its reply's bits, so 1-bit replies sum to the count.
            let c = ctx.counters;
            let slots = c.query_rep_bits / QUERY_REP_BITS;
            let singles = slots - c.empty_slots - c.collision_slots;
            assert_eq!(c.tag_bits, singles, "seed {seed}");
            decoded += singles;
        }
        assert!(decoded > 0, "no slot decoded a reply");
    }

    #[test]
    fn estimation_does_not_consume_tags() {
        let pop = TagPopulation::sequential(100, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(1));
        let _ = EstimationProtocol.run(&mut ctx);
        assert_eq!(ctx.population.active_count(), 100);
        assert_eq!(ctx.counters.polls, 0);
    }

    #[test]
    fn estimation_costs_far_less_than_inventory() {
        let r = estimate(10_000, 2);
        // A full TPP inventory of 10⁴ tags takes ≈ 4.4 s; estimation must
        // be a small fraction of that.
        assert!(r.time.as_secs() < 0.5 * 4.4, "estimation took {}", r.time);
    }

    #[test]
    fn coarse_pass_is_order_of_magnitude() {
        let mut acc = 0.0;
        let trials = 20;
        for s in 0..trials {
            acc += estimate(4_096, s).coarse;
        }
        let mean = acc / trials as f64;
        assert!((500.0..=20_000.0).contains(&mean), "coarse mean {mean}");
    }

    /// `(n, seed, estimate, coarse, time in ns)` on the paper's perfect
    /// channel, captured while refinement frames were still charged in
    /// aggregate; resolving each slot through `SimContext::slot` must leave
    /// every number bit-identical.
    const PERFECT_CHANNEL: &[(usize, u64, f64, f64, u64)] = &[
        (0, 1, 0.0, 1.2897, 318080600),
        (0, 2, 0.0, 1.2897, 318080600),
        (500, 1, 492.3851382198912, 660.3264, 336903800),
        (500, 2, 500.4494524573321, 330.1632, 337654000),
        (20_000, 1, 20240.001204103835, 5282.6112, 338653200),
        (20_000, 2, 18726.612243134416, 21130.4448, 337852800),
    ];

    #[test]
    fn perfect_channel_results_match_the_capture() {
        for &(n, seed, est, coarse, time_ns) in PERFECT_CHANNEL {
            let r = estimate(n, seed);
            assert_eq!(
                (r.estimate, r.coarse, r.time.as_ns()),
                (est, coarse, time_ns),
                "n = {n}, seed = {seed}"
            );
        }
    }

    #[test]
    fn every_walked_slot_reaches_counters_and_trace() {
        let pop = TagPopulation::sequential(5_000, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(3).with_trace());
        EstimationProtocol.run(&mut ctx);
        // Fold the trace frame by frame: each announcement opens a frame.
        let events: Vec<&TimedEvent> = ctx.log.events().iter().collect();
        let frames: Vec<Counters> = events
            .split(|te| {
                te.event
                    == Event::ReaderBroadcast {
                        what: BroadcastKind::FrameInit,
                        bits: ROUND_INIT_BITS,
                    }
            })
            .skip(1)
            .map(|frame| Counters::from_events(frame.iter().copied()))
            .collect();
        assert_eq!(frames.len(), 1 + REFINEMENT_FRAMES as usize);
        // A slot opens with a QueryRep prefix and ends in one outcome; with
        // 1-bit replies, each decoded slot adds one tag bit.
        let walked = |c: &Counters| c.query_rep_bits / QUERY_REP_BITS;
        let heard = |c: &Counters| c.empty_slots + c.collision_slots + c.tag_bits;
        assert!(frames.iter().all(|c| heard(c) == walked(c)));
        let geometric = walked(&frames[0]);
        assert!((1..=u64::from(GEOMETRIC_SLOTS)).contains(&geometric));
        assert!(frames[1..].iter().all(|c| walked(c) == FRAME_SIZE));
        assert_eq!(
            heard(&ctx.counters),
            geometric + u64::from(REFINEMENT_FRAMES) * FRAME_SIZE
        );
    }

    #[test]
    fn refinement_frames_hear_the_lossy_channel() {
        let pop = TagPopulation::sequential(5_000, |_| BitVec::from_value(1, 1));
        let cfg = SimConfig::paper(3).with_channel(rfid_system::Channel::lossy(0.5));
        let mut ctx = SimContext::new(pop, &cfg);
        let r = EstimationProtocol.run(&mut ctx);
        // Losing half the replies empties slots, so the zero estimator
        // reads a thinner field than the clean one.
        assert!(r.estimate < 0.8 * estimate(5_000, 3).estimate, "{r:?}");
    }

    #[test]
    fn zero_tags_estimates_near_zero() {
        let r = estimate(0, 5);
        assert!(r.estimate < 8.0, "estimate {} for empty field", r.estimate);
    }
}
