//! The timed estimation protocol.
//!
//! Runs short 1-bit ALOHA frames on the simulator: a coarse geometric frame
//! brackets the order of magnitude, then zero-estimator frames at load ≈ 1
//! refine until the requested number of refinement rounds completes. The
//! result seeds hashed polling when the reader must size an unknown
//! population (see `examples/estimation.rs`).

use rfid_c1g2::TimeCategory;
use rfid_hash::TagHash;
use rfid_system::{SimContext, SlotOutcome};

use crate::estimators::{geometric_estimator, geometric_slot, zero_estimator};
use crate::frame::FrameObservation;

/// Estimation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EstimationConfig {
    /// Number of refinement frames after the coarse geometric frame.
    pub refinement_frames: u32,
    /// Slots per refinement frame. Tags *thin* their participation with a
    /// persistence probability `p = frame / n̂` (Li et al.'s
    /// energy-efficient scheme), so the frame stays small regardless of n.
    pub frame_size: u64,
    /// Reader bits to announce each frame.
    pub frame_init_bits: u64,
    /// Slots in the coarse geometric frame.
    pub geometric_slots: u32,
}

impl Default for EstimationConfig {
    fn default() -> Self {
        EstimationConfig {
            refinement_frames: 8,
            frame_size: 128,
            frame_init_bits: 32,
            geometric_slots: 48,
        }
    }
}

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

/// Multi-frame cardinality estimation.
#[derive(Debug, Clone, Default)]
pub struct EstimationProtocol {
    cfg: EstimationConfig,
}

impl EstimationProtocol {
    /// Creates the protocol with the given configuration.
    pub fn new(cfg: EstimationConfig) -> Self {
        EstimationProtocol { cfg }
    }

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
            rfid_system::BroadcastKind::FrameInit,
            self.cfg.frame_init_bits,
            TimeCategory::ReaderCommand,
        );
        let mut per_slot: Vec<Vec<usize>> = vec![Vec::new(); self.cfg.geometric_slots as usize];
        {
            let pop = &ctx.population;
            let (ids_hi, ids_lo) = pop.id_words();
            pop.for_each_active(|handle| {
                let j = geometric_slot(hash.hash(ids_hi[handle], ids_lo[handle]))
                    .min(self.cfg.geometric_slots - 1);
                per_slot[j as usize].push(handle);
            });
        }
        let mut first_empty = self.cfg.geometric_slots - 1;
        for (j, repliers) in per_slot.iter().enumerate() {
            let outcome = ctx.slot(repliers, rfid_c1g2::QUERY_REP_BITS, Some(1));
            if outcome == SlotOutcome::Empty {
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
        let frame = self.cfg.frame_size.max(8);
        let mut estimate = coarse;
        let mut p_override: Option<f64> = None;
        let mut contributions: Vec<f64> = Vec::new();
        const JOIN_RANGE: u64 = 1 << 30;
        for _ in 0..self.cfg.refinement_frames {
            let p = p_override.unwrap_or_else(|| (frame as f64 / estimate.max(1.0)).min(1.0));
            let seed = ctx.draw_round_seed();
            let join_hash = TagHash::new(mix_seed(seed, 1));
            let slot_hash = TagHash::new(mix_seed(seed, 2));
            ctx.reader_tx(
                rfid_system::BroadcastKind::FrameInit,
                self.cfg.frame_init_bits,
                TimeCategory::ReaderCommand,
            );
            let join_threshold = (p * JOIN_RANGE as f64) as u64;
            let mut chosen: Vec<u64> = Vec::new();
            {
                let pop = &ctx.population;
                let (ids_hi, ids_lo) = pop.id_words();
                pop.for_each_active(|handle| {
                    let (hi, lo) = (ids_hi[handle], ids_lo[handle]);
                    if join_hash.modulo(hi, lo, JOIN_RANGE) < join_threshold {
                        chosen.push(slot_hash.modulo(hi, lo, frame));
                    }
                });
            }
            let obs = FrameObservation::observe(frame, &chosen);
            // Charge the frame walk in aggregate (identical total to a
            // per-slot simulation): every slot advance is a QueryRep; busy
            // slots carry a 1-bit burst, empty slots the detection window.
            let busy = frame - obs.empty;
            for _ in 0..busy {
                ctx.wait(TimeCategory::ReaderCommand, ctx.link.reader_tx(4));
                ctx.wait(TimeCategory::Turnaround, ctx.link.t1);
                ctx.wait(TimeCategory::TagReply, ctx.link.tag_tx(1));
                ctx.wait(TimeCategory::Turnaround, ctx.link.t2);
            }
            for _ in 0..obs.empty {
                ctx.wait(TimeCategory::ReaderCommand, ctx.link.reader_tx(4));
                ctx.wait(TimeCategory::Turnaround, ctx.link.t1);
                ctx.wait(TimeCategory::WastedSlot, ctx.link.t3);
            }
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

rfid_system::impl_json_struct!(EstimationConfig {
    refinement_frames,
    frame_size,
    frame_init_bits,
    geometric_slots,
});
rfid_system::impl_json_struct!(EstimationResult {
    estimate,
    coarse,
    time
});

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_system::{BitVec, SimConfig, TagPopulation};

    fn estimate(n: usize, seed: u64) -> EstimationResult {
        let pop = TagPopulation::sequential(n, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(seed));
        EstimationProtocol::default().run(&mut ctx)
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
        let mut bits = Vec::new();
        for seed in 0..20 {
            let pop = TagPopulation::sequential(20, |i| BitVec::from_value(i as u64, 16));
            let mut ctx = SimContext::new(pop, &SimConfig::paper(seed).with_trace());
            EstimationProtocol::default().run(&mut ctx);
            bits.extend(ctx.log.events().iter().filter_map(|e| match e.event {
                rfid_system::Event::TagReply { bits, .. } => Some(bits),
                _ => None,
            }));
        }
        assert!(!bits.is_empty(), "no geometric slot decoded a reply");
        assert!(bits.iter().all(|&b| b == 1), "reply bits {bits:?}");
    }

    #[test]
    fn estimation_does_not_consume_tags() {
        let pop = TagPopulation::sequential(100, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(1));
        let _ = EstimationProtocol::default().run(&mut ctx);
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

    #[test]
    fn zero_tags_estimates_near_zero() {
        let r = estimate(0, 5);
        assert!(r.estimate < 8.0, "estimate {} for empty field", r.estimate);
    }
}
