//! Framed-slotted ALOHA (FSA / DFSA) — the classical baseline whose slot
//! waste motivates both MIC and the paper's polling protocols.
//!
//! Each frame, every unread tag picks a uniform slot; the reader walks all
//! `f` slots and reads the singletons. At the optimal load `f = n` a slot
//! is empty with probability `e⁻¹ ≈ 36.8 %` and collides with probability
//! `1 - 2e⁻¹ ≈ 26.4 %` — the "63.2 % wasted slots" the MIC paper (and
//! Section VI) quote. Dynamic FSA re-sizes each frame to the remaining tag
//! count.

use rfid_hash::TagHash;
use rfid_protocols::{PollingProtocol, ProtocolStepper, StepDiscipline, StepOutcome};
use rfid_system::{SimContext, SlotOutcome};

/// Dynamic framed-slotted ALOHA, as its configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsaConfig {
    /// Safety cap on frames.
    pub max_rounds: u64,
}

impl Default for FsaConfig {
    fn default() -> Self {
        FsaConfig {
            max_rounds: 1_000_000,
        }
    }
}

impl PollingProtocol for FsaConfig {
    fn name(&self) -> &'static str {
        "FSA"
    }

    fn open_stepper(&self, _ctx: &SimContext) -> Box<dyn ProtocolStepper> {
        Box::new(*self)
    }
}

/// One step = one DFSA frame; the config itself is the stepper. Each frame
/// is announced by a 32-bit round initiation and holds one slot per unread
/// tag (the optimal load, classic DFSA).
impl ProtocolStepper for FsaConfig {
    fn discipline(&self) -> StepDiscipline {
        StepDiscipline::budgeted(self.max_rounds)
    }

    fn step(&mut self, ctx: &mut SimContext) -> StepOutcome {
        let unread = ctx.population.active_count() as u64;
        let frame = unread.max(1);
        let seed = ctx.draw_round_seed();
        let hash = TagHash::new(seed);
        ctx.begin_round(0);

        // Each tag picks its slot; the reader walks every slot. The
        // frame is laid out as a flat counting sort over recycled
        // buffers (handle/slot pairs, per-slot ends, slot-ordered
        // handles) instead of one Vec per slot.
        let mut pairs = ctx.take_scratch();
        let mut ends = ctx.take_scratch();
        let mut ordered = ctx.take_scratch();
        ends.resize(frame as usize, 0);
        {
            let pop = &ctx.population;
            let (ids_hi, ids_lo) = pop.id_words();
            pop.for_each_active(|handle| {
                let s = hash.modulo(ids_hi[handle], ids_lo[handle], frame) as usize;
                pairs.push(handle);
                pairs.push(s);
                ends[s] += 1;
            });
        }
        let mut acc = 0usize;
        for c in ends.iter_mut() {
            let n = *c;
            *c = acc;
            acc += n;
        }
        ordered.resize(acc, 0);
        for pair in pairs.chunks_exact(2) {
            ordered[ends[pair[1]]] = pair[0];
            ends[pair[1]] += 1;
        }
        let mut start = 0usize;
        for &end in &ends[..frame as usize] {
            let repliers = &ordered[start..end];
            start = end;
            match ctx.slot(repliers, rfid_c1g2::QUERY_REP_BITS, None) {
                SlotOutcome::Singleton(tag) => ctx.mark_read(tag),
                // Framed slots are fixed-duration: an empty slot still
                // occupies the full reply window (as in MIC's timing model).
                SlotOutcome::Empty => {
                    let pad = ctx.link.tag_tx(ctx.population.info_bits() as u64);
                    ctx.wait(rfid_c1g2::TimeCategory::WastedSlot, pad);
                }
                // A corrupted singleton already burned its slot air time
                // inside `slot()`; the tag stays active for the next
                // frame, same as a collision.
                SlotOutcome::Collision(_) | SlotOutcome::Corrupted(_) => {}
            }
        }
        ctx.recycle_scratch(pairs);
        ctx.recycle_scratch(ends);
        ctx.recycle_scratch(ordered);
        StepOutcome::Progressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mic::MicConfig;
    use rfid_protocols::Report;
    use rfid_system::{BitVec, SimConfig, TagPopulation};

    fn run(n: usize, seed: u64, cfg: FsaConfig) -> (Report, SimContext) {
        let pop = TagPopulation::sequential(n, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(seed));
        let report = cfg.run(&mut ctx);
        (report, ctx)
    }

    #[test]
    fn reads_every_tag() {
        let (report, ctx) = run(500, 1, FsaConfig::default());
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 500);
    }

    #[test]
    fn wastes_the_textbook_63_percent_in_the_first_frame() {
        // At load 1, wasted slots (empty + collision) ≈ 63.2 %.
        let pop = TagPopulation::sequential(10_000, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(2));
        // Run exactly one frame by capping rounds at 1 and catching the
        // panic? No — replicate the frame walk inline via the protocol's
        // first iteration: easiest is to run to completion and inspect
        // totals, which preserve the per-frame ratios at load 1.
        let report = FsaConfig::default().run(&mut ctx);
        let useful = report.counters.polls as f64;
        let wasted = (report.counters.empty_slots + report.counters.collision_slots) as f64;
        let frac = wasted / (useful + wasted);
        assert!(
            (frac - 0.632).abs() < 0.03,
            "wasted fraction {frac} (expected ≈ 0.632)"
        );
    }

    #[test]
    fn mic_beats_plain_fsa() {
        let n = 2_000;
        let (fsa, _) = run(n, 3, FsaConfig::default());
        let pop = TagPopulation::sequential(n, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(3));
        let mic = MicConfig::default().run(&mut ctx);
        assert!(
            mic.total_time < fsa.total_time,
            "MIC {} vs FSA {}",
            mic.total_time,
            fsa.total_time
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, _) = run(300, 5, FsaConfig::default());
        let (b, _) = run(300, 5, FsaConfig::default());
        assert_eq!(a.total_time, b.total_time);
    }
}
