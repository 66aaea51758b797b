//! Randomized binary splitting (Capetanakis-style collision resolution).
//!
//! Tags keep a counter, initially 0. In each slot, counter-zero tags reply
//! with their full ID:
//!
//! * **collision** — every counter-zero tag flips a fair coin: heads stay
//!   at 0, tails go to 1; everyone else increments,
//! * **success / empty** — everyone decrements.
//!
//! The reader only broadcasts a feedback trit (modelled as the 4-bit
//! QueryRep slot command), tags reply with their ID plus a CRC-16, and the
//! random coins come from the tags — unlike Query Tree,
//! no prefix is transmitted, at the price of tag-side state. Expected slot
//! count is ≈ 2.89 per tag, like QT, but the slot layout differs.

use rfid_c1g2::commands::CRC16_BITS;
use rfid_c1g2::QUERY_REP_BITS;
use rfid_protocols::{PollingProtocol, ProtocolStepper, StallCause, StepDiscipline, StepOutcome};
use rfid_system::id::EPC_BITS;
use rfid_system::{Json, JsonError, SimContext, SlotOutcome, ToJson};

/// The binary-splitting identification protocol, as its configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinarySplitConfig {
    /// Safety cap on slots.
    pub max_slots: u64,
}

impl Default for BinarySplitConfig {
    fn default() -> Self {
        BinarySplitConfig {
            max_slots: 100_000_000,
        }
    }
}

impl PollingProtocol for BinarySplitConfig {
    fn name(&self) -> &'static str {
        "BinSplit"
    }

    fn open_stepper(&self, ctx: &SimContext) -> Box<dyn ProtocolStepper> {
        Box::new(BinSplitStepper::open(*self, ctx))
    }

    fn resume_stepper(
        &self,
        ctx: &SimContext,
        state: &Json,
    ) -> Result<Box<dyn ProtocolStepper>, JsonError> {
        let mut stepper = BinSplitStepper::open(*self, ctx);
        stepper.slots = state.field("slots")?;
        let groups: Vec<Vec<usize>> = state.field("groups")?;
        // The groups partition the still-active tags: every handle must be
        // in range, active, and appear exactly once.
        let n = ctx.population.len();
        let active_words = ctx.population.active_words();
        let mut seen = vec![0u64; n.div_ceil(64)];
        let mut remaining = 0usize;
        for group in &groups {
            for &h in group {
                if h >= n || (active_words[h >> 6] >> (h & 63)) & 1 == 0 {
                    return Err(JsonError(format!(
                        "BinSplit group member {h} is not an active tag handle"
                    )));
                }
                if (seen[h >> 6] >> (h & 63)) & 1 == 1 {
                    return Err(JsonError(format!(
                        "BinSplit group member {h} appears in two groups"
                    )));
                }
                seen[h >> 6] |= 1 << (h & 63);
                remaining += 1;
            }
        }
        stepper.groups = groups;
        stepper.remaining = remaining;
        Ok(Box::new(stepper))
    }
}

/// Pops the next level to counter zero and folds the zero-counter
/// remnant into it, keeping ascending handle order.
fn merge_down(groups: &mut Vec<Vec<usize>>, remnant: Vec<usize>, pool: &mut Vec<Vec<usize>>) {
    if remnant.is_empty() {
        pool.push(remnant);
        return;
    }
    match groups.pop() {
        None => groups.push(remnant),
        Some(next) if next.is_empty() => {
            pool.push(next);
            groups.push(remnant);
        }
        Some(next) => {
            let mut merged = pool.pop().unwrap_or_default();
            let (mut i, mut j) = (0, 0);
            while i < remnant.len() && j < next.len() {
                if remnant[i] < next[j] {
                    merged.push(remnant[i]);
                    i += 1;
                } else {
                    merged.push(next[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&remnant[i..]);
            merged.extend_from_slice(&next[j..]);
            for mut used in [remnant, next] {
                used.clear();
                pool.push(used);
            }
            groups.push(merged);
        }
    }
}

/// One step = one slot.
///
/// The per-tag counters obey a stack discipline: the counter-zero tags are
/// the top group, a collision splits the top in two, and a success/empty
/// slot pops one level (zero-counter stragglers — the saturating decrement
/// — merge into the level below). Simulating the stack directly makes a
/// slot cost O(|top group|) instead of O(remaining tags). Every group stays
/// in ascending handle order so the tag-side coin flips consume the rng in
/// exactly the per-handle order the dense counter map used to —
/// run-for-run identical.
struct BinSplitStepper {
    cfg: BinarySplitConfig,
    reply_bits: u64,
    groups: Vec<Vec<usize>>,
    pool: Vec<Vec<usize>>,
    remaining: usize,
    slots: u64,
}

impl BinSplitStepper {
    fn open(cfg: BinarySplitConfig, ctx: &SimContext) -> Self {
        let mut first: Vec<usize> = Vec::new();
        ctx.population.collect_active_into(&mut first);
        let remaining = first.len();
        BinSplitStepper {
            cfg,
            reply_bits: EPC_BITS as u64 + CRC16_BITS,
            groups: vec![first],
            pool: Vec::new(),
            remaining,
            slots: 0,
        }
    }
}

impl ProtocolStepper for BinSplitStepper {
    fn discipline(&self) -> StepDiscipline {
        // The slot cap below subsumes both the round budget and the stall
        // guard.
        StepDiscipline::self_limited()
    }

    fn done(&self, _ctx: &SimContext) -> bool {
        self.remaining == 0
    }

    fn step(&mut self, ctx: &mut SimContext) -> StepOutcome {
        self.slots = self.slots.wrapping_add(1);
        if self.slots >= self.cfg.max_slots {
            return StepOutcome::Stalled(StallCause::RoundCap);
        }
        // Everyone below the top sits the slot out. An empty top (every
        // zero tag flipped away, or losses) still burns a slot via the
        // empty-slot rule below — same as the dense-counter version.
        let outcome = ctx.slot(
            self.groups
                .last()
                .expect("unidentified tags live in some group"),
            QUERY_REP_BITS,
            Some(self.reply_bits),
        );
        match outcome {
            SlotOutcome::Collision(_) => {
                let mut old = self.groups.pop().expect("collision from the top group");
                let mut stay = self.pool.pop().unwrap_or_default();
                let mut moved = self.pool.pop().unwrap_or_default();
                for &h in &old {
                    if ctx.rng.chance(0.5) {
                        moved.push(h);
                    } else {
                        stay.push(h);
                    }
                }
                old.clear();
                self.pool.push(old);
                self.groups.push(moved);
                self.groups.push(stay);
            }
            SlotOutcome::Singleton(tag) => {
                ctx.mark_read(tag);
                self.remaining -= 1;
                let mut old = self.groups.pop().expect("singleton from the top group");
                old.retain(|&h| h != tag);
                merge_down(&mut self.groups, old, &mut self.pool);
            }
            SlotOutcome::Empty => {
                let old = self
                    .groups
                    .pop()
                    .expect("unidentified tags live in some group");
                merge_down(&mut self.groups, old, &mut self.pool);
            }
            SlotOutcome::Corrupted(_) => {
                // CRC failure on a lone reply: leave every counter in
                // place so the same tag retries next slot. Splitting
                // here would descend forever on one unlucky tag.
            }
        }
        StepOutcome::Progressed
    }

    fn state(&self) -> Json {
        Json::Obj(vec![
            ("slots".into(), self.slots.to_json()),
            ("groups".into(), self.groups.to_json()),
        ])
    }

    fn reset(&mut self, ctx: &SimContext) {
        for mut group in self.groups.drain(..) {
            group.clear();
            self.pool.push(group);
        }
        let mut first = self.pool.pop().unwrap_or_default();
        ctx.population.collect_active_into(&mut first);
        self.remaining = first.len();
        self.groups.push(first);
        self.slots = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_protocols::Report;
    use rfid_system::{BitVec, Channel, SimConfig, TagPopulation};

    fn run(n: usize, seed: u64) -> (Report, SimContext) {
        let pop = TagPopulation::sequential(n, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(seed));
        let report = BinarySplitConfig::default().run(&mut ctx);
        (report, ctx)
    }

    #[test]
    fn identifies_every_tag() {
        let (report, ctx) = run(400, 1);
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 400);
    }

    #[test]
    fn slot_count_is_about_2_9_per_tag() {
        let n = 2_000;
        let (report, _) = run(n, 2);
        let slots =
            report.counters.polls + report.counters.empty_slots + report.counters.collision_slots;
        let per_tag = slots as f64 / n as f64;
        assert!(
            (2.3..=3.4).contains(&per_tag),
            "slots per tag = {per_tag} (expected ≈ 2.9)"
        );
    }

    #[test]
    fn single_tag_is_one_slot() {
        let (report, _) = run(1, 3);
        assert_eq!(report.counters.polls, 1);
        assert_eq!(report.counters.collision_slots, 0);
    }

    #[test]
    fn survives_reply_loss() {
        let pop = TagPopulation::sequential(150, |_| BitVec::from_value(1, 1));
        let cfg = SimConfig::paper(4).with_channel(Channel::lossy(0.2));
        let mut ctx = SimContext::new(pop, &cfg);
        let report = BinarySplitConfig::default().run(&mut ctx);
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 150);
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, _) = run(300, 5);
        let (b, _) = run(300, 5);
        assert_eq!(a.total_time, b.total_time);
    }
}
