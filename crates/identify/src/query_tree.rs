//! The Query Tree protocol (Law, Lee, Siu — the classical memoryless
//! tree-based anti-collision scheme).
//!
//! The reader keeps a LIFO of candidate prefixes, initially {0, 1}. For
//! each prefix `p` it broadcasts `|p|` bits; every unidentified tag whose
//! ID starts with `p` backscatters the *remainder* of its ID (plus CRC-16):
//!
//! * empty → the subtree is vacant, discard,
//! * singleton → the reply decodes to a full ID: identified,
//! * collision → push `p·0` and `p·1`.
//!
//! Tags need no state beyond their ID (memoryless); the expected query
//! count on uniform IDs is ≈ 2.89 per tag.
//!
//! On a lossy channel a collision whose other replies were all lost looks
//! exactly like a singleton, and pruning its prefix strands the masked tags:
//! the pass stalls once its stack drains, and a recovery pass restarts from
//! the root.

use rfid_c1g2::commands::CRC16_BITS;
use rfid_c1g2::{TimeCategory, QUERY_REP_BITS};
use rfid_protocols::{PollingProtocol, ProtocolStepper, StallCause, StepDiscipline, StepOutcome};
use rfid_system::id::EPC_BITS;
use rfid_system::{BroadcastKind, Event, Json, JsonError, SimContext, SlotOutcome, ToJson};

/// The Query Tree identification protocol. It has nothing to configure:
/// each prefix rides behind a 4-bit slot command, and each reply carries a
/// CRC-16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryTreeConfig;

impl PollingProtocol for QueryTreeConfig {
    fn name(&self) -> &'static str {
        "QueryTree"
    }

    fn open_stepper(&self, ctx: &SimContext) -> Box<dyn ProtocolStepper> {
        Box::new(QueryTreeStepper::open(ctx))
    }

    fn resume_stepper(
        &self,
        ctx: &SimContext,
        state: &Json,
    ) -> Result<Box<dyn ProtocolStepper>, JsonError> {
        let mut stepper = QueryTreeStepper::open(ctx);
        stepper.queries = state.field("queries")?;
        let rows: Vec<Vec<u64>> = state.field("stack")?;
        stepper.stack.clear();
        for row in &rows {
            let [hi, lo, len] = row[..] else {
                return Err(JsonError(
                    "QueryTree stack entry must be a [hi, lo, len] triple".into(),
                ));
            };
            let value = (hi as u128) << 64 | lo as u128;
            if !(1..=EPC_BITS as u64).contains(&len) || value >> len != 0 {
                return Err(JsonError(format!(
                    "QueryTree stack entry {value:#x}/{len} is not a valid prefix"
                )));
            }
            stepper.stack.push((value, len as u32));
        }
        Ok(Box::new(stepper))
    }
}

/// One step = one prefix query (one pop off the LIFO).
struct QueryTreeStepper {
    /// Reader-side index: IDs sorted as 96-bit values. A prefix `p` of
    /// length `L` matches exactly the sorted range
    /// `[p·2^(96-L), (p+1)·2^(96-L))`, so each query resolves its repliers
    /// by binary search instead of re-scanning the whole population. Pure
    /// function of the immutable IDs: recomputed on resume, not serialized.
    sorted: Vec<(u128, usize)>,
    repliers: Vec<usize>,
    /// LIFO keeps memory logarithmic on random IDs (depth-first). Each
    /// entry is a right-aligned prefix value plus its bit length.
    stack: Vec<(u128, u32)>,
    queries: u64,
}

impl QueryTreeStepper {
    fn open(ctx: &SimContext) -> Self {
        let mut sorted: Vec<(u128, usize)> = ctx
            .population
            .ids()
            .enumerate()
            .map(|(h, id)| (id.as_u128(), h))
            .collect();
        sorted.sort_unstable();
        QueryTreeStepper {
            sorted,
            repliers: Vec::new(),
            stack: vec![(1, 1), (0, 1)],
            queries: 0,
        }
    }
}

impl ProtocolStepper for QueryTreeStepper {
    fn discipline(&self) -> StepDiscipline {
        // The query cap below subsumes the round budget, and a drained
        // stack with tags left is the stall: a lossy channel shows up as a
        // stack that never drains or one that drains too early.
        StepDiscipline::self_limited()
    }

    fn done(&self, ctx: &SimContext) -> bool {
        self.stack.is_empty() && ctx.population.active_count() == 0
    }

    fn step(&mut self, ctx: &mut SimContext) -> StepOutcome {
        let Some(prefix) = self.stack.pop() else {
            // The stack drained with tags still active: a masked collision
            // (all but one reply lost) pruned a subtree that holds them. A
            // recovery pass restarts from the root.
            return StepOutcome::Stalled(StallCause::NoProgress);
        };
        let (value, len) = prefix;
        self.queries = self.queries.wrapping_add(1);
        if self.queries >= 100_000_000 {
            // A lossy channel or a dead tag keeps the stack from draining.
            return StepOutcome::Stalled(StallCause::RoundCap);
        }
        // Matching tags: active tags whose ID begins with the prefix,
        // in ascending handle order (the population scan order the
        // channel model has always seen).
        let lo = value << (EPC_BITS as u32 - len);
        let hi = lo + (1u128 << (EPC_BITS as u32 - len));
        let start = self.sorted.partition_point(|&(id, _)| id < lo);
        let end = self.sorted.partition_point(|&(id, _)| id < hi);
        let active_words = ctx.population.active_words();
        self.repliers.clear();
        self.repliers.extend(
            self.sorted[start..end]
                .iter()
                .map(|&(_, h)| h)
                .filter(|&h| (active_words[h >> 6] >> (h & 63)) & 1 == 1),
        );
        self.repliers.sort_unstable();
        let repliers = &self.repliers;

        // The query costs the 4-bit slot command plus the prefix bits.
        // The prefix is a `Probe`: its bits are charged to the vector
        // metric only when the slot decodes a singleton (below).
        ctx.reader_tx(
            BroadcastKind::SlotPrefix,
            QUERY_REP_BITS,
            TimeCategory::ReaderCommand,
        );
        ctx.reader_tx(
            BroadcastKind::Probe,
            len as u64,
            TimeCategory::PollingVector,
        );

        // Matching tags backscatter the rest of their ID plus the CRC.
        let reply_bits = (EPC_BITS as u32 - len) as u64 + CRC16_BITS;
        match ctx.slot(repliers, 0, Some(reply_bits)) {
            SlotOutcome::Empty => {
                if !repliers.is_empty() {
                    // No reply got through; the subtree must be revisited.
                    self.stack.push(prefix);
                }
            }
            SlotOutcome::Singleton(tag) => {
                ctx.emit(Event::VectorCharged { bits: len as u64 });
                ctx.mark_read(tag);
            }
            SlotOutcome::Collision(_) => {
                debug_assert!(
                    (len as usize) < EPC_BITS,
                    "full-length prefix cannot collide among unique IDs"
                );
                self.stack.push((value << 1 | 1, len + 1));
                self.stack.push((value << 1, len + 1));
            }
            SlotOutcome::Corrupted(_) => {
                // The reply arrived but failed CRC: re-query the SAME
                // prefix (splitting would descend forever on a lone
                // tag whose replies keep getting mangled).
                self.stack.push(prefix);
            }
        }
        StepOutcome::Progressed
    }

    fn state(&self) -> Json {
        // 96-bit prefix values split into [hi, lo, len] u64 triples.
        let stack: Vec<Vec<u64>> = self
            .stack
            .iter()
            .map(|&(v, len)| vec![(v >> 64) as u64, v as u64, len as u64])
            .collect();
        Json::Obj(vec![
            ("queries".into(), self.queries.to_json()),
            ("stack".into(), stack.to_json()),
        ])
    }

    fn reset(&mut self, _ctx: &SimContext) {
        self.stack.clear();
        self.stack.push((1, 1));
        self.stack.push((0, 1));
        self.queries = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_system::{BitVec, SimConfig, TagId, TagPopulation};

    fn random_population(n: usize, seed: u64) -> TagPopulation {
        let mut rng = rfid_hash::Xoshiro256::seed_from_u64(seed);
        let mut seen = std::collections::HashSet::new();
        let mut tags = Vec::new();
        while tags.len() < n {
            let id = TagId::from_raw(rng.next_u64() as u32, rng.next_u64());
            if seen.insert(id) {
                tags.push((id, BitVec::from_value(1, 1)));
            }
        }
        TagPopulation::new(tags)
    }

    #[test]
    fn identifies_every_tag() {
        let mut ctx = SimContext::new(random_population(300, 1), &SimConfig::paper(1));
        let report = QueryTreeConfig.run(&mut ctx);
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 300);
    }

    #[test]
    fn query_count_is_about_2_9_per_tag() {
        // The classical expected query count for QT on uniform IDs.
        let n = 2_000;
        let mut ctx = SimContext::new(random_population(n, 2), &SimConfig::paper(2));
        let report = QueryTreeConfig.run(&mut ctx);
        let queries =
            report.counters.polls + report.counters.empty_slots + report.counters.collision_slots;
        let per_tag = queries as f64 / n as f64;
        assert!(
            (2.5..=3.3).contains(&per_tag),
            "queries per tag = {per_tag} (expected ≈ 2.9)"
        );
    }

    #[test]
    fn clustered_ids_are_fine_too() {
        // Shared prefixes deepen the tree but never break it.
        let tags: Vec<_> = (0..200u64)
            .map(|i| (TagId::from_fields(0x30, 1, 1, i), BitVec::from_value(1, 1)))
            .collect();
        let mut ctx = SimContext::new(TagPopulation::new(tags), &SimConfig::paper(3));
        let report = QueryTreeConfig.run(&mut ctx);
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 200);
    }

    #[test]
    fn single_tag_identified_without_collisions() {
        let mut ctx = SimContext::new(random_population(1, 4), &SimConfig::paper(4));
        let report = QueryTreeConfig.run(&mut ctx);
        assert_eq!(report.counters.polls, 1);
        assert_eq!(report.counters.collision_slots, 0);
    }

    #[test]
    fn identification_is_far_slower_than_polling() {
        // The paper's premise in one assertion.
        let n = 500;
        let mut ctx = SimContext::new(random_population(n, 6), &SimConfig::paper(6));
        let qt = QueryTreeConfig.run(&mut ctx);
        let pop = random_population(n, 6);
        let mut ctx2 = SimContext::new(pop, &SimConfig::paper(6));
        let tpp = rfid_protocols::TppConfig::default().run(&mut ctx2);
        assert!(
            qt.total_time > tpp.total_time * 4.0,
            "QT {} vs TPP {}",
            qt.total_time,
            tpp.total_time
        );
    }
}
