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

use rfid_c1g2::TimeCategory;
use rfid_protocols::{PollingProtocol, ProtocolStepper, StallCause, StepDiscipline, StepOutcome};
use rfid_system::id::EPC_BITS;
use rfid_system::{BroadcastKind, Event, Json, JsonError, SimContext, SlotOutcome, ToJson};

/// Query-Tree configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryTreeConfig {
    /// Fixed command overhead preceding each prefix broadcast.
    pub command_bits: u64,
    /// CRC bits appended to every tag reply.
    pub reply_crc_bits: u64,
    /// Re-query a prefix after reading a singleton from it. On a perfect
    /// channel this wastes one empty slot per tag; on a lossy channel it is
    /// *required* for completeness — a collision whose other replies were
    /// all lost looks exactly like a singleton, and pruning the prefix
    /// would strand the masked tags.
    pub verify_singletons: bool,
}

impl Default for QueryTreeConfig {
    fn default() -> Self {
        QueryTreeConfig {
            command_bits: 4,
            reply_crc_bits: 16,
            verify_singletons: false,
        }
    }
}

impl QueryTreeConfig {
    /// Wraps the config into a runnable protocol.
    pub fn into_protocol(self) -> QueryTree {
        QueryTree { cfg: self }
    }
}

/// The Query Tree identification protocol.
#[derive(Debug, Clone, Default)]
pub struct QueryTree {
    cfg: QueryTreeConfig,
}

impl QueryTree {
    /// Creates Query Tree with the given configuration.
    pub fn new(cfg: QueryTreeConfig) -> Self {
        QueryTree { cfg }
    }
}

impl PollingProtocol for QueryTree {
    fn name(&self) -> &'static str {
        "QueryTree"
    }

    fn open_stepper(&self, ctx: &SimContext) -> Box<dyn ProtocolStepper> {
        Box::new(QueryTreeStepper::open(self.cfg, ctx))
    }

    fn resume_stepper(
        &self,
        ctx: &SimContext,
        state: &Json,
    ) -> Result<Box<dyn ProtocolStepper>, JsonError> {
        let mut stepper = QueryTreeStepper::open(self.cfg, ctx);
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
    cfg: QueryTreeConfig,
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
    fn open(cfg: QueryTreeConfig, ctx: &SimContext) -> Self {
        let mut sorted: Vec<(u128, usize)> = ctx
            .population
            .iter()
            .map(|(h, t)| (t.id.as_u128(), h))
            .collect();
        sorted.sort_unstable();
        QueryTreeStepper {
            cfg,
            sorted,
            repliers: Vec::new(),
            stack: vec![(1, 1), (0, 1)],
            queries: 0,
        }
    }
}

impl ProtocolStepper for QueryTreeStepper {
    fn discipline(&self) -> StepDiscipline {
        // The query cap below subsumes both the round budget and the stall
        // guard: a lossy channel shows up as a stack that never drains.
        StepDiscipline::self_limited()
    }

    fn done(&self, _ctx: &SimContext) -> bool {
        self.stack.is_empty()
    }

    fn step(&mut self, ctx: &mut SimContext) -> StepOutcome {
        let Some(prefix) = self.stack.pop() else {
            return StepOutcome::Progressed;
        };
        let (value, len) = prefix;
        self.queries += 1;
        if self.queries >= 100_000_000 {
            // Channel too lossy to ever drain the stack.
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

        // The query costs the command overhead plus the prefix bits.
        // The prefix is a `Probe`: its bits are charged to the vector
        // metric only when the slot decodes a singleton (below).
        ctx.reader_tx(
            BroadcastKind::SlotPrefix,
            self.cfg.command_bits,
            TimeCategory::ReaderCommand,
        );
        ctx.reader_tx(
            BroadcastKind::Probe,
            len as u64,
            TimeCategory::PollingVector,
        );
        ctx.wait(TimeCategory::Turnaround, ctx.link.t1);

        let reply_bits = (EPC_BITS as u32 - len) as u64 + self.cfg.reply_crc_bits;
        match ctx.channel.resolve(repliers, &mut ctx.rng) {
            SlotOutcome::Empty => {
                if repliers.is_empty() {
                    ctx.wait(TimeCategory::WastedSlot, ctx.link.t3);
                    ctx.emit(Event::SlotEmpty);
                } else {
                    // A reply was lost; the subtree must be revisited.
                    ctx.wait(TimeCategory::WastedSlot, ctx.link.t3);
                    ctx.emit(Event::ReplyLost { tag: repliers[0] });
                    ctx.emit(Event::SlotEmpty);
                    self.stack.push(prefix);
                }
            }
            SlotOutcome::Singleton(tag) => {
                ctx.wait(TimeCategory::TagReply, ctx.link.tag_tx(reply_bits));
                ctx.emit(Event::TagReply {
                    tag,
                    bits: reply_bits,
                });
                ctx.wait(TimeCategory::Turnaround, ctx.link.t2);
                ctx.emit(Event::VectorCharged { bits: len as u64 });
                ctx.mark_read(tag);
                if self.cfg.verify_singletons {
                    self.stack.push(prefix);
                }
            }
            SlotOutcome::Collision(count) => {
                // Collided replies occupy the slot, then split.
                ctx.wait(TimeCategory::WastedSlot, ctx.link.tag_tx(reply_bits));
                ctx.wait(TimeCategory::Turnaround, ctx.link.t2);
                ctx.emit(Event::SlotCollision { count });
                debug_assert!(
                    (len as usize) < EPC_BITS,
                    "full-length prefix cannot collide among unique IDs"
                );
                self.stack.push((value << 1 | 1, len + 1));
                self.stack.push((value << 1, len + 1));
            }
            SlotOutcome::Corrupted(tag) => {
                // The reply arrived but failed CRC: re-query the SAME
                // prefix (splitting would descend forever on a lone
                // tag whose replies keep getting mangled).
                ctx.wait(TimeCategory::WastedSlot, ctx.link.tag_tx(reply_bits));
                ctx.wait(TimeCategory::Turnaround, ctx.link.t2);
                ctx.emit(Event::ReplyCorrupted { tag });
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

rfid_system::impl_json_struct!(QueryTreeConfig {
    command_bits,
    reply_crc_bits,
    verify_singletons
});

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_system::{BitVec, Channel, SimConfig, TagId, TagPopulation};

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
        let report = QueryTree::default().run(&mut ctx);
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 300);
    }

    #[test]
    fn query_count_is_about_2_9_per_tag() {
        // The classical expected query count for QT on uniform IDs.
        let n = 2_000;
        let mut ctx = SimContext::new(random_population(n, 2), &SimConfig::paper(2));
        let report = QueryTree::default().run(&mut ctx);
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
        let report = QueryTree::default().run(&mut ctx);
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 200);
    }

    #[test]
    fn single_tag_identified_without_collisions() {
        let mut ctx = SimContext::new(random_population(1, 4), &SimConfig::paper(4));
        let report = QueryTree::default().run(&mut ctx);
        assert_eq!(report.counters.polls, 1);
        assert_eq!(report.counters.collision_slots, 0);
    }

    #[test]
    fn survives_reply_loss_with_verification() {
        // Without verification a masked collision (all-but-one replies
        // lost) prunes a subtree that still holds tags; with it, QT stays
        // complete on a lossy channel.
        let cfg = SimConfig::paper(5).with_channel(Channel::lossy(0.2));
        let mut ctx = SimContext::new(random_population(150, 5), &cfg);
        let qt = QueryTree::new(QueryTreeConfig {
            verify_singletons: true,
            ..QueryTreeConfig::default()
        });
        let report = qt.run(&mut ctx);
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 150);
        assert!(report.counters.lost_replies > 0);
    }

    #[test]
    fn verification_costs_one_extra_query_per_tag_when_clean() {
        let n = 400;
        let mut ctx = SimContext::new(random_population(n, 9), &SimConfig::paper(9));
        let plain = QueryTree::default().run(&mut ctx);
        let mut ctx2 = SimContext::new(random_population(n, 9), &SimConfig::paper(9));
        let verified = QueryTree::new(QueryTreeConfig {
            verify_singletons: true,
            ..QueryTreeConfig::default()
        })
        .run(&mut ctx2);
        let extra = verified.counters.empty_slots - plain.counters.empty_slots;
        assert_eq!(extra, n as u64, "one verification query per read tag");
    }

    #[test]
    fn identification_is_far_slower_than_polling() {
        // The paper's premise in one assertion.
        let n = 500;
        let mut ctx = SimContext::new(random_population(n, 6), &SimConfig::paper(6));
        let qt = QueryTree::default().run(&mut ctx);
        let pop = random_population(n, 6);
        let mut ctx2 = SimContext::new(pop, &SimConfig::paper(6));
        let tpp = rfid_protocols::TppConfig::default()
            .into_protocol()
            .run(&mut ctx2);
        assert!(
            qt.total_time > tpp.total_time * 4.0,
            "QT {} vs TPP {}",
            qt.total_time,
            tpp.total_time
        );
    }
}
