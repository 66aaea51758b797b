//! The C1G2 Q-algorithm — the standard's own slotted-ALOHA inventory.
//!
//! The reader opens a frame with `Query(Q)`; every unidentified tag draws a
//! slot counter uniformly from `[0, 2^Q)`. Counter-zero tags backscatter a
//! 16-bit RN16; the reader acknowledges one with an 18-bit `ACK`, and the
//! tag answers with its `PC + EPC + CRC-16` (128 bits). Each `QueryRep`
//! (4 bits) decrements all counters. The floating-point `Q_fp` adapts:
//! `+C` on a collision, `−C` on an empty slot; when `round(Q_fp)` drifts
//! from the current `Q` the reader issues a 9-bit `QueryAdjust`, restarting
//! the frame with the new size.
//!
//! This is the protocol every commercial C1G2 reader runs — and the
//! baseline that makes the paper's premise concrete: a full identification
//! handshake moves ~150 reader/tag bits per tag plus the slot waste, an
//! order of magnitude above polling's ~7.

use rfid_c1g2::commands::{ACK_BITS, QUERY_BITS};
use rfid_c1g2::TimeCategory;
use rfid_protocols::{PollingProtocol, ProtocolStepper, StallCause, StepDiscipline, StepOutcome};
use rfid_system::{BroadcastKind, Event, Json, JsonError, SimContext, SlotOutcome, ToJson};

/// PC + EPC + CRC-16 backscatter length.
const EPC_REPLY_BITS: u64 = 16 + 96 + 16;
/// QueryAdjust length.
const QUERY_ADJUST_BITS: u64 = 9;
/// RN16 handle backscattered in a contention slot — 16 bits on the air
/// whatever the tag's payload width is.
const RN16_BITS: u64 = 16;

/// Q-algorithm configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QAlgorithmConfig {
    /// Initial Q exponent.
    pub initial_q: u8,
    /// Adaptation constant `C` (the standard suggests 0.1–0.5).
    pub c: f64,
    /// Safety cap on total slots.
    pub max_slots: u64,
}

impl Default for QAlgorithmConfig {
    fn default() -> Self {
        QAlgorithmConfig {
            initial_q: 4,
            c: 0.3,
            max_slots: 100_000_000,
        }
    }
}

impl QAlgorithmConfig {
    /// Wraps the config into a runnable protocol.
    pub fn into_protocol(self) -> QAlgorithm {
        QAlgorithm { cfg: self }
    }
}

/// The C1G2 Q-algorithm inventory.
#[derive(Debug, Clone, Default)]
pub struct QAlgorithm {
    cfg: QAlgorithmConfig,
}

impl QAlgorithm {
    /// Creates the Q-algorithm with the given configuration.
    pub fn new(cfg: QAlgorithmConfig) -> Self {
        QAlgorithm { cfg }
    }
}

impl PollingProtocol for QAlgorithm {
    fn name(&self) -> &'static str {
        "Q-algo"
    }

    fn open_stepper(&self, _ctx: &SimContext) -> Box<dyn ProtocolStepper> {
        Box::new(QAlgorithmStepper::open(self.cfg))
    }

    fn resume_stepper(
        &self,
        _ctx: &SimContext,
        state: &Json,
    ) -> Result<Box<dyn ProtocolStepper>, JsonError> {
        let mut stepper = QAlgorithmStepper::open(self.cfg);
        stepper.q_fp = state.field("q_fp")?;
        if !stepper.q_fp.is_finite() {
            return Err(JsonError("Q-algo q_fp must be finite".into()));
        }
        stepper.slots_total = state.field("slots_total")?;
        Ok(Box::new(stepper))
    }
}

/// One step = one frame (a `Query` and every slot up to the frame end or a
/// `QueryAdjust` restart).
struct QAlgorithmStepper {
    cfg: QAlgorithmConfig,
    q_fp: f64,
    slots_total: u64,
    // Frame buffers reused across (re)starts: active handles, their
    // slot draws, per-slot end offsets, and the slot-ordered handles —
    // a counting sort replacing the old per-frame comparison sort. Rebuilt
    // at the top of every frame, so never serialized.
    handles: Vec<usize>,
    slot_of: Vec<u64>,
    ends: Vec<usize>,
    ordered: Vec<usize>,
}

impl QAlgorithmStepper {
    fn open(cfg: QAlgorithmConfig) -> Self {
        assert!(cfg.initial_q <= 15, "Q must be ≤ 15");
        assert!(cfg.c > 0.0, "adaptation constant must be positive");
        QAlgorithmStepper {
            cfg,
            q_fp: cfg.initial_q as f64,
            slots_total: 0,
            handles: Vec::new(),
            slot_of: Vec::new(),
            ends: Vec::new(),
            ordered: Vec::new(),
        }
    }
}

impl ProtocolStepper for QAlgorithmStepper {
    fn discipline(&self) -> StepDiscipline {
        // The total-slot cap below subsumes both the round budget and the
        // stall guard.
        StepDiscipline::self_limited()
    }

    fn done(&self, ctx: &SimContext) -> bool {
        ctx.population.active_count() == 0
    }

    fn step(&mut self, ctx: &mut SimContext) -> StepOutcome {
        {
            // Open (or re-open) a frame at the current Q.
            let q = self.q_fp.round().clamp(0.0, 15.0) as u32;
            ctx.reader_tx(
                BroadcastKind::Query,
                QUERY_BITS,
                TimeCategory::ReaderCommand,
            );
            ctx.emit(Event::RoundStarted {
                round: ctx.counters.rounds as usize + 1,
                h: q,
                unread: ctx.population.active_count(),
            });
            let frame = 1u64 << q;

            // Every active tag draws its slot counter (ascending handle
            // order — the rng-to-tag assignment the protocol has always
            // used). Group by slot with a counting sort: stable fill keeps
            // handles ascending within a slot, matching the old
            // sort-by-(slot, handle) output exactly.
            let handles = &mut self.handles;
            let slot_of = &mut self.slot_of;
            let ends = &mut self.ends;
            let ordered = &mut self.ordered;
            handles.clear();
            ctx.population.collect_active_into(handles);
            slot_of.clear();
            slot_of.extend(handles.iter().map(|_| ctx.rng.below(frame)));
            ends.clear();
            ends.resize(frame as usize, 0);
            for &s in slot_of.iter() {
                ends[s as usize] += 1;
            }
            let mut acc = 0usize;
            for e in ends.iter_mut() {
                let c = *e;
                *e = acc;
                acc += c;
            }
            ordered.clear();
            ordered.resize(handles.len(), 0);
            for (k, &s) in slot_of.iter().enumerate() {
                ordered[ends[s as usize]] = handles[k];
                ends[s as usize] += 1;
            }

            let mut slot = 0u64;
            loop {
                self.slots_total += 1;
                if self.slots_total >= self.cfg.max_slots {
                    return StepOutcome::Stalled(StallCause::RoundCap);
                }
                // Tags whose counter equals the current slot reply.
                let begin = if slot == 0 {
                    0
                } else {
                    ends[slot as usize - 1]
                };
                let repliers = &ordered[begin..ends[slot as usize]];
                // The slot carries an RN16 burst — 16 bits on the air no
                // matter what payload the tag stores; a decodable RN16
                // triggers the ACK → EPC handshake that completes
                // identification.
                ctx.reader_tx(
                    BroadcastKind::QueryRep,
                    rfid_c1g2::QUERY_REP_BITS,
                    TimeCategory::ReaderCommand,
                );
                ctx.wait(TimeCategory::Turnaround, ctx.link.t1);
                let outcome = ctx.channel.resolve(repliers, &mut ctx.rng);
                match outcome {
                    SlotOutcome::Empty => {
                        ctx.wait(TimeCategory::WastedSlot, ctx.link.t3);
                        ctx.emit(Event::SlotEmpty);
                        self.q_fp = (self.q_fp - self.cfg.c).max(0.0);
                    }
                    SlotOutcome::Singleton(tag) => {
                        ctx.wait(TimeCategory::TagReply, ctx.link.tag_tx(RN16_BITS));
                        ctx.emit(Event::TagReply {
                            tag,
                            bits: RN16_BITS,
                        });
                        ctx.wait(TimeCategory::Turnaround, ctx.link.t2);
                        ctx.reader_tx(BroadcastKind::Ack, ACK_BITS, TimeCategory::ReaderCommand);
                        ctx.wait(TimeCategory::Turnaround, ctx.link.t1);
                        ctx.wait(TimeCategory::TagReply, ctx.link.tag_tx(EPC_REPLY_BITS));
                        ctx.emit(Event::TagReply {
                            tag,
                            bits: EPC_REPLY_BITS,
                        });
                        ctx.wait(TimeCategory::Turnaround, ctx.link.t2);
                        ctx.mark_read(tag);
                    }
                    SlotOutcome::Collision(count) => {
                        ctx.wait(TimeCategory::WastedSlot, ctx.link.tag_tx(RN16_BITS));
                        ctx.wait(TimeCategory::Turnaround, ctx.link.t2);
                        ctx.emit(Event::SlotCollision { count });
                        self.q_fp = (self.q_fp + self.cfg.c).min(15.0);
                    }
                    SlotOutcome::Corrupted(tag) => {
                        // Garbled RN16: the reader cannot ACK it. The tag
                        // re-draws in the next frame; Q is left alone (the
                        // slot was neither empty nor a collision).
                        ctx.wait(TimeCategory::WastedSlot, ctx.link.tag_tx(RN16_BITS));
                        ctx.wait(TimeCategory::Turnaround, ctx.link.t2);
                        ctx.emit(Event::ReplyCorrupted { tag });
                    }
                }
                slot += 1;
                // Frame ends when every slot has passed, or Q drifted.
                if slot >= frame {
                    break;
                }
                if self.q_fp.round() as u32 != q {
                    ctx.reader_tx(
                        BroadcastKind::QueryAdjust,
                        QUERY_ADJUST_BITS,
                        TimeCategory::ReaderCommand,
                    );
                    break;
                }
            }
        }
        StepOutcome::Progressed
    }

    fn state(&self) -> Json {
        Json::Obj(vec![
            ("q_fp".into(), self.q_fp.to_json()),
            ("slots_total".into(), self.slots_total.to_json()),
        ])
    }

    fn reset(&mut self, _ctx: &SimContext) {
        self.q_fp = self.cfg.initial_q as f64;
        self.slots_total = 0;
    }
}

rfid_system::impl_json_struct!(QAlgorithmConfig {
    initial_q,
    c,
    max_slots
});

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_protocols::Report;
    use rfid_system::{BitVec, Channel, SimConfig, TagPopulation};

    fn run(n: usize, seed: u64, cfg: QAlgorithmConfig) -> (Report, SimContext) {
        // RN16 slot replies: model the 16-bit RN16 as the tag's "info".
        let pop = TagPopulation::sequential(n, |i| BitVec::from_value(i as u64 & 0xFFFF, 16));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(seed));
        let report = QAlgorithm::new(cfg).run(&mut ctx);
        (report, ctx)
    }

    #[test]
    fn identifies_every_tag() {
        let (report, ctx) = run(500, 1, QAlgorithmConfig::default());
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 500);
    }

    #[test]
    fn q_adapts_to_large_populations() {
        // Starting at Q = 4 (16 slots) with 2 000 tags, the algorithm must
        // grow Q rather than thrash: total slots stay within a small
        // multiple of n.
        let (report, _) = run(2_000, 2, QAlgorithmConfig::default());
        let slots =
            report.counters.polls + report.counters.empty_slots + report.counters.collision_slots;
        let per_tag = slots as f64 / 2_000.0;
        assert!((1.5..=6.0).contains(&per_tag), "slots per tag = {per_tag}");
    }

    #[test]
    fn small_c_converges_too() {
        let (report, ctx) = run(
            300,
            3,
            QAlgorithmConfig {
                c: 0.1,
                ..QAlgorithmConfig::default()
            },
        );
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 300);
    }

    #[test]
    fn handles_single_tag() {
        let (report, ctx) = run(1, 4, QAlgorithmConfig::default());
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 1);
    }

    #[test]
    fn survives_reply_loss() {
        let pop = TagPopulation::sequential(200, |_| BitVec::from_value(1, 16));
        let cfg = SimConfig::paper(5).with_channel(Channel::lossy(0.15));
        let mut ctx = SimContext::new(pop, &cfg);
        let report = QAlgorithm::default().run(&mut ctx);
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 200);
    }

    #[test]
    fn identification_cost_dwarfs_polling() {
        let n = 1_000;
        let (qalg, _) = run(n, 6, QAlgorithmConfig::default());
        let pop = TagPopulation::sequential(n, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(6));
        let tpp = rfid_protocols::TppConfig::default()
            .into_protocol()
            .run(&mut ctx);
        assert!(
            qalg.total_time > tpp.total_time * 5.0,
            "Q-algo {} vs TPP {}",
            qalg.total_time,
            tpp.total_time
        );
    }
}
