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
//!
//! The simulator draws the counters lazily, one slot at a time. A
//! `QueryAdjust` usually ends a frame after a few slots, so drawing every
//! counter at the frame start would mostly be thrown away. Lazy drawing
//! is exact: at slot `s` of an `F`-slot frame the `m` tags not yet placed
//! hold counters uniform over the `F − s` slots left, so slot `s` holds
//! Binomial(m, 1/(F−s)) of them, a uniform subset, and all of them when
//! `F − s = 1`. A slot costs O(occupants · log n), not a frame
//! O(remaining). The counters come out of the RNG in another order than
//! a frame-start draw would give, so runs match the eager draw in
//! distribution, not bit for bit; the tests gate that equivalence
//! against the eager draw kept as a test oracle.

use rfid_c1g2::commands::{ACK_BITS, QUERY_BITS};
use rfid_c1g2::TimeCategory;
use rfid_protocols::{PollingProtocol, ProtocolStepper, StallCause, StepDiscipline, StepOutcome};
use rfid_system::{
    BroadcastKind, Event, Json, JsonError, SimContext, SlotOutcome, TagPopulation, ToJson,
};

/// PC + EPC + CRC-16 backscatter length.
const EPC_REPLY_BITS: u64 = 16 + 96 + 16;
/// QueryAdjust length.
const QUERY_ADJUST_BITS: u64 = 9;
/// RN16 handle backscattered in a contention slot — 16 bits on the air
/// whatever the tag's payload width is.
const RN16_BITS: u64 = 16;

/// The C1G2 Q-algorithm inventory, as its configuration.
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

impl PollingProtocol for QAlgorithmConfig {
    fn name(&self) -> &'static str {
        "Q-algo"
    }

    fn open_stepper(&self, ctx: &SimContext) -> Box<dyn ProtocolStepper> {
        Box::new(QAlgorithmStepper::<LazyFrame>::open(*self, ctx))
    }

    fn resume_stepper(
        &self,
        ctx: &SimContext,
        state: &Json,
    ) -> Result<Box<dyn ProtocolStepper>, JsonError> {
        // The frame draw's state is a function of the active set, so
        // opening on the restored context rebuilds it.
        let mut stepper = QAlgorithmStepper::<LazyFrame>::open(*self, ctx);
        stepper.q_fp = state.field("q_fp")?;
        if !stepper.q_fp.is_finite() {
            return Err(JsonError("Q-algo q_fp must be finite".into()));
        }
        stepper.slots_total = state.field("slots_total")?;
        Ok(Box::new(stepper))
    }
}

/// Who replies in each slot of a frame: the stepper's one seam between
/// the protocol and how its slot counters are sampled.
trait FrameDraw: Default {
    /// Re-derives any cross-frame state from the population (stepper open,
    /// resume and reset). Must not touch the RNG.
    fn rebuild(&mut self, population: &TagPopulation);

    /// Opens a frame of `frame` slots over the active tags.
    fn open_frame(&mut self, ctx: &mut SimContext, frame: u64);

    /// The tags whose counter is `slot`, in ascending handle order (so
    /// `Channel::resolve`'s capture picks among them as it always has).
    /// Slots are asked for in order from 0.
    fn occupants(&mut self, ctx: &mut SimContext, slot: u64) -> &[usize];

    /// Ends the frame; every exit from a step calls it.
    fn close_frame(&mut self, population: &TagPopulation);
}

/// One step = one frame (a `Query` and every slot up to the frame end or a
/// `QueryAdjust` restart).
struct QAlgorithmStepper<D> {
    cfg: QAlgorithmConfig,
    q_fp: f64,
    slots_total: u64,
    draw: D,
}

impl<D: FrameDraw> QAlgorithmStepper<D> {
    fn open(cfg: QAlgorithmConfig, ctx: &SimContext) -> Self {
        assert!(cfg.initial_q <= 15, "Q must be ≤ 15");
        assert!(cfg.c > 0.0, "adaptation constant must be positive");
        let mut draw = D::default();
        draw.rebuild(&ctx.population);
        QAlgorithmStepper {
            cfg,
            q_fp: cfg.initial_q as f64,
            slots_total: 0,
            draw,
        }
    }
}

impl<D: FrameDraw> ProtocolStepper for QAlgorithmStepper<D> {
    fn discipline(&self) -> StepDiscipline {
        // The total-slot cap below subsumes both the round budget and the
        // stall guard.
        StepDiscipline::self_limited()
    }

    fn step(&mut self, ctx: &mut SimContext) -> StepOutcome {
        // Open (or re-open) a frame at the current Q.
        let q = self.q_fp.round().clamp(0.0, 15.0) as u32;
        ctx.reader_tx(
            BroadcastKind::Query,
            QUERY_BITS,
            TimeCategory::ReaderCommand,
        );
        ctx.emit(Event::RoundStarted {
            round: (ctx.counters.rounds as usize).wrapping_add(1),
            h: q,
            unread: ctx.population.active_count(),
        });
        let frame = 1u64 << q;
        self.draw.open_frame(ctx, frame);

        let mut slot = 0u64;
        loop {
            self.slots_total = self.slots_total.wrapping_add(1);
            if self.slots_total >= self.cfg.max_slots {
                self.draw.close_frame(&ctx.population);
                return StepOutcome::Stalled(StallCause::RoundCap);
            }
            // Tags whose counter equals the current slot reply.
            let repliers = self.draw.occupants(ctx, slot);
            // The slot carries an RN16 burst — 16 bits on the air no
            // matter what payload the tag stores; a decodable RN16
            // triggers the ACK → EPC handshake that completes
            // identification.
            ctx.reader_tx(
                BroadcastKind::QueryRep,
                rfid_c1g2::QUERY_REP_BITS,
                TimeCategory::ReaderCommand,
            );
            match ctx.slot(repliers, 0, Some(RN16_BITS)) {
                SlotOutcome::Empty => {
                    self.q_fp = (self.q_fp - self.cfg.c).max(0.0);
                }
                SlotOutcome::Singleton(tag) => {
                    // The ACK'd tag backscatters its EPC alone; if that
                    // reply is lost or garbled, the tag re-draws in the
                    // next frame.
                    ctx.reader_tx(BroadcastKind::Ack, ACK_BITS, TimeCategory::ReaderCommand);
                    if ctx.slot(&[tag], 0, Some(EPC_REPLY_BITS)).is_singleton() {
                        ctx.mark_read(tag);
                    }
                }
                SlotOutcome::Collision(_) => {
                    self.q_fp = (self.q_fp + self.cfg.c).min(15.0);
                }
                // Garbled RN16: the reader cannot ACK it. The tag
                // re-draws in the next frame; Q is left alone (the
                // slot was neither empty nor a collision).
                SlotOutcome::Corrupted(_) => {}
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
        self.draw.close_frame(&ctx.population);
        StepOutcome::Progressed
    }

    fn state(&self) -> Json {
        Json::Obj(vec![
            ("q_fp".into(), self.q_fp.to_json()),
            ("slots_total".into(), self.slots_total.to_json()),
        ])
    }

    fn reset(&mut self, ctx: &SimContext) {
        self.q_fp = self.cfg.initial_q as f64;
        self.slots_total = 0;
        self.draw.rebuild(&ctx.population);
    }
}

/// The lazy frame draw: each slot's occupants are sampled when the slot
/// comes up, from the tags this frame has not placed yet.
///
/// Invariant: between frames `unplaced` is exactly the population's
/// active set. A frame moves its occupants out as it places them; its
/// close puts back the ones still active (collided, lost, corrupted or
/// dead — they re-draw next frame) and drops the read ones.
#[derive(Default)]
struct LazyFrame {
    unplaced: HandleSet,
    frame: u64,
    /// Every tag placed in this frame so far.
    placed: Vec<usize>,
    /// The current slot's occupants, ascending.
    slot_tags: Vec<usize>,
}

impl FrameDraw for LazyFrame {
    fn rebuild(&mut self, population: &TagPopulation) {
        self.unplaced.rebuild(population);
        self.placed.clear();
    }

    fn open_frame(&mut self, ctx: &mut SimContext, frame: u64) {
        // Between frames only this stepper changes the active set, so the
        // two must agree: debug builds compare every bit, and release
        // builds rebuild on a count mismatch rather than draw from a stale
        // set.
        debug_assert!(
            self.unplaced.words == ctx.population.active_words(),
            "unplaced set drifted from the active set"
        );
        if self.unplaced.len() != ctx.population.active_count() {
            self.unplaced.rebuild(&ctx.population);
        }
        self.frame = frame;
    }

    fn occupants(&mut self, ctx: &mut SimContext, slot: u64) -> &[usize] {
        let unplaced = self.unplaced.len();
        let left = self.frame - slot;
        let count = ctx.rng.binomial(unplaced as u64, 1.0 / left as f64) as usize;
        self.slot_tags.clear();
        if count == unplaced {
            // All of them: nothing to choose.
            self.slot_tags
                .extend((0..count).map(|_| self.unplaced.take(0)));
        } else {
            for _ in 0..count {
                let k = ctx.rng.below(self.unplaced.len() as u64) as usize;
                self.slot_tags.push(self.unplaced.take(k));
            }
            self.slot_tags.sort_unstable();
        }
        self.placed.extend_from_slice(&self.slot_tags);
        &self.slot_tags
    }

    fn close_frame(&mut self, population: &TagPopulation) {
        for &tag in &self.placed {
            if population.is_active(tag) {
                self.unplaced.insert(tag);
            }
        }
        self.placed.clear();
    }
}

/// An order-statistic set over tag handles: a Fenwick tree of member
/// counts beside a membership bitset laid out like the population's
/// active words. Finding and removing the k-th smallest member is one
/// O(log n) descent; inserting is one O(log n) climb.
#[derive(Default)]
struct HandleSet {
    /// 1-based: `tree[i]` counts the members among handles
    /// `i − lowbit(i) .. i` (handle `h` is position `h + 1`).
    tree: Vec<u32>,
    /// Bit `h % 64` of word `h / 64` is set iff handle `h` is a member.
    words: Vec<u64>,
    len: usize,
    /// The highest power of two ≤ the tree's size: the descent's first
    /// step.
    top: usize,
}

impl HandleSet {
    /// Refills the set with the population's active handles, in O(n).
    fn rebuild(&mut self, population: &TagPopulation) {
        let n = population.len();
        assert!(u32::try_from(n).is_ok(), "{n} tags overflow a u32 count");
        self.words.clear();
        self.words.extend_from_slice(population.active_words());
        self.tree.clear();
        self.tree.resize(n + 1, 0);
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                self.tree[w * 64 + bits.trailing_zeros() as usize + 1] = 1;
                bits &= bits - 1;
            }
        }
        for i in 1..=n {
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                self.tree[parent] += self.tree[i];
            }
        }
        self.len = population.active_count();
        self.top = if n == 0 { 0 } else { 1 << n.ilog2() };
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Adds a handle that is not a member.
    fn insert(&mut self, handle: usize) {
        debug_assert_eq!(self.words[handle / 64] >> (handle % 64) & 1, 0);
        self.words[handle / 64] |= 1 << (handle % 64);
        self.len += 1;
        let mut i = handle + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Removes and returns the `k`-th smallest member (from 0). The
    /// descent decrements each node whose range holds the result, which
    /// is exactly the nodes it does not step past.
    fn take(&mut self, k: usize) -> usize {
        debug_assert!(k < self.len, "take({k}) from {} members", self.len);
        let mut rank = k as u32;
        let mut pos = 0;
        let mut step = self.top;
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() {
                if self.tree[next] <= rank {
                    rank -= self.tree[next];
                    pos = next;
                } else {
                    self.tree[next] -= 1;
                }
            }
            step >>= 1;
        }
        // `pos` is the last position before the result: handle `pos`.
        self.words[pos / 64] &= !(1 << (pos % 64));
        self.len -= 1;
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_hash::split_seed;
    use rfid_hash::uniformity::{chi_square_critical_1pct, chi_square_homogeneity, ks_two_sample};
    use rfid_protocols::Report;
    use rfid_system::{BitVec, Channel, SimConfig};

    /// The eager frame draw the lazy one replaced, kept as the
    /// equivalence oracle: at the frame start every active tag draws its
    /// counter (ascending handle order), and a counting sort groups the
    /// handles by slot, ascending within a slot. O(remaining + 2^Q) per
    /// frame.
    #[derive(Default)]
    struct EagerFrame {
        handles: Vec<usize>,
        slot_of: Vec<u64>,
        ends: Vec<usize>,
        ordered: Vec<usize>,
    }

    impl FrameDraw for EagerFrame {
        fn rebuild(&mut self, _population: &TagPopulation) {}

        fn open_frame(&mut self, ctx: &mut SimContext, frame: u64) {
            ctx.population.collect_active_into(&mut self.handles);
            self.slot_of.clear();
            self.slot_of
                .extend(self.handles.iter().map(|_| ctx.rng.below(frame)));
            self.ends.clear();
            self.ends.resize(frame as usize, 0);
            for &s in &self.slot_of {
                self.ends[s as usize] += 1;
            }
            let mut acc = 0usize;
            for e in self.ends.iter_mut() {
                let c = *e;
                *e = acc;
                acc += c;
            }
            self.ordered.clear();
            self.ordered.resize(self.handles.len(), 0);
            for (k, &s) in self.slot_of.iter().enumerate() {
                self.ordered[self.ends[s as usize]] = self.handles[k];
                self.ends[s as usize] += 1;
            }
        }

        fn occupants(&mut self, _ctx: &mut SimContext, slot: u64) -> &[usize] {
            let begin = if slot == 0 {
                0
            } else {
                self.ends[slot as usize - 1]
            };
            &self.ordered[begin..self.ends[slot as usize]]
        }

        fn close_frame(&mut self, _population: &TagPopulation) {}
    }

    /// The Q-algorithm on the eager draw.
    struct EagerQAlgorithm(QAlgorithmConfig);

    impl PollingProtocol for EagerQAlgorithm {
        fn name(&self) -> &'static str {
            "Q-algo"
        }

        fn open_stepper(&self, ctx: &SimContext) -> Box<dyn ProtocolStepper> {
            Box::new(QAlgorithmStepper::<EagerFrame>::open(self.0, ctx))
        }
    }

    fn run(n: usize, seed: u64, cfg: QAlgorithmConfig) -> (Report, SimContext) {
        // RN16 slot replies: model the 16-bit RN16 as the tag's "info".
        let pop = TagPopulation::sequential(n, |i| BitVec::from_value(i as u64 & 0xFFFF, 16));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(seed));
        let report = cfg.run(&mut ctx);
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
        let report = QAlgorithmConfig::default().run(&mut ctx);
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 200);
    }

    /// Under loss, `empty_slots` counts every slot in which the reader
    /// decoded no reply: frame slots with no replier, and ACK handshakes
    /// whose EPC reply was lost.
    #[test]
    fn a_lost_epc_counts_as_an_empty_slot() {
        let pop = TagPopulation::sequential(200, |_| BitVec::from_value(1, 16));
        let cfg = SimConfig::paper(5)
            .with_channel(Channel::lossy(0.15))
            .with_trace();
        let mut ctx = SimContext::new(pop, &cfg);
        QAlgorithmConfig::default().run(&mut ctx);
        let (mut frame_empties, mut lost_epcs) = (0, 0);
        let mut after_ack = false;
        for te in ctx.log.events() {
            match te.event {
                Event::ReaderBroadcast { what, .. } => after_ack = what == BroadcastKind::Ack,
                Event::SlotEmpty if after_ack => lost_epcs += 1,
                Event::SlotEmpty => frame_empties += 1,
                _ => {}
            }
        }
        assert!(lost_epcs > 0, "no EPC reply was lost");
        assert_eq!(ctx.counters.empty_slots, frame_empties + lost_epcs);
    }

    #[test]
    fn identification_cost_dwarfs_polling() {
        let n = 1_000;
        let (qalg, _) = run(n, 6, QAlgorithmConfig::default());
        let pop = TagPopulation::sequential(n, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(6));
        let tpp = rfid_protocols::TppConfig::default().run(&mut ctx);
        assert!(
            qalg.total_time > tpp.total_time * 5.0,
            "Q-algo {} vs TPP {}",
            qalg.total_time,
            tpp.total_time
        );
    }

    /// `HandleSet` against a sorted `Vec` under random takes and inserts,
    /// from populations of every size up to 130 with some tags asleep.
    #[test]
    fn handle_set_matches_a_sorted_vec() {
        let mut rng = rfid_hash::Xoshiro256::seed_from_u64(41);
        for n in 0..=130 {
            let mut pop = TagPopulation::sequential(n, |_| BitVec::from_value(1, 1));
            for h in 0..n {
                if rng.chance(0.3) {
                    pop.sleep(h);
                }
            }
            let mut set = HandleSet::default();
            set.rebuild(&pop);
            let mut model: Vec<usize> = (0..n).filter(|&h| pop.is_active(h)).collect();
            for _ in 0..200 {
                assert_eq!(set.len(), model.len());
                let absent: Vec<usize> = (0..n).filter(|h| !model.contains(h)).collect();
                if !model.is_empty() && (absent.is_empty() || rng.chance(0.5)) {
                    let k = rng.below(model.len() as u64) as usize;
                    assert_eq!(set.take(k), model.remove(k), "n = {n}");
                } else if !absent.is_empty() {
                    let h = absent[rng.below(absent.len() as u64) as usize];
                    set.insert(h);
                    let at = model.partition_point(|&m| m < h);
                    model.insert(at, h);
                }
            }
            let members: Vec<usize> = (0..n)
                .filter(|&h| set.words[h / 64] >> (h % 64) & 1 == 1)
                .collect();
            assert_eq!(members, model, "n = {n}: bitset");
        }
    }

    /// The sampler tests' setting: 64 tags in 16-slot frames, so a slot
    /// holds 4 tags on average and the frame's last slot takes the rest.
    const SAMPLER_TAGS: usize = 64;
    const SAMPLER_Q: u8 = 4;

    /// Pearson's χ² of `observed` counts against `expected` ones, bins
    /// pooled in order until each expected count is ≥ 5 (a short tail
    /// joins the last bin): the statistic and its 1 % critical value.
    fn chi_square_fit(observed: &[u64], expected: &[f64]) -> (f64, f64) {
        let mut bins: Vec<(f64, f64)> = Vec::new();
        let mut open = (0.0, 0.0);
        for (&o, &e) in observed.iter().zip(expected) {
            open = (open.0 + o as f64, open.1 + e);
            if open.1 >= 5.0 {
                bins.push(std::mem::take(&mut open));
            }
        }
        let last = bins.last_mut().expect("an expected count of at least 5");
        last.0 += open.0;
        last.1 += open.1;
        let statistic = bins.iter().map(|&(o, e)| (o - e) * (o - e) / e).sum();
        (statistic, chi_square_critical_1pct(bins.len() - 1))
    }

    /// The lazy draw itself: every slot of an `F`-slot frame over `m` tags
    /// holds Binomial(m, 1/F) of them, the first slots included. The
    /// counts of the first four slots of 20 000 fresh frames must fit that
    /// law. (The whole-run equivalence gate cannot see a skewed slot
    /// probability at this size; the Q adaptation absorbs it.)
    #[test]
    fn lazy_slot_occupancy_is_binomial() {
        const FRAMES: u64 = 20_000;
        const SLOTS: u64 = 4;
        let frame = 1u64 << SAMPLER_Q;
        let pop = TagPopulation::sequential(SAMPLER_TAGS, |i| BitVec::from_value(i as u64, 8));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(5));
        let mut draw = LazyFrame::default();
        draw.rebuild(&ctx.population);
        let mut observed = vec![0u64; SAMPLER_TAGS + 1];
        for _ in 0..FRAMES {
            draw.open_frame(&mut ctx, frame);
            for slot in 0..SLOTS {
                observed[draw.occupants(&mut ctx, slot).len()] += 1;
            }
            draw.close_frame(&ctx.population);
        }
        // Binomial(m, p) probabilities of 0..=m, each from the one before.
        let p = 1.0 / frame as f64;
        let mut pmf = vec![(1.0 - p).powi(SAMPLER_TAGS as i32)];
        for k in 0..SAMPLER_TAGS {
            pmf.push(pmf[k] * (SAMPLER_TAGS - k) as f64 / (k + 1) as f64 * p / (1.0 - p));
        }
        let expected: Vec<f64> = pmf.iter().map(|q| q * (FRAMES * SLOTS) as f64).collect();
        let (statistic, critical) = chi_square_fit(&observed, &expected);
        assert!(
            statistic <= critical,
            "slot occupancy χ² {statistic} over {critical}: {observed:?}"
        );
    }

    /// The first frame at a fixed Q against its exact expectation: each of
    /// its `F` slots is empty with probability (1 − 1/F)^m, a singleton
    /// with (m/F)·(1 − 1/F)^(m−1), and a collision otherwise. Summed over
    /// 5 000 runs, the three counts must fit those shares.
    #[test]
    fn first_frame_outcomes_match_their_expectation() {
        const RUNS: u64 = 5_000;
        // A C this small never moves round(Q_fp): no QueryAdjust cuts the
        // frame short.
        let cfg = QAlgorithmConfig {
            initial_q: SAMPLER_Q,
            c: 1e-9,
            ..QAlgorithmConfig::default()
        };
        let frame = 1u64 << SAMPLER_Q;
        let mut observed = [0u64; 3];
        for seed in 0..RUNS {
            let pop = TagPopulation::sequential(SAMPLER_TAGS, |i| BitVec::from_value(i as u64, 8));
            let mut ctx = SimContext::new(pop, &SimConfig::paper(split_seed(3, seed)));
            cfg.open_stepper(&ctx).step(&mut ctx);
            let c = ctx.counters;
            assert_eq!(c.empty_slots + c.polls + c.collision_slots, frame);
            for (total, n) in observed
                .iter_mut()
                .zip([c.empty_slots, c.polls, c.collision_slots])
            {
                *total += n;
            }
        }
        let (m, f) = (SAMPLER_TAGS as i32, frame as f64);
        let empty = (1.0 - 1.0 / f).powi(m);
        let single = m as f64 / f * (1.0 - 1.0 / f).powi(m - 1);
        let slots = (RUNS * frame) as f64;
        let expected = [empty, single, 1.0 - empty - single].map(|share| share * slots);
        let (statistic, critical) = chi_square_fit(&observed, &expected);
        assert!(
            statistic <= critical,
            "first-frame χ² {statistic} over {critical}: {observed:?} against {expected:?}"
        );
    }

    /// What the equivalence gate compares of one run: slots per tag,
    /// frames, empty slots and collision slots.
    struct Shape {
        slots_per_tag: f64,
        frames: u64,
        empty: u64,
        collisions: u64,
    }

    fn shape(protocol: &dyn PollingProtocol, n: usize, seed: u64, lossy: bool) -> Shape {
        let pop = TagPopulation::sequential(n, |i| BitVec::from_value(i as u64 & 0xFFFF, 16));
        let mut cfg = SimConfig::paper(seed);
        if lossy {
            cfg = cfg.with_channel(Channel::lossy(0.15));
        }
        let mut ctx = SimContext::new(pop, &cfg);
        let c = protocol.run(&mut ctx).counters;
        Shape {
            slots_per_tag: (c.polls + c.empty_slots + c.collision_slots) as f64 / n as f64,
            frames: c.rounds,
            empty: c.empty_slots,
            collisions: c.collision_slots,
        }
    }

    /// `SEEDS` runs of `protocol` at `n` tags on seeds drawn from `stream`,
    /// split over `workers` threads.
    fn sample(
        protocol: &dyn PollingProtocol,
        n: usize,
        lossy: bool,
        stream: u64,
        workers: u64,
    ) -> Vec<Shape> {
        const SEEDS: u64 = 200;
        std::thread::scope(|s| {
            let parts: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        (w * SEEDS / workers..(w + 1) * SEEDS / workers)
                            .map(|i| shape(protocol, n, split_seed(stream, i), lossy))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            parts
                .into_iter()
                .flat_map(|p| p.join().expect("sampling thread"))
                .collect()
        })
    }

    /// Gates the lazy draw against the eager oracle at `n` tags, clean and
    /// at 15 % reply loss: 200 seeds a side, from disjoint seed streams.
    /// Every comparison is a two-sample test at the 1 % level:
    /// Kolmogorov–Smirnov on slots per tag, χ² homogeneity on the frame,
    /// empty-slot and collision-slot counts.
    fn assert_lazy_matches_eager(n: usize) {
        let lazy = QAlgorithmConfig::default();
        let eager = EagerQAlgorithm(lazy);
        for lossy in [false, true] {
            // The eager runs cost O(remaining) a frame: two threads.
            let (a, b) = std::thread::scope(|s| {
                let a = s.spawn(|| sample(&lazy, n, lossy, 1, 1));
                let b = sample(&eager, n, lossy, 2, 2);
                (a.join().expect("lazy runs"), b)
            });
            let per_tag = |x: &[Shape]| x.iter().map(|r| r.slots_per_tag).collect::<Vec<_>>();
            let counts = |x: &[Shape], f: fn(&Shape) -> u64| x.iter().map(f).collect::<Vec<_>>();
            let homogeneity =
                |f: fn(&Shape) -> u64| chi_square_homogeneity(&counts(&a, f), &counts(&b, f));
            let tests = [
                ("slots per tag", ks_two_sample(&per_tag(&a), &per_tag(&b))),
                ("frames", homogeneity(|r| r.frames)),
                ("empty slots", homogeneity(|r| r.empty)),
                ("collision slots", homogeneity(|r| r.collisions)),
            ];
            for (what, test) in tests {
                assert!(
                    !test.rejects(),
                    "n = {n}, lossy: {lossy}: {what} differ: {test:?}"
                );
            }
        }
    }

    #[test]
    fn lazy_frames_match_the_eager_draw_at_64_tags() {
        assert_lazy_matches_eager(64);
    }

    /// 800 eager runs at up to 5 000 tags take about 30 s optimized and
    /// ten minutes unoptimized, so this gate runs in release builds
    /// (`scripts/verify.sh` runs the crate's tests with `--release`).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "runs with --release")]
    fn lazy_frames_match_the_eager_draw_at_1000_and_5000_tags() {
        assert_lazy_matches_eager(1_000);
        assert_lazy_matches_eager(5_000);
    }
}
