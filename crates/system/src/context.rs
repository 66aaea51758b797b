//! The simulation context a protocol drives.
//!
//! [`SimContext`] owns everything one protocol run touches — the link
//! parameters, the clock, the tag population, the channel, the RNG, the
//! event log and the counters — and exposes the composite operations with
//! correct C1G2 time accounting:
//!
//! * [`SimContext::poll_tag`] — one polling exchange: reader transmits the
//!   (QueryRep +) polling vector, waits `T1`, then the addressed tag's reply
//!   resolves as a slot with one replier (payload, then `T2`),
//! * [`SimContext::slot`] — one contention slot for the frame-based
//!   baselines and the identification protocols, resolving
//!   empty/singleton/collision with their distinct costs,
//! * [`SimContext::reader_tx`] — bulk reader broadcasts (round initiations,
//!   circle commands, indicator vectors).
//!
//! Every operation updates [`Counters`], from which protocol reports derive
//! the paper's metrics (average polling-vector length, total execution
//! time, slot-waste fractions).

use rfid_c1g2::commands::{CIRCLE_COMMAND_BITS, ROUND_INIT_BITS};
use rfid_c1g2::{Clock, LinkParams, Micros, TimeCategory};
use rfid_hash::Xoshiro256;

use crate::channel::{Channel, SlotOutcome};
use crate::event::{BroadcastKind, Event, EventLog, TimedEvent};
use crate::fault::FaultModel;
use crate::json::{Json, JsonError, ToJson};
use crate::packed::{pack_codes, pack_varints, unpack_codes, unpack_varints};
use crate::population::{TagPopulation, TagState};
use crate::round_index::RoundIndex;
use crate::span::SpanProfiler;

/// Configuration for a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Channel model.
    pub channel: Channel,
    /// Bidirectional fault model (downlink loss, corruption, bursts, plans).
    pub fault: FaultModel,
    /// Master seed for all randomness in the run.
    pub seed: u64,
    /// Whether to record an event trace (every event, in order). A
    /// snapshot carries the trace exactly when this is on.
    pub trace: bool,
    /// Whether to record hierarchical profiling spans
    /// ([`crate::SpanProfiler`]).
    pub profile: bool,
}

impl SimConfig {
    /// The paper's setting: perfect channel, no faults. The link is always
    /// the paper's C1G2 constants ([`LinkParams::paper`]).
    pub fn paper(seed: u64) -> Self {
        SimConfig {
            channel: Channel::perfect(),
            fault: FaultModel::perfect(),
            seed,
            trace: false,
            profile: false,
        }
    }

    /// Enables event tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Replaces the channel model.
    pub fn with_channel(mut self, channel: Channel) -> Self {
        self.channel = channel;
        self
    }

    /// Replaces the fault model.
    pub fn with_fault(mut self, fault: FaultModel) -> Self {
        self.fault = fault;
        self
    }

    /// Enables hierarchical span profiling (sim + wall time per scope).
    pub fn with_profile(mut self) -> Self {
        self.profile = true;
        self
    }
}

/// Aggregate counters over a protocol run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Bits the reader transmitted, total.
    pub reader_bits: u64,
    /// Bits tags transmitted, total.
    pub tag_bits: u64,
    /// Polling-vector payload bits (excluding QueryRep prefixes) — the
    /// numerator of the paper's average polling-vector length `w`.
    pub vector_bits: u64,
    /// Bits spent on fixed QueryRep/slot-advance prefixes (subtracted when
    /// computing overhead-inclusive vector metrics).
    pub query_rep_bits: u64,
    /// Successful interrogations.
    pub polls: u64,
    /// Inventory rounds started.
    pub rounds: u64,
    /// EHPP circles started.
    pub circles: u64,
    /// Empty slots observed (ALOHA baselines / lost replies).
    pub empty_slots: u64,
    /// Collision slots observed (ALOHA baselines).
    pub collision_slots: u64,
    /// Replies lost to the channel (robustness runs).
    pub lost_replies: u64,
    /// Downlink commands (round inits, circle commands, polling vectors)
    /// that a tag failed to hear.
    pub downlink_losses: u64,
    /// Replies that arrived but failed their CRC-16 check.
    pub corrupted_replies: u64,
    /// Desynchronized tags that re-joined on a later broadcast they heard.
    pub desync_recoveries: u64,
    /// NAK-triggered retransmissions after corrupted replies.
    pub retransmissions: u64,
    /// Recovery re-polling passes beyond the initial attempt.
    pub recovery_passes: u64,
    /// Microseconds of recovery backoff idled on the C1G2 clock.
    pub recovery_backoff_us: u64,
    /// Tag·microseconds of listening: each elapsed interval weighted by the
    /// number of tags still active (awake, not yet read) during it. The
    /// basis of the per-tag energy model in `rfid_analysis::energy`.
    pub tag_listen_us: f64,
}

crate::impl_json_struct!(SimConfig {
    channel,
    fault,
    seed,
    trace,
    profile
});
crate::impl_json_struct!(Counters {
    reader_bits,
    tag_bits,
    vector_bits,
    query_rep_bits,
    polls,
    rounds,
    circles,
    empty_slots,
    collision_slots,
    lost_replies,
    downlink_losses,
    corrupted_replies,
    desync_recoveries,
    retransmissions,
    recovery_passes,
    recovery_backoff_us,
    tag_listen_us,
});

impl Counters {
    /// Folds one event into the counters: broadcast bits split by
    /// [`BroadcastKind`] into total/QueryRep/vector charges, and every
    /// other counter is an event count. The single event→counter mapping —
    /// [`SimContext::emit`] applies it live, and [`Counters::from_events`]
    /// folds it over a recorded log. `tag_listen_us` is a continuous
    /// integral, not an event, and is never touched here. Every charge
    /// wraps, as [`Micros`] does: a restored snapshot may carry any count,
    /// and a debug build must not panic where a release build wraps.
    #[inline]
    pub(crate) fn apply(&mut self, event: &Event) {
        fn add(counter: &mut u64, by: u64) {
            *counter = counter.wrapping_add(by);
        }
        match *event {
            Event::RoundStarted { .. } => add(&mut self.rounds, 1),
            Event::CircleStarted { .. } => add(&mut self.circles, 1),
            Event::ReaderBroadcast { what, bits } => {
                add(&mut self.reader_bits, bits);
                if what.counts_as_query_rep() {
                    add(&mut self.query_rep_bits, bits);
                }
                if what.counts_as_vector() {
                    add(&mut self.vector_bits, bits);
                }
            }
            Event::TagPolled { .. } => add(&mut self.polls, 1),
            Event::TagReply { bits, .. } => add(&mut self.tag_bits, bits),
            Event::VectorCharged { bits } => add(&mut self.vector_bits, bits),
            Event::SlotEmpty => add(&mut self.empty_slots, 1),
            Event::SlotCollision { .. } => add(&mut self.collision_slots, 1),
            Event::ReplyLost { .. } => add(&mut self.lost_replies, 1),
            Event::DownlinkLost { .. } => add(&mut self.downlink_losses, 1),
            Event::ReplyCorrupted { .. } => add(&mut self.corrupted_replies, 1),
            Event::Retransmission { .. } => add(&mut self.retransmissions, 1),
            Event::DesyncRecovered { .. } => add(&mut self.desync_recoveries, 1),
            Event::RecoveryPassStarted { .. } => add(&mut self.recovery_passes, 1),
            Event::BackoffWaited { us, .. } => add(&mut self.recovery_backoff_us, us),
            Event::StallTick { .. }
            | Event::CircuitOpened { .. }
            | Event::DeadlineReached { .. } => {}
        }
    }

    /// Replays recorded events into the counters they imply: the fold of
    /// `Counters::apply` that [`SimContext::emit`] applies live, so a
    /// complete trace folds back into its run's counters. `tag_listen_us`
    /// stays zero.
    pub fn from_events<'a, I>(events: I) -> Counters
    where
        I: IntoIterator<Item = &'a TimedEvent>,
    {
        events.into_iter().fold(Counters::default(), |mut c, te| {
            c.apply(&te.event);
            c
        })
    }

    /// Average polling-vector length `w` = vector bits per successful poll.
    pub fn mean_vector_bits(&self) -> f64 {
        if self.polls == 0 {
            0.0
        } else {
            self.vector_bits as f64 / self.polls as f64
        }
    }
}

/// Everything a protocol needs to run once.
#[derive(Debug)]
pub struct SimContext {
    /// Link-timing parameters: the paper's C1G2 constants.
    pub link: LinkParams,
    /// The accumulating clock.
    pub clock: Clock,
    /// Tags in the interrogation zone.
    pub population: TagPopulation,
    /// Channel model.
    pub(crate) channel: Channel,
    /// Bidirectional fault model.
    pub fault: FaultModel,
    /// Deterministic RNG (round seeds, channel losses, …).
    pub rng: Xoshiro256,
    /// Optional event trace.
    pub log: EventLog,
    /// Aggregate counters.
    pub counters: Counters,
    /// Hierarchical span profiler. Transient: never serialized into a
    /// snapshot (wall-time is machine-local), rebuilt from the config on
    /// restore.
    pub profiler: SpanProfiler,
    /// Per-tag downlink synchronization, one bit per handle: a set bit
    /// means the tag missed a round/circle command and stays silent until
    /// the next one it hears. Broadcast recovery walks only these bits.
    desynced_words: Vec<u64>,
    /// Number of set bits in `desynced_words` (fast emptiness check).
    desynced_count: usize,
    /// Reusable per-round singleton index (see [`RoundIndex`]).
    round_index: RoundIndex,
    /// Arena behind [`SimContext::sift_singletons`], recycled across rounds.
    singles_arena: Vec<(u64, usize)>,
    /// Pool of reusable handle buffers for protocol sweeps and the slot
    /// survivors — keeps inner loops allocation-free after warmup.
    scratch_pool: Vec<Vec<usize>>,
    /// Per-tag transmission count, maintained only when the fault plan has
    /// kill rules.
    replies_sent: Vec<u64>,
    /// Whether the fault plan contains kill rules (cached).
    has_kills: bool,
    /// Whether any fault injection is configured at all (cached; keeps the
    /// perfect path free of bookkeeping and RNG draws).
    fault_active: bool,
    /// Gilbert–Elliott channel state: `true` = bad (bursty) state.
    ge_bad: bool,
}

impl SimContext {
    /// Creates a context over a population.
    ///
    /// # Panics
    /// Panics if the channel or fault model carries an invalid rate (struct
    /// literals and JSON bypass the constructors' checks).
    pub fn new(population: TagPopulation, config: &SimConfig) -> Self {
        for check in [config.channel.try_validate(), config.fault.try_validate()] {
            check.unwrap_or_else(|msg| panic!("{msg}"));
        }
        let progress = ContextProgress::start(config, population.len());
        SimContext::restore(config, population, progress)
            .expect("a fresh progress covers its own population")
    }

    /// Draws a fresh 64-bit round seed `r` (what the reader broadcasts).
    pub fn draw_round_seed(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Swaps the fault model mid-run (the serving layer's fault injection).
    ///
    /// Validates `fault` first and rebuilds the cached flags the fast paths
    /// key on. Kill-rule reply counts carry over when both models track
    /// them; they start from zero when kill rules appear and are dropped
    /// when they disappear — matching what [`SimContext::restore`] expects
    /// when the session's stored config is updated to the injected model.
    /// The Gilbert–Elliott burst state is kept: an ongoing burst does not
    /// reset just because the operator re-tuned the rates.
    pub fn inject_fault(&mut self, fault: FaultModel) -> Result<(), String> {
        fault.try_validate()?;
        self.set_fault(fault);
        Ok(())
    }

    /// Installs `fault` with what the fast paths derive from it: the cached
    /// flags and the kill-rule reply counts (see `inject_fault`).
    fn set_fault(&mut self, fault: FaultModel) {
        self.has_kills = !fault.plan.kill_after_replies.is_empty();
        if self.has_kills {
            self.replies_sent.resize(self.population.len(), 0);
        } else {
            self.replies_sent.clear();
        }
        self.fault_active = !fault.is_perfect();
        self.fault = fault;
    }

    /// The round's singleton sift: `(H(seed, id) mod 2^h, handle)` for every
    /// index picked by exactly one active tag, ascending by index — built by
    /// the reusable `RoundIndex` in O(active).
    ///
    /// Returns the arena buffer; pass it back through
    /// [`SimContext::recycle_singletons`] when the round is done so the next
    /// round reuses its capacity instead of allocating.
    pub fn sift_singletons(&mut self, seed: u64, h: u32) -> Vec<(u64, usize)> {
        let mut singles = std::mem::take(&mut self.singles_arena);
        self.round_index
            .build_into(&self.population, seed, h, &mut singles);
        singles
    }

    /// Returns a buffer taken from [`SimContext::sift_singletons`] to the
    /// arena for reuse by the next round.
    pub fn recycle_singletons(&mut self, singles: Vec<(u64, usize)>) {
        self.singles_arena = singles;
    }

    /// Takes a reusable handle buffer from the context's scratch pool
    /// (empty, capacity retained from earlier use). Pair with
    /// [`SimContext::recycle_scratch`].
    pub fn take_scratch(&mut self) -> Vec<usize> {
        self.scratch_pool.pop().unwrap_or_default()
    }

    /// Returns a scratch buffer to the pool, keeping its capacity.
    pub fn recycle_scratch(&mut self, mut buf: Vec<usize>) {
        buf.clear();
        self.scratch_pool.push(buf);
    }

    /// Advances time by `dt` under `category`, accruing listen time for
    /// every still-active tag (tags listen continuously until read).
    #[inline]
    fn advance(&mut self, category: TimeCategory, dt: Micros) {
        self.clock.spend(category, dt);
        // Tag·ns are exact in integers; one conversion and a multiply (not
        // a divide, which this per-exchange path would feel) give tag·µs.
        let tag_ns = dt
            .as_ns()
            .wrapping_mul(self.population.listening_count() as u64);
        self.counters.tag_listen_us += tag_ns as f64 * 1e-3;
    }

    /// The one write path for counters and events: applies `event` to the
    /// [`Counters`] and, when tracing is on, records it stamped with the
    /// current simulation time. Counters and trace therefore agree by
    /// construction.
    #[inline]
    pub fn emit(&mut self, event: Event) {
        self.counters.apply(&event);
        if self.log.is_enabled() {
            let now = self.clock.total();
            self.log.record(now, event);
        }
    }

    /// Opens a profiling span named `name`, stamped with the current sim
    /// clock. No-op (clock never read) when profiling is off — callers keep
    /// the call unconditional, same discipline as [`SimContext::emit`].
    #[inline]
    pub fn span_enter(&mut self, name: &'static str) {
        if self.profiler.is_enabled() {
            let now = self.clock.total();
            self.profiler.enter(name, now);
        }
    }

    /// Closes the innermost open profiling span. No-op when profiling is
    /// off.
    #[inline]
    pub fn span_exit(&mut self) {
        if self.profiler.is_enabled() {
            let now = self.clock.total();
            self.profiler.exit(now);
        }
    }

    /// Charges a reader transmission of `bits` bits to `category`, recording
    /// a [`Event::ReaderBroadcast`] of the given kind.
    pub fn reader_tx(&mut self, kind: BroadcastKind, bits: u64, category: TimeCategory) {
        let dt = self.link.reader_tx(bits);
        self.advance(category, dt);
        self.emit(Event::ReaderBroadcast { what: kind, bits });
    }

    /// Records the start of an inventory round with index length `h`,
    /// charging the [`ROUND_INIT_BITS`]-bit `(h, r)` broadcast.
    pub fn begin_round(&mut self, h: u32) {
        self.emit(Event::RoundStarted {
            round: (self.counters.rounds as usize).wrapping_add(1),
            h,
            unread: self.population.active_count(),
        });
        self.reader_tx(
            BroadcastKind::RoundInit,
            ROUND_INIT_BITS,
            TimeCategory::ReaderCommand,
        );
        self.downlink_broadcast();
    }

    /// Records the start of an EHPP circle of `selected` tags, charging the
    /// [`CIRCLE_COMMAND_BITS`]-bit circle command `l_c`.
    pub fn begin_circle(&mut self, selected: usize) {
        self.emit(Event::CircleStarted {
            circle: (self.counters.circles as usize).wrapping_add(1),
            selected,
        });
        self.reader_tx(
            BroadcastKind::CircleCommand,
            CIRCLE_COMMAND_BITS,
            TimeCategory::ReaderCommand,
        );
        self.downlink_broadcast();
    }

    /// Delivers (or loses) a round/circle broadcast per active tag. A tag
    /// that misses it desynchronizes and stays silent; a desynchronized tag
    /// that hears it re-joins. No-op — and RNG-free — without downlink
    /// faults.
    fn downlink_broadcast(&mut self) {
        let forced = self.fault.plan.drops_downlink(self.counters.rounds);
        if !forced && self.fault.downlink_loss_rate <= 0.0 {
            if self.desynced_count > 0 {
                // Every desynchronized tag still in the zone hears this
                // broadcast and recovers: walk only the desynced ∩ active
                // bits instead of the whole population.
                for w in 0..self.desynced_words.len() {
                    let mut bits = self.desynced_words[w] & self.population.active_words()[w];
                    while bits != 0 {
                        let idx = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        self.desynced_words[w] &= !(1u64 << (idx % 64));
                        self.desynced_count -= 1;
                        self.emit(Event::DesyncRecovered { tag: idx });
                    }
                }
            }
            return;
        }
        // Faulty downlink: per-tag delivery draws, in ascending handle order
        // (the draw order is part of the determinism contract). One active
        // word is copied out at a time so no handle buffer is allocated.
        for w in 0..self.population.active_words().len() {
            let mut bits = self.population.active_words()[w];
            while bits != 0 {
                let idx = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let bit = 1u64 << (idx % 64);
                if self.misses_downlink(forced) {
                    self.emit(Event::DownlinkLost { tag: idx });
                    if self.desynced_words[w] & bit == 0 {
                        self.desynced_words[w] |= bit;
                        self.desynced_count += 1;
                    }
                } else if self.desynced_words[w] & bit != 0 {
                    self.desynced_words[w] &= !bit;
                    self.desynced_count -= 1;
                    self.emit(Event::DesyncRecovered { tag: idx });
                }
            }
        }
    }

    /// Whether a tag misses a downlink command: always when the plan jams
    /// it (`forced`), else by one draw at a positive downlink loss rate.
    fn misses_downlink(&mut self, forced: bool) -> bool {
        let rate = self.fault.downlink_loss_rate;
        forced || (rate > 0.0 && self.rng.chance(rate))
    }

    /// Whether tag `idx` heard the last round/circle command.
    #[inline]
    fn is_synced(&self, idx: usize) -> bool {
        self.desynced_words[idx / 64] & (1u64 << (idx % 64)) == 0
    }

    /// Kill-rule gate: returns `false` if `target` has left the zone, and
    /// otherwise records one more transmission from it.
    fn tag_transmits(&mut self, target: usize) -> bool {
        if !self.has_kills {
            return true;
        }
        if let Some(rule) = self.fault.plan.kill_rule_for(target) {
            if self.replies_sent[target] >= rule.after_replies {
                return false;
            }
        }
        self.replies_sent[target] += 1;
        true
    }

    /// One Gilbert–Elliott step for a reply attempt (see
    /// [`crate::GilbertElliott::attempt_lost`]). `false` when bursts are off.
    fn burst_attempt_lost(&mut self) -> bool {
        match self.fault.burst {
            Some(ge) => ge.attempt_lost(&mut self.ge_bad, &mut self.rng),
            None => false,
        }
    }

    /// The reader's view of a silent polling slot: `T3` timeout, wasted.
    fn poll_timeout(&mut self) -> bool {
        self.advance(TimeCategory::WastedSlot, self.link.t3);
        self.emit(Event::SlotEmpty);
        false
    }

    /// One polling exchange addressing tag `target` with a `vector_bits`-bit
    /// polling vector (optionally behind a 4-bit QueryRep).
    ///
    /// Each attempt is a slot whose only replier is `target`, resolved as
    /// [`SimContext::slot`] resolves one; the exchange adds the downlink
    /// gate and NAK retries of a corrupted reply.
    ///
    /// Returns `true` if the reply was received (the tag is then asleep) or
    /// `false` if the channel lost it (the tag stays active; a correct
    /// protocol retries in a later round).
    ///
    /// # Panics
    /// Panics if `target` is not active — addressing a slept tag is a
    /// protocol bug the simulator refuses to mask.
    pub fn poll_tag(&mut self, vector_bits: u64, with_query_rep: bool, target: usize) -> bool {
        #[cfg(debug_assertions)]
        let scans_at_entry = self.population.scan_epoch();
        self.span_enter("poll");
        let delivered = self.poll_tag_inner(vector_bits, with_query_rep, target);
        self.span_exit();
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            scans_at_entry,
            self.population.scan_epoch(),
            "slot handler iterated the full population"
        );
        delivered
    }

    fn poll_tag_inner(&mut self, vector_bits: u64, with_query_rep: bool, target: usize) -> bool {
        assert!(
            self.population.is_active(target),
            "polling inactive tag {target}"
        );
        if with_query_rep {
            self.reader_tx(
                BroadcastKind::QueryRep,
                rfid_c1g2::QUERY_REP_BITS,
                TimeCategory::ReaderCommand,
            );
        }
        self.reader_tx(
            BroadcastKind::PollingVector,
            vector_bits,
            TimeCategory::PollingVector,
        );
        self.advance(TimeCategory::Turnaround, self.link.t1);

        if self.fault_active {
            // A desynchronized tag never recognised this round's commands
            // and stays silent; the reader times out and retries it in a
            // later round (after the tag re-joins).
            if !self.is_synced(target) {
                return self.poll_timeout();
            }
            // The polling vector itself can be missed on the downlink.
            if self.misses_downlink(self.fault.plan.drops_downlink(self.counters.rounds)) {
                self.emit(Event::DownlinkLost { tag: target });
                return self.poll_timeout();
            }
        }

        let mut attempts: u32 = 0;
        loop {
            // A killed, jammed or lost reply is indistinguishable from a
            // silent tag, so the reader does not NAK; the protocol retries
            // in a later round.
            let outcome = self.resolve_slot(&[target]);
            if outcome == SlotOutcome::Empty {
                return self.poll_timeout();
            }
            // The reply arrives and occupies the air either way.
            let info_bits = self.population.info_bits() as u64;
            self.advance(TimeCategory::TagReply, self.link.tag_tx(info_bits));
            self.emit(Event::TagReply {
                tag: target,
                bits: info_bits,
            });
            self.advance(TimeCategory::Turnaround, self.link.t2);
            if outcome.is_singleton() {
                self.population.sleep(target);
                self.emit(Event::TagPolled {
                    tag: target,
                    vector_bits,
                });
                return true;
            }
            self.emit(Event::ReplyCorrupted { tag: target });
            if attempts >= self.fault.max_poll_retries {
                // Retry budget exhausted: give up this exchange, leave the
                // tag active for a later round.
                return false;
            }
            attempts += 1;
            self.emit(Event::Retransmission {
                tag: target,
                attempt: attempts,
            });
            self.reader_tx(
                BroadcastKind::Nak,
                rfid_c1g2::NAK_BITS,
                TimeCategory::ReaderCommand,
            );
            self.advance(TimeCategory::Turnaround, self.link.t1);
        }
    }

    /// One contention slot: the reader transmits `prefix_bits` (e.g. a
    /// QueryRep), waits `T1`, and the given tags reply concurrently.
    ///
    /// Each reply occupies the air for `reply_bits` when given (an RN16, an
    /// ID plus CRC, a prefix remainder), or for the population's payload
    /// width when `None`. Every reply the channel or a fault drops emits
    /// [`Event::ReplyLost`], as in [`SimContext::poll_tag`].
    ///
    /// On a singleton the reply is received and `T2` elapses, but the tag
    /// is *not* marked read — the caller decides (MIC reads it; plain ALOHA
    /// might need an ACK first) via [`SimContext::mark_read`].
    pub fn slot(
        &mut self,
        repliers: &[usize],
        prefix_bits: u64,
        reply_bits: Option<u64>,
    ) -> SlotOutcome {
        #[cfg(debug_assertions)]
        let scans_at_entry = self.population.scan_epoch();
        self.span_enter("slot");
        let outcome = self.slot_inner(repliers, prefix_bits, reply_bits);
        self.span_exit();
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            scans_at_entry,
            self.population.scan_epoch(),
            "slot handler iterated the full population"
        );
        outcome
    }

    fn slot_inner(
        &mut self,
        repliers: &[usize],
        prefix_bits: u64,
        reply_bits: Option<u64>,
    ) -> SlotOutcome {
        if prefix_bits > 0 {
            self.reader_tx(
                BroadcastKind::SlotPrefix,
                prefix_bits,
                TimeCategory::ReaderCommand,
            );
        }
        self.advance(TimeCategory::Turnaround, self.link.t1);
        let outcome = self.resolve_slot(repliers);
        let bits = reply_bits.unwrap_or(self.population.info_bits() as u64);
        match outcome {
            SlotOutcome::Empty => {
                self.advance(TimeCategory::WastedSlot, self.link.t3);
                self.emit(Event::SlotEmpty);
            }
            SlotOutcome::Singleton(tag) => {
                self.advance(TimeCategory::TagReply, self.link.tag_tx(bits));
                self.emit(Event::TagReply { tag, bits });
                self.advance(TimeCategory::Turnaround, self.link.t2);
            }
            SlotOutcome::Collision(count) => {
                // The colliding replies occupy the air for one reply,
                // then the reader recovers with T2.
                self.advance(TimeCategory::WastedSlot, self.link.tag_tx(bits));
                self.advance(TimeCategory::Turnaround, self.link.t2);
                self.emit(Event::SlotCollision { count });
            }
            SlotOutcome::Corrupted(tag) => {
                // The reply filled its slot but failed the CRC; the caller
                // sees the tag undecoded and retries it in a later frame
                // (frame slots carry no NAK handshake).
                self.advance(TimeCategory::WastedSlot, self.link.tag_tx(bits));
                self.advance(TimeCategory::Turnaround, self.link.t2);
                self.emit(Event::ReplyCorrupted { tag });
            }
        }
        outcome
    }

    /// Which replies of a slot or polling attempt reach the reader. The
    /// impaired path is out of line, so this check inlines into hot loops.
    #[inline]
    fn resolve_slot(&mut self, repliers: &[usize]) -> SlotOutcome {
        if !self.fault_active && self.channel.reply_loss_rate == 0.0 {
            return self.channel.resolve(repliers, &mut self.rng);
        }
        self.resolve_impaired_slot(repliers)
    }

    /// `resolve_slot` under faults or loss, drawing in a fixed order: the
    /// fault filters (desynchronized and killed tags stay silent, scripted
    /// jams and bursts drop replies), then the channel's i.i.d. loss, then
    /// capture, then corruption of a surviving singleton. The survivors
    /// live in recycled scratch, so a slot allocates nothing once warm.
    #[inline(never)]
    fn resolve_impaired_slot(&mut self, repliers: &[usize]) -> SlotOutcome {
        let loss = self.channel.reply_loss_rate;
        let mut survivors = self.take_scratch();
        if self.fault_active {
            let forced_up = self.fault.plan.drops_uplink(self.counters.rounds);
            for &t in repliers {
                if !self.is_synced(t) || !self.tag_transmits(t) {
                    continue;
                }
                if forced_up || self.burst_attempt_lost() {
                    self.emit(Event::ReplyLost { tag: t });
                    continue;
                }
                survivors.push(t);
            }
        } else {
            survivors.extend_from_slice(repliers);
        }
        if loss > 0.0 {
            survivors.retain(|&t| {
                let lost = self.rng.chance(loss);
                if lost {
                    self.emit(Event::ReplyLost { tag: t });
                }
                !lost
            });
        }
        // A corrupted reply always fails the reader's CRC-16 check: CRC-16
        // detects every single-bit error (`rfid_c1g2::crc`'s tests).
        let outcome = match self.channel.resolve(&survivors, &mut self.rng) {
            SlotOutcome::Singleton(tag)
                if self.fault.corruption_rate > 0.0
                    && self.rng.chance(self.fault.corruption_rate) =>
            {
                SlotOutcome::Corrupted(tag)
            }
            outcome => outcome,
        };
        self.recycle_scratch(survivors);
        outcome
    }

    /// Marks `tag` successfully read after a singleton slot.
    pub fn mark_read(&mut self, tag: usize) {
        self.population.sleep(tag);
        self.emit(Event::TagPolled {
            tag,
            vector_bits: 0,
        });
    }

    /// Waits for `dt` attributed to `category` (protocol-specific gaps).
    pub fn wait(&mut self, category: TimeCategory, dt: Micros) {
        self.advance(category, dt);
    }

    /// Records the start of recovery re-polling pass `pass` (1-based; pass 1
    /// is the initial attempt and is *not* recorded — recovery is zero-cost
    /// when nothing fails) over `uncollected` remaining tags.
    pub fn note_recovery_pass(&mut self, pass: u64, uncollected: usize) {
        self.emit(Event::RecoveryPassStarted { pass, uncollected });
    }

    /// Idles `us` microseconds of recovery backoff on the C1G2 clock after
    /// stalled pass `pass`, charging it as wasted slot time so it shows up
    /// in execution-time results.
    pub fn charge_recovery_backoff(&mut self, pass: u64, us: u64) {
        self.advance(
            TimeCategory::WastedSlot,
            Micros::from_ns(us.saturating_mul(1_000)),
        );
        self.emit(Event::BackoffWaited { pass, us });
    }

    /// Records the recovery circuit breaker opening after `passes` passes
    /// with `uncollected` tags still unread.
    pub fn note_circuit_opened(&mut self, passes: u64, uncollected: usize) {
        self.emit(Event::CircuitOpened {
            passes,
            uncollected,
        });
    }

    /// Handles of tags never successfully read (active or deselected) — the
    /// `uncollected` list of a stalled run's partial report.
    pub fn uncollected_handles(&self) -> Vec<usize> {
        (0..self.population.len())
            .filter(|&idx| self.population.state(idx) != TagState::Asleep)
            .collect()
    }

    /// Asserts the run completed correctly: every tag read exactly once.
    ///
    /// # Panics
    /// Panics (with diagnostics) if any tag is still awake or the poll count
    /// disagrees with the population size.
    pub fn assert_complete(&self) {
        assert!(
            self.population.all_asleep(),
            "{} of {} tags were never interrogated",
            self.population.len() - self.population.asleep_count(),
            self.population.len()
        );
        assert_eq!(
            self.counters.polls as usize,
            self.population.len(),
            "poll count disagrees with population size"
        );
    }

    /// Serializes the run's *progress* for a session checkpoint: the
    /// mutable state, not the population's identity.
    ///
    /// Captures everything whose value depends on how far the run has
    /// progressed: the RNG stream position, the clock (its breakdown, whose
    /// sum is the total), the counters, the recorded `events` (only when the
    /// config traces), the Gilbert–Elliott channel state, and three per-tag vectors packed as
    /// hex ([`crate::packed`]): `state` (each tag's [`TagState`] as a 2-bit
    /// code), `synced` (1 bit per tag, set while the tag hears the
    /// downlink) and, only when the fault plan has kill rules,
    /// `replies_sent` (varints). Tag IDs and payloads are *not* captured —
    /// the caller stores where the population comes from — nor are the
    /// transient caches (`RoundIndex`, arenas, scratch pool) and the
    /// [`SpanProfiler`]: the caches never carry state across a protocol
    /// step, only capacity, and profiler wall-times are machine-local.
    ///
    /// Pair with [`ContextProgress::decode`] and [`SimContext::restore`],
    /// which need the same [`SimConfig`] the context was created with.
    pub fn snapshot(&self) -> Json {
        let synced = (0..self.population.len()).map(|idx| u8::from(self.is_synced(idx)));
        let mut fields = vec![
            (
                "rng".to_string(),
                Json::Arr(self.rng.state().iter().map(|&w| Json::UInt(w)).collect()),
            ),
            ("clock".to_string(), self.clock.to_json()),
            ("counters".to_string(), self.counters.to_json()),
            (
                "state".to_string(),
                Json::Str(self.population.packed_states()),
            ),
            ("synced".to_string(), Json::Str(pack_codes(synced, 1))),
        ];
        if self.log.is_enabled() {
            fields.push((
                "events".to_string(),
                Json::Arr(self.log.events().iter().map(ToJson::to_json).collect()),
            ));
        }
        if self.has_kills {
            fields.push((
                "replies_sent".to_string(),
                Json::Str(pack_varints(&self.replies_sent)),
            ));
        }
        fields.push(("ge_bad".to_string(), self.ge_bad.to_json()));
        Json::Obj(fields)
    }

    /// Rebuilds a context from a decoded [`SimContext::snapshot`] and the
    /// population it was taken over, freshly built (every tag active) from
    /// wherever the caller keeps its identity. `config` must be the
    /// [`SimConfig`] `progress` was decoded against.
    ///
    /// Everything the snapshot does not carry (channel and fault models,
    /// cached flags, empty arenas) is rederived from `config`, and the link
    /// is the paper's;
    /// [`SimContext::new`] is this restore from `ContextProgress::start`.
    /// The restored context continues the run bit-identically: same RNG
    /// draws, same clock bits, same trace. A population of another size
    /// than the one `progress` was checked against is a typed error.
    pub fn restore(
        config: &SimConfig,
        mut population: TagPopulation,
        progress: ContextProgress,
    ) -> Result<SimContext, JsonError> {
        let n = progress.n;
        if population.len() != n {
            return Err(JsonError(format!(
                "snapshot progress covers {n} tags, the population has {}",
                population.len()
            )));
        }
        population.restore_states(progress.states);
        let desynced_count = progress
            .desynced_words
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        // Built fault-free; the config's model goes in as `inject_fault`'s does.
        let mut ctx = SimContext {
            link: LinkParams::paper(),
            clock: progress.clock,
            population,
            channel: config.channel,
            fault: FaultModel::perfect(),
            rng: progress.rng,
            log: progress.log,
            counters: progress.counters,
            profiler: if config.profile {
                SpanProfiler::enabled()
            } else {
                SpanProfiler::disabled()
            },
            desynced_words: progress.desynced_words,
            desynced_count,
            round_index: RoundIndex::new(),
            singles_arena: Vec::new(),
            scratch_pool: Vec::new(),
            replies_sent: progress.replies_sent,
            has_kills: false,
            fault_active: false,
            ge_bad: progress.ge_bad,
        };
        ctx.set_fault(config.fault.clone());
        Ok(ctx)
    }
}

/// A run's progress, not yet applied to a population: a decoded
/// [`SimContext::snapshot`], or the start of a fresh run.
///
/// Decoding is the hostile-input gate of a restore: every packed vector's
/// length is checked against `n` before anything of size `n` is allocated,
/// so a caller can validate a snapshot that *names* a huge population
/// without building it, and build it only once the snapshot is known to
/// fit.
#[derive(Debug)]
pub struct ContextProgress {
    n: usize,
    rng: Xoshiro256,
    clock: Clock,
    counters: Counters,
    log: EventLog,
    // At the start of a run `states` and `replies_sent` are empty: every
    // tag is active, and the installed fault model sizes the reply counts.
    states: Vec<TagState>,
    desynced_words: Vec<u64>,
    replies_sent: Vec<u64>,
    ge_bad: bool,
}

impl ContextProgress {
    /// The progress of a run over `n` tags that has not started: the
    /// seeded RNG, a zero clock and counters, an empty trace if the config
    /// traces, every tag active and synchronized.
    fn start(config: &SimConfig, n: usize) -> ContextProgress {
        ContextProgress {
            n,
            rng: Xoshiro256::seed_from_u64(config.seed),
            clock: Clock::new(),
            counters: Counters::default(),
            log: if config.trace {
                EventLog::enabled()
            } else {
                EventLog::disabled()
            },
            states: Vec::new(),
            desynced_words: vec![0; n.div_ceil(64)],
            replies_sent: Vec::new(),
            ge_bad: false,
        }
    }

    /// Decodes a [`SimContext::snapshot`] document for a population of `n`
    /// tags, run under `config`.
    ///
    /// Malformed snapshots — wrong RNG shape, an all-zero RNG state, packed
    /// vectors that do not hold exactly `n` entries (bad hex digits,
    /// nonzero padding, the unused state code 3, overlong or trailing
    /// varints), a `replies_sent` vector present without kill rules or
    /// missing with them, `events` present without `config.trace` or
    /// missing with it — produce typed errors, never panics.
    pub fn decode(config: &SimConfig, json: &Json, n: usize) -> Result<ContextProgress, JsonError> {
        // The config may itself come from untrusted snapshot bytes: reject
        // smuggled NaN/out-of-range rates with an error, not a panic.
        config
            .channel
            .try_validate()
            .map_err(|msg| JsonError(format!("invalid channel in snapshot config: {msg}")))?;
        config
            .fault
            .try_validate()
            .map_err(|msg| JsonError(format!("invalid fault model in snapshot config: {msg}")))?;
        let rng_words: Vec<u64> = json.field("rng")?;
        let rng: [u64; 4] = rng_words
            .as_slice()
            .try_into()
            .map_err(|_| JsonError(format!("rng state has {} words, need 4", rng_words.len())))?;
        if rng == [0; 4] {
            return Err(JsonError("all-zero rng state is invalid".to_string()));
        }
        let packed = |key: &str| -> Result<&str, JsonError> {
            json.get(key)
                .ok_or_else(|| JsonError(format!("missing field '{key}'")))?
                .as_str()
                .map_err(|e| JsonError(format!("in field '{key}': {}", e.0)))
        };
        let states = unpack_codes(packed("state")?, n, 2, "state")?
            .into_iter()
            .map(TagState::from_code)
            .collect::<Option<Vec<TagState>>>()
            .ok_or_else(|| JsonError("state holds the unused code 3".to_string()))?;
        let mut desynced_words = vec![0u64; n.div_ceil(64)];
        for (idx, bit) in unpack_codes(packed("synced")?, n, 1, "synced")?
            .into_iter()
            .enumerate()
        {
            desynced_words[idx / 64] |= u64::from(bit == 0) << (idx % 64);
        }
        let has_kills = !config.fault.plan.kill_after_replies.is_empty();
        let replies_sent = match (has_kills, json.get("replies_sent")) {
            (true, Some(_)) => unpack_varints(packed("replies_sent")?, n, "replies_sent")?,
            (false, None) => Vec::new(),
            (true, None) => {
                return Err(JsonError(
                    "missing field 'replies_sent' under kill rules".to_string(),
                ))
            }
            (false, Some(_)) => {
                return Err(JsonError(
                    "replies_sent present but the fault plan has no kill rules".to_string(),
                ))
            }
        };
        let log = match (config.trace, json.get("events")) {
            (true, Some(_)) => EventLog::resumed(json.field("events")?),
            (false, None) => EventLog::disabled(),
            (true, None) => {
                return Err(JsonError(
                    "missing field 'events' under a traced config".to_string(),
                ))
            }
            (false, Some(_)) => {
                return Err(JsonError(
                    "events present but the config does not trace".to_string(),
                ))
            }
        };
        Ok(ContextProgress {
            n,
            rng: Xoshiro256::from_state(rng),
            clock: json.field("clock")?,
            counters: json.field("counters")?,
            log,
            states,
            desynced_words,
            replies_sent,
            ge_bad: json.field("ge_bad")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::BitVec;

    /// The active handles, in ascending order.
    fn active(population: &TagPopulation) -> Vec<usize> {
        let mut out = Vec::new();
        population.collect_active_into(&mut out);
        out
    }

    fn ctx(n: usize, info_bits: usize) -> SimContext {
        let pop =
            TagPopulation::sequential(n, |i| BitVec::from_value((i % 2) as u64, info_bits.max(1)));
        SimContext::new(pop, &SimConfig::paper(7))
    }

    #[test]
    fn poll_tag_charges_the_paper_formula() {
        let mut c = ctx(1, 1);
        assert!(c.poll_tag(3, true, 0));
        // 37.45*(4+3) + 100 + 25*1 + 50
        assert_eq!(
            c.clock.total().as_ns(),
            37_450 * 7 + 100_000 + 25_000 + 50_000
        );
        assert_eq!(c.counters.polls, 1);
        assert_eq!(c.counters.vector_bits, 3);
        assert_eq!(c.counters.reader_bits, 7);
        assert_eq!(c.counters.tag_bits, 1);
        c.assert_complete();
    }

    #[test]
    fn poll_without_query_rep_omits_prefix() {
        let mut c = ctx(1, 1);
        assert!(c.poll_tag(96, false, 0));
        assert_eq!(c.clock.total().as_ns(), 37_450 * 96 + 175_000);
    }

    #[test]
    #[should_panic(expected = "polling inactive tag")]
    fn polling_slept_tag_panics() {
        let mut c = ctx(2, 1);
        c.poll_tag(1, true, 0);
        c.poll_tag(1, true, 0);
    }

    #[test]
    fn lossy_poll_leaves_tag_active() {
        let pop = TagPopulation::sequential(1, |_| BitVec::from_str_bits("1"));
        let cfg = SimConfig::paper(3).with_channel(Channel::lossy(1.0));
        let mut c = SimContext::new(pop, &cfg);
        assert!(!c.poll_tag(5, true, 0));
        assert!(c.population.is_active(0));
        assert_eq!(c.counters.lost_replies, 1);
        assert_eq!(c.counters.polls, 0);
    }

    #[test]
    fn slot_outcomes_charge_distinct_costs() {
        let mut c = ctx(3, 8);
        let t_empty = {
            let before = c.clock.total();
            c.slot(&[], 4, None);
            c.clock.total() - before
        };
        let t_single = {
            let before = c.clock.total();
            let out = c.slot(&[0], 4, None);
            assert!(out.is_singleton());
            c.clock.total() - before
        };
        let t_coll = {
            let before = c.clock.total();
            c.slot(&[1, 2], 4, None);
            c.clock.total() - before
        };
        // Empty slots are the cheapest; singleton and collision both carry
        // a payload-length air occupancy.
        assert!(t_empty < t_single);
        assert!(t_empty < t_coll);
        assert_eq!(c.counters.empty_slots, 1);
        assert_eq!(c.counters.collision_slots, 1);
    }

    #[test]
    fn lossy_channel_drops_expected_fraction() {
        let pop = TagPopulation::sequential(1, |_| BitVec::from_str_bits("1"));
        let cfg = SimConfig::paper(1).with_channel(Channel::lossy(0.25));
        let mut c = SimContext::new(pop, &cfg);
        let lost = (0..100_000)
            .filter(|_| c.slot(&[0], 0, None) == SlotOutcome::Empty)
            .count();
        let rate = lost as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "loss rate {rate}");
        assert_eq!(c.counters.lost_replies, lost as u64);
    }

    #[test]
    fn loss_can_demote_collision_to_singleton() {
        let pop = TagPopulation::sequential(10, |_| BitVec::from_str_bits("1"));
        let cfg = SimConfig::paper(1).with_channel(Channel::lossy(0.5));
        let mut c = SimContext::new(pop, &cfg);
        let mut saw_singleton = false;
        let mut saw_collision = false;
        for _ in 0..1_000 {
            match c.slot(&[4, 9], 0, None) {
                SlotOutcome::Singleton(t) => {
                    assert!(t == 4 || t == 9);
                    saw_singleton = true;
                }
                SlotOutcome::Collision(2) => saw_collision = true,
                SlotOutcome::Empty => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(saw_singleton && saw_collision);
    }

    #[test]
    fn lossy_slot_counts_every_dropped_reply() {
        let pop = TagPopulation::sequential(8, |_| BitVec::from_str_bits("1"));
        let cfg = SimConfig::paper(5)
            .with_channel(Channel::lossy(0.4))
            .with_trace();
        let mut c = SimContext::new(pop, &cfg);
        let all: Vec<usize> = (0..8).collect();
        let mut dropped = 0;
        for _ in 0..500 {
            let heard = match c.slot(&all, 4, Some(16)) {
                SlotOutcome::Empty => 0,
                SlotOutcome::Singleton(_) | SlotOutcome::Corrupted(_) => 1,
                SlotOutcome::Collision(k) => k,
            };
            dropped += all.len() - heard;
        }
        assert!(dropped > 0);
        assert_eq!(c.counters.lost_replies, dropped as u64);
        let traced = c
            .log
            .events()
            .iter()
            .filter(|e| matches!(e.event, Event::ReplyLost { .. }))
            .count();
        assert_eq!(traced, dropped);
    }

    #[test]
    fn fixed_reply_bits_override_the_payload() {
        let mut c = ctx(3, 8);
        let before = c.clock.total();
        assert!(c.slot(&[0], 0, Some(16)).is_singleton());
        assert_eq!(
            c.clock.total() - before,
            c.link.t1 + c.link.tag_tx(16) + c.link.t2
        );
        let before = c.clock.total();
        c.slot(&[1, 2], 0, Some(112));
        assert_eq!(
            c.clock.total() - before,
            c.link.t1 + c.link.tag_tx(112) + c.link.t2
        );
        assert_eq!(c.counters.tag_bits, 16);
    }

    #[test]
    fn mark_read_completes_inventory() {
        let mut c = ctx(2, 1);
        for t in 0..2 {
            match c.slot(&[t], 4, None) {
                SlotOutcome::Singleton(tag) => c.mark_read(tag),
                other => panic!("unexpected {other:?}"),
            }
        }
        c.assert_complete();
        assert_eq!(c.counters.mean_vector_bits(), 0.0);
    }

    #[test]
    fn mean_vector_bits_averages_over_polls() {
        let mut c = ctx(2, 1);
        c.poll_tag(10, true, 0);
        c.poll_tag(2, true, 1);
        assert_eq!(c.counters.mean_vector_bits(), 6.0);
    }

    #[test]
    #[should_panic(expected = "never interrogated")]
    fn assert_complete_catches_missed_tags() {
        let c = ctx(2, 1);
        c.assert_complete();
    }

    #[test]
    fn scripted_downlink_drop_desyncs_then_recovers() {
        use crate::fault::{FaultModel, FaultPlan, RoundRange};
        let pop = TagPopulation::sequential(2, |_| BitVec::from_str_bits("1"));
        let plan = FaultPlan {
            drop_downlink_rounds: vec![RoundRange { from: 1, to: 1 }],
            ..FaultPlan::none()
        };
        let cfg = SimConfig::paper(5).with_fault(FaultModel::perfect().with_plan(plan));
        let mut c = SimContext::new(pop, &cfg);
        c.begin_round(1);
        assert!(!c.is_synced(0) && !c.is_synced(1));
        assert_eq!(c.counters.downlink_losses, 2);
        // Desynchronized tags are silent; the poll times out without a
        // lost-reply (nothing was transmitted).
        assert!(!c.poll_tag(1, true, 0));
        assert_eq!(c.counters.lost_replies, 0);
        assert_eq!(c.counters.empty_slots, 1);
        // The next (unjammed) round re-joins both tags.
        c.begin_round(1);
        assert!(c.is_synced(0) && c.is_synced(1));
        assert_eq!(c.counters.desync_recoveries, 2);
        assert!(c.poll_tag(1, true, 0));
    }

    #[test]
    fn corruption_naks_until_the_retry_budget_runs_out() {
        use crate::fault::FaultModel;
        let pop = TagPopulation::sequential(1, |_| BitVec::from_str_bits("1"));
        let fault = FaultModel::perfect()
            .with_corruption(1.0)
            .with_max_poll_retries(2);
        let cfg = SimConfig::paper(9).with_fault(fault);
        let mut c = SimContext::new(pop, &cfg);
        assert!(!c.poll_tag(3, true, 0));
        assert!(c.population.is_active(0));
        assert_eq!(c.counters.corrupted_replies, 3, "initial try + 2 retries");
        assert_eq!(c.counters.retransmissions, 2);
        assert_eq!(c.counters.polls, 0);
        // Each retransmission costs a NAK on the reader side.
        assert_eq!(
            c.counters.reader_bits,
            4 + 3 + 2 * rfid_c1g2::NAK_BITS,
            "QueryRep + vector + two NAKs"
        );
    }

    #[test]
    fn moderate_corruption_recovers_within_budget() {
        use crate::fault::FaultModel;
        let pop = TagPopulation::sequential(50, |_| BitVec::from_str_bits("10"));
        let cfg = SimConfig::paper(11).with_fault(FaultModel::perfect().with_corruption(0.4));
        let mut c = SimContext::new(pop, &cfg);
        let mut collected = 0;
        for round in 0..20 {
            let _ = round;
            for t in active(&c.population) {
                if c.poll_tag(6, true, t) {
                    collected += 1;
                }
            }
            if c.population.all_asleep() {
                break;
            }
        }
        assert_eq!(collected, 50);
        assert!(c.counters.corrupted_replies > 0);
        assert!(c.counters.retransmissions > 0);
        assert_eq!(c.counters.polls, 50);
    }

    #[test]
    fn kill_rule_silences_a_tag_forever() {
        use crate::fault::{FaultModel, FaultPlan, KillRule};
        let pop = TagPopulation::sequential(2, |_| BitVec::from_str_bits("1"));
        let plan = FaultPlan {
            kill_after_replies: vec![KillRule {
                tag: 1,
                after_replies: 0,
            }],
            ..FaultPlan::none()
        };
        let cfg = SimConfig::paper(3).with_fault(FaultModel::perfect().with_plan(plan));
        let mut c = SimContext::new(pop, &cfg);
        assert!(c.poll_tag(1, true, 0));
        for _ in 0..5 {
            assert!(!c.poll_tag(1, true, 1));
        }
        assert!(!c.population.all_asleep());
        assert_eq!(c.uncollected_handles(), vec![1]);
    }

    #[test]
    fn burst_channel_clusters_losses() {
        use crate::fault::{FaultModel, GilbertElliott};
        let pop = TagPopulation::sequential(1, |_| BitVec::from_str_bits("1"));
        // Always-bad channel that never loses in good state: the chain
        // starts good, flips to bad immediately, and then drops everything.
        let ge = GilbertElliott::new(1.0, 0.0, 0.0, 1.0);
        let cfg = SimConfig::paper(21).with_fault(FaultModel::perfect().with_burst(ge));
        let mut c = SimContext::new(pop, &cfg);
        for _ in 0..10 {
            assert!(!c.poll_tag(1, true, 0));
        }
        assert_eq!(c.counters.lost_replies, 10);
    }

    #[test]
    fn faulty_slot_reports_corruption() {
        use crate::fault::FaultModel;
        let pop = TagPopulation::sequential(1, |_| BitVec::from_str_bits("10101"));
        let cfg = SimConfig::paper(13).with_fault(FaultModel::perfect().with_corruption(1.0));
        let mut c = SimContext::new(pop, &cfg);
        match c.slot(&[0], 4, None) {
            SlotOutcome::Corrupted(0) => {}
            other => panic!("expected corrupted slot, got {other:?}"),
        }
        assert_eq!(c.counters.corrupted_replies, 1);
        assert!(c.population.is_active(0));
    }

    #[test]
    #[should_panic(expected = "capture prob")]
    fn context_rejects_invalid_channel_literal() {
        let pop = TagPopulation::sequential(1, |_| BitVec::from_str_bits("1"));
        let mut cfg = SimConfig::paper(1);
        cfg.channel.capture_prob = f64::NAN;
        let _ = SimContext::new(pop, &cfg);
    }

    #[test]
    fn round_and_circle_overheads_are_charged() {
        let mut c = ctx(1, 1);
        c.begin_round(4);
        c.begin_circle(1);
        assert_eq!(c.counters.rounds, 1);
        assert_eq!(c.counters.circles, 1);
        assert_eq!(c.counters.reader_bits, 160);
        assert_eq!(c.clock.total().as_ns(), 160 * 37_450);
    }

    #[test]
    fn recovery_helpers_charge_time_and_counters() {
        let pop = TagPopulation::sequential(2, |_| BitVec::from_str_bits("1"));
        let cfg = SimConfig::paper(1).with_trace();
        let mut c = SimContext::new(pop, &cfg);
        let before = c.clock.total();
        c.charge_recovery_backoff(1, 1500);
        assert_eq!(c.counters.recovery_backoff_us, 1500);
        assert_eq!(c.clock.total() - before, Micros::from_us(1500.0));
        // Both still-active tags listened through the backoff.
        assert!((c.counters.tag_listen_us - 3000.0).abs() < 1e-9);
        c.note_recovery_pass(2, 2);
        assert_eq!(c.counters.recovery_passes, 1);
        c.note_circuit_opened(2, 2);
        let kinds: Vec<String> = c.log.events().iter().map(|e| e.event.to_string()).collect();
        assert!(kinds.iter().any(|s| s.contains("backoff after pass 1")));
        assert!(kinds.iter().any(|s| s.contains("recovery pass 2")));
        assert!(kinds.iter().any(|s| s.contains("circuit opened")));
    }

    /// Restores `json` over a fresh copy of the 8-bit sequential
    /// population of `n` tags the tests snapshot.
    fn restore(cfg: &SimConfig, json: &Json, n: usize) -> Result<SimContext, JsonError> {
        let progress = ContextProgress::decode(cfg, json, n)?;
        let pop = TagPopulation::sequential(n, |i| BitVec::from_value(i as u64, 8));
        SimContext::restore(cfg, pop, progress)
    }

    #[test]
    fn snapshot_restore_continues_bit_identically() {
        use crate::fault::{FaultModel, GilbertElliott};
        // A faulted, traced run exercises every snapshotted field: RNG,
        // desync state, burst state, trace, counters, clock.
        let fault = FaultModel::perfect()
            .with_downlink_loss(0.2)
            .with_corruption(0.2)
            .with_burst(GilbertElliott::new(0.1, 0.5, 0.0, 0.8));
        let cfg = SimConfig::paper(99)
            .with_channel(Channel::lossy(0.1))
            .with_fault(fault)
            .with_trace();
        let pop = TagPopulation::sequential(64, |i| BitVec::from_value(i as u64, 8));
        let mut live = SimContext::new(pop, &cfg);
        for round in 0..3 {
            let _ = round;
            live.begin_round(6);
            for t in active(&live.population) {
                live.poll_tag(6, true, t);
            }
        }
        let snap = live.snapshot();
        let text = snap.to_string();
        let parsed = Json::parse(&text).expect("snapshot parses");
        let mut restored = restore(&cfg, &parsed, 64).expect("snapshot restores");
        // Drive both a further faulted round and compare everything.
        for c in [&mut live, &mut restored] {
            c.begin_round(6);
            for t in active(&c.population) {
                c.poll_tag(6, true, t);
            }
        }
        assert_eq!(live.counters, restored.counters);
        assert_eq!(
            live.clock.total(),
            restored.clock.total(),
            "clock must continue exactly"
        );
        assert_eq!(live.rng.state(), restored.rng.state());
        assert_eq!(live.log.to_jsonl(), restored.log.to_jsonl());
        assert_eq!(live.uncollected_handles(), restored.uncollected_handles());
        assert_eq!(live.desynced_words, restored.desynced_words);
        assert_eq!(live.desynced_count, restored.desynced_count);
        assert_eq!(live.population, restored.population);
    }

    #[test]
    fn restore_rejects_malformed_snapshots() {
        let cfg = SimConfig::paper(7);
        let mut c = SimContext::new(
            TagPopulation::sequential(4, |i| BitVec::from_value(i as u64, 8)),
            &cfg,
        );
        c.poll_tag(4, true, 1);
        let good = c.snapshot();
        assert_eq!(good.get("state"), Some(&Json::str("40")));
        assert_eq!(good.get("synced"), Some(&Json::str("f")));
        assert!(good.get("replies_sent").is_none(), "no kill rules");
        assert!(restore(&cfg, &good, 4).is_ok());
        // `doc` with its top-level `key` replaced by `value`.
        fn set(doc: &Json, key: &str, value: Json) -> Json {
            let mut out = doc.clone();
            if let Json::Obj(fields) = &mut out {
                for (k, v) in fields.iter_mut() {
                    if k == key {
                        *v = value.clone();
                    }
                }
            }
            out
        }
        let rejected = |doc: &Json, n: usize, why: &str| {
            let err = restore(&cfg, doc, n).expect_err(why);
            assert!(err.0.contains(why), "expected {why:?}, got {err:?}");
        };

        // All-zero RNG state.
        let bad = set(&good, "rng", Json::Arr(vec![Json::UInt(0); 4]));
        assert!(restore(&cfg, &bad, 4).is_err());

        // Wrong-shape RNG state.
        let bad = set(&good, "rng", Json::Arr(vec![Json::UInt(1); 3]));
        assert!(restore(&cfg, &bad, 4).is_err());

        // Packed vectors that disagree with the population size, or hold
        // bad digits, padding or codes.
        rejected(&good, 5, "expected 3 for 5 tags");
        rejected(&good, 1 << 40, "expected");
        rejected(
            &set(&good, "synced", Json::str("ff")),
            4,
            "synced has 2 hex digits",
        );
        rejected(&set(&good, "synced", Json::str("F")), 4, "lowercase hex");
        rejected(&set(&good, "state", Json::str("4c")), 4, "unused code 3");
        rejected(
            &set(&good, "state", Json::Arr(vec![])),
            4,
            "in field 'state'",
        );
        let mut three = SimContext::new(
            TagPopulation::sequential(3, |i| BitVec::from_value(i as u64, 8)),
            &cfg,
        )
        .snapshot();
        assert!(restore(&cfg, &three, 3).is_ok());
        three = set(&three, "synced", Json::str("f"));
        rejected(&three, 3, "padding");

        // `replies_sent` must be present exactly when kill rules are.
        let with_replies = match &good {
            Json::Obj(fields) => {
                let mut fields = fields.clone();
                fields.push(("replies_sent".to_string(), Json::str("00000000")));
                Json::Obj(fields)
            }
            _ => unreachable!(),
        };
        rejected(&with_replies, 4, "no kill rules");

        // `events` must be present exactly when the config traces.
        let traced = cfg.clone().with_trace();
        assert!(good.get("events").is_none(), "untraced");
        let err = restore(&traced, &good, 4).unwrap_err();
        assert!(
            err.0
                .contains("missing field 'events' under a traced config"),
            "{err:?}"
        );
        let mut t = SimContext::new(
            TagPopulation::sequential(4, |i| BitVec::from_value(i as u64, 8)),
            &traced,
        );
        t.poll_tag(4, true, 1);
        let good_traced = t.snapshot();
        rejected(
            &good_traced,
            4,
            "events present but the config does not trace",
        );

        // The restored log is on exactly when `config.trace` is.
        assert!(!restore(&cfg, &good, 4).unwrap().log.is_enabled());
        let restored = restore(&traced, &good_traced, 4).unwrap();
        assert!(restored.log.is_enabled());
        assert_eq!(restored.log.events(), t.log.events());

        // Missing field.
        let bad = Json::Obj(vec![]);
        assert!(restore(&cfg, &bad, 4).is_err());

        // A population of another size than the decoded progress.
        let progress = ContextProgress::decode(&cfg, &good, 4).unwrap();
        let err = SimContext::restore(
            &cfg,
            TagPopulation::sequential(3, |_| BitVec::from_value(1, 1)),
            progress,
        )
        .unwrap_err();
        assert!(err.0.contains("covers 4 tags"), "{err:?}");
    }

    #[test]
    fn inject_fault_swaps_models_and_snapshot_stays_consistent() {
        use crate::fault::{FaultModel, FaultPlan, KillRule};
        let pop = TagPopulation::sequential(3, |_| BitVec::from_str_bits("1"));
        let mut cfg = SimConfig::paper(17);
        let mut c = SimContext::new(pop, &cfg);
        assert!(c.poll_tag(1, true, 0));

        // Inject a kill rule mid-run: the tag goes silent from now on.
        let plan = FaultPlan {
            kill_after_replies: vec![KillRule {
                tag: 1,
                after_replies: 0,
            }],
            ..FaultPlan::none()
        };
        let killed = FaultModel::perfect().with_plan(plan);
        c.inject_fault(killed.clone()).expect("valid fault");
        assert!(!c.poll_tag(1, true, 1));
        assert!(c.population.is_active(1));
        assert!(c.poll_tag(1, true, 2), "tag 2 has no kill rule");

        // A snapshot taken now restores against the *updated* config.
        cfg.fault = killed;
        let snap = c.snapshot();
        assert_eq!(snap.get("replies_sent"), Some(&Json::str("000001")));
        let progress = ContextProgress::decode(&cfg, &snap, 3).expect("decodes");
        let pop = TagPopulation::sequential(3, |_| BitVec::from_str_bits("1"));
        let restored = SimContext::restore(&cfg, pop, progress).expect("restores");
        assert_eq!(restored.counters, c.counters);
        assert_eq!(restored.replies_sent, c.replies_sent);

        // Clearing faults drops the kill bookkeeping again.
        c.inject_fault(FaultModel::perfect()).expect("valid fault");
        assert!(c.poll_tag(1, true, 1), "kill rule no longer applies");

        // Invalid rates are rejected without touching the context.
        let bad = FaultModel::perfect().with_corruption(0.5);
        let mut bad = bad;
        bad.corruption_rate = f64::NAN;
        assert!(c.inject_fault(bad).is_err());
    }

    #[test]
    fn replay_attributes_broadcast_bits_by_kind() {
        let mut log = EventLog::enabled();
        for (us, what, bits) in [
            (0, BroadcastKind::QueryRep, 4),
            (1, BroadcastKind::PollingVector, 7),
            (2, BroadcastKind::Probe, 9),
        ] {
            log.record(
                Micros::from_ns(us * 1_000),
                Event::ReaderBroadcast { what, bits },
            );
        }
        log.record(Micros::from_ns(3_000), Event::VectorCharged { bits: 2 });
        let c = Counters::from_events(log.events());
        assert_eq!(c.reader_bits, 20);
        assert_eq!(c.query_rep_bits, 4);
        assert_eq!(c.vector_bits, 9, "PollingVector bits + VectorCharged");
    }

    #[test]
    fn recovery_events_replay_into_recovery_counters() {
        let mut log = EventLog::enabled();
        log.record(Micros::ZERO, Event::BackoffWaited { pass: 1, us: 1_500 });
        log.record(
            Micros::from_ns(1_000),
            Event::RecoveryPassStarted {
                pass: 2,
                uncollected: 7,
            },
        );
        log.record(
            Micros::from_ns(2_000),
            Event::CircuitOpened {
                passes: 2,
                uncollected: 7,
            },
        );
        log.record(
            Micros::from_ns(3_000),
            Event::DeadlineReached {
                passes: 2,
                uncollected: 7,
            },
        );
        let c = Counters::from_events(log.events());
        assert_eq!(c.recovery_passes, 1);
        assert_eq!(c.recovery_backoff_us, 1_500);
    }
}
