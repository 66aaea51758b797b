//! The simulation context a protocol drives.
//!
//! [`SimContext`] owns everything one protocol run touches — the link
//! parameters, the clock, the tag population, the channel, the RNG, the
//! event log and the counters — and exposes the composite operations with
//! correct C1G2 time accounting:
//!
//! * [`SimContext::poll_tag`] — one polling exchange: reader transmits the
//!   (QueryRep +) polling vector, waits `T1`, the addressed tag backscatters
//!   its payload, reader waits `T2`,
//! * [`SimContext::slot`] — one ALOHA slot for the frame-based baselines,
//!   resolving empty/singleton/collision with their distinct costs,
//! * [`SimContext::reader_tx`] — bulk reader broadcasts (round initiations,
//!   circle commands, indicator vectors).
//!
//! Every operation updates [`Counters`], from which protocol reports derive
//! the paper's metrics (average polling-vector length, total execution
//! time, slot-waste fractions).

use rfid_c1g2::{Clock, LinkParams, Micros, TimeCategory};
use rfid_hash::Xoshiro256;

use crate::channel::{Channel, SlotOutcome};
use crate::event::{BroadcastKind, Event, EventLog};
use crate::fault::FaultModel;
use crate::json::{Json, JsonError, ToJson};
use crate::population::TagPopulation;
use crate::round_index::RoundIndex;
use crate::span::SpanProfiler;
use crate::tag::TagState;

/// Configuration for a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Link-timing parameters.
    pub link: LinkParams,
    /// Channel model.
    pub channel: Channel,
    /// Bidirectional fault model (downlink loss, corruption, bursts, plans).
    pub fault: FaultModel,
    /// Master seed for all randomness in the run.
    pub seed: u64,
    /// Whether to record an event trace.
    pub trace: bool,
    /// Trace ring-buffer capacity: `0` keeps the full trace, a positive
    /// value keeps only the newest events (long runs, bounded memory).
    pub trace_ring: usize,
    /// Whether to record hierarchical profiling spans
    /// ([`crate::SpanProfiler`]).
    pub profile: bool,
}

impl SimConfig {
    /// The paper's setting: C1G2 paper constants, perfect channel, no faults.
    pub fn paper(seed: u64) -> Self {
        SimConfig {
            link: LinkParams::paper(),
            channel: Channel::perfect(),
            fault: FaultModel::perfect(),
            seed,
            trace: false,
            trace_ring: 0,
            profile: false,
        }
    }

    /// Enables event tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Enables event tracing into a bounded ring buffer keeping only the
    /// newest `capacity` events.
    pub fn with_trace_ring(mut self, capacity: usize) -> Self {
        self.trace = true;
        self.trace_ring = capacity;
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
    link,
    channel,
    fault,
    seed,
    trace,
    trace_ring,
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
    /// [`SimContext::emit`] applies it live, and trace replay folds it over
    /// a recorded log. `tag_listen_us` is a continuous integral, not an
    /// event, and is never touched here.
    #[inline]
    pub fn apply(&mut self, event: &Event) {
        match *event {
            Event::RoundStarted { .. } => self.rounds += 1,
            Event::CircleStarted { .. } => self.circles += 1,
            Event::ReaderBroadcast { what, bits } => {
                self.reader_bits += bits;
                if what.counts_as_query_rep() {
                    self.query_rep_bits += bits;
                }
                if what.counts_as_vector() {
                    self.vector_bits += bits;
                }
            }
            Event::TagPolled { .. } => self.polls += 1,
            Event::TagReply { bits, .. } => self.tag_bits += bits,
            Event::VectorCharged { bits } => self.vector_bits += bits,
            Event::SlotEmpty => self.empty_slots += 1,
            Event::SlotCollision { .. } => self.collision_slots += 1,
            Event::ReplyLost { .. } => self.lost_replies += 1,
            Event::DownlinkLost { .. } => self.downlink_losses += 1,
            Event::ReplyCorrupted { .. } => self.corrupted_replies += 1,
            Event::Retransmission { .. } => self.retransmissions += 1,
            Event::DesyncRecovered { .. } => self.desync_recoveries += 1,
            Event::RecoveryPassStarted { .. } => self.recovery_passes += 1,
            Event::BackoffWaited { us, .. } => self.recovery_backoff_us += us,
            Event::StallTick { .. } | Event::CircuitOpened { .. } => {}
        }
    }

    /// Average polling-vector length `w` = vector bits per successful poll.
    pub fn mean_vector_bits(&self) -> f64 {
        if self.polls == 0 {
            0.0
        } else {
            self.vector_bits as f64 / self.polls as f64
        }
    }

    /// Folds another run's counters into this one (field-wise sums).
    ///
    /// Merge laws, relied on by the parallel sweep engine: the integer
    /// fields form a commutative monoid under wrapping-free `+` (merging is
    /// exact, associative and commutative; `Counters::default()` is the
    /// identity). `tag_listen_us` is an `f64` sum — commutative bit-exactly,
    /// associative only up to rounding — so reductions that must be
    /// bit-identical across schedules fold partial counters in a fixed
    /// order.
    pub fn merge(&mut self, other: &Counters) {
        self.reader_bits += other.reader_bits;
        self.tag_bits += other.tag_bits;
        self.vector_bits += other.vector_bits;
        self.query_rep_bits += other.query_rep_bits;
        self.polls += other.polls;
        self.rounds += other.rounds;
        self.circles += other.circles;
        self.empty_slots += other.empty_slots;
        self.collision_slots += other.collision_slots;
        self.lost_replies += other.lost_replies;
        self.downlink_losses += other.downlink_losses;
        self.corrupted_replies += other.corrupted_replies;
        self.desync_recoveries += other.desync_recoveries;
        self.retransmissions += other.retransmissions;
        self.recovery_passes += other.recovery_passes;
        self.recovery_backoff_us += other.recovery_backoff_us;
        self.tag_listen_us += other.tag_listen_us;
    }

    /// [`Counters::merge`] as a pure fold step.
    #[must_use]
    pub fn merged(mut self, other: &Counters) -> Counters {
        self.merge(other);
        self
    }
}

/// Everything a protocol needs to run once.
#[derive(Debug)]
pub struct SimContext {
    /// Link-timing parameters.
    pub link: LinkParams,
    /// The accumulating clock.
    pub clock: Clock,
    /// Tags in the interrogation zone.
    pub population: TagPopulation,
    /// Channel model.
    pub channel: Channel,
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
    /// Per-tag downlink synchronization: `false` means the tag missed a
    /// round/circle command and stays silent until the next one it hears.
    synced: Vec<bool>,
    /// Bitset mirror of `!synced` so broadcast recovery walks only the
    /// desynchronized tags instead of the whole population.
    desynced_words: Vec<u64>,
    /// Number of `false` entries in `synced` (fast emptiness check).
    desynced_count: usize,
    /// Reusable per-round singleton index (see [`RoundIndex`]).
    round_index: RoundIndex,
    /// Arena behind [`SimContext::sift_singletons`], recycled across rounds.
    singles_arena: Vec<(u64, usize)>,
    /// Pool of reusable handle buffers for protocol sweeps and the faulty
    /// slot path — keeps inner loops allocation-free after warmup.
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
        config.channel.validate();
        config.fault.validate();
        let n = population.len();
        let has_kills = !config.fault.plan.kill_after_replies.is_empty();
        SimContext {
            link: config.link,
            clock: Clock::new(),
            population,
            channel: config.channel,
            fault: config.fault.clone(),
            rng: Xoshiro256::seed_from_u64(config.seed),
            log: match (config.trace, config.trace_ring) {
                (false, _) => EventLog::disabled(),
                (true, 0) => EventLog::enabled(),
                (true, cap) => EventLog::ring(cap),
            },
            counters: Counters::default(),
            profiler: if config.profile {
                SpanProfiler::enabled()
            } else {
                SpanProfiler::disabled()
            },
            synced: vec![true; n],
            desynced_words: vec![0; n.div_ceil(64)],
            desynced_count: 0,
            round_index: RoundIndex::new(),
            singles_arena: Vec::new(),
            scratch_pool: Vec::new(),
            replies_sent: if has_kills { vec![0; n] } else { Vec::new() },
            has_kills,
            fault_active: !config.fault.is_perfect(),
            ge_bad: false,
        }
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
        let n = self.population.len();
        self.has_kills = !fault.plan.kill_after_replies.is_empty();
        if self.has_kills {
            self.replies_sent.resize(n, 0);
        } else {
            self.replies_sent.clear();
        }
        self.fault_active = !fault.is_perfect();
        self.fault = fault;
        Ok(())
    }

    /// The round's singleton sift: `(H(seed, id) mod 2^h, handle)` for every
    /// index picked by exactly one active tag, ascending by index — built by
    /// the reusable [`RoundIndex`] in O(active).
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
        self.counters.tag_listen_us += dt.as_f64() * self.population.listening_count() as f64;
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

    /// Records the start of an inventory round with index length `h`.
    pub fn begin_round(&mut self, h: u32, round_init_bits: u64) {
        self.emit(Event::RoundStarted {
            round: self.counters.rounds as usize + 1,
            h,
            unread: self.population.active_count(),
        });
        if round_init_bits > 0 {
            self.reader_tx(
                BroadcastKind::RoundInit,
                round_init_bits,
                TimeCategory::ReaderCommand,
            );
        }
        self.downlink_broadcast();
    }

    /// Records the start of an EHPP circle of `selected` tags, charging the
    /// `l_c`-bit circle command.
    pub fn begin_circle(&mut self, selected: usize, circle_cmd_bits: u64) {
        self.emit(Event::CircleStarted {
            circle: self.counters.circles as usize + 1,
            selected,
        });
        if circle_cmd_bits > 0 {
            self.reader_tx(
                BroadcastKind::CircleCommand,
                circle_cmd_bits,
                TimeCategory::ReaderCommand,
            );
        }
        self.downlink_broadcast();
    }

    /// Delivers (or loses) a round/circle broadcast per active tag. A tag
    /// that misses it desynchronizes and stays silent; a desynchronized tag
    /// that hears it re-joins. No-op — and RNG-free — without downlink
    /// faults.
    fn downlink_broadcast(&mut self) {
        let forced = self.fault.plan.drops_downlink(self.counters.rounds);
        let rate = self.fault.downlink_loss_rate;
        if !forced && rate <= 0.0 {
            if self.desynced_count > 0 {
                // Every desynchronized tag still in the zone hears this
                // broadcast and recovers: walk only the desynced ∩ active
                // bits instead of the whole population.
                for w in 0..self.desynced_words.len() {
                    let mut bits = self.desynced_words[w] & self.population.active_words()[w];
                    while bits != 0 {
                        let idx = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        self.synced[idx] = true;
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
                let missed = forced || (rate > 0.0 && self.rng.chance(rate));
                if missed {
                    self.emit(Event::DownlinkLost { tag: idx });
                    if self.synced[idx] {
                        self.synced[idx] = false;
                        self.desynced_words[w] |= 1u64 << (idx % 64);
                        self.desynced_count += 1;
                    }
                } else if !self.synced[idx] {
                    self.synced[idx] = true;
                    self.desynced_words[w] &= !(1u64 << (idx % 64));
                    self.desynced_count -= 1;
                    self.emit(Event::DesyncRecovered { tag: idx });
                }
            }
        }
    }

    /// Whether tag `target` is currently synchronized (heard the latest
    /// round/circle command). Always `true` without downlink faults.
    pub fn is_synced(&self, target: usize) -> bool {
        self.synced[target]
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

    /// One Gilbert–Elliott step: advance the two-state chain, then decide
    /// whether the current reply is lost. `false` when bursts are off.
    fn burst_attempt_lost(&mut self) -> bool {
        let Some(ge) = self.fault.burst else {
            return false;
        };
        let p_switch = if self.ge_bad {
            ge.p_exit_bad
        } else {
            ge.p_enter_bad
        };
        if p_switch > 0.0 && self.rng.chance(p_switch) {
            self.ge_bad = !self.ge_bad;
        }
        let p_loss = if self.ge_bad {
            ge.loss_bad
        } else {
            ge.loss_good
        };
        p_loss > 0.0 && self.rng.chance(p_loss)
    }

    /// The reader's view of a silent polling slot: `T3` timeout, wasted.
    fn poll_timeout(&mut self) -> bool {
        self.advance(TimeCategory::WastedSlot, self.link.t3);
        self.emit(Event::SlotEmpty);
        false
    }

    /// Emulates the tag-hardware CRC check on a corrupted frame: payload
    /// plus transmitted CRC-16 with one flipped bit must fail verification.
    /// CRC-16 detects every single-bit error, so this always returns `true`;
    /// it is computed (not assumed) so the robustness model stays grounded
    /// in the actual C1G2 code.
    fn crc_rejects_corruption(&mut self, target: usize) -> bool {
        let info = &self.population.get(target).info;
        let mut bits: Vec<bool> = info.iter().collect();
        let crc = rfid_c1g2::crc::crc16_bits(&bits);
        for i in (0..16).rev() {
            bits.push((crc >> i) & 1 == 1);
        }
        let pos = self.counters.corrupted_replies as usize % bits.len();
        bits[pos] = !bits[pos];
        let payload = &bits[..bits.len() - 16];
        let mut rx_crc: u16 = 0;
        for &b in &bits[bits.len() - 16..] {
            rx_crc = (rx_crc << 1) | b as u16;
        }
        rfid_c1g2::crc::crc16_bits(payload) != rx_crc
    }

    /// One polling exchange addressing tag `target` with a `vector_bits`-bit
    /// polling vector (optionally behind a 4-bit QueryRep).
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
            self.population.get(target).is_active(),
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
            if !self.synced[target] {
                return self.poll_timeout();
            }
            // The polling vector itself can be missed on the downlink.
            let round = self.counters.rounds;
            if self.fault.plan.drops_downlink(round)
                || (self.fault.downlink_loss_rate > 0.0
                    && self.rng.chance(self.fault.downlink_loss_rate))
            {
                self.emit(Event::DownlinkLost { tag: target });
                return self.poll_timeout();
            }
        }

        let mut attempts: u32 = 0;
        loop {
            if self.fault_active && !self.tag_transmits(target) {
                // The tag has left the zone (kill rule): silence forever.
                return self.poll_timeout();
            }
            // Uplink: scripted jam, burst state, then the i.i.d. channel —
            // the latter draw is identical to the legacy lossy path. A lost
            // reply is indistinguishable from a silent tag, so the reader
            // does not NAK; the protocol retries in a later round.
            let lost = (self.fault_active
                && (self.fault.plan.drops_uplink(self.counters.rounds)
                    || self.burst_attempt_lost()))
                || (self.channel.reply_loss_rate > 0.0
                    && self.rng.chance(self.channel.reply_loss_rate));
            if lost {
                self.emit(Event::ReplyLost { tag: target });
                return self.poll_timeout();
            }
            // The reply arrives and occupies the air either way.
            let info_bits = self.population.get(target).info.len() as u64;
            self.advance(TimeCategory::TagReply, self.link.tag_tx(info_bits));
            self.emit(Event::TagReply {
                tag: target,
                bits: info_bits,
            });
            self.advance(TimeCategory::Turnaround, self.link.t2);

            let corrupted = self.fault_active
                && self.fault.corruption_rate > 0.0
                && self.rng.chance(self.fault.corruption_rate)
                && self.crc_rejects_corruption(target);
            if !corrupted {
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

    /// One ALOHA slot: the reader transmits `prefix_bits` (e.g. a QueryRep),
    /// waits `T1`, and the given tags reply concurrently.
    ///
    /// On a singleton the payload is received and `T2` elapses, but the tag
    /// is *not* marked read — the caller decides (MIC reads it; plain ALOHA
    /// might need an ACK first) via [`SimContext::mark_read`].
    pub fn slot(&mut self, repliers: &[usize], prefix_bits: u64) -> SlotOutcome {
        #[cfg(debug_assertions)]
        let scans_at_entry = self.population.scan_epoch();
        self.span_enter("slot");
        let outcome = self.slot_inner(repliers, prefix_bits);
        self.span_exit();
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            scans_at_entry,
            self.population.scan_epoch(),
            "slot handler iterated the full population"
        );
        outcome
    }

    fn slot_inner(&mut self, repliers: &[usize], prefix_bits: u64) -> SlotOutcome {
        if prefix_bits > 0 {
            self.reader_tx(
                BroadcastKind::SlotPrefix,
                prefix_bits,
                TimeCategory::ReaderCommand,
            );
        }
        self.advance(TimeCategory::Turnaround, self.link.t1);
        let outcome = if !self.fault_active {
            self.channel.resolve(repliers, &mut self.rng)
        } else {
            self.faulty_slot_outcome(repliers)
        };
        match outcome {
            SlotOutcome::Empty => {
                self.advance(TimeCategory::WastedSlot, self.link.t3);
                self.emit(Event::SlotEmpty);
            }
            SlotOutcome::Singleton(tag) => {
                let info_bits = self.population.get(tag).info.len() as u64;
                self.advance(TimeCategory::TagReply, self.link.tag_tx(info_bits));
                self.emit(Event::TagReply {
                    tag,
                    bits: info_bits,
                });
                self.advance(TimeCategory::Turnaround, self.link.t2);
            }
            SlotOutcome::Collision(count) => {
                // The colliding replies occupy the air for the longest
                // payload among them, then the reader recovers with T2.
                let max_bits = repliers
                    .iter()
                    .map(|&t| self.population.get(t).info.len() as u64)
                    .max()
                    .unwrap_or(0);
                self.advance(TimeCategory::WastedSlot, self.link.tag_tx(max_bits));
                self.advance(TimeCategory::Turnaround, self.link.t2);
                self.emit(Event::SlotCollision { count });
            }
            SlotOutcome::Corrupted(tag) => {
                // The reply filled its slot but failed the CRC; the caller
                // sees the tag undecoded and retries it in a later frame
                // (frame slots carry no NAK handshake).
                let info_bits = self.population.get(tag).info.len() as u64;
                self.advance(TimeCategory::WastedSlot, self.link.tag_tx(info_bits));
                self.advance(TimeCategory::Turnaround, self.link.t2);
                self.emit(Event::ReplyCorrupted { tag });
            }
        }
        outcome
    }

    /// Slot resolution with fault injection: desynchronized and killed tags
    /// stay silent, scripted jams and burst losses remove repliers, and a
    /// surviving singleton can come through corrupted.
    fn faulty_slot_outcome(&mut self, repliers: &[usize]) -> SlotOutcome {
        let forced_up = self.fault.plan.drops_uplink(self.counters.rounds);
        let mut survivors = self.take_scratch();
        for &t in repliers {
            if !self.synced[t] || !self.tag_transmits(t) {
                continue;
            }
            if forced_up || self.burst_attempt_lost() {
                self.emit(Event::ReplyLost { tag: t });
                continue;
            }
            survivors.push(t);
        }
        let outcome = match self.channel.resolve(&survivors, &mut self.rng) {
            SlotOutcome::Singleton(tag)
                if self.fault.corruption_rate > 0.0
                    && self.rng.chance(self.fault.corruption_rate)
                    && self.crc_rejects_corruption(tag) =>
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
        self.advance(TimeCategory::WastedSlot, Micros::from_us(us as f64));
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

    /// `true` once every tag has been read exactly once.
    pub fn is_complete(&self) -> bool {
        self.population.all_asleep()
    }

    /// Handles of tags never successfully read (active or deselected) — the
    /// `uncollected` list of a stalled run's partial report.
    pub fn uncollected_handles(&self) -> Vec<usize> {
        self.population
            .iter()
            .filter(|(_, t)| t.state != TagState::Asleep)
            .map(|(i, _)| i)
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

    /// Serializes the full mutable run state for a session checkpoint.
    ///
    /// Captures everything whose value depends on how far the run has
    /// progressed: the RNG stream position, the clock (elapsed verbatim, so
    /// restores are bit-exact), the population's read/deselect state, the
    /// counters, the event trace, the per-tag downlink synchronization, the
    /// kill-rule reply counts and the Gilbert–Elliott channel state. The
    /// transient caches ([`RoundIndex`], arenas, scratch pool) and the
    /// [`SpanProfiler`] are *not* captured — the caches never carry state
    /// across a protocol step, only capacity, and profiler wall-times are
    /// machine-local — and the derived desync bitset is rebuilt from
    /// `synced`.
    ///
    /// Pair with [`SimContext::restore`], which needs the same [`SimConfig`]
    /// the context was created with.
    pub fn snapshot(&self) -> Json {
        Json::Obj(vec![
            (
                "rng".to_string(),
                Json::Arr(self.rng.state().iter().map(|&w| Json::UInt(w)).collect()),
            ),
            ("clock".to_string(), self.clock.to_json()),
            ("population".to_string(), self.population.to_json()),
            ("counters".to_string(), self.counters.to_json()),
            ("log".to_string(), self.log.to_json()),
            ("synced".to_string(), self.synced.to_json()),
            ("replies_sent".to_string(), self.replies_sent.to_json()),
            ("ge_bad".to_string(), self.ge_bad.to_json()),
        ])
    }

    /// Rebuilds a context from a [`SimContext::snapshot`] document and the
    /// [`SimConfig`] the original run was created with.
    ///
    /// Everything the snapshot does not carry (link parameters, channel and
    /// fault models, cached flags, empty arenas) is rederived from `config`,
    /// exactly as [`SimContext::new`] does. The restored context continues
    /// the run bit-identically: same RNG draws, same clock bits, same trace.
    ///
    /// Malformed snapshots — wrong RNG shape, an all-zero RNG state, vector
    /// lengths that disagree with the population, a clock inconsistent with
    /// its breakdown — produce typed errors, never panics.
    pub fn restore(config: &SimConfig, json: &Json) -> Result<SimContext, JsonError> {
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
        let population: TagPopulation = json.field("population")?;
        let n = population.len();
        let rng_words: Vec<u64> = json.field("rng")?;
        let state: [u64; 4] = rng_words
            .as_slice()
            .try_into()
            .map_err(|_| JsonError(format!("rng state has {} words, need 4", rng_words.len())))?;
        if state == [0; 4] {
            return Err(JsonError("all-zero rng state is invalid".to_string()));
        }
        let synced: Vec<bool> = json.field("synced")?;
        if synced.len() != n {
            return Err(JsonError(format!(
                "synced has {} entries for a population of {n}",
                synced.len()
            )));
        }
        let has_kills = !config.fault.plan.kill_after_replies.is_empty();
        let replies_sent: Vec<u64> = json.field("replies_sent")?;
        let expect_replies = if has_kills { n } else { 0 };
        if replies_sent.len() != expect_replies {
            return Err(JsonError(format!(
                "replies_sent has {} entries, expected {expect_replies}",
                replies_sent.len()
            )));
        }
        let mut desynced_words = vec![0u64; n.div_ceil(64)];
        let mut desynced_count = 0;
        for (idx, &ok) in synced.iter().enumerate() {
            if !ok {
                desynced_words[idx / 64] |= 1u64 << (idx % 64);
                desynced_count += 1;
            }
        }
        Ok(SimContext {
            link: config.link,
            clock: json.field("clock")?,
            population,
            channel: config.channel,
            fault: config.fault.clone(),
            rng: Xoshiro256::from_state(state),
            log: json.field("log")?,
            counters: json.field("counters")?,
            profiler: if config.profile {
                SpanProfiler::enabled()
            } else {
                SpanProfiler::disabled()
            },
            synced,
            desynced_words,
            desynced_count,
            round_index: RoundIndex::new(),
            singles_arena: Vec::new(),
            scratch_pool: Vec::new(),
            replies_sent,
            has_kills,
            fault_active: !config.fault.is_perfect(),
            ge_bad: json.field("ge_bad")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::BitVec;

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
        let expect = 37.45 * 7.0 + 100.0 + 25.0 + 50.0;
        assert!((c.clock.total().as_f64() - expect).abs() < 1e-9);
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
        let expect = 37.45 * 96.0 + 100.0 + 25.0 + 50.0;
        assert!((c.clock.total().as_f64() - expect).abs() < 1e-9);
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
        assert!(c.population.get(0).is_active());
        assert_eq!(c.counters.lost_replies, 1);
        assert_eq!(c.counters.polls, 0);
    }

    #[test]
    fn slot_outcomes_charge_distinct_costs() {
        let mut c = ctx(3, 8);
        let t_empty = {
            let before = c.clock.total();
            c.slot(&[], 4);
            c.clock.total() - before
        };
        let t_single = {
            let before = c.clock.total();
            let out = c.slot(&[0], 4);
            assert!(out.is_singleton());
            c.clock.total() - before
        };
        let t_coll = {
            let before = c.clock.total();
            c.slot(&[1, 2], 4);
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
    fn mark_read_completes_inventory() {
        let mut c = ctx(2, 1);
        for t in 0..2 {
            match c.slot(&[t], 4) {
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
        c.begin_round(1, 8);
        assert!(!c.is_synced(0) && !c.is_synced(1));
        assert_eq!(c.counters.downlink_losses, 2);
        // Desynchronized tags are silent; the poll times out without a
        // lost-reply (nothing was transmitted).
        assert!(!c.poll_tag(1, true, 0));
        assert_eq!(c.counters.lost_replies, 0);
        assert_eq!(c.counters.empty_slots, 1);
        // The next (unjammed) round re-joins both tags.
        c.begin_round(1, 8);
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
        assert!(c.population.get(0).is_active());
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
            for t in c.population.active_handles() {
                if c.poll_tag(6, true, t) {
                    collected += 1;
                }
            }
            if c.is_complete() {
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
        assert!(!c.is_complete());
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
        match c.slot(&[0], 4) {
            SlotOutcome::Corrupted(0) => {}
            other => panic!("expected corrupted slot, got {other:?}"),
        }
        assert_eq!(c.counters.corrupted_replies, 1);
        assert!(c.population.get(0).is_active());
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
        c.begin_round(4, 32);
        c.begin_circle(1, 128);
        assert_eq!(c.counters.rounds, 1);
        assert_eq!(c.counters.circles, 1);
        assert_eq!(c.counters.reader_bits, 160);
        assert!((c.clock.total().as_f64() - 160.0 * 37.45).abs() < 1e-9);
    }

    #[test]
    fn counters_merge_sums_every_field() {
        let mut a = ctx(2, 1);
        a.poll_tag(3, true, 0);
        a.begin_round(3, 32);
        let mut b = ctx(2, 1);
        b.poll_tag(5, true, 1);
        b.begin_circle(1, 128);

        let merged = a.counters.merged(&b.counters);
        assert_eq!(merged.polls, 2);
        assert_eq!(merged.rounds, 1);
        assert_eq!(merged.circles, 1);
        assert_eq!(
            merged.vector_bits,
            a.counters.vector_bits + b.counters.vector_bits
        );
        assert_eq!(
            merged.reader_bits,
            a.counters.reader_bits + b.counters.reader_bits
        );
        assert!(
            (merged.tag_listen_us - (a.counters.tag_listen_us + b.counters.tag_listen_us)).abs()
                < 1e-12
        );
    }

    #[test]
    fn recovery_helpers_charge_time_and_counters() {
        let pop = TagPopulation::sequential(2, |_| BitVec::from_str_bits("1"));
        let cfg = SimConfig::paper(1).with_trace();
        let mut c = SimContext::new(pop, &cfg);
        let before = c.clock.total();
        c.charge_recovery_backoff(1, 1500);
        assert_eq!(c.counters.recovery_backoff_us, 1500);
        assert!((c.clock.total() - before).as_f64() - 1500.0 < 1e-9);
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
            live.begin_round(6, 32);
            for t in live.population.active_handles() {
                live.poll_tag(6, true, t);
            }
        }
        let snap = live.snapshot();
        let text = snap.to_string();
        let parsed = Json::parse(&text).expect("snapshot parses");
        let mut restored = SimContext::restore(&cfg, &parsed).expect("snapshot restores");
        // Drive both a further faulted round and compare everything.
        for c in [&mut live, &mut restored] {
            c.begin_round(6, 32);
            for t in c.population.active_handles() {
                c.poll_tag(6, true, t);
            }
        }
        assert_eq!(live.counters, restored.counters);
        assert_eq!(
            live.clock.total().as_f64().to_bits(),
            restored.clock.total().as_f64().to_bits(),
            "clock must continue bit-exactly"
        );
        assert_eq!(live.rng.state(), restored.rng.state());
        assert_eq!(live.log.to_jsonl(), restored.log.to_jsonl());
        assert_eq!(live.uncollected_handles(), restored.uncollected_handles());
    }

    #[test]
    fn restore_rejects_malformed_snapshots() {
        let cfg = SimConfig::paper(7);
        let pop = TagPopulation::sequential(4, |i| BitVec::from_value(i as u64, 4));
        let c = SimContext::new(pop, &cfg);
        let good = c.snapshot();
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

        // All-zero RNG state.
        let bad = set(&good, "rng", Json::Arr(vec![Json::UInt(0); 4]));
        assert!(SimContext::restore(&cfg, &bad).is_err());

        // Wrong-shape RNG state.
        let bad = set(&good, "rng", Json::Arr(vec![Json::UInt(1); 3]));
        assert!(SimContext::restore(&cfg, &bad).is_err());

        // Sync vector length disagrees with the population.
        let bad = set(&good, "synced", Json::Arr(vec![Json::Bool(true); 3]));
        assert!(SimContext::restore(&cfg, &bad).is_err());

        // A ring log holding more events than its capacity.
        let mut ring = EventLog::ring(2);
        ring.record(Micros::ZERO, Event::SlotEmpty);
        ring.record(Micros::ZERO, Event::SlotEmpty);
        let bad = set(
            &good,
            "log",
            set(&ring.to_json(), "capacity", Json::UInt(1)),
        );
        let err = SimContext::restore(&cfg, &bad).unwrap_err();
        assert!(err.0.contains("over its capacity"), "{err:?}");

        // A disabled log carrying events.
        let mut on = EventLog::enabled();
        on.record(Micros::ZERO, Event::SlotEmpty);
        let bad = set(
            &good,
            "log",
            set(&on.to_json(), "enabled", Json::Bool(false)),
        );
        let err = SimContext::restore(&cfg, &bad).unwrap_err();
        assert!(err.0.contains("disabled event log"), "{err:?}");

        // Missing field.
        let bad = Json::Obj(vec![]);
        assert!(SimContext::restore(&cfg, &bad).is_err());
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
        assert!(c.population.get(1).is_active());

        // A snapshot taken now restores against the *updated* config.
        cfg.fault = killed;
        let snap = c.snapshot();
        let restored = SimContext::restore(&cfg, &snap).expect("restores");
        assert_eq!(restored.counters, c.counters);

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
    fn counters_merge_has_default_as_identity() {
        let mut a = ctx(1, 1);
        a.poll_tag(4, true, 0);
        let id = Counters::default();
        assert_eq!(a.counters.merged(&id), a.counters);
        assert_eq!(id.merged(&a.counters), a.counters);
    }
}
