//! The resumable session engine: protocols as pure step state machines
//! under one driver that owns stalls, budgets, recovery and deadlines.
//!
//! Before this module every protocol carried its own copy of the control
//! loop — a round/sweep/slot budget, a [`StallGuard`], the
//! stall-to-[`PollingError`] conversion — and the recovery layer re-ran
//! `try_run` from the outside. A run was therefore an opaque black box: it
//! could not be paused, snapshotted, or resumed, and a crashed reader lost
//! the whole inventory.
//!
//! The session engine inverts that. A protocol exposes a
//! [`ProtocolStepper`] — a pure state machine advanced one *step* (round,
//! sweep, frame, query, or slot) at a time — and [`Session`] owns
//! everything around it:
//!
//! * **budget** — the per-pass step cap ([`StepDiscipline::max_steps`])
//!   and the no-progress [`StallGuard`], applied uniformly;
//! * **recovery** — the multi-pass backoff loop of [`RecoveryPolicy`],
//!   installed with [`Session::with_policy`] so a pass boundary is just
//!   another step boundary;
//! * **deadline** — an optional sim-time watchdog that converts an
//!   overrun into a typed [`SessionEnd::Degraded`] result instead of an
//!   unbounded run;
//! * **checkpoint/restore** — between any two steps the session (driver
//!   state + stepper state + full [`SimContext`]) serializes to JSON via
//!   [`Session::snapshot`] and restores into a fresh process image via
//!   [`Session::restore`], continuing **bit-identically**: same RNG
//!   stream, same trace, same report. The `session_roundtrip` test
//!   enforces this for every protocol.
//!
//! [`PollingProtocol::try_run`] is a bare session (no policy, no
//! deadline); every other way of running a protocol configures a
//! [`Session`] and calls [`Session::run`].

use rfid_c1g2::Micros;
use rfid_system::{
    ContextProgress, Event, Json, JsonError, SimConfig, SimContext, TagPopulation, ToJson,
};

use crate::error::{PollingError, StallCause, StallGuard};
use crate::report::Report;
use crate::PollingProtocol;

/// How a session with [`Session::with_policy`] re-polls, backs off, and
/// gives up.
///
/// Under a policy a stall does not end the session: the driver idles a
/// sim-time exponential backoff (jitter drawn from the context's RNG,
/// charged on the C1G2 clock), reselects the population and starts a fresh
/// pass over the uncollected remainder — polled tags are asleep, so counters, clock
/// and trace accumulate in place. Pass 1 is the bare run: no RNG draws,
/// events or time, so a run that never stalls is bit-identical to
/// [`PollingProtocol::try_run`].
///
/// The circuit breaker weighs evidence in *idle rounds*, not passes: a
/// zero-progress [`StallCause::RoundCap`] pass contributes only its small
/// round budget, a [`StallCause::NoProgress`] stall a full
/// `DEFAULT_STALL_ROUNDS` window, and any progress resets the count. It
/// opens at `BREAKER_IDLE_ROUNDS` = 512 idle rounds, a constant no policy
/// changes. With unbounded passes, coverage therefore reaches 1.0 whenever
/// loss < 1.0; only a dead configuration (permanent jam, killed tag) ends
/// [`SessionEnd::Degraded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Maximum polling passes (including the initial attempt); `0` means
    /// unbounded — the session runs until complete or until the
    /// zero-progress breaker opens.
    pub(crate) max_passes: u64,
    /// Backoff after the first stalled pass, in C1G2 microseconds. Doubles
    /// each further pass (exponential), capped by `max_backoff_us`.
    pub(crate) base_backoff_us: u64,
    /// Ceiling on one backoff interval, in microseconds.
    pub(crate) max_backoff_us: u64,
}

/// The circuit breaker's threshold: a session under a policy gives up once
/// this many consecutive idle rounds (rounds that polled nothing)
/// accumulate across passes — two stall-guard windows.
pub(crate) const BREAKER_IDLE_ROUNDS: u64 = 2 * crate::DEFAULT_STALL_ROUNDS;

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_passes: 0,
            base_backoff_us: 1_000,
            max_backoff_us: 64_000,
        }
    }
}

impl RecoveryPolicy {
    /// Unbounded passes with the default backoff — drives any survivable
    /// fault configuration to completion.
    pub fn unbounded() -> Self {
        RecoveryPolicy::default()
    }

    /// Caps the number of passes (`0` = unbounded).
    pub fn with_max_passes(mut self, max_passes: u64) -> Self {
        self.max_passes = max_passes;
        self
    }

    /// Sets the backoff ladder: first interval and its ceiling.
    pub fn with_backoff(mut self, base_us: u64, max_us: u64) -> Self {
        self.base_backoff_us = base_us;
        self.max_backoff_us = max_us;
        self
    }

    /// The backoff charged after stalled pass `pass` (1-based), before
    /// jitter: `base · 2^(pass-1)`, saturating, capped at `max_backoff_us`.
    pub(crate) fn backoff_us(&self, pass: u64) -> u64 {
        let shift = (pass - 1).min(32) as u32;
        self.base_backoff_us
            .saturating_mul(1u64 << shift)
            .min(self.max_backoff_us)
    }
}

rfid_system::impl_json_struct!(RecoveryPolicy {
    max_passes,
    base_backoff_us,
    max_backoff_us,
});

/// What one [`ProtocolStepper::step`] reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The step ran; the driver's budget and guard decide what's next.
    Progressed,
    /// The stepper's *internal* budget ran out (protocols whose cap lives
    /// below step granularity, e.g. a slot cap checked mid-frame).
    Stalled(StallCause),
}

/// How the driver should budget and guard a stepper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepDiscipline {
    /// Per-pass cap on driver steps; `None` when the stepper enforces its
    /// own cap (and reports it via [`StepOutcome::Stalled`]).
    pub(crate) max_steps: Option<u64>,
    /// Whether the driver runs a [`StallGuard`] across steps.
    pub(crate) guarded: bool,
}

impl StepDiscipline {
    /// A driver-budgeted, stall-guarded stepper (one step = one round or
    /// sweep; the common case).
    pub fn budgeted(max_steps: u64) -> Self {
        StepDiscipline {
            max_steps: Some(max_steps),
            guarded: true,
        }
    }

    /// No step cap, but driver-guarded against zero progress.
    pub fn guarded_unbounded() -> Self {
        StepDiscipline {
            max_steps: None,
            guarded: true,
        }
    }

    /// The stepper polices itself: internal cap, internal (or structural)
    /// progress guarantees. The driver only routes its stall reports.
    pub fn self_limited() -> Self {
        StepDiscipline {
            max_steps: None,
            guarded: false,
        }
    }
}

/// A polling protocol as a resumable state machine.
///
/// The contract that makes snapshots bit-identical:
///
/// * `step` performs exactly one unit of the legacy control loop (one
///   round, sweep, frame, query, or slot) with the same [`SimContext`]
///   operations in the same order — RNG draw order is part of the
///   protocol's determinism contract;
/// * all cross-step protocol state is covered by `state`/resume (via
///   [`PollingProtocol::resume_stepper`]); anything recomputed at
///   construction must be derivable from the context without touching
///   the RNG;
/// * `done`/`discipline`/`state` never mutate the context;
/// * `reset` re-initializes for a fresh recovery pass, RNG-free,
///   exactly as a newly opened stepper would start.
///
/// `done`, `state` and `reset` have defaults for the common stepper whose
/// cross-step state lives entirely in the context (which tags are still
/// awake): done when no tag is active, state `{}`, nothing to reset. A
/// stepper that carries state across steps overrides all three and its
/// protocol overrides [`PollingProtocol::resume_stepper`]; the default
/// resume rejects any state but `{}`.
pub trait ProtocolStepper {
    /// How the driver should budget and guard this stepper.
    fn discipline(&self) -> StepDiscipline;

    /// Whether the protocol has finished (the legacy loop condition). The
    /// default: no tag is still active.
    fn done(&self, ctx: &SimContext) -> bool {
        ctx.population.active_count() == 0
    }

    /// Advances the protocol by one step.
    fn step(&mut self, ctx: &mut SimContext) -> StepOutcome;

    /// Serializes the cross-step protocol state. The default is the empty
    /// object: the state lives entirely in the context.
    fn state(&self) -> Json {
        Json::Obj(Vec::new())
    }

    /// Re-initializes for a fresh recovery pass (after the driver has
    /// reselected the population). Must not touch the RNG. The default
    /// does nothing.
    fn reset(&mut self, _ctx: &SimContext) {}
}

/// Why a session degraded instead of completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeCause {
    /// The zero-progress circuit breaker opened (dead channel, killed tag).
    CircuitOpen,
    /// The recovery pass budget ran out.
    OutOfPasses,
    /// The sim-time deadline passed with tags still uncollected.
    Deadline,
}

impl DegradeCause {
    /// Short machine-friendly label (used in session reports).
    pub fn label(&self) -> &'static str {
        match self {
            DegradeCause::CircuitOpen => "circuit-open",
            DegradeCause::OutOfPasses => "out-of-passes",
            DegradeCause::Deadline => "deadline",
        }
    }
}

/// How a session ended.
#[derive(Debug, Clone)]
pub enum SessionEnd {
    /// Every tag was collected.
    Complete {
        /// The cumulative report.
        report: Report,
        /// Passes used (1 = no recovery was needed).
        passes: u64,
    },
    /// The protocol stalled and no recovery policy was installed.
    Stalled(PollingError),
    /// The session gave up with tags still uncollected — the circuit
    /// breaker opened, the pass budget ran out, or the deadline passed.
    Degraded {
        /// The cumulative partial report.
        report: Report,
        /// Fraction of the population collected, in `[0, 1]`.
        coverage: f64,
        /// Passes attempted.
        passes: u64,
        /// What stopped the session.
        cause: DegradeCause,
    },
}

impl SessionEnd {
    /// The (possibly partial) report, regardless of variant.
    pub fn report(&self) -> &Report {
        match self {
            SessionEnd::Complete { report, .. } => report,
            SessionEnd::Stalled(err) => err.partial_report(),
            SessionEnd::Degraded { report, .. } => report,
        }
    }

    /// Whether every tag was collected.
    pub fn is_complete(&self) -> bool {
        matches!(self, SessionEnd::Complete { .. })
    }

    /// Passes used (a stalled session had no policy, so ran one pass).
    pub fn passes(&self) -> u64 {
        match self {
            SessionEnd::Complete { passes, .. } | SessionEnd::Degraded { passes, .. } => *passes,
            SessionEnd::Stalled(_) => 1,
        }
    }

    /// Fraction of the population collected, in `[0, 1]`: `1.0` when
    /// complete.
    pub fn coverage(&self) -> f64 {
        match self {
            SessionEnd::Complete { .. } => 1.0,
            SessionEnd::Stalled(PollingError::Stalled {
                partial_report,
                uncollected,
                ..
            }) => coverage_of(partial_report.tags, uncollected.len()),
            SessionEnd::Degraded { coverage, .. } => *coverage,
        }
    }
}

/// Fraction of `tags` collected with `uncollected` still unread (`1.0`
/// for an empty population).
fn coverage_of(tags: usize, uncollected: usize) -> f64 {
    if tags == 0 {
        1.0
    } else {
        (tags - uncollected) as f64 / tags as f64
    }
}

/// The version of the snapshot document [`Session::snapshot`] writes and
/// [`Session::restore_from`] accepts. Version 2 split the population's
/// identity (`tags` or `origin`) from its progress (the packed per-tag
/// vectors in `context`); version 3 carries the clock, deadlines and
/// trace timestamps as whole nanoseconds, written as decimal µs with at
/// most three fraction digits; version 4 writes the trace as the
/// context's `events`, present exactly when the config traces, instead of
/// a log object that restated the config's trace mode; version 5 stores
/// each fact once: the config has no `link` (always the paper's), the
/// driver's stall guard is `{last_polls, streak}` (its threshold is the
/// constant `DEFAULT_STALL_ROUNDS`), and the context's clock is its
/// breakdown alone. A document of any other version, or of none, is a
/// typed error naming this one.
pub(crate) const SNAPSHOT_VERSION: u64 = 5;

/// A live protocol session: one stepper under the driver.
///
/// Snapshotable between any two steps; restorable into a fresh process.
pub struct Session {
    name: &'static str,
    stepper: Box<dyn ProtocolStepper>,
    policy: Option<RecoveryPolicy>,
    deadline_us: Option<Micros>,
    /// Driver steps taken in the current pass.
    steps: u64,
    /// The driver-side stall guard for the current pass.
    guard: StallGuard,
    /// Current pass number (1-based; 1 = the initial attempt).
    passes: u64,
    /// Consecutive zero-progress rounds accumulated across passes.
    idle_rounds: u64,
    /// Poll counter at the start of the current pass.
    polls_before: u64,
    /// Round counter at the start of the current pass.
    rounds_before: u64,
    /// Whether the driver has opened its `session`/`pass` spans.
    spans_open: bool,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("protocol", &self.name)
            .field("policy", &self.policy)
            .field("deadline_us", &self.deadline_us)
            .field("steps", &self.steps)
            .field("passes", &self.passes)
            .field("idle_rounds", &self.idle_rounds)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Opens a session for `protocol` over `ctx`.
    pub fn open<P: PollingProtocol + ?Sized>(protocol: &P, ctx: &SimContext) -> Session {
        Session {
            name: protocol.name(),
            stepper: protocol.open_stepper(ctx),
            policy: None,
            deadline_us: None,
            steps: 0,
            guard: StallGuard::default(),
            passes: 1,
            idle_rounds: 0,
            polls_before: ctx.counters.polls,
            rounds_before: ctx.counters.rounds,
            spans_open: false,
        }
    }

    /// Installs a recovery policy: stalls become backoff-separated passes
    /// instead of terminal [`SessionEnd::Stalled`] results.
    pub fn with_policy(mut self, policy: RecoveryPolicy) -> Session {
        self.policy = Some(policy);
        self
    }

    /// Installs a sim-time deadline on the C1G2 clock: once
    /// `ctx.clock.total()` reaches it, the session returns
    /// [`SessionEnd::Degraded`] with [`DegradeCause::Deadline`] at the
    /// next step boundary.
    pub fn with_deadline(mut self, deadline: Micros) -> Session {
        self.deadline_us = Some(deadline);
        self
    }

    /// Driver steps taken in the current pass.
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }

    /// Current pass number (1-based).
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Runs the session to its end.
    pub fn run(&mut self, ctx: &mut SimContext) -> SessionEnd {
        loop {
            if let Some(end) = self.step_once(ctx) {
                return end;
            }
        }
    }

    /// Runs at most `max_steps` driver steps; `None` means the session is
    /// still live (and snapshotable), `Some` that it ended within budget.
    pub fn run_for(&mut self, ctx: &mut SimContext, max_steps: u64) -> Option<SessionEnd> {
        for _ in 0..max_steps {
            if let Some(end) = self.step_once(ctx) {
                return Some(end);
            }
        }
        None
    }

    /// One driver iteration: the legacy per-round control flow —
    /// loop-condition check, budget, step, guard — plus the deadline
    /// watchdog and (with a policy) the recovery transition. A terminal
    /// outcome closes the driver's `pass` and `session` spans.
    fn step_once(&mut self, ctx: &mut SimContext) -> Option<SessionEnd> {
        let end = self.step_once_inner(ctx)?;
        if self.spans_open {
            ctx.span_exit();
            ctx.span_exit();
            self.spans_open = false;
        }
        Some(end)
    }

    fn step_once_inner(&mut self, ctx: &mut SimContext) -> Option<SessionEnd> {
        if !self.spans_open && ctx.profiler.is_enabled() {
            ctx.span_enter("session");
            ctx.span_enter("pass");
            self.spans_open = true;
        }
        if self.stepper.done(ctx) {
            let report = Report::from_context(self.name, ctx);
            return Some(SessionEnd::Complete {
                report,
                passes: self.passes,
            });
        }
        if let Some(deadline) = self.deadline_us {
            if ctx.clock.total() >= deadline {
                return Some(self.deadline_end(ctx));
            }
        }
        let discipline = self.stepper.discipline();
        // Wraps like the counters: a restored step count may be any u64.
        self.steps = self.steps.wrapping_add(1);
        let stalled = if discipline.max_steps.is_some_and(|cap| self.steps > cap) {
            Some(StallCause::RoundCap)
        } else {
            ctx.span_enter("round");
            let outcome = self.stepper.step(ctx);
            ctx.span_exit();
            match outcome {
                StepOutcome::Stalled(cause) => Some(cause),
                StepOutcome::Progressed => {
                    if discipline.guarded && self.guard.no_progress(ctx) {
                        Some(StallCause::NoProgress)
                    } else {
                        None
                    }
                }
            }
        };
        let cause = stalled?;
        self.on_stall(ctx, cause)
    }

    /// Handles a stall: terminal without a policy, otherwise the recovery
    /// layer's bookkeeping — breaker, backoff, reselect, fresh pass —
    /// reproduced operation-for-operation.
    fn on_stall(&mut self, ctx: &mut SimContext, cause: StallCause) -> Option<SessionEnd> {
        let err = PollingError::stalled_with(self.name, ctx, cause);
        let Some(policy) = self.policy else {
            return Some(SessionEnd::Stalled(err));
        };
        let PollingError::Stalled {
            partial_report,
            uncollected,
            cause,
        } = err;
        let progressed = ctx.counters.polls > self.polls_before;
        if progressed {
            self.idle_rounds = 0;
        } else {
            // Saturating: identical for live sessions (rounds only grow
            // within a pass), and keeps a tampered snapshot whose
            // `rounds_before` exceeds the live counter from underflowing.
            let pass_rounds = ctx
                .counters
                .rounds
                .saturating_sub(self.rounds_before)
                .max(1);
            self.idle_rounds += match cause {
                StallCause::NoProgress => pass_rounds.max(crate::DEFAULT_STALL_ROUNDS),
                StallCause::RoundCap => pass_rounds,
            };
        }
        let out_of_passes = policy.max_passes != 0 && self.passes >= policy.max_passes;
        if out_of_passes || self.idle_rounds >= BREAKER_IDLE_ROUNDS {
            ctx.note_circuit_opened(self.passes, uncollected.len());
            return Some(SessionEnd::Degraded {
                coverage: coverage_of(partial_report.tags, uncollected.len()),
                report: partial_report,
                passes: self.passes,
                cause: if out_of_passes {
                    DegradeCause::OutOfPasses
                } else {
                    DegradeCause::CircuitOpen
                },
            });
        }
        // Exponential backoff with deterministic jitter, charged on the
        // C1G2 clock so recovery shows up in execution time.
        let base = policy.backoff_us(self.passes);
        let jitter = if base > 1 {
            ctx.rng.below(base / 2 + 1)
        } else {
            0
        };
        ctx.charge_recovery_backoff(self.passes, base + jitter);
        // Defensive: a protocol that stalls mid-circle may leave tags
        // deselected; reselection is idempotent and RNG-free.
        ctx.population.reselect_all();
        self.passes += 1;
        ctx.note_recovery_pass(self.passes, uncollected.len());
        // Fresh pass: new budget, new guard, re-initialized stepper — and
        // a fresh `pass` span, so per-pass costs stay attributed.
        self.polls_before = ctx.counters.polls;
        self.rounds_before = ctx.counters.rounds;
        self.steps = 0;
        self.guard = StallGuard::default();
        self.stepper.reset(ctx);
        if self.spans_open {
            ctx.span_exit();
            ctx.span_enter("pass");
        }
        None
    }

    /// The degraded end of a session whose deadline passed, measured from
    /// the context right now: the breaker did not open, time simply ran
    /// out. It records a `DeadlineReached` event, so the trace ends on the
    /// final coverage.
    fn deadline_end(&self, ctx: &mut SimContext) -> SessionEnd {
        let uncollected = ctx.uncollected_handles().len();
        ctx.emit(Event::DeadlineReached {
            passes: self.passes,
            uncollected,
        });
        let report = Report::from_context(self.name, ctx);
        SessionEnd::Degraded {
            coverage: coverage_of(report.tags, uncollected),
            report,
            passes: self.passes,
            cause: DegradeCause::Deadline,
        }
    }

    /// Serializes the whole session — version, protocol name, config, the
    /// population's identity, the context's progress, driver state,
    /// stepper state — at the current step boundary. This is the library
    /// form: the identity is the explicit `tags` list of IDs and payloads
    /// ([`TagPopulation::identity_json`]).
    ///
    /// `config` must be the [`SimConfig`] the context was built with: the
    /// parts of the context that are pure functions of the config (channel,
    /// fault model) restore from it rather than being duplicated.
    pub fn snapshot(&self, ctx: &SimContext, config: &SimConfig) -> Json {
        self.document(ctx, config, ("tags", ctx.population.identity_json()))
    }

    /// [`Session::snapshot`] with the population named by `origin` — a
    /// description the restoring side rebuilds it from, such as the scenario
    /// fields of the request that built it — instead of listed. Restore it
    /// with [`Session::restore_from`].
    pub fn snapshot_with_origin(&self, ctx: &SimContext, config: &SimConfig, origin: Json) -> Json {
        self.document(ctx, config, ("origin", origin))
    }

    fn document(&self, ctx: &SimContext, config: &SimConfig, identity: (&str, Json)) -> Json {
        Json::Obj(vec![
            ("v".to_string(), SNAPSHOT_VERSION.to_json()),
            ("protocol".to_string(), Json::str(self.name)),
            ("config".to_string(), config.to_json()),
            (identity.0.to_string(), identity.1),
            ("context".to_string(), ctx.snapshot()),
            (
                "driver".to_string(),
                Json::Obj(vec![
                    ("steps".to_string(), self.steps.to_json()),
                    ("guard".to_string(), self.guard.to_json()),
                    ("passes".to_string(), self.passes.to_json()),
                    ("idle_rounds".to_string(), self.idle_rounds.to_json()),
                    ("polls_before".to_string(), self.polls_before.to_json()),
                    ("rounds_before".to_string(), self.rounds_before.to_json()),
                    ("policy".to_string(), self.policy.to_json()),
                    ("deadline_us".to_string(), self.deadline_us.to_json()),
                ]),
            ),
            ("stepper".to_string(), self.stepper.state()),
        ])
    }

    /// Restores a session (and its context) from a library
    /// [`Session::snapshot`] document, validating that it belongs to
    /// `protocol`. A snapshot that names its population by `origin` is a
    /// typed error here: only its producer knows how to rebuild it.
    pub fn restore<P: PollingProtocol + ?Sized>(
        protocol: &P,
        doc: &Json,
    ) -> Result<(SimContext, Session), JsonError> {
        let no_origin = |_: &Json| {
            Err::<(usize, fn() -> TagPopulation), _>(JsonError(
                "snapshot names its population by 'origin', not 'tags'; \
                 resume it where that origin is known"
                    .to_string(),
            ))
        };
        let (ctx, session, _) = Session::restore_from(protocol, doc, no_origin)?;
        Ok((ctx, session))
    }

    /// The one restore body, for both population sources: a `tags` list is
    /// read directly, and an `origin` is handed to `origin`, which returns
    /// the population size it names and a builder for it. Returns the
    /// decoded config next to the context and session, so a caller never
    /// parses it twice.
    ///
    /// Everything is validated before the population is built: the
    /// version, the protocol, exactly one of `tags`/`origin`, and every
    /// packed progress vector against the size (see
    /// [`ContextProgress::decode`]). A snapshot naming a huge population
    /// with short vectors is rejected without allocating for it.
    pub fn restore_from<P, B>(
        protocol: &P,
        doc: &Json,
        origin: impl FnOnce(&Json) -> Result<(usize, B), JsonError>,
    ) -> Result<(SimContext, Session, SimConfig), JsonError>
    where
        P: PollingProtocol + ?Sized,
        B: FnOnce() -> TagPopulation,
    {
        match doc.get("v") {
            Some(Json::UInt(SNAPSHOT_VERSION)) => {}
            found => {
                return Err(JsonError(format!(
                    "snapshot version {} is not supported; expected \"v\": {SNAPSHOT_VERSION}",
                    found.map_or_else(|| "(none)".to_string(), Json::to_string)
                )))
            }
        }
        let name: String = doc.field("protocol")?;
        if name != protocol.name() {
            return Err(JsonError(format!(
                "snapshot belongs to protocol '{name}', cannot resume as '{}'",
                protocol.name()
            )));
        }
        let config: SimConfig = doc.field("config")?;
        enum Source<B> {
            Listed(TagPopulation),
            Built(B),
        }
        let (n, source) = match (doc.get("tags"), doc.get("origin")) {
            (Some(tags), None) => {
                let population = TagPopulation::from_identity_json(tags)
                    .map_err(|e| JsonError(format!("in field 'tags': {}", e.0)))?;
                (population.len(), Source::Listed(population))
            }
            (None, Some(named)) => {
                let (n, build) = origin(named)?;
                (n, Source::Built(build))
            }
            (Some(_), Some(_)) => {
                return Err(JsonError(
                    "snapshot has both 'tags' and 'origin'; it must name its population once"
                        .to_string(),
                ))
            }
            (None, None) => {
                return Err(JsonError(
                    "snapshot has neither 'tags' nor 'origin'".to_string(),
                ))
            }
        };
        let ctx_json = doc
            .get("context")
            .ok_or_else(|| JsonError("snapshot has no 'context'".to_string()))?;
        let progress = ContextProgress::decode(&config, ctx_json, n)?;
        let driver = doc
            .get("driver")
            .ok_or_else(|| JsonError("snapshot has no 'driver'".to_string()))?;
        let passes: u64 = driver.field("passes")?;
        if passes == 0 {
            return Err(JsonError(
                "driver pass counter must be ≥ 1 (pass numbers are 1-based)".to_string(),
            ));
        }
        let stepper_json = doc
            .get("stepper")
            .ok_or_else(|| JsonError("snapshot has no 'stepper'".to_string()))?;
        let policy = driver.field("policy")?;
        let deadline_us = driver.field("deadline_us")?;
        let steps = driver.field("steps")?;
        let guard = driver.field("guard")?;
        let idle_rounds = driver.field("idle_rounds")?;
        let polls_before = driver.field("polls_before")?;
        let rounds_before = driver.field("rounds_before")?;
        let population = match source {
            Source::Listed(population) => population,
            Source::Built(build) => build(),
        };
        let ctx = SimContext::restore(&config, population, progress)?;
        let session = Session {
            name: protocol.name(),
            stepper: protocol.resume_stepper(&ctx, stepper_json)?,
            policy,
            deadline_us,
            steps,
            guard,
            passes,
            idle_rounds,
            polls_before,
            rounds_before,
            spans_open: false,
        };
        Ok((ctx, session, config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpp::HppConfig;
    use rfid_system::fault::FaultModel;
    use rfid_system::{BitVec, TagPopulation};

    fn population(n: usize) -> TagPopulation {
        TagPopulation::sequential(n, |_| BitVec::from_value(1, 1))
    }

    fn small_budget_hpp() -> HppConfig {
        // A tiny per-pass round budget forces multi-pass recovery even at
        // moderate loss, exercising the backoff and merge paths.
        HppConfig { max_rounds: 4 }
    }

    fn faulted(n: usize, seed: u64, fault: FaultModel) -> SimContext {
        SimContext::new(population(n), &SimConfig::paper(seed).with_fault(fault))
    }

    /// Runs `protocol` under `policy` to its end.
    fn recover(
        protocol: &dyn PollingProtocol,
        policy: RecoveryPolicy,
        ctx: &mut SimContext,
    ) -> SessionEnd {
        Session::open(protocol, ctx).with_policy(policy).run(ctx)
    }

    #[test]
    fn perfect_channel_completes_in_one_pass() {
        let mut ctx = faulted(100, 1, FaultModel::perfect());
        let protocol = HppConfig::default();
        let end = recover(&protocol, RecoveryPolicy::unbounded(), &mut ctx);
        assert!(end.is_complete());
        assert_eq!(end.passes(), 1);
        assert_eq!(end.coverage(), 1.0);
        assert_eq!(ctx.counters.recovery_passes, 0);
        assert_eq!(ctx.counters.recovery_backoff_us, 0);
    }

    #[test]
    fn lossy_channel_converges_over_multiple_passes() {
        let fault = FaultModel::perfect().with_downlink_loss(0.4);
        let mut ctx = faulted(200, 7, fault);
        let end = recover(&small_budget_hpp(), RecoveryPolicy::unbounded(), &mut ctx);
        assert!(end.is_complete(), "survivable loss must converge");
        assert!(end.passes() > 1, "a 4-round budget cannot finish pass 1");
        ctx.assert_complete();
        assert_eq!(ctx.counters.recovery_passes, end.passes() - 1);
        assert!(ctx.counters.recovery_backoff_us > 0);
        assert_eq!(end.report().counters.polls, 200, "partial reports merged");
    }

    #[test]
    fn dead_channel_degrades_with_consistent_coverage() {
        let fault = FaultModel::perfect().with_downlink_loss(1.0);
        let mut ctx = faulted(50, 3, fault);
        let end = recover(&small_budget_hpp(), RecoveryPolicy::unbounded(), &mut ctx);
        let SessionEnd::Degraded {
            report,
            coverage,
            passes,
            cause,
        } = end
        else {
            panic!("a jammed downlink cannot complete");
        };
        assert_eq!(cause, DegradeCause::CircuitOpen);
        assert_eq!(coverage, 0.0);
        assert_eq!(report.counters.polls, 0);
        // With a 4-round budget every pass is a zero-progress RoundCap
        // stall worth 4 idle rounds, so the breaker needs 512 / 4 = 128
        // passes — bounded, unlike a streak counter that ignores RoundCap.
        assert_eq!(passes, 128);
        assert_eq!(ctx.counters.recovery_passes, 127);
    }

    #[test]
    fn killed_tag_degrades_with_partial_coverage() {
        use rfid_system::fault::{FaultPlan, KillRule};
        let plan = FaultPlan {
            kill_after_replies: vec![KillRule {
                tag: 5,
                after_replies: 0,
            }],
            ..FaultPlan::none()
        };
        let mut ctx = faulted(40, 11, FaultModel::perfect().with_plan(plan));
        // Default (large) round budget: each pass ends in a NoProgress
        // stall, so the breaker opens after two passes beyond the last
        // progress.
        let protocol = HppConfig::default();
        let end = recover(&protocol, RecoveryPolicy::unbounded(), &mut ctx);
        assert!(!end.is_complete(), "a dead tag can never be collected");
        assert_eq!(end.report().counters.polls, 39);
        assert!((end.coverage() - 39.0 / 40.0).abs() < 1e-12);
        assert_eq!(ctx.uncollected_handles(), vec![5]);
    }

    #[test]
    fn max_passes_caps_the_session() {
        let fault = FaultModel::perfect().with_downlink_loss(1.0);
        let mut ctx = faulted(30, 5, fault);
        let policy = RecoveryPolicy::unbounded().with_max_passes(3);
        let end = recover(&small_budget_hpp(), policy, &mut ctx);
        assert!(matches!(
            end,
            SessionEnd::Degraded {
                cause: DegradeCause::OutOfPasses,
                passes: 3,
                ..
            }
        ));
        assert_eq!(ctx.counters.recovery_passes, 2);
    }

    #[test]
    fn stalled_end_reports_one_pass_and_its_coverage() {
        let fault = FaultModel::perfect().with_downlink_loss(1.0);
        let mut ctx = faulted(10, 13, fault);
        let end = Session::open(&small_budget_hpp(), &ctx).run(&mut ctx);
        assert!(matches!(end, SessionEnd::Stalled(_)));
        assert_eq!(end.passes(), 1);
        assert_eq!(end.coverage(), 0.0);
    }

    #[test]
    fn backoff_ladder_is_exponential_and_capped() {
        let p = RecoveryPolicy::default().with_backoff(1_000, 16_000);
        assert_eq!(p.backoff_us(1), 1_000);
        assert_eq!(p.backoff_us(2), 2_000);
        assert_eq!(p.backoff_us(3), 4_000);
        assert_eq!(p.backoff_us(5), 16_000);
        assert_eq!(p.backoff_us(60), 16_000, "shift saturates, cap holds");
    }

    #[test]
    fn recovery_is_deterministic_per_seed() {
        let run_once = |seed: u64| {
            let fault = FaultModel::perfect().with_downlink_loss(0.5);
            let mut ctx = faulted(120, seed, fault);
            let end = recover(&small_budget_hpp(), RecoveryPolicy::unbounded(), &mut ctx);
            (end.passes(), ctx.counters, ctx.clock.total())
        };
        assert_eq!(run_once(9), run_once(9));
        assert_ne!(run_once(9).2, run_once(10).2);
    }

    #[test]
    fn tpp_recovers_by_re_descending_the_tree() {
        let fault = FaultModel::perfect().with_downlink_loss(0.4);
        let protocol = crate::tpp::TppConfig {
            max_rounds: 4,
            ..crate::tpp::TppConfig::default()
        };
        let mut ctx = faulted(150, 13, fault);
        let end = recover(&protocol, RecoveryPolicy::unbounded(), &mut ctx);
        assert!(end.is_complete());
        assert!(end.passes() > 1);
        ctx.assert_complete();
    }

    #[test]
    fn policy_round_trips_through_json() {
        let p = RecoveryPolicy::unbounded()
            .with_max_passes(9)
            .with_backoff(500, 8_000);
        let json = rfid_system::to_json_string(&p);
        let back: RecoveryPolicy = rfid_system::from_json_str(&json).expect("parses");
        assert_eq!(back, p);
    }

    #[test]
    fn profiling_does_not_perturb_the_run() {
        // Same seed, same faults, trace on — the only difference is the
        // profiler. Report, counters and trace must be bit-identical, for
        // a small-budget HPP recovering over passes and for a default HPP
        // over 500 tags.
        let fault = FaultModel::perfect().with_downlink_loss(0.3);
        let cases = [
            (
                small_budget_hpp(),
                64,
                17,
                Some(RecoveryPolicy::unbounded()),
            ),
            (HppConfig::default(), 500, 11, None),
        ];
        for (protocol, n, seed, policy) in cases {
            let run = |profile: bool| {
                let mut cfg = SimConfig::paper(seed)
                    .with_fault(fault.clone())
                    .with_trace();
                if profile {
                    cfg = cfg.with_profile();
                }
                let mut ctx = SimContext::new(population(n), &cfg);
                let mut session = Session::open(&protocol, &ctx);
                if let Some(policy) = policy {
                    session = session.with_policy(policy);
                }
                let end = session.run(&mut ctx);
                assert!(end.is_complete(), "n = {n}: HPP must complete");
                let report = end.report().to_json().to_string();
                (report, ctx.counters, ctx.log.digest(), ctx.log.to_jsonl())
            };
            let off = run(false);
            let on = run(true);
            assert_eq!(off.0, on.0, "n = {n}: report must not see the profiler");
            assert_eq!(off.1, on.1, "n = {n}: counters must not see the profiler");
            assert_eq!(
                off.2, on.2,
                "n = {n}: trace digest must not see the profiler"
            );
            assert_eq!(off.3, on.3, "n = {n}: trace must not see the profiler");
        }
    }

    #[test]
    fn profiled_session_records_the_span_hierarchy() {
        let cfg = SimConfig::paper(5).with_profile();
        let mut ctx = SimContext::new(population(32), &cfg);
        let protocol = HppConfig::default();
        let mut session = Session::open(&protocol, &ctx);
        let end = session.run(&mut ctx);
        assert!(end.is_complete());
        assert!(
            ctx.profiler.open_stack().is_empty(),
            "a complete session closes every span"
        );
        let paths: Vec<Vec<&str>> = (0..ctx.profiler.nodes().len())
            .map(|i| ctx.profiler.path(i))
            .collect();
        assert!(paths.contains(&vec!["session"]));
        assert!(paths.contains(&vec!["session", "pass"]));
        assert!(paths.contains(&vec!["session", "pass", "round"]));
        assert!(
            paths.contains(&vec!["session", "pass", "round", "poll"]),
            "the simulator's poll leaf nests under the driver's round"
        );
    }

    #[test]
    fn unprofiled_session_records_no_spans() {
        let cfg = SimConfig::paper(5);
        let mut ctx = SimContext::new(population(16), &cfg);
        let protocol = HppConfig::default();
        let end = Session::open(&protocol, &ctx).run(&mut ctx);
        assert!(end.is_complete());
        assert!(ctx.profiler.is_empty());
    }

    #[test]
    fn recovery_passes_reopen_the_pass_span() {
        let fault = FaultModel::perfect().with_downlink_loss(0.4);
        let cfg = SimConfig::paper(7).with_fault(fault).with_profile();
        let mut ctx = SimContext::new(population(100), &cfg);
        let protocol = small_budget_hpp();
        let mut session = Session::open(&protocol, &ctx).with_policy(RecoveryPolicy::unbounded());
        let end = session.run(&mut ctx);
        assert!(end.is_complete());
        let passes = session.passes();
        assert!(passes > 1, "a 4-round budget cannot finish pass 1");
        let pass_idx = (0..ctx.profiler.nodes().len())
            .find(|&i| ctx.profiler.path(i) == ["session", "pass"])
            .expect("pass span exists");
        assert_eq!(
            ctx.profiler.nodes()[pass_idx].calls,
            passes,
            "one pass span per recovery pass"
        );
        assert!(ctx.profiler.open_stack().is_empty());
    }
}
