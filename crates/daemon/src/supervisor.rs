//! Fleet supervision: checkpoints, resurrection, admission control.
//!
//! A [`Supervisor`] is the daemon's cross-connection safety net. Every
//! served session is *admitted* through it (which is where the
//! [`FleetLimits`] admission budget sheds load with typed
//! `Busy{retry_after_us}` responses) with its [`RecoveryPoint`]: the
//! `Open` request that built it, until its first deposited checkpoint
//! turns that into a `Resume` of the snapshot. A session is *retired*
//! when it completes or is closed. When a connection dies with live
//! sessions on it — a handler panic, a poisoned byte stream, a client
//! that vanished — the supervisor *resurrects* each orphan by replaying
//! its recovery point through the verb's own build or restore path and
//! runs it to completion, so the inventory the reader was collecting is
//! never lost. Deterministic replay makes resurrection exact: the
//! rebuilt run finishes with the same report JSON and FNV-1a trace
//! digest the uninterrupted run would have produced (the resilience gate
//! pins this). If a recovery point cannot be replayed, the supervisor
//! keeps a failure document for the postmortem instead of dying quietly.
//! A resurrected session that did not complete carries its postmortem
//! bundle, as a served one does.
//!
//! Shutdown is a *drain*: the serving loop deposits one final checkpoint
//! per live session before the listener closes, so a controller can
//! resume the fleet's work elsewhere.
//!
//! Everything is counted in a [`MetricsRegistry`] using the canonical
//! [`wire_counters`] names, and [`Supervisor::reconcile`] checks the
//! conservation law every admitted session must satisfy: it is retired
//! exactly once — completed, closed, resurrected, failed, or drained —
//! or it is still live.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use rfid_obs::{postmortem, wire_counters, MetricsRegistry};
use rfid_protocols::SessionEnd;
use rfid_system::{Json, ToJson};
use rfid_wire::{OpenRequest, SessionOutcome};

use crate::service::{open_session, restore_session, Live};

/// Admission-control budgets for a served fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetLimits {
    /// Maximum concurrently live (admitted, not yet retired) sessions.
    pub(crate) max_sessions: usize,
    /// Maximum concurrently executing `Run` commands.
    pub(crate) max_inflight: usize,
    /// Backoff suggested to shed clients, in microseconds.
    pub(crate) busy_retry_after_us: u64,
}

impl FleetLimits {
    /// No budgets: nothing is ever shed.
    pub(crate) fn unlimited() -> FleetLimits {
        FleetLimits {
            max_sessions: usize::MAX,
            max_inflight: usize::MAX,
            busy_retry_after_us: 10_000,
        }
    }

    /// A bounded fleet: at most `max_sessions` live sessions and
    /// `max_inflight` concurrent runs.
    pub fn bounded(max_sessions: usize, max_inflight: usize) -> FleetLimits {
        FleetLimits {
            max_sessions: max_sessions.max(1),
            max_inflight: max_inflight.max(1),
            busy_retry_after_us: 10_000,
        }
    }

    /// Overrides the backoff suggested to shed clients.
    pub fn with_retry_after_us(mut self, us: u64) -> FleetLimits {
        self.busy_retry_after_us = us;
        self
    }
}

/// The command that recreates a live session: what resurrection replays.
#[derive(Debug)]
pub(crate) enum RecoveryPoint {
    /// No checkpoint yet: replay the `Open` that built the session.
    Open(Box<OpenRequest>),
    /// The last deposited checkpoint: replay a `Resume` of it.
    Resume(Json),
}

/// One resurrected orphan: which global session, and how its restored
/// run ended.
#[derive(Debug, Clone)]
pub struct Resurrection {
    /// The supervisor-global session id.
    pub gid: u64,
    /// The outcome of running the rebuilt session to completion.
    pub outcome: SessionOutcome,
    /// The run's postmortem bundle as compact JSON text, if the session
    /// did not complete.
    pub bundle: Option<String>,
}

/// How a session left the live set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Retire {
    /// The session ran to its end on its own connection.
    Completed,
    /// The client discarded it with `Close` before it ended.
    Closed,
}

#[derive(Debug)]
struct SupState {
    /// gid → recovery point, for every live session.
    live: HashMap<u64, RecoveryPoint>,
    next_gid: u64,
    inflight: usize,
    metrics: MetricsRegistry,
    resurrections: Vec<Resurrection>,
    drained: Vec<(u64, Json)>,
}

/// The fleet-wide session registry: admission, checkpoints, resurrection.
#[derive(Debug)]
pub struct Supervisor {
    limits: FleetLimits,
    state: Mutex<SupState>,
}

impl Supervisor {
    /// A supervisor enforcing `limits`.
    pub(crate) fn new(limits: FleetLimits) -> Supervisor {
        Supervisor {
            limits,
            state: Mutex::new(SupState {
                live: HashMap::new(),
                next_gid: 1,
                inflight: 0,
                metrics: MetricsRegistry::default(),
                resurrections: Vec::new(),
                drained: Vec::new(),
            }),
        }
    }

    /// A supervisor that never sheds.
    pub fn unlimited() -> Supervisor {
        Supervisor::new(FleetLimits::unlimited())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SupState> {
        self.state.lock().expect("supervisor lock")
    }

    /// Admits a new session with the command that recreates it, or sheds
    /// it. `Ok` carries the global session id; `Err` carries the
    /// suggested retry backoff in microseconds.
    pub(crate) fn admit(&self, record: RecoveryPoint) -> Result<u64, u64> {
        let mut s = self.lock();
        if s.live.len() >= self.limits.max_sessions {
            s.metrics.inc(wire_counters::SESSIONS_SHED, 1);
            return Err(self.limits.busy_retry_after_us);
        }
        let gid = s.next_gid;
        s.next_gid += 1;
        s.live.insert(gid, record);
        s.metrics.inc("sessions_admitted", 1);
        Ok(gid)
    }

    /// Deposits a fresher checkpoint for a live session, which becomes its
    /// recovery point (no-op once the session has been retired).
    pub(crate) fn deposit(&self, gid: u64, checkpoint: Json) {
        let mut s = self.lock();
        if let Some(slot) = s.live.get_mut(&gid) {
            *slot = RecoveryPoint::Resume(checkpoint);
            s.metrics.inc("supervisor_checkpoints", 1);
        }
    }

    /// Claims an in-flight run slot, or sheds the run. Pair every `Ok`
    /// with exactly one [`Supervisor::end_run`] (use a drop guard so a
    /// panicking handler still releases its slot).
    pub(crate) fn begin_run(&self) -> Result<(), u64> {
        let mut s = self.lock();
        if s.inflight >= self.limits.max_inflight {
            s.metrics.inc(wire_counters::SESSIONS_SHED, 1);
            return Err(self.limits.busy_retry_after_us);
        }
        s.inflight += 1;
        Ok(())
    }

    /// Releases an in-flight run slot.
    pub(crate) fn end_run(&self) {
        let mut s = self.lock();
        s.inflight = s.inflight.saturating_sub(1);
    }

    /// Removes a session from the live set (idempotent).
    pub(crate) fn retire(&self, gid: u64, how: Retire) {
        let mut s = self.lock();
        if s.live.remove(&gid).is_some() {
            let name = match how {
                Retire::Completed => "sessions_completed",
                Retire::Closed => "sessions_closed",
            };
            s.metrics.inc(name, 1);
        }
    }

    /// Deposits a final checkpoint for a live session being drained at
    /// shutdown and retires it. The snapshot stays fetchable through
    /// [`Supervisor::drained`] so a controller can resume it elsewhere.
    pub(crate) fn drain_session(&self, gid: u64, checkpoint: Json) {
        let mut s = self.lock();
        if s.live.remove(&gid).is_some() {
            s.drained.push((gid, checkpoint));
            s.metrics.inc(wire_counters::DRAIN_CHECKPOINTS, 1);
        }
    }

    /// Resurrects every still-live session in `gids` from its recovery
    /// point: rebuild, run to completion, record the outcome. Called by
    /// the serving layer when a connection dies with sessions on it.
    /// Replay failures are counted, never propagated — the fleet outlives
    /// any one corpse.
    pub(crate) fn connection_lost(&self, gids: &[u64]) {
        for &gid in gids {
            let Some(record) = self.lock().live.remove(&gid) else {
                continue; // already retired
            };
            match self.resurrect(&record) {
                Some((outcome, bundle)) => {
                    let mut s = self.lock();
                    s.metrics.inc(wire_counters::SESSIONS_RESURRECTED, 1);
                    s.resurrections.push(Resurrection {
                        gid,
                        outcome,
                        bundle,
                    });
                }
                None => self.lock().metrics.inc("sessions_resurrect_failed", 1),
            }
        }
    }

    /// Counts a caught handler panic (`kill_point` distinguishes the
    /// chaos harness's deliberate kills from genuine bugs).
    pub(crate) fn note_panic(&self, kill_point: bool) {
        let name = if kill_point {
            "kill_points_fired"
        } else {
            "handler_panics"
        };
        self.lock().metrics.inc(name, 1);
    }

    /// A named counter's current value.
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().metrics.counter(name)
    }

    /// Outcomes of every resurrection so far.
    pub fn resurrections(&self) -> Vec<Resurrection> {
        self.lock().resurrections.clone()
    }

    /// Final checkpoints deposited by shutdown drains.
    pub fn drained(&self) -> Vec<(u64, Json)> {
        self.lock().drained.clone()
    }

    /// Rebuilds a session through the same function its verb used and
    /// runs it to completion, producing the same outcome shape the wire's
    /// `Done` response carries, and the bundle a served run would keep.
    /// `None` when the record no longer replays.
    fn resurrect(&self, record: &RecoveryPoint) -> Option<(SessionOutcome, Option<String>)> {
        let mut live = match record {
            RecoveryPoint::Open(req) => open_session(req),
            RecoveryPoint::Resume(snapshot) => restore_session(snapshot),
        }
        .ok()?;
        let end = live.session.run(&mut live.ctx);
        Some(outcome_from_end(end, &live))
    }

    /// The conservation law: every admitted session is accounted for
    /// exactly once — completed, closed, resurrected, failed, drained,
    /// or still live.
    pub fn reconcile(&self) -> Result<(), String> {
        let s = self.lock();
        let admitted = s.metrics.counter("sessions_admitted");
        let accounted = s.metrics.counter("sessions_completed")
            + s.metrics.counter("sessions_closed")
            + s.metrics.counter(wire_counters::SESSIONS_RESURRECTED)
            + s.metrics.counter("sessions_resurrect_failed")
            + s.metrics.counter(wire_counters::DRAIN_CHECKPOINTS)
            + s.live.len() as u64;
        if admitted != accounted {
            return Err(format!(
                "session conservation violated: {admitted} admitted, {accounted} accounted for"
            ));
        }
        Ok(())
    }
}

/// Builds the serializable outcome for a finished session — shared by
/// the per-connection dispatcher and supervisor resurrection so both
/// report bit-identical JSON for the same run. A traced context carries
/// its trace digest. An end that did not complete also yields its
/// postmortem bundle as compact JSON text (DESIGN.md §14 trigger rules),
/// naming the population by `origin` when a scenario built it.
pub(crate) fn outcome_from_end(end: SessionEnd, live: &Live) -> (SessionOutcome, Option<String>) {
    let ctx = &live.ctx;
    let (status, cause, bundle_cause) = match &end {
        SessionEnd::Complete { .. } => ("complete", None, None),
        SessionEnd::Stalled(e) => ("stalled", Some(e.cause().label()), Some("stalled")),
        SessionEnd::Degraded { cause, .. } => {
            ("degraded", Some(cause.label()), Some(cause.label()))
        }
    };
    let report = end.report().to_json();
    let bundle = bundle_cause.map(|cause| {
        let (protocol, passes, coverage) = (&end.report().protocol, end.passes(), end.coverage());
        postmortem(
            protocol,
            cause,
            &live.config,
            ctx,
            live.origin.map(|origin| origin.to_json()),
            report.clone(),
            passes,
            coverage,
        )
        .to_string()
    });
    let outcome = SessionOutcome {
        status: status.to_string(),
        report,
        passes: end.passes(),
        coverage: end.coverage(),
        cause: cause.map(str::to_string),
        trace_digest: ctx.log.is_enabled().then(|| ctx.log.digest()),
    };
    (outcome, bundle)
}

/// The panic payload of a deliberate chaos kill point. The serving loop
/// recognizes it when unwinding a handler, so harness-induced crashes
/// are counted apart from genuine bugs, and
/// [`install_killpoint_hook`] keeps them out of stderr.
#[derive(Debug)]
pub(crate) struct KillPoint;

/// A fire-once crash trigger: the first session to reach `after_steps`
/// driver steps inside a `Run` panics with [`KillPoint`] at a chunk
/// boundary, simulating a handler crash mid-inventory. Armed once per
/// switch — resurrections and reconnects do not re-trip it, which is
/// what makes a chaos-killed link "eventually usable".
#[derive(Debug)]
pub(crate) struct KillSwitch {
    after_steps: u64,
    fired: AtomicBool,
}

impl KillSwitch {
    /// A switch that fires once a run passes `after_steps` steps.
    pub(crate) fn new(after_steps: u64) -> KillSwitch {
        KillSwitch {
            after_steps,
            fired: AtomicBool::new(false),
        }
    }

    /// Whether the switch fires at this step boundary (true exactly once
    /// across the fleet).
    pub(crate) fn should_fire(&self, steps: u64) -> bool {
        steps >= self.after_steps
            && self
                .fired
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
    }
}

/// Installs a process-wide panic hook that suppresses `KillPoint`
/// panics (they are the chaos harness working as intended) and defers
/// everything else to the previous hook. Idempotent.
pub fn install_killpoint_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<KillPoint>() {
                return;
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::protocol_by_name;
    use crate::Service;
    use rfid_protocols::Session;
    use rfid_system::{SimConfig, SimContext};
    use rfid_wire::{Command, Response};
    use rfid_workloads::Scenario;

    /// A record the admission tests never replay.
    fn open_record() -> RecoveryPoint {
        RecoveryPoint::Open(Box::new(OpenRequest::new("TPP", 8, 1, 1)))
    }

    /// A TPP session checkpointed after `steps` driver steps, in both
    /// snapshot forms — the library form listing its tags, and the served
    /// form a `Checkpoint` answers with, naming its origin — next to the
    /// outcome of the uninterrupted run.
    fn checkpoints_at(steps: u64) -> ([Json; 2], SessionOutcome) {
        let scenario = Scenario::uniform(48, 4).with_seed(9);
        let config = SimConfig::paper(scenario.protocol_seed()).with_trace();
        let protocol = protocol_by_name("TPP").unwrap();
        let ctx = SimContext::new(scenario.build_population(), &config);
        let session = Session::open(protocol.as_ref(), &ctx);
        let mut live = Live {
            ctx,
            session,
            config,
            origin: None,
        };
        if steps > 0 {
            assert!(
                live.session.run_for(&mut live.ctx, steps).is_none(),
                "ended early"
            );
        }
        let library = live.session.snapshot(&live.ctx, &live.config);
        let end = live.session.run(&mut live.ctx);
        let (outcome, _) = outcome_from_end(end, &live);

        // The same session served: the default config of this request is
        // the one above.
        let mut service = Service::new();
        let req = OpenRequest::new("TPP", 48, 4, 9);
        let Response::Opened { session } = service.handle(Command::Open(req)).remove(0) else {
            panic!("open failed");
        };
        if steps > 0 {
            let ran = service.handle(Command::Run {
                session,
                max_steps: Some(steps),
            });
            assert!(matches!(ran.last(), Some(Response::Paused { .. })));
        }
        let Response::Snapshot {
            snapshot: served, ..
        } = service.handle(Command::Checkpoint { session }).remove(0)
        else {
            panic!("checkpoint failed");
        };
        assert!(library.get("tags").is_some() && library.get("origin").is_none());
        assert!(served.get("origin").is_some() && served.get("tags").is_none());
        ([library, served], outcome)
    }

    #[test]
    fn resurrection_finishes_bit_identically() {
        for steps in [0, 5] {
            let (snapshots, reference) = checkpoints_at(steps);
            for (form, snapshot) in ["library", "served"].into_iter().zip(snapshots) {
                let sup = Supervisor::unlimited();
                let gid = sup.admit(RecoveryPoint::Resume(snapshot.clone())).unwrap();
                sup.deposit(gid, snapshot);
                sup.connection_lost(&[gid]);
                let records = sup.resurrections();
                assert_eq!(records.len(), 1);
                assert_eq!(records[0].gid, gid);
                assert_eq!(
                    records[0].outcome, reference,
                    "resurrected run drifted from the uninterrupted one \
                     (from step {steps}, {form} snapshot)"
                );
                assert_eq!(sup.counter(wire_counters::SESSIONS_RESURRECTED), 1);
                assert_eq!(sup.lock().live.len(), 0);
                sup.reconcile().unwrap();
            }
        }
    }

    #[test]
    fn admission_budget_sheds_then_readmits() {
        let sup = Supervisor::new(FleetLimits::bounded(1, 4).with_retry_after_us(123));
        let gid = sup.admit(open_record()).unwrap();
        assert_eq!(sup.admit(open_record()), Err(123));
        assert_eq!(sup.counter(wire_counters::SESSIONS_SHED), 1);
        sup.retire(gid, Retire::Completed);
        assert!(sup.admit(open_record()).is_ok());
        sup.reconcile().unwrap();
    }

    #[test]
    fn inflight_budget_sheds_runs() {
        let sup = Supervisor::new(FleetLimits::bounded(8, 1));
        sup.begin_run().unwrap();
        assert!(sup.begin_run().is_err());
        sup.end_run();
        sup.begin_run().unwrap();
        sup.end_run();
    }

    #[test]
    fn drain_keeps_the_snapshot_and_counts() {
        let (snapshots, reference) = checkpoints_at(3);
        for (form, snapshot) in ["library", "served"].into_iter().zip(snapshots) {
            let sup = Supervisor::unlimited();
            let gid = sup.admit(RecoveryPoint::Resume(snapshot.clone())).unwrap();
            sup.drain_session(gid, snapshot);
            assert_eq!(sup.counter(wire_counters::DRAIN_CHECKPOINTS), 1);
            let drained = sup.drained();
            assert_eq!(drained.len(), 1);
            // The drained snapshot must still finish bit-identically.
            let (outcome, _) = sup
                .resurrect(&RecoveryPoint::Resume(drained[0].1.clone()))
                .unwrap();
            assert_eq!(outcome, reference, "{form} snapshot drifted");
            sup.reconcile().unwrap();
        }
    }

    #[test]
    fn unrestorable_checkpoint_counts_a_failed_resurrection() {
        let sup = Supervisor::unlimited();
        let bogus = Json::Obj(vec![("protocol".to_string(), Json::str("TPP"))]);
        let gid = sup.admit(RecoveryPoint::Resume(bogus)).unwrap();
        sup.connection_lost(&[gid]);
        assert_eq!(sup.counter("sessions_resurrect_failed"), 1);
        assert!(sup.resurrections().is_empty());
        sup.reconcile().unwrap();
    }

    #[test]
    fn retire_is_idempotent_and_deposit_ignores_retired() {
        let sup = Supervisor::unlimited();
        let gid = sup.admit(open_record()).unwrap();
        sup.retire(gid, Retire::Closed);
        sup.retire(gid, Retire::Closed);
        sup.deposit(gid, Json::Obj(vec![]));
        assert_eq!(sup.counter("sessions_closed"), 1);
        assert_eq!(sup.counter("supervisor_checkpoints"), 0);
        // connection_lost on a retired gid is a no-op, not a double count.
        sup.connection_lost(&[gid]);
        assert_eq!(sup.counter(wire_counters::SESSIONS_RESURRECTED), 0);
        sup.reconcile().unwrap();
    }

    #[test]
    fn kill_switch_fires_exactly_once() {
        let k = KillSwitch::new(10);
        assert!(!k.should_fire(9));
        assert!(!k.fired.load(Ordering::SeqCst));
        assert!(k.should_fire(10));
        assert!(k.fired.load(Ordering::SeqCst));
        assert!(!k.should_fire(11), "armed once, never again");
    }
}
