//! The per-connection command dispatcher.
//!
//! A [`Service`] owns one connection's worth of virtual reader sessions
//! and turns each wire [`Command`] into the [`Response`]s to send back.
//! It is transport-agnostic and single-threaded by construction — the
//! daemon gives every connection its own `Service` on its own thread, so
//! sessions never need locks and every run stays deterministic.
//!
//! [`serve_connection`] is the read→dispatch→write loop shared by the
//! TCP server and the in-memory loopback path: codec violations are
//! answered with typed [`ErrorCode::BadFrame`]/[`ErrorCode::BadPayload`]
//! errors and the loop keeps going — a hostile or corrupted byte stream
//! can never wedge the connection state machine.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rfid_obs::metrics_from_log;
use rfid_protocols::Session;
use rfid_system::id::EPC_BITS;
use rfid_system::{FromJson, Json, JsonError, SimConfig, SimContext, ToJson};
use rfid_wire::{
    Command, ErrorCode, FrameError, OpenRequest, Response, Transport, WireError, WIRE_VERSION,
};
use rfid_workloads::Scenario;

use crate::registry::{protocol_by_name, protocol_names};
use crate::supervisor::{
    outcome_from_end, KillPoint, KillSwitch, RecoveryPoint, Retire, Supervisor,
};

/// What the server calls itself in the `Hello` handshake.
pub(crate) const SERVER_NAME: &str = "rfid-daemon/0.1";

/// One virtual reader session: the session its verb built, plus the
/// bookkeeping the wire verbs need around it.
struct ReaderSession {
    /// The engine, its context and config (the config is updated on fault
    /// injection, so later checkpoints restore against the live model).
    live: Live,
    /// Supervisor-global session id (admission, deposits, retirement).
    gid: u64,
    /// Emit a progress frame every this many driver steps (0 = never).
    progress_every: u64,
    /// Set once the session ended; further `Run`/`Checkpoint` are
    /// `BadState`, but metrics and the bundle stay fetchable.
    done: bool,
    /// The postmortem bundle as compact JSON text, kept when the session
    /// ends `stalled` or `degraded`; `Flight` serves it.
    bundle: Option<String>,
}

/// The scenario fields of the `Open` that built a served session:
/// `Scenario::uniform(n, info_bits).with_seed(seed)` regenerates its
/// population, so a served snapshot carries these three numbers instead
/// of the tag list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Origin {
    n: u64,
    info_bits: u64,
    seed: u64,
}

rfid_system::impl_json_struct!(Origin { n, info_bits, seed });

/// The most tag bits one served session may hold: `n × (96 + info_bits)`,
/// EPC plus payload per tag, as the population stores them (its payload
/// column holds `info_bits / 8` bytes per tag). 2^28 bits is 32 MiB, 137×
/// the largest served workload (10,000 tags × 100 info bits = 1.96 Mbit).
/// `Open` and a served snapshot's `origin` are checked against it before
/// anything of size `n` is built.
pub(crate) const MAX_SESSION_TAG_BITS: u64 = 1 << 28;

impl Origin {
    /// Rejects an empty population, a zero-width payload and a population
    /// over [`MAX_SESSION_TAG_BITS`], before it is built.
    fn check_budget(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("population must be non-empty".into());
        }
        if self.info_bits == 0 {
            return Err("payloads must be at least one bit wide".into());
        }
        let bits = (EPC_BITS as u64)
            .checked_add(self.info_bits)
            .and_then(|per_tag| per_tag.checked_mul(self.n));
        match bits {
            Some(bits) if bits <= MAX_SESSION_TAG_BITS => Ok(()),
            _ => Err(format!(
                "{} tags of {} + {} bits exceed the per-session budget of \
                 {MAX_SESSION_TAG_BITS} tag bits",
                self.n, EPC_BITS, self.info_bits
            )),
        }
    }

    fn scenario(&self) -> Scenario {
        Scenario::uniform(self.n as usize, self.info_bits as usize).with_seed(self.seed)
    }
}

/// One connection's session table and dispatch logic.
pub struct Service {
    sessions: HashMap<u64, ReaderSession>,
    next_id: u64,
    shutdown: bool,
    supervisor: Arc<Supervisor>,
    /// Deposit a supervisor checkpoint every this many driver steps
    /// during `Run` (0 = only at natural boundaries).
    supervise_every: u64,
    kill_switch: Option<Arc<KillSwitch>>,
}

impl Default for Service {
    fn default() -> Self {
        Service::new()
    }
}

/// Drop guard for one claimed in-flight run slot: a panicking handler
/// still releases its slot.
struct RunSlot {
    sup: Arc<Supervisor>,
}

impl RunSlot {
    fn claim(sup: &Arc<Supervisor>) -> Result<RunSlot, u64> {
        sup.begin_run()?;
        Ok(RunSlot {
            sup: Arc::clone(sup),
        })
    }
}

impl Drop for RunSlot {
    fn drop(&mut self) {
        self.sup.end_run();
    }
}

impl Service {
    /// A fresh service with no sessions. A private never-shedding
    /// supervisor is used unless [`Service::with_supervisor`] attaches the
    /// daemon's shared one.
    pub fn new() -> Service {
        Service {
            sessions: HashMap::new(),
            next_id: 1,
            shutdown: false,
            supervisor: Arc::new(Supervisor::unlimited()),
            supervise_every: 0,
            kill_switch: None,
        }
    }

    /// Attaches the fleet supervisor every session on this connection is
    /// admitted through.
    pub fn with_supervisor(mut self, supervisor: Arc<Supervisor>) -> Service {
        self.supervisor = supervisor;
        self
    }

    /// Deposits a supervisor checkpoint every `steps` driver steps
    /// during `Run`.
    pub(crate) fn with_supervise_every(mut self, steps: u64) -> Service {
        self.supervise_every = steps;
        self
    }

    /// Arms a chaos kill point: the first `Run` chunk boundary past the
    /// switch's threshold panics with [`KillPoint`].
    pub(crate) fn with_kill_switch(mut self, switch: Arc<KillSwitch>) -> Service {
        self.kill_switch = Some(switch);
        self
    }

    /// Whether a `Shutdown` command has been handled.
    pub(crate) fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// Live sessions on this connection.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Supervisor-global ids of this connection's unfinished sessions —
    /// the orphans to resurrect if the connection dies.
    pub(crate) fn orphan_gids(&self) -> Vec<u64> {
        self.sessions
            .values()
            .filter(|rs| !rs.done)
            .map(|rs| rs.gid)
            .collect()
    }

    /// Shutdown drain: deposits one final checkpoint per unfinished
    /// session into the supervisor (retiring it as drained) so the
    /// fleet's work survives the listener closing.
    pub(crate) fn drain(&mut self) {
        for rs in self.sessions.values().filter(|rs| !rs.done) {
            self.supervisor.drain_session(rs.gid, rs.live.snapshot());
        }
        self.sessions.clear();
    }

    /// Handles one command, returning every response frame to send, in
    /// order (progress frames precede the terminal `Done`/`Paused`).
    pub fn handle(&mut self, cmd: Command) -> Vec<Response> {
        match cmd {
            Command::Hello => vec![Response::HelloOk {
                version: WIRE_VERSION,
                server: SERVER_NAME.to_string(),
            }],
            Command::Open(req) => vec![match open_session(&req) {
                Ok(live) => self.admit(live, RecoveryPoint::Open(req.into())),
                Err(e) => e,
            }],
            Command::Run { session, max_steps } => self.run(session, max_steps),
            Command::Checkpoint { session } => vec![self.checkpoint(session)],
            Command::Resume { snapshot } => vec![match restore_session(&snapshot) {
                Ok(live) => self.admit(live, RecoveryPoint::Resume(snapshot)),
                Err(e) => e,
            }],
            Command::Inject { session, fault } => {
                let sup = Arc::clone(&self.supervisor);
                vec![match self.unfinished(session) {
                    Err(e) => e,
                    Ok(rs) => match rs.live.ctx.inject_fault(fault.clone()) {
                        Ok(()) => {
                            rs.live.config.fault = fault;
                            // Neither the request nor an older checkpoint
                            // recreates the injected model: deposit one that
                            // does.
                            sup.deposit(rs.gid, rs.live.snapshot());
                            Response::Opened { session }
                        }
                        Err(msg) => err(ErrorCode::Rejected, format!("fault rejected: {msg}")),
                    },
                }]
            }
            Command::Metrics { session } => vec![match self.get(session) {
                Err(e) => e,
                Ok(rs) => Response::MetricsText {
                    session,
                    text: metrics_from_log(&rs.live.ctx.log).expose_text(),
                },
            }],
            Command::Flight { session } => vec![match self.get(session) {
                Err(e) => e,
                Ok(rs) => match rs.bundle.as_deref().map(Json::parse).transpose() {
                    Ok(bundle) => Response::FlightInfo { session, bundle },
                    Err(e) => err(
                        ErrorCode::Rejected,
                        format!("flight bundle unreadable: {e}"),
                    ),
                },
            }],
            Command::Close { session } => vec![match self.sessions.remove(&session) {
                Some(rs) => {
                    self.supervisor.retire(rs.gid, Retire::Closed);
                    Response::Closed { session }
                }
                None => unknown_session(session),
            }],
            Command::Shutdown => {
                self.shutdown = true;
                vec![Response::ShuttingDown]
            }
        }
    }

    fn get(&mut self, session: u64) -> Result<&mut ReaderSession, Response> {
        self.sessions
            .get_mut(&session)
            .ok_or_else(|| unknown_session(session))
    }

    /// Admission control: the supervisor either registers a built
    /// session with the command that recreates it, or sheds it.
    fn admit(&mut self, live: Live, record: RecoveryPoint) -> Response {
        // Snapshots carry no progress cadence: only an `Open` asks for one.
        let progress_every = match &record {
            RecoveryPoint::Open(req) => req.progress_every.unwrap_or(0),
            RecoveryPoint::Resume(_) => 0,
        };
        let gid = match self.supervisor.admit(record) {
            Ok(gid) => gid,
            Err(retry_after_us) => return Response::Busy { retry_after_us },
        };
        let id = self.next_id;
        self.next_id += 1;
        self.sessions.insert(
            id,
            ReaderSession {
                live,
                gid,
                progress_every,
                done: false,
                bundle: None,
            },
        );
        Response::Opened { session: id }
    }

    /// A session that has not ended: `Run`, `Checkpoint` and `Inject`
    /// answer the rest with `BadState`.
    fn unfinished(&mut self, session: u64) -> Result<&mut ReaderSession, Response> {
        let rs = self.get(session)?;
        if rs.done {
            return Err(err(
                ErrorCode::BadState,
                format!("session {session} already ended"),
            ));
        }
        Ok(rs)
    }

    fn checkpoint(&mut self, session: u64) -> Response {
        let sup = Arc::clone(&self.supervisor);
        match self.unfinished(session) {
            Err(e) => e,
            Ok(rs) => {
                let snapshot = rs.live.snapshot();
                // A client-requested checkpoint is also the freshest
                // possible recovery point — deposit it.
                sup.deposit(rs.gid, snapshot.clone());
                Response::Snapshot { session, snapshot }
            }
        }
    }

    fn run(&mut self, session: u64, max_steps: Option<u64>) -> Vec<Response> {
        let sup = Arc::clone(&self.supervisor);
        let supervise = self.supervise_every;
        let kill = self.kill_switch.clone();
        // Claim an in-flight slot first: a shed `Run` touches nothing.
        let _slot = match RunSlot::claim(&sup) {
            Ok(slot) => slot,
            Err(retry_after_us) => return vec![Response::Busy { retry_after_us }],
        };
        let rs = match self.unfinished(session) {
            Err(e) => return vec![e],
            Ok(rs) => rs,
        };
        let live = &mut rs.live;
        let mut out = Vec::new();
        // The steps this `Run` may still take. A recovery pass resets the
        // session's pass-local step count, so the budget is counted here.
        let mut budget = max_steps;
        let end = loop {
            let now = live.session.steps_taken();
            // Stop at the budget or the next progress/supervise boundary,
            // whichever comes first. Boundaries are pass-local step counts
            // so progress frames stay on exact `progress_every` multiples
            // even when the supervise cadence differs.
            let mut chunk = budget;
            for stride in [rs.progress_every, supervise] {
                // A zero stride is off.
                if let Some(done) = now.checked_div(stride) {
                    let to_boundary = (done + 1) * stride - now;
                    chunk = Some(chunk.map_or(to_boundary, |c| c.min(to_boundary)));
                }
            }
            let Some(chunk) = chunk else {
                break live.session.run(&mut live.ctx);
            };
            if chunk == 0 {
                // A zero budget: report where we stand without stepping.
                out.push(Response::Paused {
                    session,
                    steps: now,
                });
                return out;
            }
            match live.session.run_for(&mut live.ctx, chunk) {
                Some(end) => break end,
                None => {
                    budget = budget.map(|b| b - chunk);
                    let now = live.session.steps_taken();
                    if let Some(switch) = &kill {
                        if switch.should_fire(now) {
                            // A deliberate chaos crash: unwind without
                            // depositing, exactly like a real handler
                            // bug between checkpoints.
                            std::panic::panic_any(KillPoint);
                        }
                    }
                    if supervise > 0 && now % supervise == 0 {
                        sup.deposit(rs.gid, live.snapshot());
                    }
                    if budget == Some(0) {
                        out.push(Response::Paused {
                            session,
                            steps: now,
                        });
                        return out;
                    }
                    if rs.progress_every > 0 && now % rs.progress_every == 0 {
                        out.push(Response::Progress {
                            session,
                            steps: now,
                            polls: live.ctx.counters.polls,
                            rounds: live.ctx.counters.rounds,
                            clock_us: live.ctx.clock.total().as_f64(),
                        });
                    }
                }
            }
        };
        rs.done = true;
        sup.retire(rs.gid, Retire::Completed);
        let (outcome, bundle) = outcome_from_end(end, &rs.live);
        rs.bundle = bundle;
        out.push(Response::Done { session, outcome });
        out
    }
}

/// A built or restored session with the config its context was built
/// from and the origin of its population.
pub(crate) struct Live {
    pub(crate) ctx: SimContext,
    pub(crate) session: Session,
    pub(crate) config: SimConfig,
    /// Where the population comes from, if a scenario built it: every
    /// served snapshot names it instead of listing the tags.
    pub(crate) origin: Option<Origin>,
}

impl Live {
    /// The session's served snapshot: its population named by `origin`
    /// when it has one (always, unless it was resumed from a library
    /// snapshot that lists its tags).
    fn snapshot(&self) -> Json {
        match self.origin {
            Some(origin) => {
                self.session
                    .snapshot_with_origin(&self.ctx, &self.config, origin.to_json())
            }
            None => self.session.snapshot(&self.ctx, &self.config),
        }
    }
}

/// Builds the session an `Open` request describes. The `Open` verb and
/// the resurrection of a never-checkpointed session both call it, so a
/// resurrected session is the one its request built.
pub(crate) fn open_session(req: &OpenRequest) -> Result<Live, Response> {
    let Some(protocol) = protocol_by_name(&req.protocol) else {
        return Err(err(
            ErrorCode::UnknownProtocol,
            format!(
                "unknown protocol '{}'; servable: {}",
                req.protocol,
                protocol_names().join(", ")
            ),
        ));
    };
    let origin = Origin {
        n: req.n,
        info_bits: req.info_bits,
        seed: req.seed,
    };
    if let Err(msg) = origin.check_budget() {
        return Err(err(ErrorCode::Rejected, msg));
    }
    let scenario = origin.scenario();
    // The default config keeps tracing on: served runs are auditable
    // (trace digests, metrics, flight bundles) unless the caller
    // explicitly opts out by sending a config with `trace: false`.
    let config = req
        .config
        .clone()
        .unwrap_or_else(|| SimConfig::paper(scenario.protocol_seed()).with_trace());
    if let Err(msg) = config.channel.try_validate() {
        return Err(err(ErrorCode::Rejected, format!("invalid channel: {msg}")));
    }
    if let Err(msg) = config.fault.try_validate() {
        return Err(err(
            ErrorCode::Rejected,
            format!("invalid fault model: {msg}"),
        ));
    }
    let ctx = SimContext::new(scenario.build_population(), &config);
    let mut session = Session::open(protocol.as_ref(), &ctx);
    if let Some(policy) = req.policy {
        session = session.with_policy(policy);
    }
    if let Some(deadline) = req.deadline_us {
        session = session.with_deadline(deadline);
    }
    Ok(Live {
        ctx,
        session,
        config,
        origin: Some(origin),
    })
}

/// Restores the session a snapshot describes. The `Resume` verb and the
/// resurrection of a checkpointed session both call it.
///
/// A served snapshot names its population by `origin`; it is rebuilt from
/// that scenario only after [`Session::restore_from`] has checked every
/// packed progress vector against `origin.n`. A library snapshot that
/// lists its `tags` restores through the same body.
pub(crate) fn restore_session(snapshot: &Json) -> Result<Live, Response> {
    let name: String = snapshot
        .field("protocol")
        .map_err(|e| err(ErrorCode::BadPayload, format!("snapshot: {e}")))?;
    let protocol = protocol_by_name(&name).ok_or_else(|| {
        err(
            ErrorCode::UnknownProtocol,
            format!("snapshot protocol '{name}' is not servable"),
        )
    })?;
    let mut origin = None;
    let (ctx, session, config) = Session::restore_from(protocol.as_ref(), snapshot, |json| {
        let named: Origin = FromJson::from_json(json)
            .map_err(|e| JsonError(format!("in field 'origin': {}", e.0)))?;
        named.check_budget().map_err(JsonError)?;
        let n = usize::try_from(named.n)
            .map_err(|_| JsonError(format!("origin names {} tags", named.n)))?;
        origin = Some(named);
        Ok((n, move || named.scenario().build_population()))
    })
    .map_err(|e| err(ErrorCode::Rejected, format!("snapshot rejected: {e}")))?;
    Ok(Live {
        ctx,
        session,
        config,
        origin,
    })
}

fn err(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

fn unknown_session(session: u64) -> Response {
    err(ErrorCode::UnknownSession, format!("no session {session}"))
}

/// Classifies a decode failure for the error reply: integrity failures
/// are `BadFrame`; a well-framed payload that does not parse is
/// `BadPayload`.
fn classify(e: &FrameError) -> ErrorCode {
    match e {
        FrameError::Payload(_) | FrameError::UnknownKind(_) => ErrorCode::BadPayload,
        _ => ErrorCode::BadFrame,
    }
}

/// Drives one connection until the peer closes, `Shutdown` is handled,
/// or `stop` is raised. Read timeouts (`WouldBlock`/`TimedOut`) are how
/// a TCP handler notices `stop`; hard I/O errors end the connection.
///
/// Garbage *before the first decoded frame* is answered with
/// [`ErrorCode::Resync`] — the peer is probably not speaking this
/// protocol (or an older version of it) at all, which deserves a
/// distinct diagnostic from mid-stream corruption (`BadFrame`).
pub fn serve_connection<T: Transport>(
    transport: &mut T,
    service: &mut Service,
    stop: &AtomicBool,
) -> Result<(), WireError> {
    let mut frames_decoded: u64 = 0;
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        match transport.recv() {
            Ok(None) => return Ok(()),
            Ok(Some(frame)) => {
                frames_decoded += 1;
                match Command::from_frame(&frame) {
                    Ok(cmd) => {
                        for response in service.handle(cmd) {
                            transport.send(&response.to_frame())?;
                        }
                        if service.shutdown_requested() {
                            return Ok(());
                        }
                    }
                    Err(e) => {
                        let reply = err(classify(&e), e.to_string());
                        transport.send(&reply.to_frame())?;
                    }
                }
            }
            Err(WireError::Frame(e)) => {
                let code = match &e {
                    FrameError::Garbage { .. } if frames_decoded == 0 => ErrorCode::Resync,
                    _ => ErrorCode::BadFrame,
                };
                let reply = err(code, e.to_string());
                transport.send(&reply.to_frame())?;
            }
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_c1g2::Micros;
    use rfid_system::{BitVec, TagPopulation};

    fn open_req(n: u64) -> OpenRequest {
        OpenRequest::new("HPP", n, 4, 31)
    }

    fn opened(service: &mut Service, req: OpenRequest) -> u64 {
        match service.handle(Command::Open(req)).remove(0) {
            Response::Opened { session } => session,
            other => panic!("expected Opened, got {other:?}"),
        }
    }

    #[test]
    fn open_run_completes_with_trace_digest() {
        let mut service = Service::new();
        let id = opened(&mut service, open_req(64));
        let responses = service.handle(Command::Run {
            session: id,
            max_steps: None,
        });
        let Response::Done { outcome, .. } = responses.last().unwrap() else {
            panic!("expected Done, got {responses:?}");
        };
        assert_eq!(outcome.status, "complete");
        assert_eq!(outcome.coverage, 1.0);
        assert!(outcome.trace_digest.is_some(), "default config traces");

        // A dead channel with no recovery policy stalls the session.
        let id = opened(&mut service, dead(64));
        let responses = service.handle(Command::Run {
            session: id,
            max_steps: None,
        });
        let Response::Done { outcome, .. } = responses.last().unwrap() else {
            panic!("expected Done, got {responses:?}");
        };
        assert_eq!(outcome.status, "stalled");
        assert_eq!(outcome.passes, 1);
        assert_eq!(outcome.coverage, 0.0);
        assert_eq!(outcome.cause.as_deref(), Some("no progress"));
        assert!(outcome.trace_digest.is_some(), "traced config digests");
    }

    /// An `n`-tag HPP session on a dead channel: with no recovery policy
    /// it ends `stalled`.
    fn dead(n: u64) -> OpenRequest {
        OpenRequest {
            config: Some(
                SimConfig::paper(31)
                    .with_trace()
                    .with_channel(rfid_system::Channel::lossy(1.0)),
            ),
            ..open_req(n)
        }
    }

    /// Two stalled sessions of one protocol and seed each keep their own
    /// bundle; a session that completes has none.
    #[test]
    fn two_flight_sessions_keep_their_own_bundles() {
        let mut service = Service::new();
        let ids = [64, 32].map(|n| {
            let id = opened(&mut service, dead(n));
            assert_eq!(run_to_done(&mut service, id).status, "stalled");
            (n, id)
        });
        for (n, id) in ids {
            let bundle = flight(&mut service, id).expect("a stalled flight session keeps a bundle");
            let bundle = rfid_obs::FlightBundle::parse(&bundle).expect("bundle parses");
            assert_eq!(bundle.cause, "stalled");
            assert_eq!(
                bundle.tag_count as u64, n,
                "session {id} got another's bundle"
            );
            assert_eq!(
                bundle.identity.0, "origin",
                "a served bundle names its origin"
            );
        }
        let id = opened(&mut service, open_req(8));
        assert_eq!(run_to_done(&mut service, id).status, "complete");
        assert!(
            flight(&mut service, id).is_none(),
            "a complete session has a bundle"
        );
    }

    /// A session the `Resume` verb built keeps its postmortem bundle like
    /// one an `Open` built, and the bundle names the population's origin.
    #[test]
    fn a_resumed_session_keeps_its_bundle() {
        let mut service = Service::new();
        let id = opened(&mut service, dead(64));
        let (snapshot, _) = checkpoint(&mut service, id);
        service.handle(Command::Close { session: id });
        let id = match service.handle(Command::Resume { snapshot }).remove(0) {
            Response::Opened { session } => session,
            other => panic!("expected Opened, got {other:?}"),
        };
        assert_eq!(run_to_done(&mut service, id).status, "stalled");
        let bundle = flight(&mut service, id).expect("a resumed stalled session keeps a bundle");
        let bundle = rfid_obs::FlightBundle::parse(&bundle).expect("bundle parses");
        assert_eq!((bundle.cause.as_str(), bundle.tag_count), ("stalled", 64));
        assert_eq!(
            bundle.identity.0, "origin",
            "a served bundle names its origin"
        );
    }

    /// A served bundle names its population by `origin` and packs each
    /// tag's state in 2 bits, so its size does not grow with the tags'
    /// IDs and payloads: a stalled 10k-tag session of 100-bit payloads
    /// keeps a bundle under 16 KiB (listing the tags took about 1.7 MB).
    #[test]
    fn a_large_served_bundle_stays_small() {
        use rfid_system::{FaultModel, FaultPlan, KillRule};
        let dead_tag = FaultPlan {
            kill_after_replies: vec![KillRule {
                tag: 0,
                after_replies: 0,
            }],
            ..FaultPlan::none()
        };
        let req = OpenRequest {
            config: Some(
                SimConfig::paper(31)
                    .with_trace()
                    .with_fault(FaultModel::perfect().with_plan(dead_tag)),
            ),
            ..OpenRequest::new("TPP", 10_000, 100, 31)
        };
        let mut service = Service::new();
        let id = opened(&mut service, req);
        assert_eq!(run_to_done(&mut service, id).status, "stalled");
        let bundle = flight(&mut service, id).expect("a stalled flight session keeps a bundle");
        let text = bundle.to_string();
        assert!(text.len() < 16 << 10, "bundle text is {} bytes", text.len());
        let bundle = rfid_obs::FlightBundle::parse(&bundle).expect("bundle parses");
        assert_eq!(bundle.tag_count, 10_000);
        assert_eq!(bundle.identity.0, "origin");
    }

    #[test]
    fn progress_frames_interleave_and_precede_done() {
        let mut service = Service::new();
        let mut req = open_req(64);
        req.progress_every = Some(2);
        let id = opened(&mut service, req);
        let responses = service.handle(Command::Run {
            session: id,
            max_steps: None,
        });
        assert!(responses.len() > 1, "expected progress frames");
        for r in &responses[..responses.len() - 1] {
            assert!(matches!(r, Response::Progress { .. }), "got {r:?}");
        }
        assert!(matches!(responses.last(), Some(Response::Done { .. })));
    }

    #[test]
    fn budgeted_run_pauses_then_finishes() {
        let mut service = Service::new();
        let id = opened(&mut service, open_req(64));
        let responses = service.handle(Command::Run {
            session: id,
            max_steps: Some(1),
        });
        assert!(matches!(
            responses.last(),
            Some(Response::Paused { steps: 1, .. })
        ));
        let responses = service.handle(Command::Run {
            session: id,
            max_steps: None,
        });
        assert!(matches!(responses.last(), Some(Response::Done { .. })));
        // A third run is a state error, not a crash.
        let responses = service.handle(Command::Run {
            session: id,
            max_steps: None,
        });
        assert!(matches!(
            responses.last(),
            Some(Response::Error {
                code: ErrorCode::BadState,
                ..
            })
        ));
    }

    /// A `Run` budget counts the steps that `Run` takes. The session's
    /// step count is pass-local (every recovery pass restarts it), so a
    /// budget measured against it could be passed over and never met. A
    /// dead tag under an unbounded policy takes three passes to open the
    /// breaker; 300 steps end inside the second.
    #[test]
    fn run_budget_survives_recovery_passes() {
        use rfid_protocols::RecoveryPolicy;
        use rfid_system::{FaultModel, FaultPlan, KillRule};
        let dead = FaultPlan {
            kill_after_replies: vec![KillRule {
                tag: 0,
                after_replies: 0,
            }],
            ..FaultPlan::none()
        };
        let req = OpenRequest {
            config: Some(SimConfig::paper(11).with_fault(FaultModel::perfect().with_plan(dead))),
            policy: Some(RecoveryPolicy::unbounded()),
            ..OpenRequest::new("HPP", 64, 4, 7)
        };
        let mut service = Service::new();
        let id = opened(&mut service, req);
        let ran = service.handle(Command::Run {
            session: id,
            max_steps: Some(300),
        });
        match ran.last() {
            Some(Response::Paused { steps, .. }) => {
                assert!(*steps < 300, "steps are pass-local: {steps}")
            }
            other => panic!("a 300-step budget must pause the session, got {other:?}"),
        }
        let outcome = run_to_done(&mut service, id);
        assert_eq!(outcome.status, "degraded");
        assert_eq!(outcome.passes, 3);
    }

    /// A served checkpoint resumed in place of its session finishes with
    /// the uninterrupted run's report and trace digest, for every servable
    /// protocol. Downlink loss, Gilbert–Elliott bursts and kill rules under
    /// a recovery policy keep `synced`, `ge_bad` and `replies_sent` of the
    /// compact form live at the checkpoint: tag 0 is dead, and tags 1–16
    /// die after one reply, so a reply lost before the checkpoint must
    /// still count after it.
    #[test]
    fn checkpoint_resume_continues_bit_identically() {
        use crate::registry::all_protocols;
        use rfid_protocols::RecoveryPolicy;
        use rfid_system::packed::unpack_codes;
        use rfid_system::{FaultModel, FaultPlan, GilbertElliott, KillRule};
        const N: usize = 96;
        let kills = FaultPlan {
            kill_after_replies: (0..=16)
                .map(|tag| KillRule {
                    tag,
                    after_replies: u64::from(tag > 0),
                })
                .collect(),
            ..FaultPlan::none()
        };
        let config = SimConfig::paper(23).with_trace().with_fault(
            FaultModel::perfect()
                .with_downlink_loss(0.2)
                .with_corruption(0.1)
                .with_burst(GilbertElliott::new(0.1, 0.5, 0.0, 0.8))
                .with_plan(kills),
        );
        let (mut desynced, mut bad_burst) = (false, false);
        for protocol in all_protocols() {
            let name = protocol.name();
            let req = OpenRequest {
                config: Some(config.clone()),
                policy: Some(RecoveryPolicy::default()),
                deadline_us: Some(Micros::from_secs(2.0)),
                ..OpenRequest::new(name, N as u64, 4, 23)
            };
            let mut service = Service::new();
            let reference = {
                let id = opened(&mut service, req.clone());
                run_to_done(&mut service, id)
            };
            // Find the boundaries to checkpoint at on an untraced copy of
            // the run (tracing draws no randomness, and an untraced
            // checkpoint is cheap): mid-run, and the first boundary where
            // the burst channel sits in its bad state.
            let search = opened(
                &mut service,
                OpenRequest {
                    config: Some(SimConfig {
                        trace: false,
                        ..config.clone()
                    }),
                    ..req.clone()
                },
            );
            let mut bad = None;
            let mut boundaries = 0;
            while let Some(Response::Paused { steps, .. }) = service
                .handle(Command::Run {
                    session: search,
                    max_steps: Some(1),
                })
                .pop()
            {
                boundaries = steps;
                if bad.is_none() && checkpoint(&mut service, search).1 {
                    bad = Some(steps);
                }
            }
            assert!(boundaries > 0, "{name}: no step boundary");
            bad_burst |= bad.is_some();
            for at in [Some(boundaries.div_ceil(2)), bad].into_iter().flatten() {
                let id = opened(&mut service, req.clone());
                let ran = service.handle(Command::Run {
                    session: id,
                    max_steps: Some(at),
                });
                assert!(matches!(ran.last(), Some(Response::Paused { .. })));
                let (snapshot, ge_bad) = checkpoint(&mut service, id);
                assert!(ge_bad || Some(at) != bad, "{name}: trace moved the burst");
                assert!(snapshot.get("origin").is_some() && snapshot.get("tags").is_none());
                let progress = snapshot.get("context").unwrap();
                assert!(progress.get("replies_sent").is_some(), "{name}: kill rules");
                let synced: String = progress.field("synced").unwrap();
                desynced |= unpack_codes(&synced, N, 1, "synced").unwrap().contains(&0);
                service.handle(Command::Close { session: id });
                let resumed = match service.handle(Command::Resume { snapshot }).remove(0) {
                    Response::Opened { session } => session,
                    other => panic!("{name}: expected Opened, got {other:?}"),
                };
                assert_eq!(
                    run_to_done(&mut service, resumed),
                    reference,
                    "{name}: resume at step {at} of {boundaries} perturbed the run"
                );
            }
        }
        assert!(desynced, "no checkpoint caught a desynchronized tag");
        assert!(bad_burst, "no checkpoint caught the burst channel bad");
    }

    #[test]
    fn inject_fault_updates_stored_config() {
        use rfid_system::FaultModel;
        let mut service = Service::new();
        let id = opened(&mut service, open_req(64));
        let fault = FaultModel::perfect().with_corruption(0.3);
        let responses = service.handle(Command::Inject {
            session: id,
            fault: fault.clone(),
        });
        assert!(matches!(responses[0], Response::Opened { .. }));
        // The checkpoint now carries the injected model.
        let snapshot = match service
            .handle(Command::Checkpoint { session: id })
            .remove(0)
        {
            Response::Snapshot { snapshot, .. } => snapshot,
            other => panic!("expected Snapshot, got {other:?}"),
        };
        let config: SimConfig = snapshot.field("config").unwrap();
        assert_eq!(config.fault, fault);
        // And the snapshot still resumes.
        assert!(matches!(
            service.handle(Command::Resume { snapshot }).remove(0),
            Response::Opened { .. }
        ));
    }

    #[test]
    fn inject_into_an_ended_session_is_a_state_error() {
        use rfid_system::FaultModel;
        let mut service = Service::new();
        let id = opened(&mut service, open_req(64));
        run_to_done(&mut service, id);
        let responses = service.handle(Command::Inject {
            session: id,
            fault: FaultModel::perfect().with_corruption(0.3),
        });
        assert!(
            matches!(
                responses[..],
                [Response::Error {
                    code: ErrorCode::BadState,
                    ..
                }]
            ),
            "{responses:?}"
        );
    }

    /// Runs `id` to its end and returns the `Done` outcome.
    fn run_to_done(service: &mut Service, id: u64) -> rfid_wire::SessionOutcome {
        match service
            .handle(Command::Run {
                session: id,
                max_steps: None,
            })
            .pop()
        {
            Some(Response::Done { outcome, .. }) => outcome,
            other => panic!("expected Done, got {other:?}"),
        }
    }

    /// Checkpoints `id`: the snapshot, and whether its burst channel is
    /// in the bad state.
    fn checkpoint(service: &mut Service, id: u64) -> (Json, bool) {
        match service
            .handle(Command::Checkpoint { session: id })
            .remove(0)
        {
            Response::Snapshot { snapshot, .. } => {
                let bad = snapshot.get("context").unwrap().get("ge_bad") == Some(&Json::Bool(true));
                (snapshot, bad)
            }
            other => panic!("expected Snapshot, got {other:?}"),
        }
    }

    /// Fetches `id`'s postmortem bundle through the `Flight` verb.
    fn flight(service: &mut Service, id: u64) -> Option<Json> {
        match service.handle(Command::Flight { session: id }).remove(0) {
            Response::FlightInfo { bundle, .. } => bundle,
            other => panic!("expected FlightInfo, got {other:?}"),
        }
    }

    /// Orphans every unfinished session of `service` and returns the one
    /// resurrection.
    fn resurrect_orphan(service: &Service) -> crate::supervisor::Resurrection {
        let sup = &service.supervisor;
        sup.connection_lost(&service.orphan_gids());
        let mut resurrections = sup.resurrections();
        assert_eq!(resurrections.len(), 1, "one orphan, one resurrection");
        sup.reconcile().unwrap();
        resurrections.remove(0)
    }

    #[test]
    fn injected_fault_survives_resurrection() {
        use rfid_system::FaultModel;
        let inject = |service: &mut Service, id| {
            let fault = FaultModel::perfect().with_corruption(0.3);
            let responses = service.handle(Command::Inject { session: id, fault });
            assert!(matches!(responses[0], Response::Opened { .. }));
        };
        let mut reference = Service::new();
        let id = opened(&mut reference, open_req(64));
        inject(&mut reference, id);
        let expected = run_to_done(&mut reference, id);

        let mut service = Service::new();
        let id = opened(&mut service, open_req(64));
        inject(&mut service, id);
        assert_eq!(
            resurrect_orphan(&service).outcome,
            expected,
            "resurrection dropped the injected fault"
        );
    }

    #[test]
    fn flight_bundle_records_the_injected_fault() {
        use rfid_system::FaultModel;
        let mut service = Service::new();
        let id = opened(&mut service, open_req(64));
        let fault = FaultModel::perfect().with_downlink_loss(1.0);
        let responses = service.handle(Command::Inject {
            session: id,
            fault: fault.clone(),
        });
        assert!(matches!(responses[0], Response::Opened { .. }));
        assert_eq!(run_to_done(&mut service, id).status, "stalled");
        let bundle = flight(&mut service, id).expect("a stalled flight session keeps a bundle");
        let config: SimConfig = bundle.field("config").unwrap();
        assert_eq!(config.fault, fault, "the bundle lost the injected fault");
    }

    #[test]
    fn checkpointed_resurrection_keeps_its_flight_recorder() {
        let mut service = Service::new();
        let id = opened(&mut service, dead(64));
        // The checkpoint turns the recovery point into a `Resume`.
        assert!(matches!(
            service
                .handle(Command::Checkpoint { session: id })
                .remove(0),
            Response::Snapshot { .. }
        ));
        let resurrected = resurrect_orphan(&service);
        assert_eq!(resurrected.outcome.status, "stalled");
        let bundle = resurrected
            .bundle
            .expect("the resurrected run lost its bundle");
        let bundle = Json::parse(&bundle).expect("bundle text parses");
        let bundle = rfid_obs::FlightBundle::parse(&bundle).expect("bundle parses");
        assert_eq!((bundle.cause.as_str(), bundle.tag_count), ("stalled", 64));
    }

    #[test]
    fn open_replay_resurrects_every_protocol_bit_identically() {
        use crate::registry::all_protocols;
        use rfid_protocols::RecoveryPolicy;
        use rfid_system::{Channel, FaultModel, FaultPlan, KillRule};
        // A dead tag on a lossy link: passes recover under the policy
        // until the breaker opens or the deadline bites, and each such
        // end keeps a postmortem bundle.
        let dead_tag = FaultPlan {
            kill_after_replies: vec![KillRule {
                tag: 0,
                after_replies: 0,
            }],
            ..FaultPlan::none()
        };
        let impaired_config = SimConfig::paper(17)
            .with_trace()
            .with_channel(Channel::lossy(0.3))
            .with_fault(FaultModel::perfect().with_plan(dead_tag));
        for protocol in all_protocols() {
            let name = protocol.name();
            let plain = OpenRequest::new(name, 48, 4, 17);
            let impaired = OpenRequest {
                config: Some(impaired_config.clone()),
                policy: Some(RecoveryPolicy::default()),
                deadline_us: Some(Micros::from_secs(2.0)),
                ..plain.clone()
            };
            for req in [plain, impaired] {
                let mut reference = Service::new();
                let id = opened(&mut reference, req.clone());
                let expected = run_to_done(&mut reference, id);
                let expected_bundle = flight(&mut reference, id);
                let mut service = Service::new();
                opened(&mut service, req.clone());
                let resurrected = resurrect_orphan(&service);
                assert_eq!(
                    resurrected.outcome, expected,
                    "{name} drifted when replayed from {req:?}"
                );
                assert_eq!(
                    resurrected.bundle.is_some(),
                    expected.cause.is_some(),
                    "the resurrected {name} run lost its bundle"
                );
                let bundle = resurrected.bundle.map(|text| Json::parse(&text).unwrap());
                assert_eq!(bundle, expected_bundle, "{name}: the bundles differ");
            }
        }
    }

    #[test]
    fn typed_errors_for_unknown_things() {
        let mut service = Service::new();
        let responses = service.handle(Command::Open(OpenRequest::new("XYZ", 8, 1, 1)));
        assert!(matches!(
            responses[0],
            Response::Error {
                code: ErrorCode::UnknownProtocol,
                ..
            }
        ));
        let responses = service.handle(Command::Run {
            session: 99,
            max_steps: None,
        });
        assert!(matches!(
            responses[0],
            Response::Error {
                code: ErrorCode::UnknownSession,
                ..
            }
        ));
        let mut bad = open_req(8);
        bad.config = Some({
            let mut cfg = SimConfig::paper(1);
            cfg.channel.reply_loss_rate = 2.0;
            cfg
        });
        let responses = service.handle(Command::Open(bad));
        assert!(matches!(
            responses[0],
            Response::Error {
                code: ErrorCode::Rejected,
                ..
            }
        ));
        // A library snapshot whose listed payloads differ in width.
        let cfg = SimConfig::paper(1);
        let ctx = SimContext::new(
            TagPopulation::sequential(2, |_| BitVec::from_str_bits("101")),
            &cfg,
        );
        let hpp = protocol_by_name("HPP").unwrap();
        let listed = Session::open(hpp.as_ref(), &ctx).snapshot(&ctx, &cfg);
        let mixed = listed
            .to_string()
            .replacen(r#""info":"101""#, r#""info":"10""#, 1);
        let snapshot = Json::parse(&mixed).unwrap();
        let responses = service.handle(Command::Resume { snapshot });
        assert!(
            matches!(&responses[0], Response::Error { code: ErrorCode::Rejected, message }
                if message.contains("2-bit payload")),
            "{responses:?}"
        );
    }

    #[test]
    fn metrics_expose_prometheus_text() {
        let mut service = Service::new();
        let id = opened(&mut service, open_req(32));
        service.handle(Command::Run {
            session: id,
            max_steps: None,
        });
        let responses = service.handle(Command::Metrics { session: id });
        let Response::MetricsText { text, .. } = &responses[0] else {
            panic!("expected MetricsText, got {responses:?}");
        };
        assert!(text.contains("# TYPE"), "Prometheus exposition expected");
    }

    #[test]
    fn open_over_the_tag_bit_budget_is_rejected() {
        let mut service = Service::new();
        let huge = |n, info_bits| OpenRequest::new("TPP", n, info_bits, 1);
        for req in [
            huge(1 << 40, 4),
            huge(41, 1 << 40),
            huge(u64::MAX, u64::MAX),
        ] {
            match &service.handle(Command::Open(req))[0] {
                Response::Error {
                    code: ErrorCode::Rejected,
                    message,
                } => assert!(message.contains("per-session budget"), "{message}"),
                other => panic!("expected Rejected, got {other:?}"),
            }
        }
        // The largest served workload sits far below the budget.
        assert!(10_000 * (EPC_BITS as u64 + 100) * 100 < MAX_SESSION_TAG_BITS);
        opened(&mut service, OpenRequest::new("TPP", 10_000, 100, 1));
    }

    #[test]
    fn open_with_a_zero_width_field_is_rejected() {
        let mut service = Service::new();
        for (req, why) in [
            (
                OpenRequest::new("TPP", 0, 4, 1),
                "population must be non-empty",
            ),
            (OpenRequest::new("HPP", 41, 0, 1), "at least one bit wide"),
        ] {
            match &service.handle(Command::Open(req))[0] {
                Response::Error {
                    code: ErrorCode::Rejected,
                    message,
                } => assert!(message.contains(why), "{message}"),
                other => panic!("expected Rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn shutdown_flag_raises_after_command() {
        let mut service = Service::new();
        assert!(!service.shutdown_requested());
        let responses = service.handle(Command::Shutdown);
        assert!(matches!(responses[0], Response::ShuttingDown));
        assert!(service.shutdown_requested());
    }
}
