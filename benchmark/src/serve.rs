//! Served workloads: the real `rfid_daemon::Daemon` on loopback TCP,
//! driven by two client threads in closed loops (each sends its next
//! session only after the previous one finished, like a controller
//! waiting on its readers).
//!
//! The untraced phase uses the daemon and `DaemonClient` as shipped. The
//! traced phase swaps both ends for bench-side copies that make the same
//! public calls in the same order — `Decoder` → `Command::from_frame` →
//! `Service::handle` → `Response::to_frame` → `Frame::encode` on the
//! server, the mirror image on the client — each wrapped in a span, and
//! replays every session in process to split `Service::handle` into
//! layers.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rfid_daemon::{Daemon, DaemonClient, RunEnd, Service, Supervisor};
use rfid_hash::split_seed;
use rfid_system::{Json, SimConfig};
use rfid_wire::{
    Command, Decoder, Frame, OpenRequest, Response, SessionOutcome, StreamTransport, Transport,
};

use crate::reference::{Reference, WINDOW};
use crate::replay::{
    check_served, reference, replay, served_config, verify, Fingerprint, ProfileSums, Verb,
};
use crate::report::RunReport;
use crate::spans::{self, Recorder, Span};
use crate::stats;
use crate::RunConfig;

/// Every served workload inventories TPP populations with 4-bit payloads.
const PROTOCOL: &str = "TPP";
const INFO_BITS: u64 = 4;
/// Client threads and TCP connections: two, so the closed loops never
/// need more runnable threads than a two-core host has.
const CLIENTS: usize = 2;
/// Longest silence either end of a connection waits for before giving
/// up, so a wedged peer fails the run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Sessions per second, all clients together, that the latency buffers
/// are sized for: about twice what a two-core host serves on
/// `serve_small`.
const MAX_SESSIONS_PER_S: f64 = 10_000.0;
/// Besides the first and last, every this-many-th session is re-run in
/// process after the timed phase and compared with what was served.
const CHECK_EVERY: u64 = 64;
/// The traced phase stops early once each client has served this many
/// sessions: enough for per-layer medians, and it bounds the spans held
/// in memory.
const TRACED_OPS: u64 = 2_000;
/// The spans file keeps each client's first this-many sessions.
const SPAN_FILE_OPS: u64 = 64;

/// One served workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Population per session.
    pub n: u64,
    /// Population per session under `--quick`.
    pub quick_n: u64,
    /// Live migrations of each session, under an explicit untraced
    /// config; `None` serves each session with one unbounded `Run` under
    /// the daemon's default (traced) config.
    pub migrate: Option<Migrate>,
}

/// A fixed number of live migrations at a fixed step interval. The count
/// is fixed, not "until `Done`", so every session does the same
/// migration work: how many steps a population takes varies from seed
/// to seed, and with it the count would swing the time of the fastest
/// sessions by a whole migration.
#[derive(Debug, Clone, Copy)]
pub struct Migrate {
    /// `Run` step budget before each migration.
    pub every: u64,
    /// Migrations per session, before the final unbounded `Run`.
    pub times: u64,
}

impl ServeSpec {
    fn request(&self, n: u64, seed: u64) -> OpenRequest {
        let mut req = OpenRequest::new(PROTOCOL, n, INFO_BITS, seed);
        if self.migrate.is_some() {
            let (scenario, _) = served_config(&req);
            req.config = Some(SimConfig::paper(scenario.protocol_seed()));
        }
        req
    }

    fn traced_config(&self) -> bool {
        self.migrate.is_none()
    }
}

fn op_seed(seed: u64, client: usize, op: u64) -> u64 {
    split_seed(split_seed(seed, 1 + client as u64), op)
}

fn warmup_seed(seed: u64, client: usize, setup: usize) -> u64 {
    split_seed(split_seed(seed, 1_000 + client as u64), setup as u64)
}

/// The client verbs one session needs, plus hooks around each session.
trait OpClient {
    fn open(&mut self, req: OpenRequest) -> Result<u64, String>;
    fn run(&mut self, session: u64, max_steps: Option<u64>) -> Result<RunEnd, String>;
    fn checkpoint(&mut self, session: u64) -> Result<Json, String>;
    fn resume(&mut self, snapshot: Json) -> Result<u64, String>;
    fn close(&mut self, session: u64) -> Result<(), String>;

    /// Called before session `op` starts.
    fn begin_op(&mut self, _op: u64) {}

    /// Called after a session was served, outside its measured latency.
    fn end_op(&mut self, _req: &OpenRequest, _outcome: &SessionOutcome) -> Result<(), String> {
        Ok(())
    }
}

impl<T: Transport> OpClient for DaemonClient<T> {
    fn open(&mut self, req: OpenRequest) -> Result<u64, String> {
        DaemonClient::open(self, req).map_err(|e| e.to_string())
    }
    fn run(&mut self, session: u64, max_steps: Option<u64>) -> Result<RunEnd, String> {
        DaemonClient::run(self, session, max_steps, |_, _, _, _| {}).map_err(|e| e.to_string())
    }
    fn checkpoint(&mut self, session: u64) -> Result<Json, String> {
        DaemonClient::checkpoint(self, session).map_err(|e| e.to_string())
    }
    fn resume(&mut self, snapshot: Json) -> Result<u64, String> {
        DaemonClient::resume(self, snapshot).map_err(|e| e.to_string())
    }
    fn close(&mut self, session: u64) -> Result<(), String> {
        DaemonClient::close(self, session).map_err(|e| e.to_string())
    }
}

/// One session: `Open` → `Run` → `Close`, or with `migrate` first that
/// many live migrations `Run(every)` → `Checkpoint` → `Resume` →
/// `Close(old)` (fewer if the session ends sooner).
fn serve_op(
    client: &mut impl OpClient,
    spec: &ServeSpec,
    req: OpenRequest,
) -> Result<SessionOutcome, String> {
    let mut id = client.open(req)?;
    let mut done = None;
    if let Some(m) = spec.migrate {
        for _ in 0..m.times {
            match client.run(id, Some(m.every))? {
                RunEnd::Done(outcome) => {
                    done = Some(outcome);
                    break;
                }
                RunEnd::Paused { .. } => {
                    let snapshot = client.checkpoint(id)?;
                    let next = client.resume(snapshot)?;
                    client.close(id)?;
                    id = next;
                }
            }
        }
    }
    let outcome = match done {
        Some(outcome) => outcome,
        None => match client.run(id, None)? {
            RunEnd::Done(outcome) => outcome,
            RunEnd::Paused { steps } => {
                return Err(format!("unbounded run paused at step {steps}"))
            }
        },
    };
    client.close(id)?;
    check_served(&outcome, spec.traced_config())?;
    Ok(outcome)
}

/// A served session kept for the output check.
struct Served {
    req: OpenRequest,
    served: Fingerprint,
}

/// What one closed-loop client did in a timed phase.
struct ClientRun {
    started: Instant,
    ended: Instant,
    latencies_us: Vec<f64>,
    /// Each session's time in passes of its window's reference.
    in_refs: Vec<f64>,
    /// Sessions attempted; the next session's index.
    attempted: u64,
    /// A verb failed, leaving the connection in an unknown state.
    broken: bool,
    failures: Vec<String>,
    to_verify: Vec<Served>,
    /// The last session served, unless it is already kept for the check.
    last: Option<(OpenRequest, SessionOutcome)>,
}

impl ClientRun {
    /// A run whose sample buffers hold `samples` sessions (all clients'
    /// together, so merging never grows them) and are written once before
    /// the phase starts: peak memory then does not depend on how many
    /// sessions the phase fits in. (`vec![0.0; n]` would map zero pages
    /// lazily, so the fill is non-zero.)
    fn new(samples: usize) -> ClientRun {
        let buffer = || {
            let mut v = vec![-1.0; samples];
            v.clear();
            v
        };
        ClientRun {
            started: Instant::now(),
            ended: Instant::now(),
            latencies_us: buffer(),
            in_refs: buffer(),
            attempted: 0,
            broken: false,
            failures: Vec::new(),
            to_verify: Vec::new(),
            last: None,
        }
    }
}

/// A timed phase over all clients.
#[derive(Default)]
struct Phase {
    latencies_us: Vec<f64>,
    in_refs: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    to_verify: Vec<Served>,
    elapsed_s: f64,
    profile: ProfileSums,
}

impl Phase {
    fn merge(runs: Vec<ClientRun>) -> Phase {
        let mut phase = Phase::default();
        let (Some(first), Some(last)) = (
            runs.iter().map(|r| r.started).min(),
            runs.iter().map(|r| r.ended).max(),
        ) else {
            return phase;
        };
        phase.elapsed_s = (last - first).as_secs_f64();
        for mut run in runs {
            if phase.latencies_us.is_empty() {
                std::mem::swap(&mut phase.latencies_us, &mut run.latencies_us);
                std::mem::swap(&mut phase.in_refs, &mut run.in_refs);
            } else {
                phase.latencies_us.extend(run.latencies_us);
                phase.in_refs.extend(run.in_refs);
            }
            phase.attempted += run.attempted;
            phase.failures.extend(run.failures);
            phase.to_verify.extend(run.to_verify);
            if let Some((req, outcome)) = run.last {
                phase.to_verify.push(Served {
                    req,
                    served: Fingerprint::of(&outcome),
                });
            }
        }
        phase
    }

    fn ok(&self) -> u64 {
        self.attempted.saturating_sub(self.failures.len() as u64)
    }
}

/// Runs sessions on `client` until `deadline` (or until `run` holds
/// `max_ops` sessions), adding them to `run`, which keeps the first,
/// every `CHECK_EVERY`-th and the last for the output check. With
/// `ref_s`, each session's time is also counted in reference passes.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    client: &mut impl OpClient,
    spec: &ServeSpec,
    n: u64,
    seed: u64,
    index: usize,
    run: &mut ClientRun,
    deadline: Instant,
    max_ops: u64,
    ref_s: Option<f64>,
) {
    while run.attempted < max_ops && !run.broken && Instant::now() < deadline {
        let op = run.attempted;
        let req = spec.request(n, op_seed(seed, index, op));
        client.begin_op(op);
        let started = Instant::now();
        let result = serve_op(client, spec, req.clone());
        let secs = started.elapsed().as_secs_f64();
        run.latencies_us.push(secs * 1e6);
        if let Some(ref_s) = ref_s {
            run.in_refs.push(secs / ref_s);
        }
        run.attempted += 1;
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                run.failures
                    .push(format!("client {index} session {op}: {e}"));
                // The connection state is unknown after a failed verb.
                run.broken = true;
                break;
            }
        };
        run.last = None;
        if let Err(e) = client.end_op(&req, &outcome) {
            run.failures
                .push(format!("client {index} session {op}: {e}"));
        } else if op % CHECK_EVERY == 0 {
            run.to_verify.push(Served {
                req,
                served: Fingerprint::of(&outcome),
            });
        } else {
            run.last = Some((req, outcome));
        }
    }
    run.ended = Instant::now();
}

/// The daemon plus its connected clients.
struct Fleet {
    stop: Arc<AtomicBool>,
    server: JoinHandle<std::io::Result<()>>,
    clients: Vec<DaemonClient<StreamTransport<TcpStream>>>,
}

impl Fleet {
    fn shutdown(self) -> Result<(), String> {
        drop(self.clients);
        self.stop.store(true, Ordering::Relaxed);
        match self.server.join() {
            Ok(result) => result.map_err(|e| format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

/// Binds the daemon, connects the clients and serves one warm-up session
/// per client; returns the fleet and the seconds it took.
fn setup(spec: &ServeSpec, n: u64, seed: u64, k: usize) -> Result<(Fleet, f64), String> {
    let started = Instant::now();
    let daemon = Daemon::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = daemon.local_addr();
    let stop = daemon.stop_handle();
    // Connecting before the accept loop starts leaves the connections in
    // the listen backlog, so the first accepts find them at once instead
    // of after an idle tick of random length.
    let clients = (0..CLIENTS)
        .map(|_| DaemonClient::connect_with_timeout(addr, IO_TIMEOUT))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let server = std::thread::spawn(move || daemon.run());
    let mut fleet = Fleet {
        stop,
        server,
        clients,
    };
    for c in 0..CLIENTS {
        let req = spec.request(n, warmup_seed(seed, c, k));
        if let Err(e) = serve_op(&mut fleet.clients[c], spec, req) {
            let _ = fleet.shutdown();
            return Err(format!("warm-up session: {e}"));
        }
    }
    Ok((fleet, started.elapsed().as_secs_f64()))
}

/// The untraced timed phase on the shipped daemon and client, in windows
/// that each start by timing the reference while the fleet is idle.
fn untraced_phase(fleet: &mut Fleet, spec: &ServeSpec, n: u64, seed: u64, secs: f64) -> Phase {
    let mut reference = Reference::new();
    let samples = (secs * MAX_SESSIONS_PER_S) as usize;
    let mut runs: Vec<ClientRun> = (0..CLIENTS).map(|_| ClientRun::new(samples)).collect();
    let end = Instant::now() + Duration::from_secs_f64(secs);
    while Instant::now() < end && !runs.iter().any(|r| r.broken) {
        let ref_s = reference.measure();
        let window_end = (Instant::now() + WINDOW).min(end);
        std::thread::scope(|scope| {
            for (index, (client, run)) in fleet.clients.iter_mut().zip(&mut runs).enumerate() {
                scope.spawn(move || {
                    closed_loop(
                        client,
                        spec,
                        n,
                        seed,
                        index,
                        run,
                        window_end,
                        u64::MAX,
                        Some(ref_s),
                    )
                });
            }
        });
    }
    Phase::merge(runs)
}

/// Frame I/O over a TCP stream with every codec call spanned. It must
/// stay in step with `rfid_wire::StreamTransport`, which both shipped
/// ends use: the same 4 KiB read buffer, the same drain-then-read loop
/// and `write_all` + `flush` per frame, so the spans time the calls the
/// daemon makes, as often as it makes them.
struct FrameIo {
    stream: TcpStream,
    decoder: Decoder,
    buf: [u8; 4096],
}

impl FrameIo {
    fn new(stream: TcpStream) -> std::io::Result<FrameIo> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        Ok(FrameIo {
            stream,
            decoder: Decoder::new(),
            buf: [0; 4096],
        })
    }

    fn send(&mut self, frame: &Frame, rec: &mut Recorder, req: u64) -> Result<(), String> {
        let bytes = rec.time("wire.frame_encode", req, || frame.encode());
        rec.count("wire.bytes_per_op", req, bytes.len() as f64);
        rec.count("wire.frames_per_op", req, 1.0);
        let stream = &mut self.stream;
        rec.time("wire.send", req, || {
            stream.write_all(&bytes).and_then(|()| stream.flush())
        })
        .map_err(|e| format!("send: {e}"))
    }

    /// The next frame; `None` at a clean end of stream. `wait_span`
    /// records the blocking reads (the client's wait for its reply).
    fn recv(
        &mut self,
        rec: &mut Recorder,
        req: u64,
        wait_span: bool,
    ) -> Result<Option<Frame>, String> {
        loop {
            let next = rec.time("wire.frame_decode", req, || self.decoder.next());
            if let Some(frame) = next.map_err(|e| e.to_string())? {
                return Ok(Some(frame));
            }
            let read = if wait_span {
                rec.time("wire.recv", req, || self.stream.read(&mut self.buf))
            } else {
                self.stream.read(&mut self.buf)
            };
            let got = read.map_err(|e| format!("recv: {e}"))?;
            if got == 0 {
                return match self.decoder.pending() {
                    0 => Ok(None),
                    have => Err(format!("stream ended mid-frame ({have} bytes)")),
                };
            }
            let bytes = &self.buf[..got];
            let decoder = &mut self.decoder;
            rec.time("wire.frame_decode", req, || decoder.push(bytes));
        }
    }
}

/// Request ids: the client's local port in the high half, its command
/// sequence number in the low half — both ends can compute it.
fn request_id(port: u16, seq: u64) -> u64 {
    (u64::from(port) << 32) | seq
}

/// The bench-side copy of `serve_connection`, one span per public call.
fn traced_connection(
    stream: TcpStream,
    service: &mut Service,
    rec: &mut Recorder,
) -> Result<(), String> {
    let port = stream.peer_addr().map_err(|e| e.to_string())?.port();
    let mut io = FrameIo::new(stream).map_err(|e| e.to_string())?;
    for seq in 0.. {
        let req = request_id(port, seq);
        let Some(frame) = io.recv(rec, req, false)? else {
            return Ok(());
        };
        rec.enter("server.request", req);
        let replies = match rec.time("wire.payload_parse", req, || Command::from_frame(&frame)) {
            Ok(cmd) => {
                let verb = match &cmd {
                    Command::Open(_) => "daemon.open",
                    Command::Run { .. } => "daemon.run",
                    Command::Checkpoint { .. } => "daemon.checkpoint",
                    Command::Resume { .. } => "daemon.resume",
                    Command::Close { .. } => "daemon.close",
                    _ => "daemon.other",
                };
                rec.time(verb, req, || service.handle(cmd))
            }
            Err(e) => vec![Response::Error {
                code: rfid_wire::ErrorCode::BadPayload,
                message: e.to_string(),
            }],
        };
        for reply in replies {
            if matches!(reply, Response::Error { .. } | Response::Busy { .. }) {
                rec.count("daemon.verb_errors", req, 1.0);
            }
            let frame = rec.time("wire.payload_encode", req, || reply.to_frame());
            io.send(&frame, rec, req)?;
        }
        rec.exit();
    }
    Ok(())
}

/// The bench-side client: every codec call spanned, every command's
/// request id and verb remembered for the replay.
struct TracedClient {
    io: FrameIo,
    port: u16,
    seq: u64,
    rec: Recorder,
    verbs: Vec<(Verb, u64)>,
    /// Request id → operation key (`port << 32 | op`).
    op_of: HashMap<u64, u64>,
    op_key: u64,
}

impl TracedClient {
    fn connect(addr: SocketAddr, origin: Instant, thread: u64) -> Result<TracedClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let port = stream.local_addr().map_err(|e| e.to_string())?.port();
        Ok(TracedClient {
            io: FrameIo::new(stream).map_err(|e| e.to_string())?,
            port,
            seq: 0,
            rec: Recorder::new(origin, thread),
            verbs: Vec::new(),
            op_of: HashMap::new(),
            op_key: 0,
        })
    }

    fn exchange(&mut self, verb: Verb, cmd: Command) -> Result<Response, String> {
        let req = request_id(self.port, self.seq);
        self.seq += 1;
        self.verbs.push((verb, req));
        self.op_of.insert(req, self.op_key);
        let rec = &mut self.rec;
        rec.enter(
            match verb {
                Verb::Open => "client.open",
                Verb::Run(_) => "client.run",
                Verb::Checkpoint => "client.checkpoint",
                Verb::Resume => "client.resume",
                Verb::Close => "client.close",
            },
            req,
        );
        let frame = rec.time("wire.payload_encode", req, || cmd.to_frame());
        self.io.send(&frame, rec, req)?;
        let reply = loop {
            let frame = self
                .io
                .recv(rec, req, true)?
                .ok_or("server closed the connection")?;
            let reply = rec
                .time("wire.payload_parse", req, || Response::from_frame(&frame))
                .map_err(|e| e.to_string())?;
            if !matches!(reply, Response::Progress { .. }) {
                break reply;
            }
        };
        rec.exit();
        match reply {
            Response::Error { code, message } => Err(format!("server error {code:?}: {message}")),
            Response::Busy { retry_after_us } => Err(format!("busy, retry in {retry_after_us}µs")),
            reply => Ok(reply),
        }
    }
}

impl OpClient for TracedClient {
    fn open(&mut self, req: OpenRequest) -> Result<u64, String> {
        match self.exchange(Verb::Open, Command::Open(req))? {
            Response::Opened { session } => Ok(session),
            other => Err(format!("unexpected {other:?}")),
        }
    }
    fn run(&mut self, session: u64, max_steps: Option<u64>) -> Result<RunEnd, String> {
        match self.exchange(Verb::Run(max_steps), Command::Run { session, max_steps })? {
            Response::Done { outcome, .. } => Ok(RunEnd::Done(outcome)),
            Response::Paused { steps, .. } => Ok(RunEnd::Paused { steps }),
            other => Err(format!("unexpected {other:?}")),
        }
    }
    fn checkpoint(&mut self, session: u64) -> Result<Json, String> {
        match self.exchange(Verb::Checkpoint, Command::Checkpoint { session })? {
            Response::Snapshot { snapshot, .. } => Ok(snapshot),
            other => Err(format!("unexpected {other:?}")),
        }
    }
    fn resume(&mut self, snapshot: Json) -> Result<u64, String> {
        match self.exchange(Verb::Resume, Command::Resume { snapshot })? {
            Response::Opened { session } => Ok(session),
            other => Err(format!("unexpected {other:?}")),
        }
    }
    fn close(&mut self, session: u64) -> Result<(), String> {
        match self.exchange(Verb::Close, Command::Close { session })? {
            Response::Closed { .. } => Ok(()),
            other => Err(format!("unexpected {other:?}")),
        }
    }

    fn begin_op(&mut self, op: u64) {
        self.verbs.clear();
        self.op_key = request_id(self.port, op);
        // Keyed by the first command's id, so it maps to this session.
        self.rec.enter("client.op", request_id(self.port, self.seq));
    }

    /// Replays the session verb by verb in process — the output check,
    /// and the split of each `Service::handle` into layers. It runs on
    /// this client's thread while the other client is still being served,
    /// so the replayed calls meet the same contention the daemon's did.
    fn end_op(&mut self, req: &OpenRequest, outcome: &SessionOutcome) -> Result<(), String> {
        self.rec.exit();
        let verbs = std::mem::take(&mut self.verbs);
        replay(req, &verbs, &mut self.rec, None)
            .and_then(|expected| verify(Fingerprint::of(outcome), expected))
    }
}

/// Spans and operation map of the traced phase.
struct Traced {
    phase: Phase,
    spans: Vec<Span>,
    counts: Vec<spans::Count>,
    op_of: HashMap<u64, u64>,
}

/// The traced timed phase on the bench-side server and clients.
fn traced_phase(spec: &ServeSpec, n: u64, seed: u64, secs: f64) -> Result<Traced, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let origin = Instant::now();
    let supervisor = Arc::new(Supervisor::unlimited());
    let mut clients = (0..CLIENTS)
        .map(|c| TracedClient::connect(addr, origin, 1 + c as u64))
        .collect::<Result<Vec<_>, _>>()?;
    let barrier = Barrier::new(CLIENTS);
    let (server_recs, runs) = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let conns: Vec<TcpStream> = (0..CLIENTS)
                .filter_map(|_| listener.accept().ok().map(|(s, _)| s))
                .collect();
            std::thread::scope(|inner| {
                let handles: Vec<_> = conns
                    .into_iter()
                    .enumerate()
                    .map(|(i, stream)| {
                        let supervisor = Arc::clone(&supervisor);
                        inner.spawn(move || {
                            let mut rec = Recorder::new(origin, 100 + i as u64);
                            let mut service = Service::new().with_supervisor(supervisor);
                            let result = traced_connection(stream, &mut service, &mut rec);
                            (rec, result)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("server thread panicked"))
                    .collect::<Vec<_>>()
            })
        });
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(index, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let samples =
                        (secs * MAX_SESSIONS_PER_S).min((TRACED_OPS * CLIENTS as u64) as f64);
                    let mut run = ClientRun::new(samples as usize);
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(secs);
                    closed_loop(
                        client, spec, n, seed, index, &mut run, deadline, TRACED_OPS, None,
                    );
                    // Hang up so the server side sees end of stream.
                    let _ = client.io.stream.shutdown(std::net::Shutdown::Both);
                    run
                })
            })
            .collect();
        let runs: Vec<ClientRun> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (server.join().expect("server thread panicked"), runs)
    });
    let mut phase = Phase::merge(runs);
    let mut op_of = HashMap::new();
    let mut all = Vec::new();
    let mut counts = Vec::new();
    for client in clients {
        op_of.extend(client.op_of);
        all.extend(client.rec.spans);
        counts.extend(client.rec.counts);
    }
    // Server roots are caused by the client command with the same id.
    let command_span: HashMap<u64, u64> = all
        .iter()
        .filter(|s| s.name.starts_with("client.") && s.name != "client.op")
        .map(|s| (s.req, s.id))
        .collect();
    for (rec, result) in server_recs {
        if let Err(e) = result {
            phase.failures.push(format!("server connection: {e}"));
        }
        all.extend(rec.spans.into_iter().map(|mut s| {
            if s.parent.is_none() {
                s.parent = command_span.get(&s.req).copied();
            }
            s
        }));
        counts.extend(rec.counts);
    }
    Ok(Traced {
        phase,
        spans: all,
        counts,
        op_of,
    })
}

/// Checks the kept sessions against uninterrupted in-process runs.
fn verify_kept(phase: &mut Phase, profile: bool) {
    for served in std::mem::take(&mut phase.to_verify) {
        let sums = profile.then_some(&mut phase.profile);
        if let Err(e) = reference(&served.req, sums).and_then(|exp| verify(served.served, exp)) {
            phase
                .failures
                .push(format!("seed {} check: {e}", served.req.seed));
        }
    }
}

fn record_phase(report: &mut RunReport, phase: &Phase) {
    report.attempted += phase.attempted;
    for f in &phase.failures {
        report.fail(f.clone());
    }
}

/// Runs one served workload.
pub fn run(spec: &ServeSpec, cfg: &RunConfig) -> RunReport {
    let mut report = RunReport::new(spec.name, cfg.seed, cfg.trace);
    let n = if cfg.quick { spec.quick_n } else { spec.n };
    let setups = if cfg.quick { 2 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut fleet: Option<Fleet> = None;
    for k in 0..setups {
        if let Some(old) = fleet.take() {
            if let Err(e) = old.shutdown() {
                report.fail(e);
            }
        }
        match setup(spec, n, cfg.seed, k) {
            Ok((f, secs)) => {
                setup_s.push(secs);
                fleet = Some(f);
            }
            Err(e) => {
                report.attempted += 1;
                report.fail(e);
                return report;
            }
        }
    }
    let mut fleet = fleet.expect("at least one set-up");
    let mut phase = untraced_phase(&mut fleet, spec, n, cfg.seed, cfg.phase_s());
    if let Err(e) = fleet.shutdown() {
        phase.failures.push(e);
    }
    verify_kept(&mut phase, false);
    record_phase(&mut report, &phase);

    // Sorted in place: a sorted copy would grow peak memory with the
    // number of sessions served.
    stats::sort(&mut phase.latencies_us);
    stats::sort(&mut phase.in_refs);
    report.set_op_times(&phase.latencies_us, 1e-3, &phase.in_refs);
    report.set("setup_s", stats::median(&setup_s));
    report.note("timed_s", phase.elapsed_s);
    report.note("tags_per_op", n as f64);
    let rate = phase.ok() as f64 / phase.elapsed_s;
    report.note("ops_per_s", rate);
    report.note("tags_per_s", rate * n as f64);

    if cfg.trace {
        match traced_phase(spec, n, cfg.seed, cfg.phase_s()) {
            Ok(mut traced) => {
                verify_kept(&mut traced.phase, true);
                record_phase(&mut report, &traced.phase);
                layer_metrics(&mut report, &traced);
                write_spans(cfg, spec.name, &traced);
            }
            Err(e) => {
                report.attempted += 1;
                report.fail(e);
            }
        }
    }
    report
}

/// Per-layer medians per session, the derived transport time, and the
/// trace's own checks.
fn layer_metrics(report: &mut RunReport, traced: &Traced) {
    let totals = spans::per_op_totals(&traced.spans, &traced.counts, |req| {
        traced.op_of.get(&req).copied()
    });
    report.set_layers(&totals);
    // Transport: the client's wall time that neither end spent in the
    // codec or in `Service::handle`.
    const BUSY: [&str; 9] = [
        "wire.payload_encode_us",
        "wire.payload_parse_us",
        "wire.frame_encode_us",
        "wire.frame_decode_us",
        "daemon.open_us",
        "daemon.run_us",
        "daemon.close_us",
        "daemon.checkpoint_us",
        "daemon.resume_us",
    ];
    let transport: Vec<f64> = totals
        .values()
        .map(|t| {
            let busy: f64 = BUSY.iter().filter_map(|k| t.get(*k)).sum();
            t.get("client.op_us").copied().unwrap_or(0.0) - busy
        })
        .collect();
    report.set("wire.transport_us", stats::median(&transport));

    for (verb, metric) in [
        ("open", "trace.coverage_open"),
        ("run", "trace.coverage_run"),
    ] {
        let replay_name = format!("replay.{verb}");
        let replay_ids: std::collections::HashSet<u64> = traced
            .spans
            .iter()
            .filter(|s| s.name == replay_name)
            .map(|s| s.id)
            .collect();
        let stages: u64 = traced
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| replay_ids.contains(&p)))
            .map(Span::duration_ns)
            .sum();
        let daemon_name = format!("daemon.{verb}");
        let handled: u64 = traced
            .spans
            .iter()
            .filter(|s| s.name == daemon_name)
            .map(Span::duration_ns)
            .sum();
        if handled > 0 {
            report.set(metric, stages as f64 / handled as f64);
        }
    }
    report.set_trace_overhead(&traced.phase.latencies_us, 1e-3);
    traced.phase.profile.record(report);
    report.note("traced.ops", totals.len() as f64);
    report.note("traced.spans", traced.spans.len() as f64);
}

fn write_spans(cfg: &RunConfig, workload: &str, traced: &Traced) {
    let kept: Vec<Span> = traced
        .spans
        .iter()
        .filter(|s| {
            traced
                .op_of
                .get(&s.req)
                .is_some_and(|op| op & 0xFFFF_FFFF < SPAN_FILE_OPS)
        })
        .cloned()
        .collect();
    crate::write_spans_file(cfg, workload, &kept);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A client whose every session ends after `steps` steps.
    struct Fake {
        steps: u64,
        taken: u64,
        resumes: u64,
        closes: u64,
    }

    impl OpClient for Fake {
        fn open(&mut self, _req: OpenRequest) -> Result<u64, String> {
            Ok(0)
        }
        fn run(&mut self, _session: u64, max_steps: Option<u64>) -> Result<RunEnd, String> {
            match max_steps {
                Some(budget) if budget < self.steps - self.taken => {
                    self.taken += budget;
                    Ok(RunEnd::Paused { steps: self.taken })
                }
                _ => {
                    self.taken = self.steps;
                    Ok(RunEnd::Done(SessionOutcome {
                        status: "complete".to_string(),
                        report: Json::Null,
                        passes: 1,
                        coverage: 1.0,
                        cause: None,
                        trace_digest: None,
                    }))
                }
            }
        }
        fn checkpoint(&mut self, _session: u64) -> Result<Json, String> {
            Ok(Json::Null)
        }
        fn resume(&mut self, _snapshot: Json) -> Result<u64, String> {
            self.resumes += 1;
            Ok(self.resumes)
        }
        fn close(&mut self, _session: u64) -> Result<(), String> {
            self.closes += 1;
            Ok(())
        }
    }

    #[test]
    fn sessions_migrate_a_fixed_number_of_times_whatever_their_length() {
        let spec = ServeSpec {
            name: "migrate",
            n: 1,
            quick_n: 1,
            migrate: Some(Migrate { every: 3, times: 3 }),
        };
        // (steps a session takes, migrations it gets)
        for (steps, migrations) in [(11, 3), (30, 3), (9, 2), (2, 0)] {
            let mut client = Fake {
                steps,
                taken: 0,
                resumes: 0,
                closes: 0,
            };
            let req = OpenRequest::new(PROTOCOL, 1, INFO_BITS, 0);
            serve_op(&mut client, &spec, req).unwrap();
            assert_eq!(client.resumes, migrations, "{steps} steps");
            assert_eq!(client.closes, migrations + 1, "{steps} steps");
            assert_eq!(client.taken, steps);
        }
    }
}
