//! Serving-layer bit-identity gate: the same seeded inventory must
//! produce byte-identical report JSON and FNV-1a trace digests whether
//! the session runs in-process, over the in-memory loopback transport,
//! or over a real TCP socket — with a mid-session checkpoint/resume over
//! the wire in between or not, and regardless of which transport took
//! the checkpoint and which resumed it. Anything less means the service
//! layer perturbed an RNG draw, a float accumulation, or a trace event.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fast_rfid_polling::daemon::{
    install_killpoint_hook, serve_connection, ClientError, Daemon, DaemonClient, FleetLimits,
    ResilientClient, RetryPolicy, RunEnd, Service,
};
use fast_rfid_polling::prelude::*;
use fast_rfid_polling::system::ToJson;
use fast_rfid_polling::wire::Transport;
use fast_rfid_polling::wire::{
    loopback, ChaosDirector, ChaosPlan, OpenRequest, Pipe, SessionOutcome, StreamTransport,
    WIRE_VERSION,
};

const N: u64 = 120;
const INFO_BITS: u64 = 4;
const SEED: u64 = 31;

fn impaired_config(seed: u64) -> SimConfig {
    SimConfig::paper(seed).with_trace().with_fault(
        FaultModel::perfect()
            .with_downlink_loss(0.1)
            .with_corruption(0.1),
    )
}

fn open_request(config: Option<SimConfig>) -> OpenRequest {
    let mut req = OpenRequest::new("HPP", N, INFO_BITS, SEED);
    req.config = config;
    req
}

/// The in-process reference: same scenario driven directly through the
/// session engine, no wire anywhere.
fn local_reference(config: Option<SimConfig>) -> (String, u64) {
    let scenario = Scenario::uniform(N as usize, INFO_BITS as usize).with_seed(SEED);
    let config = config.unwrap_or_else(|| SimConfig::paper(scenario.protocol_seed()).with_trace());
    let protocol = HppConfig::default();
    let mut ctx = SimContext::new(scenario.build_population(), &config);
    let mut session = Session::open(&protocol, &ctx);
    let SessionEnd::Complete { report, .. } = session.run(&mut ctx) else {
        panic!("reference run did not complete");
    };
    (report.to_json().to_string(), ctx.log.digest())
}

fn outcome_identity(outcome: &SessionOutcome) -> (String, u64) {
    assert_eq!(outcome.status, "complete", "served run must complete");
    (
        outcome.report.to_string(),
        outcome.trace_digest.expect("trace digest must be present"),
    )
}

/// Drives `f` with a client connected to an in-memory served loopback.
fn with_loopback_client<R>(f: impl FnOnce(&mut DaemonClient<StreamTransport<Pipe>>) -> R) -> R {
    let (server_end, client_end) = loopback();
    let stop = Arc::new(AtomicBool::new(false));
    let server_stop = Arc::clone(&stop);
    let server = std::thread::spawn(move || {
        let mut transport = server_end;
        let mut service = Service::new();
        serve_connection(&mut transport, &mut service, &server_stop)
    });
    let mut client = DaemonClient::new(client_end);
    let result = f(&mut client);
    client.shutdown().expect("shutdown");
    drop(client);
    server.join().expect("server thread").expect("serve ok");
    result
}

/// Drives `f` with a client connected to a real TCP daemon on port 0.
fn with_tcp_client<R>(f: impl FnOnce(&mut DaemonClient<StreamTransport<TcpStream>>) -> R) -> R {
    let daemon = Daemon::bind("127.0.0.1:0").expect("bind");
    let addr = daemon.local_addr();
    let stop = daemon.stop_handle();
    let server = std::thread::spawn(move || daemon.run());
    let mut client = DaemonClient::connect(addr).expect("connect");
    let result = f(&mut client);
    client.shutdown().expect("shutdown");
    drop(client);
    // The wire Shutdown raises the daemon's stop flag; joining proves the
    // accept loop and handlers drained.
    server.join().expect("daemon thread").expect("daemon ok");
    assert!(stop.load(Ordering::Relaxed), "shutdown must raise stop");
    result
}

fn run_to_done<T: Transport>(client: &mut DaemonClient<T>, req: OpenRequest) -> SessionOutcome {
    let session = client.open(req).expect("open");
    match client.run(session, None, |_, _, _, _| {}).expect("run") {
        RunEnd::Done(outcome) => outcome,
        RunEnd::Paused { .. } => panic!("unbounded run paused"),
    }
}

#[test]
fn loopback_and_tcp_match_the_inprocess_reference() {
    for config in [None, Some(impaired_config(77))] {
        let reference = local_reference(config.clone());
        let via_loopback = with_loopback_client(|client| {
            outcome_identity(&run_to_done(client, open_request(config.clone())))
        });
        let via_tcp = with_tcp_client(|client| {
            let (version, _) = client.hello().expect("hello");
            assert_eq!(version, WIRE_VERSION, "the TCP handshake's wire version");
            outcome_identity(&run_to_done(client, open_request(config.clone())))
        });
        assert_eq!(via_loopback, reference, "loopback drifted from in-process");
        assert_eq!(via_tcp, reference, "tcp drifted from in-process");
    }
}

/// Checkpoint over one transport, resume over the *other*: the snapshot
/// crosses the wire as JSON both ways and the finished run must still be
/// bit-identical to the uninterrupted reference.
#[test]
fn checkpoint_over_loopback_resumes_over_tcp_bit_identically() {
    let reference = local_reference(None);

    let snapshot = with_loopback_client(|client| {
        let session = client.open(open_request(None)).expect("open");
        match client.run(session, Some(5), |_, _, _, _| {}).expect("run") {
            RunEnd::Paused { steps } => assert_eq!(steps, 5),
            RunEnd::Done(_) => panic!("5 steps must not finish {N} tags"),
        }
        let snapshot = client.checkpoint(session).expect("checkpoint");
        client.close(session).expect("close");
        snapshot
    });

    let finished = with_tcp_client(|client| {
        let session = client.resume(snapshot).expect("resume");
        match client.run(session, None, |_, _, _, _| {}).expect("run") {
            RunEnd::Done(outcome) => outcome_identity(&outcome),
            RunEnd::Paused { .. } => panic!("unbounded run paused"),
        }
    });
    assert_eq!(finished, reference, "wire checkpoint/resume drifted");
}

#[test]
fn checkpoint_over_tcp_resumes_over_loopback_bit_identically() {
    let config = Some(impaired_config(77));
    let reference = local_reference(config.clone());

    let snapshot = with_tcp_client(|client| {
        let session = client.open(open_request(config)).expect("open");
        match client.run(session, Some(7), |_, _, _, _| {}).expect("run") {
            RunEnd::Paused { .. } => {}
            RunEnd::Done(_) => panic!("7 steps must not finish {N} tags"),
        }
        client.checkpoint(session).expect("checkpoint")
    });

    let finished = with_loopback_client(|client| {
        let session = client.resume(snapshot).expect("resume");
        match client.run(session, None, |_, _, _, _| {}).expect("run") {
            RunEnd::Done(outcome) => outcome_identity(&outcome),
            RunEnd::Paused { .. } => panic!("unbounded run paused"),
        }
    });
    assert_eq!(finished, reference, "wire checkpoint/resume drifted");
}

/// Many concurrent TCP clients, one session each, all seeded identically:
/// every outcome must equal the in-process reference — concurrency on the
/// server must never leak state across connections.
#[test]
fn concurrent_tcp_sessions_stay_deterministic() {
    let reference = local_reference(None);
    let daemon = Daemon::bind("127.0.0.1:0").expect("bind");
    let addr = daemon.local_addr();
    let stop = daemon.stop_handle();
    let server = std::thread::spawn(move || daemon.run());

    let identities: Vec<(String, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = DaemonClient::connect(addr).expect("connect");
                    outcome_identity(&run_to_done(&mut client, open_request(None)))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    stop.store(true, Ordering::Relaxed);
    server.join().expect("daemon thread").expect("daemon ok");

    for identity in identities {
        assert_eq!(identity, reference, "a concurrent session drifted");
    }
}

fn collect_progress<T: Transport>(client: &mut DaemonClient<T>) -> Vec<(u64, u64, u64, u64)> {
    let mut req = open_request(None);
    req.progress_every = Some(8);
    let session = client.open(req).expect("open");
    let mut progress = Vec::new();
    match client
        .run(session, None, |steps, polls, rounds, clock_us| {
            progress.push((steps, polls, rounds, clock_us.to_bits()));
        })
        .expect("run")
    {
        RunEnd::Done(outcome) => assert_eq!(outcome.status, "complete"),
        RunEnd::Paused { .. } => panic!("unbounded run paused"),
    }
    progress
}

/// Progress streaming is deterministic in *steps*: the same request with
/// the same progress cadence yields the same progress frame sequence
/// (down to the clock bits) over loopback and TCP.
#[test]
fn progress_streams_are_transport_invariant() {
    let via_loopback = with_loopback_client(collect_progress);
    let via_tcp = with_tcp_client(collect_progress);
    assert!(!via_loopback.is_empty(), "expected progress frames");
    assert_eq!(via_loopback, via_tcp, "progress streams drifted");
}

/// Regression for the client timeout path: a server that accepts and
/// then never replies must produce a typed `TimedOut` error — never a
/// hang — and a clean reconnect to a healthy daemon must work first try.
#[test]
fn stalled_server_times_out_then_reconnects_cleanly() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let stall = std::thread::spawn(move || {
        // Accept, then hold the connection open in silence.
        let (_stream, _peer) = listener.accept().expect("accept");
        std::thread::sleep(Duration::from_millis(400));
    });

    let mut client =
        DaemonClient::connect_with_timeout(addr, Duration::from_millis(80)).expect("connect");
    let started = std::time::Instant::now();
    match client.hello() {
        Err(ClientError::TimedOut) => {}
        other => panic!("expected TimedOut from a stalled server, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_millis(350),
        "verb timeout fired far too late"
    );
    drop(client);

    let outcome = with_tcp_client(|client| run_to_done(client, open_request(None)));
    assert_eq!(outcome.status, "complete", "reconnect after timeout failed");
    stall.join().expect("stall thread");
}

/// The tentpole gate, small edition: a resilient client over a chaos
/// transport (seeded byte flips + mid-frame cuts, finite fault budget)
/// must finish with report JSON and trace digest bit-identical to the
/// unfaulted in-process reference — and the chaos must actually bite.
#[test]
fn chaos_client_recovers_bit_identically() {
    let reference = local_reference(None);
    // The supervisor deposits every 2 steps, so a cut connection's orphan
    // resurrects from a mid-run checkpoint rather than its `Open`.
    let daemon = Daemon::bind("127.0.0.1:0")
        .expect("bind")
        .with_supervise_every(2);
    let addr = daemon.local_addr();
    let stop = daemon.stop_handle();
    let supervisor = daemon.supervisor();
    let server = std::thread::spawn(move || daemon.run());

    let mut plan = ChaosPlan::flips(0xC4A0, 0.0015, 30);
    plan.cut_rate = 0.0004;
    let director = ChaosDirector::new(plan);
    let dialer = director.clone();
    let policy = RetryPolicy::default()
        .with_verb_timeout(Duration::from_millis(500))
        .with_checkpoint_every(6)
        .with_backoff_us(200, 5_000)
        .with_max_attempts(64);
    let verb_timeout = policy.verb_timeout;
    let mut client = ResilientClient::new(
        move || {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_millis(10)))?;
            Ok(DaemonClient::new(dialer.transport(stream)).with_verb_timeout(verb_timeout))
        },
        policy,
    );
    let outcome = client.run_to_done(&open_request(None)).expect("chaos run");
    assert_eq!(
        outcome_identity(&outcome),
        reference,
        "chaos recovery drifted from the unfaulted reference"
    );
    assert!(
        director.faults_injected() > 0,
        "the chaos plan never bit — tighten the rates"
    );
    assert!(
        client.retries() + client.reconnects() > 0,
        "chaos was injected but the client never had to recover"
    );

    stop.store(true, Ordering::Relaxed);
    server.join().expect("daemon thread").expect("daemon ok");
    supervisor.reconcile().expect("session conservation");
}

/// Admission control is typed and deterministic: the budget's first
/// excess open is shed with the configured `retry_after_us`, freeing a
/// slot readmits, and the conservation law holds through shutdown.
#[test]
fn admission_budget_sheds_with_typed_busy() {
    let daemon = Daemon::bind("127.0.0.1:0")
        .expect("bind")
        .with_limits(FleetLimits::bounded(2, 8).with_retry_after_us(1234));
    let addr = daemon.local_addr();
    let supervisor = daemon.supervisor();
    let server = std::thread::spawn(move || daemon.run());

    let mut client = DaemonClient::connect(addr).expect("connect");
    let first = client.open(open_request(None)).expect("open 1");
    let _second = client.open(open_request(None)).expect("open 2");
    match client.open(open_request(None)) {
        Err(ClientError::Busy { retry_after_us }) => assert_eq!(retry_after_us, 1234),
        other => panic!("expected Busy from a full fleet, got {other:?}"),
    }
    client.close(first).expect("close");
    let readmitted = client.open(open_request(None)).expect("open after close");
    assert!(readmitted > 0);
    client.shutdown().expect("shutdown");
    drop(client);
    server.join().expect("daemon thread").expect("daemon ok");

    assert_eq!(supervisor.counter("sessions_shed"), 1);
    assert_eq!(
        supervisor.counter("drain_checkpoints"),
        2,
        "the two sessions still open at shutdown must be drained"
    );
    supervisor.reconcile().expect("session conservation");
}

/// Overload pressure: more resilient clients than the fleet admits.
/// Shed clients back off and retry; every one of them must eventually
/// complete bit-identically.
#[test]
fn shedding_pressure_still_recovers_every_client() {
    let reference = local_reference(None);
    let daemon = Daemon::bind("127.0.0.1:0")
        .expect("bind")
        .with_limits(FleetLimits::bounded(2, 2).with_retry_after_us(2_000));
    let addr = daemon.local_addr();
    let stop = daemon.stop_handle();
    let supervisor = daemon.supervisor();
    let server = std::thread::spawn(move || daemon.run());

    let identities: Vec<(String, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                scope.spawn(move || {
                    let policy = RetryPolicy::default()
                        .with_verb_timeout(Duration::from_secs(5))
                        .with_checkpoint_every(16)
                        .with_backoff_us(200, 10_000);
                    let mut client = ResilientClient::tcp(addr, policy);
                    let outcome = client.run_to_done(&open_request(None)).expect("run");
                    outcome_identity(&outcome)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    stop.store(true, Ordering::Relaxed);
    server.join().expect("daemon thread").expect("daemon ok");

    for identity in identities {
        assert_eq!(identity, reference, "a shed client's recovery drifted");
    }
    supervisor.reconcile().expect("session conservation");
}

/// A handler killed mid-run (fire-once chaos kill point) is contained:
/// the supervisor resurrects the orphaned session from its last
/// checkpoint to the same bit-identical outcome, and the client's own
/// reconnect-and-resume also lands on the reference.
#[test]
fn killed_handler_resurrects_and_client_recovers() {
    install_killpoint_hook();
    let reference = local_reference(None);
    let daemon = Daemon::bind("127.0.0.1:0")
        .expect("bind")
        .with_supervise_every(2)
        .with_kill_after(4);
    let addr = daemon.local_addr();
    let stop = daemon.stop_handle();
    let supervisor = daemon.supervisor();
    let server = std::thread::spawn(move || daemon.run());

    let policy = RetryPolicy::default()
        .with_verb_timeout(Duration::from_secs(2))
        .with_checkpoint_every(2)
        .with_backoff_us(200, 5_000);
    let mut client = ResilientClient::tcp(addr, policy);
    let outcome = client.run_to_done(&open_request(None)).expect("run");
    assert_eq!(
        outcome_identity(&outcome),
        reference,
        "client recovery after the kill drifted"
    );
    assert!(
        client.reconnects() >= 1,
        "the kill point must have torn the client's connection"
    );

    stop.store(true, Ordering::Relaxed);
    server.join().expect("daemon thread").expect("daemon ok");

    assert_eq!(supervisor.counter("kill_points_fired"), 1);
    assert_eq!(supervisor.counter("sessions_resurrected"), 1);
    let resurrections = supervisor.resurrections();
    assert_eq!(resurrections.len(), 1);
    assert_eq!(
        outcome_identity(&resurrections[0].outcome),
        reference,
        "the resurrected orphan drifted from the reference"
    );
    supervisor.reconcile().expect("session conservation");
}

/// Drain-on-shutdown: a session still live when the listener closes is
/// checkpointed into the supervisor, and that final snapshot resumes in a
/// fresh in-process service to the bit-identical reference outcome.
#[test]
fn shutdown_drains_live_sessions_with_resumable_checkpoints() {
    let reference = local_reference(None);
    let daemon = Daemon::bind("127.0.0.1:0").expect("bind");
    let addr = daemon.local_addr();
    let supervisor = daemon.supervisor();
    let server = std::thread::spawn(move || daemon.run());

    let mut client = DaemonClient::connect(addr).expect("connect");
    let session = client.open(open_request(None)).expect("open");
    match client.run(session, Some(5), |_, _, _, _| {}).expect("run") {
        RunEnd::Paused { steps } => assert_eq!(steps, 5),
        RunEnd::Done(_) => panic!("5 steps must not finish {N} tags"),
    }
    client.shutdown().expect("shutdown");
    drop(client);
    server.join().expect("daemon thread").expect("daemon ok");

    assert_eq!(supervisor.counter("drain_checkpoints"), 1);
    let drained = supervisor.drained();
    assert_eq!(drained.len(), 1);
    supervisor.reconcile().expect("session conservation");

    // A served snapshot names its population by origin, not by tag list;
    // resuming it in a fresh in-process service rebuilds that scenario.
    let snapshot = drained[0].1.clone();
    assert!(snapshot.get("origin").is_some() && snapshot.get("tags").is_none());
    let outcome = with_loopback_client(|client| {
        let session = client.resume(snapshot).expect("drained snapshot resumes");
        match client.run(session, None, |_, _, _, _| {}).expect("run") {
            RunEnd::Done(outcome) => outcome,
            RunEnd::Paused { .. } => panic!("unbounded run paused"),
        }
    });
    assert_eq!(
        outcome_identity(&outcome),
        reference,
        "drained checkpoint drifted from the reference"
    );
}

/// Metrics fetched over the wire equal metrics derived from the same
/// trace in-process.
#[test]
fn wire_metrics_match_inprocess_metrics() {
    let scenario = Scenario::uniform(N as usize, INFO_BITS as usize).with_seed(SEED);
    let config = SimConfig::paper(scenario.protocol_seed()).with_trace();
    let protocol = HppConfig::default();
    let mut ctx = SimContext::new(scenario.build_population(), &config);
    let mut session = Session::open(&protocol, &ctx);
    let _ = session.run(&mut ctx);
    let expected = metrics_from_log(&ctx.log).expose_text();

    let served = with_tcp_client(|client| {
        let session = client.open(open_request(None)).expect("open");
        match client.run(session, None, |_, _, _, _| {}).expect("run") {
            RunEnd::Done(_) => {}
            RunEnd::Paused { .. } => panic!("unbounded run paused"),
        }
        client.metrics_text(session).expect("metrics")
    });
    assert_eq!(served, expected, "wire metrics drifted from in-process");
}
