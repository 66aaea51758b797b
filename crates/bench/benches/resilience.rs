//! Chaos-soak resilience gate: client-side chaos (seeded byte flips,
//! cuts, Gilbert–Elliott bursts), daemon-side kill points, shedding
//! pressure, and drain-on-shutdown — every faulted session must finish
//! with report JSON and FNV-1a trace digest *bit-identical* to its
//! unfaulted in-process reference. Because every chaos plan carries a
//! finite fault budget, the link is eventually usable, so the gate
//! demands a 100% recovery rate.
//!
//! Gates, per case in `BENCH_resilience.json`: `sessions ≥ 1` and
//! `recovery_rate ≥ 1`; on each `chaos_*` arm `faults_injected ≥ 1` and
//! `retries_plus_reconnects ≥ 1`; `resurrections ≥ 1` on `chaos_kill`,
//! `shed ≥ 1` on `shed_pressure` and `drains ≥ 1` on `drain_shutdown`.

use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use rfid_bench::{Bench, BenchRecord, Gate};
use rfid_daemon::{
    install_killpoint_hook, DaemonClient, FleetLimits, ResilientClient, RetryPolicy, Service,
};
use rfid_obs::Log2Histogram;
use rfid_protocols::{Session, SessionEnd, TppConfig};
use rfid_system::{GilbertElliott, SimConfig, SimContext, ToJson};
use rfid_wire::{ChaosDirector, ChaosPlan, Command, OpenRequest, Response};
use rfid_workloads::Scenario;

const PROTOCOL: &str = "TPP";
const N: u64 = 96;
const INFO_BITS: u64 = 4;
const SEEDS: [u64; 3] = [11, 47, 203];

/// One record of case `name`.
fn record(name: &str, metric: &str, unit: &str, value: f64) -> BenchRecord {
    BenchRecord::new(name, metric, unit, value)
        .param("protocol", PROTOCOL)
        .param("n", &N)
}

/// Records the gates every case shares: at least one session attempted
/// (a drain that checkpoints nothing must not pass 0/0), and every
/// attempted session recovered bit-identically.
fn record_recovery(b: &mut Bench, name: &str, sessions: u64, recovered: u64) {
    b.record(record(name, "sessions", "sessions", sessions as f64).gate(Gate::AtLeast(1.0)));
    let rate = recovered as f64 / (sessions as f64).max(1.0);
    b.record(record(name, "recovery_rate", "ratio", rate).gate(Gate::AtLeast(1.0)));
}

/// The unfaulted in-process reference identity for one seed.
fn local_identity(seed: u64) -> (String, u64) {
    let scenario = Scenario::uniform(N as usize, INFO_BITS as usize).with_seed(seed);
    let config = SimConfig::paper(scenario.protocol_seed()).with_trace();
    let protocol = TppConfig::default();
    let mut ctx = SimContext::new(scenario.build_population(), &config);
    let mut session = Session::open(&protocol, &ctx);
    let SessionEnd::Complete { report, .. } = session.run(&mut ctx) else {
        panic!("reference run did not complete (seed {seed})");
    };
    (report.to_json().to_string(), ctx.log.digest())
}

fn open_req(seed: u64) -> OpenRequest {
    OpenRequest::new(PROTOCOL, N, INFO_BITS, seed)
}

fn policy() -> RetryPolicy {
    RetryPolicy::default()
        .with_verb_timeout(Duration::from_millis(800))
        .with_checkpoint_every(3)
        .with_backoff_us(200, 5_000)
        .with_max_attempts(80)
}

fn outcome_identity(outcome: &rfid_wire::SessionOutcome) -> Option<(String, u64)> {
    (outcome.status == "complete").then(|| {
        (
            outcome.report.to_string(),
            outcome.trace_digest.unwrap_or(0),
        )
    })
}

/// Clean serving baseline: a plain client on an unfaulted link must
/// match the in-process reference (the control arm of the soak).
fn reference_case(b: &mut Bench) {
    let mut recovered = 0;
    let daemon = rfid_daemon::Daemon::bind("127.0.0.1:0").expect("bind");
    let addr = daemon.local_addr();
    let stop = daemon.stop_handle();
    let server = std::thread::spawn(move || daemon.run());
    for seed in SEEDS {
        let mut client = DaemonClient::connect(addr).expect("connect");
        let session = client.open(open_req(seed)).expect("open");
        let outcome = match client.run(session, None, |_, _, _, _| {}).expect("run") {
            rfid_daemon::RunEnd::Done(outcome) => outcome,
            rfid_daemon::RunEnd::Paused { .. } => panic!("unbounded run paused"),
        };
        client.close(session).expect("close");
        if outcome_identity(&outcome) == Some(local_identity(seed)) {
            recovered += 1;
        }
    }
    stop.store(true, Ordering::Relaxed);
    server.join().expect("daemon thread").expect("daemon ok");
    record_recovery(b, "reference", SEEDS.len() as u64, recovered);
}

/// One chaos arm: every seed runs through a fresh daemon and a chaos
/// link built from `mk_plan(seed)`; the resilient client must land on
/// the bit-identical reference. The link must really have hurt: faults
/// injected and the client made to retry or reconnect; a kill arm must
/// also have resurrected a session.
fn chaos_case(b: &mut Bench, name: &str, kill_after: Option<u64>, mk_plan: fn(u64) -> ChaosPlan) {
    let (mut recovered, mut retried, mut faults, mut resurrections) = (0, 0, 0, 0);
    for seed in SEEDS {
        let mut daemon = rfid_daemon::Daemon::bind("127.0.0.1:0")
            .expect("bind")
            .with_supervise_every(2);
        if let Some(after) = kill_after {
            daemon = daemon.with_kill_after(after);
        }
        let addr = daemon.local_addr();
        let stop = daemon.stop_handle();
        let supervisor = daemon.supervisor();
        let server = std::thread::spawn(move || daemon.run());

        let director = ChaosDirector::new(mk_plan(seed));
        let dialer = director.clone();
        let policy = policy();
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
        let outcome = client.run_to_done(&open_req(seed)).expect("chaos run");
        if outcome_identity(&outcome) == Some(local_identity(seed)) {
            recovered += 1;
        }
        retried += client.retries() + client.reconnects();
        faults += director.faults_injected();

        stop.store(true, Ordering::Relaxed);
        server.join().expect("daemon thread").expect("daemon ok");
        resurrections += supervisor.counter("sessions_resurrected");
        supervisor.reconcile().expect("session conservation");
    }
    record_recovery(b, name, SEEDS.len() as u64, recovered);
    let at_least_one = |metric, unit, value: u64| {
        record(name, metric, unit, value as f64).gate(Gate::AtLeast(1.0))
    };
    b.record(at_least_one("faults_injected", "faults", faults));
    b.record(at_least_one("retries_plus_reconnects", "count", retried));
    if kill_after.is_some() {
        b.record(at_least_one("resurrections", "sessions", resurrections));
    }
}

/// Shedding pressure: more resilient clients than the admission budget
/// allows. Two plain clients hold sessions that fill the budget before
/// the resilient ones start, so those are shed until the holders close,
/// which they do once a shed is counted. Every resilient client must
/// complete bit-identically; per-session wall latency (including Busy
/// backoff) lands in the percentile histogram.
fn shed_pressure_case(b: &mut Bench, clients: usize) {
    let daemon = rfid_daemon::Daemon::bind("127.0.0.1:0")
        .expect("bind")
        .with_limits(FleetLimits::bounded(2, 2).with_retry_after_us(2_000));
    let addr = daemon.local_addr();
    let stop = daemon.stop_handle();
    let supervisor = daemon.supervisor();
    let server = std::thread::spawn(move || daemon.run());
    let mut holders: Vec<_> = SEEDS[..2]
        .iter()
        .map(|&seed| {
            let mut client = DaemonClient::connect(addr).expect("holder connects");
            let session = client.open(open_req(seed)).expect("holder opens");
            (client, session)
        })
        .collect();

    let outcomes: Vec<(bool, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let seed = SEEDS[c % SEEDS.len()];
                    let started = Instant::now();
                    let mut client = ResilientClient::tcp(
                        addr,
                        policy()
                            .with_verb_timeout(Duration::from_secs(5))
                            .with_checkpoint_every(16),
                    );
                    let outcome = client.run_to_done(&open_req(seed)).expect("run");
                    let us = started.elapsed().as_micros().max(1) as u64;
                    (outcome_identity(&outcome) == Some(local_identity(seed)), us)
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while supervisor.counter("sessions_shed") == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        for (client, session) in &mut holders {
            client.close(*session).expect("holder closes");
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    drop(holders);
    stop.store(true, Ordering::Relaxed);
    server.join().expect("daemon thread").expect("daemon ok");

    let mut latencies = Log2Histogram::new();
    let mut recovered = 0;
    for &(ok, us) in &outcomes {
        recovered += ok as u64;
        latencies.record(us);
    }
    supervisor.reconcile().expect("session conservation");
    let name = "shed_pressure";
    record_recovery(b, name, outcomes.len() as u64, recovered);
    let shed = supervisor.counter("sessions_shed") as f64;
    b.record(record(name, "shed", "sessions", shed).gate(Gate::AtLeast(1.0)));
    for (metric, q) in [
        ("latency_p50_us", 0.5),
        ("latency_p90_us", 0.9),
        ("latency_p99_us", 0.99),
    ] {
        let us = latencies.percentile(q).unwrap_or(0) as f64;
        b.record(record(name, metric, "us", us));
    }
}

/// Drain-on-shutdown: sessions still live when the listener closes are
/// checkpointed; each drained snapshot must restore in-process to the
/// bit-identical reference.
fn drain_shutdown_case(b: &mut Bench) {
    let daemon = rfid_daemon::Daemon::bind("127.0.0.1:0").expect("bind");
    let addr = daemon.local_addr();
    let supervisor = daemon.supervisor();
    let server = std::thread::spawn(move || daemon.run());

    let mut client = DaemonClient::connect(addr).expect("connect");
    for seed in SEEDS {
        let session = client.open(open_req(seed)).expect("open");
        match client.run(session, Some(5), |_, _, _, _| {}).expect("run") {
            rfid_daemon::RunEnd::Paused { .. } => {}
            rfid_daemon::RunEnd::Done(_) => panic!("5 steps must not finish {N} tags"),
        }
    }
    client.shutdown().expect("shutdown");
    drop(client);
    server.join().expect("daemon thread").expect("daemon ok");

    let drains = supervisor.counter("drain_checkpoints") as f64;
    let drained = supervisor.drained();
    // Drain order is session-table order, not open order: match each
    // finished snapshot against the reference identity *set*. A drained
    // snapshot names its population by origin, so it resumes through an
    // in-process service, which rebuilds that scenario.
    let mut expected: Vec<(String, u64)> = SEEDS.iter().map(|&s| local_identity(s)).collect();
    let mut recovered = 0;
    let mut service = Service::new();
    for (_gid, snapshot) in &drained {
        let resumed = service.handle(Command::Resume {
            snapshot: snapshot.clone(),
        });
        let session = match resumed.into_iter().next() {
            Some(Response::Opened { session }) => session,
            other => panic!("drained snapshot did not resume: {other:?}"),
        };
        let outcome = match service
            .handle(Command::Run {
                session,
                max_steps: None,
            })
            .pop()
        {
            Some(Response::Done { outcome, .. }) => outcome,
            other => panic!("drained snapshot did not finish: {other:?}"),
        };
        let identity = outcome_identity(&outcome).expect("drained snapshot did not complete");
        if let Some(at) = expected.iter().position(|e| *e == identity) {
            expected.remove(at);
            recovered += 1;
        }
    }
    supervisor.reconcile().expect("session conservation");
    let name = "drain_shutdown";
    record_recovery(b, name, drained.len() as u64, recovered);
    b.record(record(name, "drains", "sessions", drains).gate(Gate::AtLeast(1.0)));
}

/// A named chaos arm: an optional daemon-side kill step and the seeded
/// link plan.
type ChaosArm = (&'static str, Option<u64>, fn(u64) -> ChaosPlan);

fn main() {
    install_killpoint_hook();
    let mut b = Bench::new("resilience");
    if b.wants("reference") {
        reference_case(&mut b);
    }
    let chaos_arms: [ChaosArm; 4] = [
        ("chaos_flips", None, |seed| {
            ChaosPlan::flips(seed, 0.002, 30)
        }),
        ("chaos_cuts", None, |seed| ChaosPlan::cuts(seed, 0.0008, 12)),
        ("chaos_burst", None, |seed| {
            ChaosPlan::flips(seed, 0.02, 30).with_burst(GilbertElliott::new(0.002, 0.05, 0.0, 1.0))
        }),
        // A mild flip plan plus a fire-once daemon-side kill at step 4
        // (sessions run 6–8 steps): both fault planes in one arm.
        ("chaos_kill", Some(4), |seed| {
            ChaosPlan::flips(seed, 0.0005, 10)
        }),
    ];
    for (name, kill_after, plan) in chaos_arms {
        if b.wants(name) {
            chaos_case(&mut b, name, kill_after, plan);
        }
    }
    if b.wants("shed_pressure") {
        shed_pressure_case(&mut b, 6);
    }
    if b.wants("drain_shutdown") {
        drain_shutdown_case(&mut b);
    }
    b.finish();
}
