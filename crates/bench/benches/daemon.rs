//! Daemon serving-layer throughput bench: an in-process fleet on port 0
//! absorbs hundreds of short inventory sessions from concurrent TCP
//! clients, plus a single-connection loopback baseline with no kernel
//! sockets in the path. Per-session wall latency lands in a
//! `Log2Histogram` for percentile reporting; every session must complete
//! (the gate), and the report records sessions/sec alongside the latency
//! distribution.
//!
//! Records per case in `BENCH_daemon.json`: `completed` (gated at the
//! expected session count), `sessions_per_sec` and the latency mean and
//! p50/p90/p99.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rfid_bench::{Bench, BenchRecord, Gate};
use rfid_daemon::{serve_connection, Daemon, DaemonClient, RunEnd, Service};
use rfid_obs::Log2Histogram;
use rfid_wire::{loopback, OpenRequest, Transport};

const PROTOCOL: &str = "TPP";
const N: u64 = 64;
const INFO_BITS: u64 = 4;

struct CaseResult {
    clients: u64,
    expected: u64,
    completed: u64,
    seconds: f64,
    latencies: Log2Histogram,
}

/// Opens, runs and closes one session; returns whether it completed and
/// its wall latency in µs (clamped to ≥ 1 so log2 percentiles stay
/// positive).
fn one_session<T: Transport>(client: &mut DaemonClient<T>, seed: u64) -> (bool, u64) {
    let started = Instant::now();
    let req = OpenRequest::new(PROTOCOL, N, INFO_BITS, seed);
    let session = client.open(req).expect("open");
    let outcome = match client.run(session, None, |_, _, _, _| {}).expect("run") {
        RunEnd::Done(outcome) => outcome,
        RunEnd::Paused { .. } => panic!("unbounded run paused"),
    };
    client.close(session).expect("close");
    let us = started.elapsed().as_micros().max(1) as u64;
    (outcome.status == "complete", us)
}

/// Hundreds of sessions from concurrent TCP clients against one fleet.
fn tcp_fanout(clients: usize, sessions_per_client: usize) -> CaseResult {
    let daemon = Daemon::bind("127.0.0.1:0").expect("bind");
    let addr = daemon.local_addr();
    let stop = daemon.stop_handle();
    let server = std::thread::spawn(move || daemon.run());

    let started = Instant::now();
    let per_client: Vec<(u64, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = DaemonClient::connect(addr).expect("connect");
                    let mut completed = 0u64;
                    let mut latencies = Vec::with_capacity(sessions_per_client);
                    for s in 0..sessions_per_client {
                        let seed = 1 + (c * sessions_per_client + s) as u64;
                        let (ok, us) = one_session(&mut client, seed);
                        completed += ok as u64;
                        latencies.push(us);
                    }
                    (completed, latencies)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let seconds = started.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    server.join().expect("daemon thread").expect("daemon ok");

    let mut latencies = Log2Histogram::new();
    let mut completed = 0;
    for (ok, times) in per_client {
        completed += ok;
        for us in times {
            latencies.record(us);
        }
    }
    CaseResult {
        clients: clients as u64,
        expected: (clients * sessions_per_client) as u64,
        completed,
        seconds,
        latencies,
    }
}

/// The same session stream over the in-memory loopback — the no-kernel
/// baseline the TCP figures are read against.
fn loopback_serial(sessions: usize) -> CaseResult {
    let (server_end, client_end) = loopback();
    let stop = Arc::new(AtomicBool::new(false));
    let server_stop = Arc::clone(&stop);
    let server = std::thread::spawn(move || {
        let mut transport = server_end;
        let mut service = Service::new();
        serve_connection(&mut transport, &mut service, &server_stop)
    });

    let mut client = DaemonClient::new(client_end);
    let mut latencies = Log2Histogram::new();
    let mut completed = 0;
    let started = Instant::now();
    for s in 0..sessions {
        let (ok, us) = one_session(&mut client, 1 + s as u64);
        completed += ok as u64;
        latencies.record(us);
    }
    let seconds = started.elapsed().as_secs_f64();
    client.shutdown().expect("shutdown");
    drop(client);
    server.join().expect("server thread").expect("serve ok");
    CaseResult {
        clients: 1,
        expected: sessions as u64,
        completed,
        seconds,
        latencies,
    }
}

fn main() {
    let mut b = Bench::new("daemon");
    let cases: [(&str, fn() -> CaseResult); 2] = [
        ("tcp_fanout", || tcp_fanout(8, 25)),
        ("loopback_serial", || loopback_serial(50)),
    ];
    for (name, run) in cases {
        if !b.wants(name) {
            continue;
        }
        let case = run();
        let record = |metric, unit, value| {
            BenchRecord::new(name, metric, unit, value)
                .param("protocol", PROTOCOL)
                .param("n", &N)
                .param("clients", &case.clients)
                .param("sessions", &case.expected)
        };
        let pct = |q: f64| case.latencies.percentile(q).unwrap_or(0) as f64;
        b.record(
            record("completed", "sessions", case.completed as f64)
                .gate(Gate::AtLeast(case.expected as f64)),
        );
        b.record(record(
            "sessions_per_sec",
            "sessions/s",
            case.completed as f64 / case.seconds.max(1e-9),
        ));
        b.record(record("latency_p50_us", "us", pct(0.5)));
        b.record(record("latency_p90_us", "us", pct(0.9)));
        b.record(record("latency_p99_us", "us", pct(0.99)));
        b.record(record("latency_mean_us", "us", case.latencies.mean()));
    }
    b.finish();
}
