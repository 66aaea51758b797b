//! `rfid_daemon` — the reader-fleet daemon and its command-line client.
//!
//! Modes (any unrecognised flag prints the full usage text and exits 2;
//! parsing lives in `rfid_bench::cli` alongside the other binaries'):
//!
//! * `--serve` (default) — bind `--addr` (port 0 picks a free port, which
//!   is printed) and serve virtual reader sessions until a client sends
//!   the wire `Shutdown` command.
//! * `--client ADDR` — connect to a running daemon, open one session
//!   (`--protocol/--n/--info-bits/--seed`), stream its progress, and
//!   print the outcome with its trace digest.
//! * `--smoke` — the CI slice: an in-process daemon on port 0 serves one
//!   clean and one impaired session over real TCP, the impaired client
//!   shuts the fleet down, and any failure exits nonzero.
//! * `--chaos-smoke` — the resilience CI slice: a clean reference session,
//!   then the same session over a chaos-impaired link (seeded byte flips
//!   and connection cuts) driven by the checkpoint-resuming
//!   [`ResilientClient`]; the recovered outcome must be bit-identical to
//!   the reference and the session conservation law must hold.

use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

use rfid_bench::cli::{daemon_usage, parse_daemon_args, DaemonMode, DaemonOptions};
use rfid_daemon::{Daemon, DaemonClient, ResilientClient, RetryPolicy, RunEnd};
use rfid_system::{FaultModel, SimConfig};
use rfid_wire::{ChaosDirector, ChaosPlan, OpenRequest, SessionOutcome, Transport, WIRE_VERSION};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_daemon_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("rfid_daemon: {msg}\n");
            eprint!("{}", daemon_usage());
            std::process::exit(2);
        }
    };
    let result = match &opts.mode {
        DaemonMode::Serve => serve(&opts),
        DaemonMode::Client(addr) => client(addr, &opts),
        DaemonMode::Smoke => smoke(&opts),
        DaemonMode::ChaosSmoke => chaos_smoke(&opts),
    };
    if let Err(msg) = result {
        eprintln!("rfid_daemon: {msg}");
        std::process::exit(1);
    }
}

fn build_daemon(addr: &str, opts: &DaemonOptions) -> Result<Daemon, String> {
    let mut daemon = Daemon::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    if let Some(dir) = &opts.flight_dir {
        daemon = daemon.with_flight_dir(dir);
    }
    Ok(daemon)
}

fn serve(opts: &DaemonOptions) -> Result<(), String> {
    let daemon = build_daemon(&opts.addr, opts)?;
    println!("rfid_daemon: serving on {}", daemon.local_addr());
    daemon.run().map_err(|e| format!("serve failed: {e}"))
}

/// One served inventory, progress streamed, outcome printed.
fn drive_session<T: Transport>(
    client: &mut DaemonClient<T>,
    req: OpenRequest,
    quiet: bool,
) -> Result<SessionOutcome, String> {
    let session = client.open(req).map_err(|e| format!("open failed: {e}"))?;
    let outcome = match client
        .run(session, None, |steps, polls, rounds, clock_us| {
            if !quiet {
                println!(
                    "  progress: {steps} steps, {polls} polls, {rounds} rounds, {clock_us:.0} µs"
                );
            }
        })
        .map_err(|e| format!("run failed: {e}"))?
    {
        RunEnd::Done(outcome) => outcome,
        RunEnd::Paused { .. } => return Err("unbounded run paused".to_string()),
    };
    client
        .close(session)
        .map_err(|e| format!("close failed: {e}"))?;
    Ok(outcome)
}

fn client(addr: &str, opts: &DaemonOptions) -> Result<(), String> {
    let mut client =
        DaemonClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let (version, server) = client.hello().map_err(|e| format!("hello failed: {e}"))?;
    println!("connected to {server} (wire v{version}) at {addr}");
    let mut req = OpenRequest::new(&opts.protocol, opts.n, opts.info_bits, opts.seed);
    req.progress_every = Some((opts.n / 10).max(1));
    let outcome = drive_session(&mut client, req, false)?;
    println!(
        "{}: {} (passes {}, coverage {:.3}{})",
        opts.protocol,
        outcome.status,
        outcome.passes,
        outcome.coverage,
        outcome
            .trace_digest
            .map(|d| format!(", trace digest {d:#018x}"))
            .unwrap_or_default(),
    );
    println!("{}", outcome.report.to_pretty_string());
    Ok(())
}

/// The verify.sh slice: an in-process fleet on port 0, one clean and one
/// impaired session over real TCP, then a clean wire-driven shutdown.
fn smoke(opts: &DaemonOptions) -> Result<(), String> {
    let daemon = build_daemon("127.0.0.1:0", opts)?;
    let addr = daemon.local_addr();
    println!("smoke: daemon on {addr}");
    let server = std::thread::spawn(move || daemon.run());

    let check_complete = |label: &str, outcome: &SessionOutcome| -> Result<(), String> {
        if outcome.status != "complete" {
            return Err(format!(
                "{label} session ended {} ({})",
                outcome.status,
                outcome.cause.as_deref().unwrap_or("no cause"),
            ));
        }
        let digest = outcome
            .trace_digest
            .ok_or_else(|| format!("{label} session has no trace digest"))?;
        println!(
            "smoke: {label} session complete, {} passes, trace digest {digest:#018x}",
            outcome.passes
        );
        Ok(())
    };

    // Clean session on its own connection.
    let mut clean =
        DaemonClient::connect(addr).map_err(|e| format!("clean connect failed: {e}"))?;
    let (version, name) = clean.hello().map_err(|e| format!("hello failed: {e}"))?;
    if version != WIRE_VERSION {
        return Err(format!(
            "server speaks wire v{version}, expected v{WIRE_VERSION}"
        ));
    }
    println!("smoke: handshake ok ({name}, wire v{version})");
    let req = OpenRequest::new(&opts.protocol, opts.n, opts.info_bits, opts.seed);
    let outcome = drive_session(&mut clean, req, true)?;
    check_complete("clean", &outcome)?;
    drop(clean);

    // Impaired session on a second connection: loss + corruption live.
    let mut impaired =
        DaemonClient::connect(addr).map_err(|e| format!("impaired connect failed: {e}"))?;
    let mut req = OpenRequest::new(&opts.protocol, opts.n, opts.info_bits, opts.seed);
    req.config = Some(
        SimConfig::paper(opts.seed).with_trace().with_fault(
            FaultModel::perfect()
                .with_downlink_loss(0.2)
                .with_corruption(0.2),
        ),
    );
    let outcome = drive_session(&mut impaired, req, true)?;
    check_complete("impaired", &outcome)?;

    // Clean shutdown over the wire: the daemon must drain and return.
    impaired
        .shutdown()
        .map_err(|e| format!("shutdown failed: {e}"))?;
    drop(impaired);
    server
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?
        .map_err(|e| format!("daemon failed: {e}"))?;
    println!("smoke: clean shutdown — OK");
    Ok(())
}

/// The resilience verify.sh slice: one seed, one chaos-impaired link.
/// Runs the session cleanly for a reference identity, then re-runs it
/// through a [`ResilientClient`] over a link with seeded byte flips and
/// connection cuts; the recovered outcome must be bit-identical and the
/// supervisor's session accounting must balance.
fn chaos_smoke(opts: &DaemonOptions) -> Result<(), String> {
    let daemon = build_daemon("127.0.0.1:0", opts)?.with_supervise_every(2);
    let addr = daemon.local_addr();
    let stop = daemon.stop_handle();
    let supervisor = daemon.supervisor();
    println!("chaos-smoke: daemon on {addr}");
    let server = std::thread::spawn(move || daemon.run());

    let identity = |outcome: &SessionOutcome| -> Result<(String, u64), String> {
        if outcome.status != "complete" {
            return Err(format!(
                "session ended {} ({})",
                outcome.status,
                outcome.cause.as_deref().unwrap_or("no cause"),
            ));
        }
        let digest = outcome
            .trace_digest
            .ok_or("session has no trace digest".to_string())?;
        Ok((outcome.report.to_string(), digest))
    };

    // Clean reference run over an unimpaired connection.
    let req = OpenRequest::new(&opts.protocol, opts.n, opts.info_bits, opts.seed);
    let mut clean =
        DaemonClient::connect(addr).map_err(|e| format!("clean connect failed: {e}"))?;
    let reference = identity(&drive_session(&mut clean, req.clone(), true)?)?;
    drop(clean);
    println!(
        "chaos-smoke: clean reference, trace digest {:#018x}",
        reference.1
    );

    // Same session over a hostile link: seeded flips plus rare cuts, a
    // finite fault budget so the link is eventually usable.
    let mut plan = ChaosPlan::flips(opts.seed ^ 0xC4A0_5EED, 0.0015, 25);
    plan.cut_rate = 0.0004;
    let director = ChaosDirector::new(plan);
    let dialer = director.clone();
    let policy = RetryPolicy::default()
        .with_verb_timeout(Duration::from_millis(500))
        .with_checkpoint_every(6)
        .with_backoff_us(200, 5_000)
        .with_max_attempts(64);
    let verb_timeout = policy.verb_timeout;
    let mut resilient = ResilientClient::new(
        move || {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_millis(10)))?;
            Ok(DaemonClient::new(dialer.transport(stream)).with_verb_timeout(verb_timeout))
        },
        policy,
    );
    let outcome = resilient
        .run_to_done(&req)
        .map_err(|e| format!("chaos run failed: {e}"))?;
    let recovered = identity(&outcome)?;
    println!(
        "chaos-smoke: {} faults injected, {} retries, {} reconnects",
        director.faults_injected(),
        resilient.retries(),
        resilient.reconnects(),
    );
    if recovered != reference {
        return Err("chaos recovery drifted from the clean reference".to_string());
    }
    if director.faults_injected() == 0 {
        return Err("the chaos plan never bit — tighten the rates".to_string());
    }

    stop.store(true, Ordering::Relaxed);
    server
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?
        .map_err(|e| format!("daemon failed: {e}"))?;
    supervisor
        .reconcile()
        .map_err(|e| format!("session conservation violated: {e}"))?;
    println!("chaos-smoke: bit-identical recovery — OK");
    Ok(())
}
