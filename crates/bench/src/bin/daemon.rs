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

use rfid_bench::cli::{daemon_usage, parse_daemon_args, DaemonMode, DaemonOptions};
use rfid_daemon::{Daemon, DaemonClient, RunEnd};
use rfid_wire::{OpenRequest, SessionOutcome, Transport};

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
    };
    if let Err(msg) = result {
        eprintln!("rfid_daemon: {msg}");
        std::process::exit(1);
    }
}

fn serve(opts: &DaemonOptions) -> Result<(), String> {
    let addr = &opts.addr;
    let daemon = Daemon::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!("rfid_daemon: serving on {}", daemon.local_addr());
    daemon.run().map_err(|e| format!("serve failed: {e}"))
}

/// One served inventory, progress streamed, outcome printed.
fn drive_session<T: Transport>(
    client: &mut DaemonClient<T>,
    req: OpenRequest,
) -> Result<SessionOutcome, String> {
    let session = client.open(req).map_err(|e| format!("open failed: {e}"))?;
    let outcome = match client
        .run(session, None, |steps, polls, rounds, clock_us| {
            println!("  progress: {steps} steps, {polls} polls, {rounds} rounds, {clock_us:.0} µs");
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
    let outcome = drive_session(&mut client, req)?;
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
