//! `obs_report` — renders telemetry from traced protocol runs.
//!
//! Modes (any unrecognised flag prints the full usage text and exits 2;
//! parsing lives in `rfid_bench::cli` alongside the `repro` binary's):
//!
//! * default — re-creates the paper's worked examples from event traces
//!   rather than from counters: the HPP round-by-round walk of Fig. 2, the
//!   EHPP per-circle breakdown behind Fig. 6 (vector length flat in `n`),
//!   and the TPP differential-suffix average behind Fig. 7 (~3 bits/tag),
//!   each followed by the trace-derived metric summary.
//! * `--flame` — runs the three paper protocols with span profiling on and
//!   renders the session→pass→round→poll hierarchy as a flame table plus
//!   deterministic folded stacks (DESIGN.md §14).
//! * `--reconcile` — the CI gate: one traced run of *every* protocol (plus
//!   an impaired run of each fault-tolerant one) replayed through
//!   `rfid_obs::reconcile`; any counter/trace disagreement exits nonzero.

use rfid_baselines::{CodedPollingConfig, CppConfig, EcppConfig, FsaConfig, LowerBound, MicConfig};
use rfid_bench::cli::{obs_usage, parse_obs_args, ObsMode};
use rfid_identify::{BinarySplitConfig, QAlgorithmConfig, QueryTreeConfig};
use rfid_obs::{metrics_from_log, reconcile, render_flame, Log2Histogram, MetricsRegistry};
use rfid_protocols::{EhppConfig, HppConfig, PollingProtocol, TppConfig};
use rfid_system::{
    BitVec, Event, FaultModel, GilbertElliott, SimConfig, SimContext, TagPopulation, TimedEvent,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_obs_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("obs_report: {msg}\n");
            eprint!("{}", obs_usage());
            std::process::exit(2);
        }
    };
    let n = opts.n.unwrap_or(200);
    let seed = opts.seed.unwrap_or(1);
    let code = match opts.mode {
        ObsMode::Reconcile => run_reconcile_gate(n.min(120), seed),
        ObsMode::Flame => {
            render_flame_profiles(n, seed);
            0
        }
        ObsMode::Examples => {
            render_worked_examples(n, seed);
            0
        }
    };
    std::process::exit(code);
}

fn traced_run(protocol: &dyn PollingProtocol, n: usize, cfg: &SimConfig) -> SimContext {
    let pop = TagPopulation::sequential(n, |i| BitVec::from_value((i % 2) as u64, 1));
    let mut ctx = SimContext::new(pop, cfg);
    let _ = protocol.try_run(&mut ctx);
    ctx
}

// ---------------------------------------------------------------------------
// Default mode: worked examples + metric summaries
// ---------------------------------------------------------------------------

/// Per-round aggregates replayed from a trace.
struct RoundRow {
    round: usize,
    h: u32,
    unread: usize,
    polls: u64,
    vector_bits: u64,
}

/// Per-circle aggregates (EHPP) replayed from a trace.
struct CircleRow {
    circle: usize,
    selected: usize,
    rounds: u64,
    polls: u64,
    vector_bits: u64,
}

fn round_rows<'a>(events: impl IntoIterator<Item = &'a TimedEvent>) -> Vec<RoundRow> {
    let mut rows: Vec<RoundRow> = Vec::new();
    for te in events {
        match te.event {
            Event::RoundStarted { round, h, unread } => rows.push(RoundRow {
                round,
                h,
                unread,
                polls: 0,
                vector_bits: 0,
            }),
            Event::TagPolled { vector_bits, .. } => {
                if let Some(row) = rows.last_mut() {
                    row.polls += 1;
                    row.vector_bits += vector_bits;
                }
            }
            _ => {}
        }
    }
    rows
}

fn circle_rows<'a>(events: impl IntoIterator<Item = &'a TimedEvent>) -> Vec<CircleRow> {
    let mut rows: Vec<CircleRow> = Vec::new();
    for te in events {
        match te.event {
            Event::CircleStarted { circle, selected } => rows.push(CircleRow {
                circle,
                selected,
                rounds: 0,
                polls: 0,
                vector_bits: 0,
            }),
            Event::RoundStarted { .. } => {
                if let Some(row) = rows.last_mut() {
                    row.rounds += 1;
                }
            }
            Event::TagPolled { vector_bits, .. } => {
                if let Some(row) = rows.last_mut() {
                    row.polls += 1;
                    row.vector_bits += vector_bits;
                }
            }
            _ => {}
        }
    }
    rows
}

fn print_histogram(name: &str, h: &Log2Histogram) {
    let pct = |q: f64| h.percentile(q).map_or(0, |v| v);
    println!(
        "    {name:<16} n={:<6} mean={:<9.2} p50≤{:<6} p95≤{:<6} max={}",
        h.count(),
        h.mean(),
        pct(0.5),
        pct(0.95),
        h.max().unwrap_or(0),
    );
}

fn print_metric_summary(m: &MetricsRegistry) {
    println!("  trace-derived metrics:");
    for name in ["vector_bits", "poll_latency_us", "slot_us"] {
        if let Some(h) = m.histogram(name) {
            print_histogram(name, h);
        }
    }
    if let Some(s) = m.series("unread_tags") {
        let tail: Vec<String> = s
            .points
            .iter()
            .rev()
            .take(5)
            .rev()
            .map(|p| format!("{:.0}@{:.0}µs", p.value, p.t_us))
            .collect();
        println!(
            "    unread_tags      {} samples, tail: {}",
            s.points.len(),
            tail.join(" → ")
        );
    }
}

fn render_worked_examples(n: usize, seed: u64) {
    let cfg = SimConfig::paper(seed).with_trace();

    // Fig. 2 — HPP: the reader announces (h, r); singleton indices become
    // the polling vector; every poll costs h bits.
    println!("== Fig. 2 worked example: HPP round walk (n={n}, seed={seed}) ==");
    let ctx = traced_run(&HppConfig::default().into_protocol(), n, &cfg);
    println!(
        "  {:>5} {:>4} {:>7} {:>6} {:>12} {:>10}",
        "round", "h", "unread", "polls", "vector bits", "bits/poll"
    );
    for row in round_rows(ctx.log.events()) {
        let per = if row.polls == 0 {
            0.0
        } else {
            row.vector_bits as f64 / row.polls as f64
        };
        println!(
            "  {:>5} {:>4} {:>7} {:>6} {:>12} {:>10.2}",
            row.round, row.h, row.unread, row.polls, row.vector_bits, per
        );
    }
    println!(
        "  totals: {} polls, {} vector bits ({:.2} bits/tag), {} over {} rounds",
        ctx.counters.polls,
        ctx.counters.vector_bits,
        ctx.counters.mean_vector_bits(),
        ctx.clock.total(),
        ctx.counters.rounds,
    );
    print_metric_summary(&metrics_from_log(&ctx.log));

    // Fig. 6 — EHPP: circles of the Theorem-1 size keep the per-tag vector
    // length flat as n grows. The default optimum exceeds small populations
    // (where EHPP degenerates to HPP), so force circles small enough that
    // the example always shows the circle structure.
    println!();
    println!("== Fig. 6 worked example: EHPP per-circle breakdown (n={n}, seed={seed}) ==");
    let ehpp = EhppConfig {
        subset_size: Some(((n as u64) / 4).max(1)),
        ..EhppConfig::default()
    };
    let ctx = traced_run(&ehpp.into_protocol(), n, &cfg);
    println!(
        "  {:>6} {:>8} {:>6} {:>6} {:>12} {:>9}",
        "circle", "selected", "rounds", "polls", "vector bits", "bits/tag"
    );
    for row in circle_rows(ctx.log.events()) {
        let per = if row.polls == 0 {
            0.0
        } else {
            row.vector_bits as f64 / row.polls as f64
        };
        println!(
            "  {:>6} {:>8} {:>6} {:>6} {:>12} {:>9.2}",
            row.circle, row.selected, row.rounds, row.polls, row.vector_bits, per
        );
    }
    println!(
        "  totals: {:.2} vector bits/tag over {} circles (flat in n)",
        ctx.counters.mean_vector_bits(),
        ctx.counters.circles,
    );
    print_metric_summary(&metrics_from_log(&ctx.log));

    // Fig. 7 — TPP: the pre-order tree traversal charges each tag only the
    // differential suffix (~3 bits regardless of n).
    println!();
    println!("== Fig. 7 worked example: TPP differential suffixes (n={n}, seed={seed}) ==");
    let ctx = traced_run(&TppConfig::default().into_protocol(), n, &cfg);
    println!(
        "  {:.2} vector bits/tag over {} rounds (paper's asymptote ≈ 3.06)",
        ctx.counters.mean_vector_bits(),
        ctx.counters.rounds,
    );
    print_metric_summary(&metrics_from_log(&ctx.log));
}

// ---------------------------------------------------------------------------
// --flame: span profiles of the paper protocols
// ---------------------------------------------------------------------------

/// Runs the three paper protocols through the session engine with span
/// profiling on and renders each profile: the flame table (per-path calls,
/// sim/wall totals, self time) followed by the deterministic folded stacks
/// — the collapsed-flamegraph lines external flamegraph tooling consumes.
fn render_flame_profiles(n: usize, seed: u64) {
    use rfid_protocols::Session;
    let cfg = SimConfig::paper(seed).with_profile();
    let protocols: Vec<Box<dyn PollingProtocol>> = vec![
        Box::new(HppConfig::default().into_protocol()),
        Box::new(EhppConfig::default().into_protocol()),
        Box::new(TppConfig::default().into_protocol()),
    ];
    println!("span profiles (n = {n}, seed = {seed})\n");
    for protocol in &protocols {
        let pop = TagPopulation::sequential(n, |i| BitVec::from_value((i % 2) as u64, 1));
        let mut ctx = SimContext::new(pop, &cfg);
        let mut session = Session::open(protocol.as_ref(), &ctx);
        let end = session.run(&mut ctx);
        println!(
            "== {} ({}) ==",
            protocol.name(),
            if end.is_complete() {
                "complete"
            } else {
                "incomplete"
            }
        );
        print!("{}", render_flame(&ctx.profiler));
        println!("folded stacks (collapsed-flamegraph lines, value = self sim-µs):");
        for line in rfid_obs::folded_stacks(&ctx.profiler) {
            println!("  {line}");
        }
        println!();
    }
}

// ---------------------------------------------------------------------------
// --reconcile: the CI gate
// ---------------------------------------------------------------------------

fn run_reconcile_gate(n: usize, seed: u64) -> i32 {
    let protocols: Vec<Box<dyn PollingProtocol>> = vec![
        Box::new(HppConfig::default().into_protocol()),
        Box::new(EhppConfig::default().into_protocol()),
        Box::new(TppConfig::default().into_protocol()),
        Box::new(LowerBound),
        Box::new(FsaConfig::default().into_protocol()),
        Box::new(CppConfig::default().into_protocol()),
        Box::new(EcppConfig::default().into_protocol()),
        Box::new(CodedPollingConfig::default().into_protocol()),
        Box::new(MicConfig::default().into_protocol()),
        Box::new(QAlgorithmConfig::default().into_protocol()),
        Box::new(QueryTreeConfig::default().into_protocol()),
        Box::new(BinarySplitConfig::default().into_protocol()),
    ];
    let mut failures = 0usize;
    let mut check = |label: String, ctx: &SimContext| match reconcile(&ctx.log, &ctx.counters) {
        Ok(()) => println!("reconcile {label:<28} ok ({} events)", ctx.log.len()),
        Err(e) => {
            eprintln!("reconcile {label:<28} FAILED: {e}");
            failures += 1;
        }
    };

    let clean = SimConfig::paper(seed).with_trace();
    for protocol in &protocols {
        let ctx = traced_run(protocol.as_ref(), n, &clean);
        check(protocol.name().to_string(), &ctx);
    }

    // The fault-tolerant family must also reconcile mid-impairment, where
    // retransmission/loss/desync events carry the counter deltas.
    let fault = FaultModel::perfect()
        .with_downlink_loss(0.3)
        .with_corruption(0.3)
        .with_burst(GilbertElliott::new(0.1, 0.5, 0.0, 0.8));
    let impaired = SimConfig::paper(seed).with_trace().with_fault(fault);
    let fault_tolerant: Vec<Box<dyn PollingProtocol>> = vec![
        Box::new(HppConfig::default().into_protocol()),
        Box::new(EhppConfig::default().into_protocol()),
        Box::new(TppConfig::default().into_protocol()),
        Box::new(MicConfig::default().into_protocol()),
    ];
    for protocol in &fault_tolerant {
        let ctx = traced_run(protocol.as_ref(), n, &impaired);
        check(format!("{} (impaired)", protocol.name()), &ctx);
    }

    if failures == 0 {
        println!(
            "reconciliation gate: all {} runs ok",
            protocols.len() + fault_tolerant.len()
        );
        0
    } else {
        eprintln!("reconciliation gate: {failures} run(s) FAILED");
        1
    }
}
