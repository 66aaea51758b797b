//! In-process inventory workloads: the simulator core with no wire, no
//! daemon and no event trace.
//!
//! One operation is a *cycle*: each of the workload's protocols
//! inventories a freshly seeded population once. Building the population
//! and its `SimContext` is set-up and stays outside the timed region;
//! `Session::open` + `Session::run` is timed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rfid_daemon::protocol_by_name;
use rfid_hash::split_seed;
use rfid_protocols::{PollingProtocol, Report, Session};
use rfid_system::{SimConfig, SimContext};
use rfid_workloads::Scenario;

use crate::reference::{Reference, WINDOW};
use crate::replay::ProfileSums;
use crate::report::{qualified, RunReport, POLLING_PROTOCOLS};
use crate::spans::{self, Recorder};
use crate::stats;
use crate::RunConfig;

/// Payload bits per tag.
const INFO_BITS: usize = 4;

/// One protocol of an inventory workload.
#[derive(Debug, Clone, Copy)]
pub struct InvProtocol {
    /// Display name in the protocol registry.
    pub name: &'static str,
    /// Population size.
    pub n: usize,
    /// Population size under `--quick`.
    pub quick_n: usize,
}

/// One inventory workload.
#[derive(Debug, Clone, Copy)]
pub struct InventorySpec {
    /// Workload name.
    pub name: &'static str,
    /// The protocols one cycle runs, in order.
    pub protocols: &'static [InvProtocol],
    /// Protocols the traced pass also runs at a population far larger
    /// than the cache.
    pub large: &'static [LargeRun],
}

/// A large-population protocol run and the per-layer metric it reports.
/// Its time swings too much on a shared host to gate, so it is measured
/// in the traced pass only.
#[derive(Debug, Clone, Copy)]
pub struct LargeRun {
    /// The protocol and its population.
    pub protocol: InvProtocol,
    /// The metric its median tags per second is reported as.
    pub metric: &'static str,
}

/// Runs of each large-population protocol in a traced pass.
const LARGE_RUNS: u64 = 3;

/// One protocol run within a cycle.
struct RunOutcome {
    protocol: usize,
    tags: u64,
    timed_s: f64,
}

/// One cycle.
struct Cycle {
    setup_s: f64,
    timed_s: f64,
    /// The reference pass time of the cycle's window.
    ref_s: f64,
    tags: u64,
    runs: Vec<RunOutcome>,
    /// Simulated statistics, taken from the first cycle only.
    stats: BTreeMap<String, f64>,
}

/// Runs cycle `cycle`: for each protocol, builds its population (set-up)
/// and inventories it (timed), checking the run completed with every tag
/// polled exactly once.
fn run_cycle(
    spec: &InventorySpec,
    protocols: &[Box<dyn PollingProtocol>],
    seed: u64,
    cycle: u64,
    quick: bool,
    rec: &mut Recorder,
    mut profile: Option<&mut ProfileSums>,
) -> Result<Cycle, String> {
    let mut out = Cycle {
        setup_s: 0.0,
        timed_s: 0.0,
        ref_s: 0.0,
        tags: 0,
        runs: Vec::new(),
        stats: BTreeMap::new(),
    };
    for (i, (p, protocol)) in spec.protocols.iter().zip(protocols).enumerate() {
        let n = if quick { p.quick_n } else { p.n };
        let scenario =
            Scenario::uniform(n, INFO_BITS).with_seed(split_seed(seed, cycle * 16 + i as u64));
        let mut config = SimConfig::paper(scenario.protocol_seed());
        if profile.is_some() {
            config = config.with_profile();
        }
        let req = (cycle << 8) | i as u64;
        rec.enter("inventory.run", req);
        let t0 = Instant::now();
        let population = rec.time("workloads.scenario_build", req, || {
            scenario.build_population()
        });
        let mut ctx = rec.time("system.ctx_new", req, || {
            SimContext::new(population, &config)
        });
        let t1 = Instant::now();
        let mut session = rec.time("protocols.session_open", req, || {
            Session::open(protocol.as_ref(), &ctx)
        });
        let end = rec.time("protocols.run", req, || session.run(&mut ctx));
        let t2 = Instant::now();
        rec.exit();
        rec.count("protocols.steps", req, session.steps_taken() as f64);
        if !end.is_complete() || ctx.counters.polls != n as u64 {
            return Err(format!(
                "cycle {cycle} {}: complete = {}, polls {} of {n}",
                p.name,
                end.is_complete(),
                ctx.counters.polls
            ));
        }
        if let Some(sums) = profile.as_deref_mut() {
            sums.add(&ctx.profiler, n as u64);
        }
        let timed_s = (t2 - t1).as_secs_f64();
        out.setup_s += (t1 - t0).as_secs_f64();
        out.timed_s += timed_s;
        out.tags += n as u64;
        out.runs.push(RunOutcome {
            protocol: i,
            tags: n as u64,
            timed_s,
        });
        if cycle == 0 {
            add_simulated_stats(&mut out.stats, p.name, end.report());
        }
    }
    Ok(out)
}

/// Cycles run back to back until `secs` of wall time have passed (at
/// least one), in windows that each start by timing the reference.
fn phase(
    spec: &InventorySpec,
    protocols: &[Box<dyn PollingProtocol>],
    cfg: &RunConfig,
    secs: f64,
    rec: &mut Recorder,
    mut profile: Option<&mut ProfileSums>,
    report: &mut RunReport,
) -> Vec<Cycle> {
    let started = Instant::now();
    let end = started + Duration::from_secs_f64(secs);
    let mut reference = Reference::new();
    let mut cycles = Vec::new();
    let mut cycle = 0;
    while cycle == 0 || Instant::now() < end {
        let ref_s = reference.measure();
        let window_end = (Instant::now() + WINDOW).min(end);
        loop {
            report.attempted += 1;
            match run_cycle(
                spec,
                protocols,
                cfg.seed,
                cycle,
                cfg.quick,
                rec,
                profile.as_deref_mut(),
            ) {
                Ok(c) => cycles.push(Cycle { ref_s, ..c }),
                Err(e) => {
                    report.fail(e);
                    return cycles;
                }
            }
            cycle += 1;
            if Instant::now() >= window_end {
                break;
            }
        }
    }
    cycles
}

/// Per-protocol throughput over every run of `cycles`.
fn protocol_rates(spec: &InventorySpec, cycles: &[Cycle]) -> Vec<(String, f64)> {
    spec.protocols
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let (tags, secs) = cycles
                .iter()
                .flat_map(|c| &c.runs)
                .filter(|r| r.protocol == i)
                .fold((0u64, 0.0), |(t, s), r| (t + r.tags, s + r.timed_s));
            let rate = if secs > 0.0 { tags as f64 / secs } else { 0.0 };
            (format!("{}.tags_per_s", qualified(p.name)), rate)
        })
        .collect()
}

/// Adds one run's simulated statistics: deterministic per seed, so a
/// pure speed-up must leave them exactly as they were.
fn add_simulated_stats(out: &mut BTreeMap<String, f64>, name: &str, report: &Report) {
    let c = &report.counters;
    let slots = c.polls + c.empty_slots + c.collision_slots;
    out.insert(
        format!("{}.slot_efficiency", qualified(name)),
        c.polls as f64 / slots.max(1) as f64,
    );
    if POLLING_PROTOCOLS.contains(&name) {
        out.insert(
            format!("c1g2.{name}.air_us_per_tag"),
            report.time_per_tag().as_f64(),
        );
        out.insert(
            format!("protocols.{name}.mean_vector_bits"),
            report.mean_vector_bits(),
        );
    }
}

/// Runs one inventory workload.
pub fn run(spec: &InventorySpec, cfg: &RunConfig) -> RunReport {
    let mut report = RunReport::new(spec.name, cfg.seed, cfg.trace);
    let protocols: Vec<Box<dyn PollingProtocol>> = match spec
        .protocols
        .iter()
        .map(|p| protocol_by_name(p.name).ok_or(p.name))
        .collect()
    {
        Ok(ps) => ps,
        Err(name) => {
            report.attempted = 1;
            report.fail(format!("unknown protocol {name}"));
            return report;
        }
    };
    let mut scratch = Recorder::off();
    let cycles = phase(
        spec,
        &protocols,
        cfg,
        cfg.phase_s(),
        &mut scratch,
        None,
        &mut report,
    );

    let timed: f64 = cycles.iter().map(|c| c.timed_s).sum();
    let tags: u64 = cycles.iter().map(|c| c.tags).sum();
    let setups: Vec<f64> = cycles.iter().map(|c| c.setup_s).collect();
    let sorted = stats::sorted(&cycles.iter().map(|c| c.timed_s).collect::<Vec<_>>());
    let in_refs = stats::sorted(
        &cycles
            .iter()
            .map(|c| c.timed_s / c.ref_s)
            .collect::<Vec<_>>(),
    );
    report.set_op_times(&sorted, 1e3, &in_refs);
    report.set("setup_s", stats::median(&setups));
    if timed > 0.0 {
        report.note("ops_per_s", cycles.len() as f64 / timed);
        report.note("tags_per_s", tags as f64 / timed);
    }
    report.note("timed_s", timed);
    report.note("tags_per_op", (tags / cycles.len().max(1) as u64) as f64);
    for (name, rate) in protocol_rates(spec, &cycles) {
        report.set(name, rate);
    }

    if cfg.trace {
        let origin = Instant::now();
        let mut rec = Recorder::new(origin, 1);
        let mut sums = ProfileSums::default();
        let traced = phase(
            spec,
            &protocols,
            cfg,
            cfg.phase_s(),
            &mut rec,
            Some(&mut sums),
            &mut report,
        );
        report.set_layers(&spans::per_op_totals(&rec.spans, &rec.counts, |req| {
            Some(req >> 8)
        }));
        sums.record(&mut report);
        if let Some(first) = traced.first() {
            for (name, value) in &first.stats {
                report.set(name.clone(), *value);
            }
        }
        let traced_s: Vec<f64> = traced.iter().map(|c| c.timed_s).collect();
        report.set_trace_overhead(&traced_s, 1e3);
        report.note("traced.ops", traced.len() as f64);
        crate::write_spans_file(cfg, spec.name, &rec.spans);
        for large in spec.large {
            large_runs(large, cfg, &mut report);
        }
    }
    report
}

/// Inventories `large`'s population [`LARGE_RUNS`] times, each freshly
/// seeded, and sets its metric to the median tags per second of the
/// timed `Session::open` + `run`.
fn large_runs(large: &'static LargeRun, cfg: &RunConfig, report: &mut RunReport) {
    let one = InventorySpec {
        name: large.metric,
        protocols: std::slice::from_ref(&large.protocol),
        large: &[],
    };
    let Some(protocol) = protocol_by_name(large.protocol.name) else {
        report.attempted += 1;
        report.fail(format!("unknown protocol {}", large.protocol.name));
        return;
    };
    let protocols = [protocol];
    let seed = split_seed(cfg.seed, u64::from(u32::MAX));
    let mut rates = Vec::new();
    for k in 0..LARGE_RUNS {
        report.attempted += 1;
        match run_cycle(
            &one,
            &protocols,
            seed,
            k,
            cfg.quick,
            &mut Recorder::off(),
            None,
        ) {
            Ok(c) => rates.push(c.tags as f64 / c.timed_s),
            Err(e) => report.fail(e),
        }
    }
    report.set(large.metric, stats::median(&rates));
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: InventorySpec = InventorySpec {
        name: "tiny",
        protocols: &[
            InvProtocol {
                name: "HPP",
                n: 300,
                quick_n: 300,
            },
            InvProtocol {
                name: "FSA",
                n: 200,
                quick_n: 200,
            },
        ],
        large: &[],
    };

    fn stats_for(seed: u64) -> BTreeMap<String, f64> {
        let protocols: Vec<_> = TINY
            .protocols
            .iter()
            .map(|p| protocol_by_name(p.name).unwrap())
            .collect();
        let mut rec = Recorder::off();
        run_cycle(&TINY, &protocols, seed, 0, false, &mut rec, None)
            .unwrap()
            .stats
    }

    #[test]
    fn the_same_seed_reproduces_the_simulated_statistics() {
        let a = stats_for(7);
        assert_eq!(a, stats_for(7));
        assert!(a.contains_key("c1g2.HPP.air_us_per_tag"));
        assert!(a.contains_key("baselines.FSA.slot_efficiency"));
        assert!(!a.contains_key("c1g2.FSA.air_us_per_tag"));
    }

    #[test]
    fn a_different_seed_changes_them() {
        assert_ne!(stats_for(7), stats_for(8));
    }

    #[test]
    fn every_workload_protocol_is_servable_and_catalogued() {
        for spec in [crate::INVENTORY_POLLING, crate::INVENTORY_ALOHA] {
            for p in spec.protocols {
                assert!(protocol_by_name(p.name).is_some(), "{}", p.name);
                let metric = format!("{}.tags_per_s", qualified(p.name));
                assert!(crate::report::per_layer().iter().any(|(n, _)| *n == metric));
            }
            for large in spec.large {
                assert!(protocol_by_name(large.protocol.name).is_some());
                assert!(crate::report::per_layer()
                    .iter()
                    .any(|(n, _)| n == large.metric));
            }
        }
    }
}
