//! Hot-path throughput gate for the round-index/arena rework.
//!
//! Measures end-to-end simulator throughput (tags identified per second of
//! wall clock, and air-interface slots per second) at n = 10⁴, 10⁵ and 10⁶
//! on the paper configuration, and compares against the throughput of the
//! **pre-change** simulator measured on the same machine class before the
//! counting-sort round index and context arenas landed. The protocols
//! whose per-slot population scans were pure implementation artifacts —
//! Query Tree's per-query prefix scan and binary splitting's dense
//! counter map — must clear a ≥ 10× bar at their gated sizes. EHPP, whose
//! remaining Ω(remaining)-per-circle term is the protocol itself (a
//! fresh-seed re-hash per circle), now selects a circle a bitset word at a
//! time, and its floor is a third of the rate measured after that change.
//! The Q-algorithm used to redraw every counter per frame; it now draws
//! each slot's occupants lazily, and its floor is ratcheted to a third of
//! the rate measured after that change. The rest are tracked for
//! regressions.
//!
//! Records `tags_per_sec`, `slots_per_sec` and `speedup` per case in
//! `BENCH_hotpath.json`; each gated case's `speedup` is gated at
//! `min_speedup`.

use std::time::Instant;

use rfid_baselines::{FsaConfig, LowerBound, MicConfig};
use rfid_bench::{Bench, BenchRecord, Gate};
use rfid_identify::{BinarySplitConfig, QAlgorithmConfig, QueryTreeConfig};
use rfid_protocols::{EhppConfig, HppConfig, PollingProtocol, TppConfig};
use rfid_system::{BitVec, SimConfig, SimContext, TagPopulation};

/// One throughput case: a protocol at a population size, with the
/// throughput the pre-change simulator achieved there (tags/sec, measured
/// in release mode on the paper config at seed 7) and the speedup floor
/// this build must clear against it (`None` = tracked, not gated — the
/// protocol was already index-driven before the rework).
struct Case {
    name: &'static str,
    n: usize,
    baseline_tags_per_sec: f64,
    min_speedup: Option<f64>,
    make: fn() -> Box<dyn PollingProtocol>,
}

const CASES: &[Case] = &[
    // Already O(1)-per-poll before the rework: regression-tracked only.
    Case {
        name: "HPP",
        n: 10_000,
        baseline_tags_per_sec: 9.75e6,
        min_speedup: None,
        make: || Box::new(HppConfig::default()),
    },
    Case {
        name: "HPP",
        n: 100_000,
        baseline_tags_per_sec: 5.38e6,
        min_speedup: None,
        make: || Box::new(HppConfig::default()),
    },
    Case {
        name: "HPP",
        n: 1_000_000,
        baseline_tags_per_sec: 4.57e6,
        min_speedup: None,
        make: || Box::new(HppConfig::default()),
    },
    Case {
        name: "TPP",
        n: 100_000,
        baseline_tags_per_sec: 3.43e6,
        min_speedup: None,
        make: || Box::new(TppConfig::default()),
    },
    // EHPP keeps a semantic Ω(remaining) term — every circle re-hashes all
    // remaining tags against a fresh seed. Selecting a circle a bitset
    // word at a time, it ran at 436k–709k tags/s on a 2-vCPU VM (230k
    // when it deselected tag by tag). The floor, 2.5× the pre-change
    // baseline (177,218 tags/s), is about a third of that rate.
    Case {
        name: "EHPP",
        n: 100_000,
        baseline_tags_per_sec: 70_887.0,
        min_speedup: Some(2.5),
        make: || Box::new(EhppConfig::default()),
    },
    // The Q-algorithm draws each slot's occupants lazily, O(occupants ·
    // log n) a slot, and ran at 480k tags/s on a 2-vCPU VM (4.6–5.1k with
    // the per-frame redraw). The floor, 100× the pre-change baseline
    // (156,800 tags/s), is a third of that rate.
    Case {
        name: "Q-algo",
        n: 100_000,
        baseline_tags_per_sec: 1_568.0,
        min_speedup: Some(100.0),
        make: || Box::new(QAlgorithmConfig::default()),
    },
    // The former per-slot population scanners: gated at ≥ 10×. Baselines
    // are direct measurements of the pre-change build at the same n where
    // available; the pre-change Query Tree at 100k was too slow to run to
    // completion, so its 20k throughput (185 tags/s) stands in — an upper
    // bound on the true 100k baseline, since per-query cost grows with n,
    // which makes the 10× gate strictly conservative.
    Case {
        name: "QueryTree",
        n: 20_000,
        baseline_tags_per_sec: 185.0,
        min_speedup: Some(10.0),
        make: || Box::new(QueryTreeConfig::default()),
    },
    Case {
        name: "QueryTree",
        n: 100_000,
        baseline_tags_per_sec: 185.0,
        min_speedup: Some(10.0),
        make: || Box::new(QueryTreeConfig::default()),
    },
    Case {
        name: "BinSplit",
        n: 20_000,
        baseline_tags_per_sec: 6_539.0,
        min_speedup: Some(10.0),
        make: || Box::new(BinarySplitConfig::default()),
    },
    Case {
        name: "BinSplit",
        n: 100_000,
        baseline_tags_per_sec: 1_033.0,
        min_speedup: Some(10.0),
        make: || Box::new(BinarySplitConfig::default()),
    },
    // Frame/sweep baselines: regression-tracked.
    Case {
        name: "FSA",
        n: 100_000,
        baseline_tags_per_sec: 2.50e6,
        min_speedup: None,
        make: || Box::new(FsaConfig::default()),
    },
    Case {
        name: "MIC",
        n: 100_000,
        baseline_tags_per_sec: 1.59e6,
        min_speedup: None,
        make: || Box::new(MicConfig::default()),
    },
    Case {
        name: "LowerBound",
        n: 100_000,
        baseline_tags_per_sec: 74.0e6,
        min_speedup: None,
        make: || Box::new(LowerBound),
    },
];

/// Runs one case to completion and returns (seconds, slots).
fn run_case(case: &Case) -> (f64, u64) {
    let pop = TagPopulation::sequential(case.n, |i| BitVec::from_value((i % 16) as u64, 4));
    let mut ctx = SimContext::new(pop, &SimConfig::paper(7));
    let start = Instant::now();
    let report = (case.make)().run(&mut ctx);
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(
        report.counters.polls, case.n as u64,
        "{} n={}: incomplete inventory",
        case.name, case.n
    );
    let slots =
        report.counters.polls + report.counters.empty_slots + report.counters.collision_slots;
    (seconds, slots)
}

fn main() {
    let mut b = Bench::new("hotpath");
    for case in CASES {
        let label = format!("{}_{}", case.name, case.n);
        if !b.wants(&label) {
            continue;
        }
        // Best-of-3 for the fast cases; single shot once a run is slow
        // enough that timer noise is irrelevant.
        let (mut seconds, mut slots) = run_case(case);
        if seconds < 0.25 {
            for _ in 0..2 {
                let (s, sl) = run_case(case);
                if s < seconds {
                    seconds = s;
                }
                slots = sl;
            }
        }
        let tags_per_sec = case.n as f64 / seconds;
        let record = |metric, unit, value| {
            BenchRecord::new(&label, metric, unit, value)
                .param("protocol", case.name)
                .param("n", &case.n)
        };
        b.record(record("tags_per_sec", "tags/s", tags_per_sec));
        b.record(record("slots_per_sec", "slots/s", slots as f64 / seconds));
        b.record(
            record("speedup", "x", tags_per_sec / case.baseline_tags_per_sec)
                .param("baseline_tags_per_sec", &case.baseline_tags_per_sec)
                .gate(case.min_speedup.map(Gate::AtLeast)),
        );
    }
    b.finish();
}
