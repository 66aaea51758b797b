//! Hot-path throughput gate for the round-index/arena rework.
//!
//! Measures end-to-end simulator throughput (tags identified per second of
//! wall clock, and air-interface slots per second) at n = 10⁴, 10⁵ and 10⁶
//! on the paper configuration. Each gated case carries a tags/sec floor:
//! the throughput of the **pre-change** simulator (measured before the
//! counting-sort round index and context arenas landed) times the speedup
//! the rework was held to. The protocols whose per-slot population scans
//! were pure implementation artifacts — Query Tree's per-query prefix scan
//! and binary splitting's dense counter map — must clear 10× that rate at
//! their gated sizes. EHPP, whose remaining Ω(remaining)-per-circle term
//! is the protocol itself (a fresh-seed re-hash per circle), now selects a
//! circle a bitset word at a time, and its floor is a third of the rate
//! measured after that change. The Q-algorithm used to redraw every
//! counter per frame; it now draws each slot's occupants lazily, and its
//! floor is a third of the rate measured after that change. The rest are
//! tracked for regressions.
//!
//! Records `tags_per_sec` and `slots_per_sec` per case in
//! `BENCH_hotpath.json`; each gated case's `tags_per_sec` is gated at
//! `min_tags_per_sec`.

use std::time::Instant;

use rfid_baselines::{FsaConfig, LowerBound, MicConfig};
use rfid_bench::{Bench, BenchRecord, Gate};
use rfid_identify::{BinarySplitConfig, QAlgorithmConfig, QueryTreeConfig};
use rfid_protocols::{EhppConfig, HppConfig, PollingProtocol, TppConfig};
use rfid_system::{BitVec, SimConfig, SimContext, TagPopulation};

/// One throughput case: a protocol at a population size, with the
/// tags/sec floor this build must clear there (release mode, paper config,
/// seed 7; `None` = tracked, not gated — the protocol was already
/// index-driven before the rework).
struct Case {
    name: &'static str,
    n: usize,
    min_tags_per_sec: Option<f64>,
    make: fn() -> Box<dyn PollingProtocol>,
}

const CASES: &[Case] = &[
    // Already O(1)-per-poll before the rework: regression-tracked only.
    Case {
        name: "HPP",
        n: 10_000,
        min_tags_per_sec: None,
        make: || Box::new(HppConfig::default()),
    },
    Case {
        name: "HPP",
        n: 100_000,
        min_tags_per_sec: None,
        make: || Box::new(HppConfig::default()),
    },
    Case {
        name: "HPP",
        n: 1_000_000,
        min_tags_per_sec: None,
        make: || Box::new(HppConfig::default()),
    },
    Case {
        name: "TPP",
        n: 100_000,
        min_tags_per_sec: None,
        make: || Box::new(TppConfig::default()),
    },
    // EHPP keeps a semantic Ω(remaining) term — every circle re-hashes all
    // remaining tags against a fresh seed. Selecting a circle a bitset
    // word at a time, it ran at 436k–709k tags/s on a 2-vCPU VM (230k
    // when it deselected tag by tag). The floor, 2.5× the pre-change
    // 70,887 tags/s, is about a third of that rate.
    Case {
        name: "EHPP",
        n: 100_000,
        min_tags_per_sec: Some(177_218.0),
        make: || Box::new(EhppConfig::default()),
    },
    // The Q-algorithm draws each slot's occupants lazily, O(occupants ·
    // log n) a slot, and ran at 480k tags/s on a 2-vCPU VM (4.6–5.1k with
    // the per-frame redraw). The floor, 100× the pre-change 1,568
    // tags/s, is a third of that rate.
    Case {
        name: "Q-algo",
        n: 100_000,
        min_tags_per_sec: Some(156_800.0),
        make: || Box::new(QAlgorithmConfig::default()),
    },
    // The former per-slot population scanners: each floor is 10× the
    // pre-change build's rate at the same n where it was measured
    // (binary splitting: 6,539 tags/s at 20k, 1,033 at 100k). The
    // pre-change Query Tree at 100k was too slow to run to completion, so
    // its 20k rate (185 tags/s) stands in — an upper bound on the true
    // 100k rate, since per-query cost grows with n, which makes the 100k
    // floor strictly conservative.
    Case {
        name: "QueryTree",
        n: 20_000,
        min_tags_per_sec: Some(1_850.0),
        make: || Box::new(QueryTreeConfig),
    },
    Case {
        name: "QueryTree",
        n: 100_000,
        min_tags_per_sec: Some(1_850.0),
        make: || Box::new(QueryTreeConfig),
    },
    Case {
        name: "BinSplit",
        n: 20_000,
        min_tags_per_sec: Some(65_390.0),
        make: || Box::new(BinarySplitConfig::default()),
    },
    Case {
        name: "BinSplit",
        n: 100_000,
        min_tags_per_sec: Some(10_330.0),
        make: || Box::new(BinarySplitConfig::default()),
    },
    // Frame/sweep baselines: regression-tracked.
    Case {
        name: "FSA",
        n: 100_000,
        min_tags_per_sec: None,
        make: || Box::new(FsaConfig::default()),
    },
    Case {
        name: "MIC",
        n: 100_000,
        min_tags_per_sec: None,
        make: || Box::new(MicConfig::default()),
    },
    Case {
        name: "LowerBound",
        n: 100_000,
        min_tags_per_sec: None,
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
        b.record(
            record("tags_per_sec", "tags/s", tags_per_sec)
                .gate(case.min_tags_per_sec.map(Gate::AtLeast)),
        );
        b.record(record("slots_per_sec", "slots/s", slots as f64 / seconds));
    }
    b.finish();
}
