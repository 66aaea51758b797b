//! Golden-value regression tests: Tables I–III execution times and the
//! Fig. 10 polling-vector lengths, reproduced at small n through the
//! parallel sweep engine and pinned against the closed-form model in
//! `rfid_analysis` within documented tolerance bands.
//!
//! Tolerances, and why:
//! * CPP and the lower bound are deterministic in time — the simulator must
//!   match the model to the nanosecond: both are whole-nanosecond sums.
//! * HPP/EHPP/TPP poll with random per-run vector lengths; their mean time
//!   over a handful of runs tracks `execution_time(link, n, E[w], l)` but
//!   carries per-protocol overheads the per-tag model omits (round/circle
//!   initiations, tree broadcasts), so the simulation runs a few percent
//!   hot and the gap closes as n grows. Observed worst cases on this grid:
//!   HPP 8.2 %, TPP 9.8 % (both at n = 200, l = 1), EHPP 3.6 %. The bands
//!   below add ~25 % headroom: 12 % for HPP/TPP, 6 % for EHPP.
//!
//! The exact-clock re-pin's oracle (DESIGN.md §12) covers this grid too:
//! every mean time the `f64`-microsecond clock produced here is within
//! 1e-9 relative of today's.

use fast_rfid_polling::analysis;
use fast_rfid_polling::baselines::{CppConfig, LowerBound, MicConfig};
use fast_rfid_polling::bench::{Cell, SweepEngine};
use fast_rfid_polling::prelude::*;

/// Every golden value is computed through the parallel engine — two workers,
/// so the scheduler actually interleaves runs.
fn engine() -> SweepEngine {
    SweepEngine::new().with_workers(2)
}

/// Mean simulated execution time (µs) over `runs` Monte-Carlo runs.
fn mean_time_us(protocol: &dyn PollingProtocol, n: usize, l: usize, runs: u64) -> f64 {
    let cell = Cell::new(protocol, Scenario::uniform(n, l).with_seed(97), runs);
    let reports = engine().run_cells(std::slice::from_ref(&cell)).remove(0);
    reports.iter().map(|r| r.total_time.as_f64()).sum::<f64>() / runs as f64
}

/// Mean simulated polling-vector length (bits) over `runs` runs.
fn mean_vector_bits(
    protocol: &dyn PollingProtocol,
    n: usize,
    runs: u64,
    with_overhead: bool,
) -> f64 {
    let cell = Cell::new(protocol, Scenario::uniform(n, 1).with_seed(131), runs);
    let reports = engine().run_cells(std::slice::from_ref(&cell)).remove(0);
    let total: f64 = reports
        .iter()
        .map(|r| {
            if with_overhead {
                r.mean_vector_bits_with_overhead()
            } else {
                r.mean_vector_bits()
            }
        })
        .sum();
    total / runs as f64
}

fn assert_within(label: &str, simulated: f64, model: f64, rel_tol: f64) {
    let rel = (simulated - model).abs() / model;
    assert!(
        rel <= rel_tol,
        "{label}: simulated {simulated:.1} vs model {model:.1} (rel err {rel:.4} > {rel_tol})"
    );
}

#[test]
fn table_cpp_and_lower_bound_times_match_the_model_exactly() {
    let link = LinkParams::paper();
    let cpp = CppConfig::default();
    let lb = LowerBound;
    for n in [200usize, 500] {
        for l in [1usize, 16, 32] {
            let model = analysis::timing::cpp_time_per_tag(&link, l as u64) * n as u64;
            let simulated = mean_time_us(&cpp, n, l, 1);
            assert_eq!(simulated, model.as_f64(), "CPP n={n} l={l}");
            let model = analysis::timing::lower_bound(&link, n as u64, l as u64);
            let simulated = mean_time_us(&lb, n, l, 1);
            assert_eq!(simulated, model.as_f64(), "LowerBound n={n} l={l}");
        }
    }
}

/// Mean times (µs) of this file's cells under the `f64`-microsecond
/// clock, before the exact-clock re-pin: (protocol, n, l, runs, mean).
const PRE_EXACT_CLOCK: &[(&str, usize, usize, u64, f64)] = &[
    ("CPP", 200, 1, 1, 754039.9999999984),
    ("CPP", 200, 16, 1, 829039.9999999976),
    ("CPP", 200, 32, 1, 909039.999999997),
    ("CPP", 500, 1, 1, 1885099.9999999844),
    ("CPP", 500, 16, 1, 2072599.9999999835),
    ("CPP", 500, 32, 1, 2272599.999999992),
    ("LowerBound", 200, 1, 1, 64960.00000000023),
    ("LowerBound", 200, 16, 1, 139960.00000000023),
    ("LowerBound", 200, 32, 1, 219959.9999999993),
    ("LowerBound", 500, 1, 1, 162399.9999999997),
    ("LowerBound", 500, 16, 1, 349899.99999999674),
    ("LowerBound", 500, 32, 1, 549899.9999999972),
    ("HPP", 200, 1, 4, 126958.47499999995),
    ("HPP", 200, 16, 4, 201958.47499999942),
    ("HPP", 200, 32, 4, 281958.47499999905),
    ("HPP", 500, 1, 4, 331336.94999999634),
    ("HPP", 500, 16, 4, 518836.94999999367),
    ("HPP", 500, 32, 4, 718836.9500000002),
    ("TPP", 200, 1, 4, 98075.16250000027),
    ("TPP", 200, 16, 4, 173075.1624999998),
    ("TPP", 200, 32, 4, 253075.16249999916),
    ("TPP", 500, 1, 4, 233938.8624999982),
    ("TPP", 500, 16, 4, 421438.8624999969),
    ("TPP", 500, 32, 4, 621438.8625000002),
    ("EHPP", 200, 1, 4, 126958.47499999995),
    ("EHPP", 200, 16, 4, 201958.47499999942),
    ("EHPP", 200, 32, 4, 281958.47499999905),
    ("EHPP", 500, 1, 4, 334698.0874999985),
    ("EHPP", 500, 16, 4, 522198.08749999595),
    ("EHPP", 500, 32, 4, 722198.0875000018),
    ("MIC", 500, 1, 4, 258506.41249999654),
    ("MIC", 500, 16, 4, 476662.66249999474),
    ("MIC", 500, 32, 4, 709362.6625000034),
];

#[test]
fn exact_clock_repin_moved_no_mean_beyond_rounding() {
    let protocols: Vec<Box<dyn PollingProtocol>> = vec![
        Box::new(CppConfig::default()),
        Box::new(LowerBound),
        Box::new(HppConfig::default()),
        Box::new(TppConfig::default()),
        Box::new(EhppConfig::default()),
        Box::new(MicConfig::default()),
    ];
    for &(name, n, l, runs, old) in PRE_EXACT_CLOCK {
        let protocol = protocols.iter().find(|p| p.name() == name).unwrap();
        let new = mean_time_us(protocol.as_ref(), n, l, runs);
        assert!(
            (new - old).abs() <= 1e-9 * old,
            "{name} n={n} l={l}: mean moved from {old} to {new}"
        );
    }
}

#[test]
fn table_polling_times_track_the_analytic_model() {
    let link = LinkParams::paper();
    let runs = 4u64;
    let hpp = HppConfig::default();
    let tpp = TppConfig::default();
    let ehpp = EhppConfig::default();
    for n in [200usize, 500] {
        for l in [1usize, 16, 32] {
            let time = |w: f64| analysis::timing::execution_time(&link, n as u64, w, l as u64);
            let w = analysis::hpp::average_vector_length(n as u64);
            assert_within(
                &format!("HPP n={n} l={l}"),
                mean_time_us(&hpp, n, l, runs),
                time(w).as_f64(),
                0.12,
            );
            let w = analysis::tpp::average_vector_length(n as u64);
            assert_within(
                &format!("TPP n={n} l={l}"),
                mean_time_us(&tpp, n, l, runs),
                time(w).as_f64(),
                0.12,
            );
            let w = analysis::ehpp::average_vector_length(n as u64, 128, 32);
            assert_within(
                &format!("EHPP n={n} l={l}"),
                mean_time_us(&ehpp, n, l, runs),
                time(w).as_f64(),
                0.06,
            );
        }
    }
}

#[test]
fn table_orderings_hold_at_small_n() {
    // Tables I–III all order LB < TPP < HPP < CPP, with MIC between the
    // lower bound and CPP; those orderings already bind at n = 500.
    let link = LinkParams::paper();
    let n = 500usize;
    let runs = 4u64;
    let tpp = TppConfig::default();
    let hpp = HppConfig::default();
    let cpp = CppConfig::default();
    let mic = MicConfig::default();
    for l in [1usize, 16, 32] {
        let lb = analysis::timing::lower_bound(&link, n as u64, l as u64).as_f64();
        let t_tpp = mean_time_us(&tpp, n, l, runs);
        let t_hpp = mean_time_us(&hpp, n, l, runs);
        let t_cpp = mean_time_us(&cpp, n, l, 1);
        let t_mic = mean_time_us(&mic, n, l, runs);
        assert!(
            lb < t_tpp && t_tpp < t_hpp && t_hpp < t_cpp,
            "l={l}: lb {lb:.0} tpp {t_tpp:.0} hpp {t_hpp:.0} cpp {t_cpp:.0}"
        );
        assert!(
            lb < t_mic && t_mic < t_cpp,
            "l={l}: lb {lb:.0} mic {t_mic:.0} cpp {t_cpp:.0}"
        );
    }
}

#[test]
fn fig10_vector_lengths_match_the_models_at_small_n() {
    let runs = 5u64;
    let hpp = HppConfig::default();
    let tpp = TppConfig::default();
    let ehpp = EhppConfig::default();
    for n in [500usize, 2_000] {
        // HPP tracks Eq. (4) within 0.3 bit (same band the paper's Fig. 10
        // curves show against the Fig. 3 analysis).
        let analytic = analysis::hpp::average_vector_length(n as u64);
        let simulated = mean_vector_bits(&hpp, n, runs, false);
        assert!(
            (analytic - simulated).abs() < 0.3,
            "HPP n={n}: analytic {analytic:.3} vs simulated {simulated:.3}"
        );
        // EHPP with round-initiation overhead tracks the circle model
        // within 0.8 bit (subset sizes are quantised, so small n wobbles).
        let analytic = analysis::ehpp::average_vector_length(n as u64, 128, 32);
        let simulated = mean_vector_bits(&ehpp, n, runs, true);
        assert!(
            (analytic - simulated).abs() < 0.8,
            "EHPP n={n}: analytic {analytic:.3} vs simulated {simulated:.3}"
        );
        // TPP stays under the Eq. (16) global ceiling of 2 + 1/ln 2.
        let simulated = mean_vector_bits(&tpp, n, runs, false);
        assert!(
            simulated <= analysis::tpp::global_bound(),
            "TPP n={n}: simulated {simulated:.3} over the global bound"
        );
    }
}
