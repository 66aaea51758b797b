//! Agreement between the closed-form models (rfid-analysis) and the
//! discrete simulation — the same cross-validation the paper performs
//! between its Sections III–IV analysis and Section V simulation.

use fast_rfid_polling::analysis;
use fast_rfid_polling::apps::info_collect::run_polling;
use fast_rfid_polling::prelude::*;

fn mean_w(protocol: &dyn PollingProtocol, n: usize, seeds: std::ops::Range<u64>) -> f64 {
    let mut acc = 0.0;
    let count = (seeds.end - seeds.start) as f64;
    for seed in seeds {
        let scenario = Scenario::uniform(n, 1).with_seed(seed);
        acc += run_polling(protocol, &scenario).report().mean_vector_bits();
    }
    acc / count
}

#[test]
fn hpp_simulation_tracks_eq4() {
    for n in [500usize, 2_000, 8_000] {
        let analytic = analysis::hpp::average_vector_length(n as u64);
        let simulated = mean_w(&HppConfig::default().into_protocol(), n, 0..5);
        assert!(
            (analytic - simulated).abs() < 0.3,
            "n = {n}: analytic {analytic:.3} vs simulated {simulated:.3}"
        );
    }
}

#[test]
fn hpp_simulation_respects_eq5_upper_bound() {
    for n in [100usize, 1_000, 4_096] {
        let bound = analysis::hpp::upper_bound(n as u64) as f64;
        let simulated = mean_w(&HppConfig::default().into_protocol(), n, 10..13);
        assert!(simulated <= bound, "n = {n}: {simulated} > {bound}");
    }
}

#[test]
fn tpp_simulation_stays_under_eq16_ceiling() {
    let ceiling = analysis::tpp::global_bound();
    for n in [200usize, 1_000, 10_000] {
        let simulated = mean_w(&TppConfig::default().into_protocol(), n, 20..23);
        assert!(
            simulated <= ceiling,
            "n = {n}: simulated {simulated:.3} > ceiling {ceiling:.3}"
        );
    }
}

#[test]
fn tpp_simulation_sits_below_fig9_analysis() {
    // Fig. 9 plots the per-round worst-case bound (~3.38); the simulation
    // (Fig. 10) lands below it (~3.06) because real trees bifurcate later
    // than the adversarial early-bifurcation bound assumes.
    let analytic = analysis::tpp::average_vector_length(5_000);
    let simulated = mean_w(&TppConfig::default().into_protocol(), 5_000, 30..34);
    assert!(
        simulated < analytic,
        "simulated {simulated:.3} not below analytic bound {analytic:.3}"
    );
    assert!(
        analytic - simulated < 0.6,
        "gap too wide: {simulated:.3} vs {analytic:.3}"
    );
}

#[test]
fn ehpp_simulation_tracks_circle_model() {
    let n = 8_000usize;
    let analytic = analysis::ehpp::average_vector_length(n as u64, 128, 32);
    let mut acc = 0.0;
    for seed in 40..44u64 {
        let scenario = Scenario::uniform(n, 1).with_seed(seed);
        acc += run_polling(&EhppConfig::default().into_protocol(), &scenario)
            .report()
            .mean_vector_bits_with_overhead();
    }
    let simulated = acc / 4.0;
    assert!(
        (analytic - simulated).abs() < 0.8,
        "analytic {analytic:.3} vs simulated {simulated:.3}"
    );
}

#[test]
fn execution_times_match_the_timing_model() {
    // Reconstruct a protocol's total time from its own counters through the
    // closed-form per-poll cost: the simulator and the model must agree to
    // floating-point precision for CPP (fixed vector length).
    use fast_rfid_polling::baselines::CppConfig;
    let n = 300usize;
    for l in [1usize, 16] {
        let scenario = Scenario::uniform(n, l).with_seed(50);
        let outcome = run_polling(&CppConfig::default().into_protocol(), &scenario);
        let model = analysis::timing::cpp_time_per_tag(&LinkParams::paper(), l as u64) * n as u64;
        assert!(
            (outcome.report().total_time.as_f64() - model.as_f64()).abs() < 1e-6,
            "l = {l}: simulated {} vs model {}",
            outcome.report().total_time,
            model
        );
    }
}

#[test]
fn round_counts_track_the_recurrences() {
    let n = 4_000usize;
    let scenario = Scenario::uniform(n, 1).with_seed(60);
    let hpp = run_polling(&HppConfig::default().into_protocol(), &scenario);
    let expected = analysis::hpp::expected_rounds(n as u64) as i64;
    let got = hpp.report().counters.rounds as i64;
    assert!(
        (got - expected).abs() <= 4,
        "HPP rounds {got} vs recurrence {expected}"
    );
}
