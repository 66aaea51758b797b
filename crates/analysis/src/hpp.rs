//! HPP's analytical model — Eqs. (1)–(5) and Fig. 3.
//!
//! Round `i` starts with `n_i` unread tags and uses index length `h_i` with
//! `2^{h_i - 1} < n_i ≤ 2^{h_i}` (`f_i = 2^{h_i}` indices):
//!
//! * Eq. (1): an index is a singleton with probability
//!   `p_i = (n_i/f_i)·(1 - 1/f_i)^{n_i - 1} ≈ (n_i/f_i)·e^{-(n_i-1)/f_i}`,
//! * Eq. (2): expected singletons `n_{s_i} = n_i·e^{-(n_i-1)/f_i}`,
//! * Eq. (3): recurrence `n_{i+1} = n_i·(1 - e^{-(n_i-1)/f_i})`,
//! * Eq. (4): average polling-vector length
//!   `w = Σ h_i·n_{s_i} / n`,
//! * Eq. (5): rough upper bound `w⁺ = ⌈log₂ n⌉`.

use crate::numeric::ceil_log2;

/// Index length for `n` unread tags: the `h` with `2^{h-1} < n ≤ 2^h`.
pub fn index_length(n: u64) -> u32 {
    ceil_log2(n)
}

/// Eq. (1): exact singleton probability of one index with `n` tags over `f`
/// indices.
pub fn singleton_probability(n: u64, f: u64) -> f64 {
    assert!(f >= 1 && n >= 1);
    (n as f64 / f as f64) * (1.0 - 1.0 / f as f64).powi(n as i32 - 1)
}

/// Eq. (2): expected number of singleton indices (exponential form).
pub fn expected_singletons(n: f64, f: f64) -> f64 {
    n * (-(n - 1.0) / f).exp()
}

/// Per-round trace of the analytic HPP execution for `n` tags.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTrace {
    /// Index length `h_i` used this round.
    pub h: u32,
    /// Expected unread tags at the start of the round.
    pub unread: f64,
    /// Expected tags read this round (singleton indices).
    pub read: f64,
}

/// Runs the recurrence to exhaustion and returns the per-round trace.
///
/// Terminates when the expected residue drops below `0.5` tags (the paper's
/// `n_{k+1} = 0`), with a generous iteration cap as a safety net.
pub fn round_trace(n: u64) -> Vec<RoundTrace> {
    assert!(n >= 1);
    let mut rounds = Vec::new();
    let mut unread = n as f64;
    for _ in 0..10_000 {
        if unread < 0.5 {
            break;
        }
        let h = index_length(unread.ceil() as u64);
        let f = (1u64 << h) as f64;
        let read = expected_singletons(unread, f).min(unread);
        rounds.push(RoundTrace { h, unread, read });
        unread -= read;
    }
    rounds
}

/// Eq. (4): HPP's expected average polling-vector length for `n` tags.
pub fn average_vector_length(n: u64) -> f64 {
    let trace = round_trace(n);
    let total_read: f64 = trace.iter().map(|r| r.read).sum();
    let weighted: f64 = trace.iter().map(|r| r.h as f64 * r.read).sum();
    weighted / total_read.max(1e-12)
}

/// Eq. (4) including a fixed per-round initiation overhead of
/// `round_init_bits` reader bits (amortized per tag) — what the EHPP
/// simulation setting of Section V-B charges.
pub fn average_vector_length_with_overhead(n: u64, round_init_bits: u64) -> f64 {
    let trace = round_trace(n);
    let total_read: f64 = trace.iter().map(|r| r.read).sum();
    let weighted: f64 = trace
        .iter()
        .map(|r| r.h as f64 * r.read + round_init_bits as f64)
        .sum();
    weighted / total_read.max(1e-12)
}

/// Eq. (5): the rough upper bound `w⁺ = ⌈log₂ n⌉`.
pub fn upper_bound(n: u64) -> u32 {
    ceil_log2(n)
}

/// Expected number of rounds to read everything.
pub fn expected_rounds(n: u64) -> usize {
    round_trace(n).len()
}

/// The Fig. 3 series: `(n, w(n))` samples.
pub fn fig3_series(ns: &[u64]) -> Vec<(u64, f64)> {
    ns.iter().map(|&n| (n, average_vector_length(n))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_probability_bounds_of_section_iii() {
        // "36.8 % – 60.7 % of tags are read per round": the per-tag read
        // probability is e^{-(n-1)/f}; with 2^{h-1} < n ≤ 2^h it ranges from
        // e^{-1} ≈ 0.368 (n = f) to ≈ e^{-1/2} ≈ 0.607 (n just above f/2).
        let read_frac = |n: u64| {
            let f = 1u64 << index_length(n);
            expected_singletons(n as f64, f as f64) / n as f64
        };
        for n in [64u64, 100, 1000, 4096, 10_000] {
            let frac = read_frac(n);
            assert!(
                (0.36..=0.61).contains(&frac),
                "read fraction {frac} out of the paper's band at n = {n}"
            );
        }
        // The extremes are approached at the boundary populations.
        assert!((read_frac(1024) - 0.368).abs() < 0.01);
        assert!((read_frac(1025) - 0.607).abs() < 0.01);
    }

    #[test]
    fn exact_and_exponential_forms_agree_for_large_f() {
        let n = 1000u64;
        let f = 1024u64;
        let exact = f as f64 * singleton_probability(n, f);
        let approx = expected_singletons(n as f64, f as f64);
        assert!((exact - approx).abs() / exact < 1e-2);
    }

    #[test]
    fn recurrence_conserves_tags() {
        let trace = round_trace(10_000);
        let read: f64 = trace.iter().map(|r| r.read).sum();
        assert!((read - 10_000.0).abs() < 0.5, "read {read}");
        // Unread counts strictly decrease.
        for w in trace.windows(2) {
            assert!(w[1].unread < w[0].unread);
        }
    }

    #[test]
    fn fig3_anchor_values() {
        // Fig. 3 / Section III-C: w ≈ 10 at n = 1000 and ≈ 16 at n = 10⁵.
        let w1k = average_vector_length(1_000);
        assert!((w1k - 10.0).abs() < 0.8, "w(1000) = {w1k}");
        let w100k = average_vector_length(100_000);
        assert!((w100k - 16.0).abs() < 1.2, "w(100000) = {w100k}");
    }

    #[test]
    fn average_is_below_upper_bound() {
        for n in [10u64, 100, 1_000, 10_000, 100_000] {
            let w = average_vector_length(n);
            assert!(w <= upper_bound(n) as f64 + 1e-9, "n = {n}: {w}");
        }
    }

    #[test]
    fn average_grows_logarithmically() {
        // Doubling n adds roughly one bit once n is large.
        let w1 = average_vector_length(16_384);
        let w2 = average_vector_length(32_768);
        assert!((w2 - w1 - 1.0).abs() < 0.5, "Δw = {}", w2 - w1);
    }

    #[test]
    fn overhead_increases_average() {
        let n = 1_000;
        assert!(average_vector_length_with_overhead(n, 32) > average_vector_length(n));
    }

    #[test]
    fn expected_rounds_is_logarithmic_in_spirit() {
        // Each round reads ≥ 36.8 % of the residue, so rounds ~ log n.
        let r = expected_rounds(100_000);
        assert!((10..=40).contains(&r), "rounds = {r}");
        assert!(expected_rounds(10) <= expected_rounds(100_000));
    }

    #[test]
    fn single_tag_is_read_in_one_round() {
        let trace = round_trace(1);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].h, 0);
        assert!((trace[0].read - 1.0).abs() < 1e-12);
    }
}
