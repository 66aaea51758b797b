//! Statistical checkers for hash quality.
//!
//! Every closed-form result in the paper (Eqs. (1)–(16)) assumes tags pick
//! indices uniformly at random. These helpers let the test-suite *verify*
//! that assumption for [`crate::TagHash`] instead of taking it on faith:
//! a χ² goodness-of-fit test against the uniform distribution and an
//! avalanche matrix for input-bit sensitivity.
//!
//! It also holds the two-sample tests that gate a change which reorders
//! RNG draws: such a change cannot stay bit-identical, so it must show
//! that its outputs come from the same distribution as before. Both tests
//! reject at the 1 % level:
//!
//! * [`ks_two_sample`] — Kolmogorov–Smirnov on two samples of a real
//!   variable, rejecting when D > 1.628·√((n+m)/(nm)) (on a discrete
//!   variable the test is conservative);
//! * [`chi_square_homogeneity`] — Pearson's χ² on two samples of an
//!   integer variable, over its values pooled so every expected count is
//!   ≥ 5, with `bins − 1` degrees of freedom and the critical value of
//!   [`chi_square_critical_1pct`].

/// Pearson's χ² statistic of observed bin counts against the uniform
/// distribution over `counts.len()` bins.
///
/// # Panics
/// Panics if `counts` is empty or all-zero.
pub fn chi_square_uniform(counts: &[u64]) -> f64 {
    assert!(!counts.is_empty(), "no bins");
    let total: u64 = counts.iter().sum();
    assert!(total > 0, "no observations");
    let expected = total as f64 / counts.len() as f64;
    counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum()
}

/// A conservative pass threshold for a χ² statistic with `bins - 1` degrees
/// of freedom: mean + 5·stddev of the χ² distribution. A uniform sample
/// passes with overwhelming probability; a biased one fails loudly.
pub fn chi_square_threshold(bins: usize) -> f64 {
    let dof = (bins - 1) as f64;
    dof + 5.0 * (2.0 * dof).sqrt()
}

/// The 1 % critical value of the χ² distribution with `df` degrees of
/// freedom, by the Wilson–Hilferty cube-root approximation
/// `df·(1 − 2/(9df) + z·√(2/(9df)))³` with z = 2.3263 (the standard
/// normal's 99th percentile). It is within 0.8 % of the exact value at
/// df = 1 (6.584 against 6.635) and closer as df grows.
///
/// # Panics
/// Panics if `df == 0`.
pub fn chi_square_critical_1pct(df: usize) -> f64 {
    assert!(df > 0, "χ² with no degrees of freedom");
    let df = df as f64;
    let v = 2.0 / (9.0 * df);
    df * (1.0 - v + 2.326_348 * v.sqrt()).powi(3)
}

/// A two-sample test's verdict at the 1 % level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoSample {
    /// The test statistic: D for Kolmogorov–Smirnov, Pearson's χ².
    pub statistic: f64,
    /// Its 1 % critical value.
    pub critical: f64,
    /// The χ² test's degrees of freedom; `None` for Kolmogorov–Smirnov.
    pub df: Option<usize>,
}

impl TwoSample {
    /// `true` when the samples differ at the 1 % level.
    pub fn rejects(&self) -> bool {
        self.statistic > self.critical
    }
}

/// The two-sample Kolmogorov–Smirnov test: D is the largest gap between
/// the two empirical CDFs, and the test rejects "one distribution" at the
/// 1 % level when D > 1.628·√((n+m)/(nm)), the asymptotic critical value.
/// Ties are stepped over together, so on a discrete variable the test is
/// conservative.
///
/// # Panics
/// Panics if either sample is empty or holds a NaN.
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> TwoSample {
    assert!(!a.is_empty() && !b.is_empty(), "empty sample");
    assert!(a.iter().chain(b).all(|x| !x.is_nan()), "NaN in a KS sample");
    let sorted = |xs: &[f64]| {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        v
    };
    let (a, b) = (sorted(a), sorted(b));
    let (n, m) = (a.len() as f64, b.len() as f64);
    let (mut i, mut j, mut d) = (0, 0, 0.0f64);
    while i < a.len() && j < b.len() {
        let x = a[i].min(b[j]);
        while i < a.len() && a[i] <= x {
            i += 1;
        }
        while j < b.len() && b[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / n - j as f64 / m).abs());
    }
    TwoSample {
        statistic: d,
        critical: 1.628 * ((n + m) / (n * m)).sqrt(),
        df: None,
    }
}

/// Pearson's χ² test of homogeneity on two samples of an integer
/// variable. Its values are binned in ascending order and adjacent bins
/// are pooled until each bin's expected count is ≥ 5 in both samples (a
/// short tail joins the last bin). With `bins` pooled bins the statistic
/// has `bins − 1` degrees of freedom, and the test rejects at the 1 %
/// level above [`chi_square_critical_1pct`]. Samples that pool into one
/// bin cannot be told apart: statistic 0, no rejection.
///
/// # Panics
/// Panics if either sample is empty.
pub fn chi_square_homogeneity(a: &[u64], b: &[u64]) -> TwoSample {
    assert!(!a.is_empty() && !b.is_empty(), "empty sample");
    let mut values: Vec<(u64, bool)> = a
        .iter()
        .map(|&x| (x, true))
        .chain(b.iter().map(|&x| (x, false)))
        .collect();
    values.sort_unstable();
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let share_a = na / (na + nb);
    let share_b = nb / (na + nb);
    let ready = |(ca, cb): (u64, u64)| {
        let total = (ca + cb) as f64;
        total * share_a.min(share_b) >= 5.0
    };
    // Pool runs of equal values, then adjacent values, into bins.
    let mut bins: Vec<(u64, u64)> = Vec::new();
    let mut open = (0u64, 0u64);
    for (k, &(x, from_a)) in values.iter().enumerate() {
        if from_a {
            open.0 += 1;
        } else {
            open.1 += 1;
        }
        let value_ends = values.get(k + 1).map_or(true, |&(next, _)| next != x);
        if value_ends && ready(open) {
            bins.push(open);
            open = (0, 0);
        }
    }
    match bins.last_mut() {
        Some(last) => {
            last.0 += open.0;
            last.1 += open.1;
        }
        None => bins.push(open),
    }
    if bins.len() < 2 {
        return TwoSample {
            statistic: 0.0,
            critical: f64::INFINITY,
            df: Some(0),
        };
    }
    let statistic = bins
        .iter()
        .map(|&(ca, cb)| {
            let total = (ca + cb) as f64;
            let (ea, eb) = (total * share_a, total * share_b);
            (ca as f64 - ea).powi(2) / ea + (cb as f64 - eb).powi(2) / eb
        })
        .sum();
    let df = bins.len() - 1;
    TwoSample {
        statistic,
        critical: chi_square_critical_1pct(df),
        df: Some(df),
    }
}

/// Measures avalanche behaviour: for `samples` random inputs, flips each of
/// the `in_bits` low input bits and records the fraction of the 64 output
/// bits that change. Returns the worst (most lopsided) per-input-bit flip
/// probability observed. Ideal mixing gives 0.5 for every input bit.
pub fn avalanche_worst<F: Fn(u64) -> u64>(f: F, in_bits: u32, samples: u64) -> f64 {
    assert!(in_bits <= 64 && in_bits > 0);
    let mut worst: f64 = 0.5;
    for bit in 0..in_bits {
        let mut flips = 0u64;
        for s in 0..samples {
            // Stride the sample space deterministically.
            let x = s.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(12345);
            let y = f(x) ^ f(x ^ (1 << bit));
            flips += y.count_ones() as u64;
        }
        let p = flips as f64 / (samples * 64) as f64;
        if (p - 0.5).abs() > (worst - 0.5).abs() {
            worst = p;
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::{mix64, TagHash};
    use crate::Xoshiro256;

    #[test]
    fn chi_square_of_perfectly_uniform_counts_is_zero() {
        assert_eq!(chi_square_uniform(&[10, 10, 10, 10]), 0.0);
    }

    #[test]
    fn chi_square_flags_concentration() {
        let stat = chi_square_uniform(&[400, 0, 0, 0]);
        assert!(stat > chi_square_threshold(4), "stat {stat}");
    }

    #[test]
    fn tag_hash_indices_pass_chi_square() {
        // 2^10 bins, 100k sequential IDs: sequential inputs are the hardest
        // realistic case (real EPC serials are often sequential).
        let h = TagHash::new(0xDEAD_BEEF);
        let bins = 1usize << 10;
        let mut counts = vec![0u64; bins];
        for id in 0..100_000u64 {
            counts[h.index(0, id, 10) as usize] += 1;
        }
        let stat = chi_square_uniform(&counts);
        assert!(
            stat < chi_square_threshold(bins),
            "χ² = {stat} over threshold {}",
            chi_square_threshold(bins)
        );
    }

    #[test]
    fn tag_hash_uniform_across_seeds_for_one_id() {
        // Fix a tag; vary the round seed. The per-round index must be fresh.
        let bins = 256usize;
        let mut counts = vec![0u64; bins];
        for r in 0..50_000u64 {
            counts[TagHash::new(r).index(7, 42, 8) as usize] += 1;
        }
        let stat = chi_square_uniform(&counts);
        assert!(stat < chi_square_threshold(bins), "χ² = {stat}");
    }

    #[test]
    fn mix64_avalanches() {
        let worst = avalanche_worst(mix64, 32, 2_000);
        assert!((worst - 0.5).abs() < 0.02, "worst flip prob {worst}");
    }

    #[test]
    fn tag_hash_avalanches_on_id_bits() {
        let h = TagHash::new(31337);
        let worst = avalanche_worst(|x| h.hash(0, x), 48, 2_000);
        assert!((worst - 0.5).abs() < 0.02, "worst flip prob {worst}");
    }

    #[test]
    fn critical_values_match_the_chi_square_table() {
        // Exact 1 % points of χ²(df): 6.635, 15.086, 23.209, 76.154.
        for (df, exact) in [(1, 6.635), (5, 15.086), (10, 23.209), (50, 76.154)] {
            let approx = chi_square_critical_1pct(df);
            assert!(
                (approx / exact - 1.0).abs() < 0.008,
                "df {df}: {approx} vs {exact}"
            );
        }
    }

    /// `count` draws of `draw`, each a fresh stream of `rng`.
    fn sample<T>(seed: u64, count: usize, mut draw: impl FnMut(&mut Xoshiro256) -> T) -> Vec<T> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..count).map(|_| draw(&mut rng)).collect()
    }

    #[test]
    fn ks_accepts_one_distribution_and_rejects_a_shift() {
        let a = sample(1, 2_000, |r| r.unit_f64());
        let b = sample(2, 1_500, |r| r.unit_f64());
        let same = ks_two_sample(&a, &b);
        assert!(!same.rejects(), "{same:?}");
        assert_eq!(same.df, None);
        let shifted: Vec<f64> = b.iter().map(|x| x + 0.1).collect();
        let moved = ks_two_sample(&a, &shifted);
        assert!(moved.rejects(), "{moved:?}");
        // The stated critical value: 1.628·√((n+m)/(nm)).
        let want = 1.628 * (3_500.0f64 / (2_000.0 * 1_500.0)).sqrt();
        assert!((same.critical - want).abs() < 1e-12);
    }

    #[test]
    fn ks_steps_over_ties() {
        // Identical discrete samples: every tie is stepped over together,
        // so the CDFs never part.
        let a: Vec<f64> = (0..300).map(|i| (i % 3) as f64).collect();
        assert_eq!(ks_two_sample(&a, &a).statistic, 0.0);
    }

    #[test]
    fn chi_square_homogeneity_accepts_one_distribution_and_rejects_a_shift() {
        let a = sample(3, 2_000, |r| r.below(6) + r.below(6));
        let b = sample(4, 2_500, |r| r.below(6) + r.below(6));
        let same = chi_square_homogeneity(&a, &b);
        assert!(!same.rejects(), "{same:?}");
        // Eleven values (0..=10), each expected ≥ 5: no pooling.
        assert_eq!(same.df, Some(10));
        assert_eq!(same.critical, chi_square_critical_1pct(10));
        let shifted: Vec<u64> = b.iter().map(|x| x + 1).collect();
        let moved = chi_square_homogeneity(&a, &shifted);
        assert!(moved.rejects(), "{moved:?}");
    }

    #[test]
    fn chi_square_homogeneity_pools_sparse_tails() {
        // One rare outlier value pools into its neighbour; a sample that
        // pools into one bin is never rejected.
        let mut a = vec![0u64; 50];
        a.extend([1; 50]);
        let mut b = a.clone();
        b.push(1_000);
        let t = chi_square_homogeneity(&a, &b);
        assert_eq!(t.df, Some(1));
        assert!(!t.rejects());
        let flat = chi_square_homogeneity(&[3, 3], &[3]);
        assert_eq!((flat.statistic, flat.df), (0.0, Some(0)));
        assert!(!flat.rejects());
    }

    #[test]
    fn threshold_grows_with_bins() {
        assert!(chi_square_threshold(1024) > chi_square_threshold(16));
    }
}
