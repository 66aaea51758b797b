//! Deterministic pseudo-randomness for the simulator.
//!
//! Every Monte-Carlo experiment in the workspace fans out from a single
//! master seed, so any figure or table can be regenerated bit-exactly. The
//! generator is xoshiro256** (Blackman & Vigna), seeded through SplitMix64 —
//! self-contained, fast, and with well-understood statistical quality.

use crate::mix::mix64;

/// xoshiro256** pseudo-random generator.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seeds the generator by running SplitMix64 from `seed` (the procedure
    /// recommended by the xoshiro authors).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            mix64(sm)
        };
        let s = [next_sm(), next_sm(), next_sm(), next_sm()];
        // The all-zero state is invalid; SplitMix64 cannot produce four zero
        // outputs in a row, but guard anyway.
        let mut rng = Xoshiro256 { s };
        if rng.s == [0; 4] {
            rng.s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
        }
        rng
    }

    /// The raw generator state, for checkpointing: a restored generator
    /// continues the stream exactly where this one stands.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a [`Xoshiro256::state`] snapshot.
    ///
    /// # Panics
    /// Panics on the all-zero state, which is not a valid xoshiro state
    /// (the generator would emit zeros forever). Callers restoring from
    /// untrusted snapshots must validate first.
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s != [0; 4], "all-zero xoshiro256 state");
        Xoshiro256 { s }
    }

    /// The next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, bound)` using Lemire's multiply-shift with
    /// rejection (unbiased).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform `f64` in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "probability {p}");
        self.unit_f64() < p
    }

    /// A Binomial(`n`, `p`) draw: the number of successes in `n`
    /// independent trials of probability `p`, exact up to the rounding of
    /// its `f64` pmf.
    ///
    /// Inverts the CDF in chunks of at most ⌊16/p⌋ trials and sums them
    /// (a sum of binomials with one `p` is binomial). A chunk's mean stays
    /// ≤ 16, so its walk starts from `(1−p)^k ≥ e^−23` and never from an
    /// underflowed zero, as a one-shot inversion at n = 100 000, p = 1/16
    /// would. For `p > 1/2` it counts the failures instead. Expected cost
    /// O(1 + n·min(p, 1−p)); `n = 0`, `p = 0` and `p = 1` draw nothing.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1]`.
    pub fn binomial(&mut self, n: u64, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "binomial probability {p}");
        if p > 0.5 {
            return n - self.binomial(n, 1.0 - p);
        }
        if n == 0 || p == 0.0 {
            return 0;
        }
        let chunk = ((16.0 / p) as u64).clamp(1, n);
        let odds = p / (1.0 - p);
        let ln_fail = (-p).ln_1p();
        let mut left = n;
        let mut successes = 0;
        while left > 0 {
            let k = left.min(chunk);
            left -= k;
            // Walk the pmf up from x = 0 until it covers the uniform draw;
            // a draw past the rounded total mass lands on x = k.
            let mut u = self.unit_f64();
            let mut pmf = (k as f64 * ln_fail).exp();
            let mut x = 0;
            while x < k && u >= pmf {
                u -= pmf;
                pmf *= odds * (k - x) as f64 / (x + 1) as f64;
                x += 1;
            }
            successes += x;
        }
        successes
    }

    /// Fisher–Yates shuffle of a slice.
    pub(crate) fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (reservoir when `k << n`,
    /// shuffle otherwise). Order is unspecified.
    ///
    /// # Panics
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        if k * 3 >= n {
            let mut all: Vec<usize> = (0..n).collect();
            self.shuffle(&mut all);
            all.truncate(k);
            all
        } else {
            let mut chosen = std::collections::HashSet::with_capacity(k);
            let mut out = Vec::with_capacity(k);
            while out.len() < k {
                let i = self.below(n as u64) as usize;
                if chosen.insert(i) {
                    out.push(i);
                }
            }
            out
        }
    }
}

/// Derives the `index`-th child seed from a master seed. Children are
/// pairwise independent streams; the derivation is pure so parallel workers
/// can compute their own seeds.
pub fn split_seed(master: u64, index: u64) -> u64 {
    mix64(
        master ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93).rotate_left(17) ^ 0x5851_F42D_4C95_7F2D,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_sequence_is_stable() {
        // Pin the generator's output so seeds stay reproducible across
        // refactors: regenerating any figure must give identical bits.
        let mut rng = Xoshiro256::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let mut rng2 = Xoshiro256::seed_from_u64(0);
        let again: Vec<u64> = (0..4).map(|_| rng2.next_u64()).collect();
        assert_eq!(first, again);
        let mut other = Xoshiro256::seed_from_u64(1);
        assert_ne!(first[0], other.next_u64());
    }

    #[test]
    fn state_round_trip_continues_the_stream() {
        let mut rng = Xoshiro256::seed_from_u64(17);
        for _ in 0..100 {
            rng.next_u64();
        }
        let mut restored = Xoshiro256::from_state(rng.state());
        let expect: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
        let got: Vec<u64> = (0..16).map(|_| restored.next_u64()).collect();
        assert_eq!(expect, got, "restored stream must continue bit-exactly");
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn all_zero_state_is_rejected() {
        let _ = Xoshiro256::from_state([0; 4]);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Xoshiro256::seed_from_u64(42);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some residue never produced");
    }

    #[test]
    fn unit_f64_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        for _ in 0..10_000 {
            let u = rng.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn chance_frequency_tracks_p() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    /// Pearson's χ² of `draws` Binomial(n, p) samples against the exact
    /// pmf (built in log space, so no term underflows), over values
    /// pooled until each expected count is ≥ 5. Returns (χ², df).
    fn binomial_chi_square(n: u64, p: f64, draws: usize, seed: u64) -> (f64, usize) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut counts = vec![0u64; n as usize + 1];
        for _ in 0..draws {
            counts[rng.binomial(n, p) as usize] += 1;
        }
        let mut ln_pmf = n as f64 * (-p).ln_1p();
        let ln_odds = (p / (1.0 - p)).ln();
        let mut bins: Vec<(f64, u64)> = Vec::new();
        let mut open = (0.0, 0u64);
        for (x, &c) in counts.iter().enumerate() {
            open.0 += ln_pmf.exp() * draws as f64;
            open.1 += c;
            if open.0 >= 5.0 {
                bins.push(open);
                open = (0.0, 0);
            }
            let x = x as f64;
            ln_pmf += ((n as f64 - x) / (x + 1.0)).ln() + ln_odds;
        }
        let last = bins.last_mut().expect("some bin");
        last.0 += open.0;
        last.1 += open.1;
        let stat = bins.iter().map(|&(e, o)| (o as f64 - e).powi(2) / e).sum();
        (stat, bins.len() - 1)
    }

    #[test]
    fn binomial_matches_the_exact_pmf() {
        // (100 000, 1/16) is where a one-shot inversion would start from
        // an underflowed (15/16)^100000 = 0.
        for (k, &(n, p, draws)) in [
            (100_000u64, 1.0 / 16.0, 2_000usize),
            (1, 0.5, 20_000),
            (3, 1.0 / 3.0, 20_000),
            (40, 0.05, 20_000),
            (1_000, 0.3, 5_000),
            (50, 0.9, 20_000),
        ]
        .iter()
        .enumerate()
        {
            let (stat, df) = binomial_chi_square(n, p, draws, 100 + k as u64);
            let critical = crate::uniformity::chi_square_critical_1pct(df);
            assert!(
                stat < critical,
                "Binomial({n}, {p}): χ² = {stat} over {critical} (df {df})"
            );
        }
    }

    #[test]
    fn binomial_edge_cases_draw_nothing() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let before = rng.state();
        assert_eq!(rng.binomial(0, 0.5), 0);
        assert_eq!(rng.binomial(7, 0.0), 0);
        assert_eq!(rng.binomial(7, 1.0), 7);
        assert_eq!(rng.binomial(0, 1.0), 0);
        assert_eq!(rng.state(), before, "a certain outcome drew randomness");
        for _ in 0..1_000 {
            assert!(rng.binomial(5, 0.7) <= 5);
        }
    }

    #[test]
    #[should_panic(expected = "binomial probability")]
    fn binomial_rejects_a_probability_above_one() {
        Xoshiro256::seed_from_u64(1).binomial(3, 1.5);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "shuffle left the identity (astronomically unlikely)"
        );
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Xoshiro256::seed_from_u64(8);
        for &(n, k) in &[(10usize, 10usize), (100, 5), (1000, 50), (7, 0)] {
            let s = rng.sample_indices(n, k);
            assert_eq!(s.len(), k);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), k);
            assert!(s.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn split_seed_children_differ() {
        let kids: Vec<u64> = (0..100).map(|i| split_seed(77, i)).collect();
        let set: std::collections::HashSet<_> = kids.iter().collect();
        assert_eq!(set.len(), kids.len());
        assert_ne!(split_seed(1, 0), split_seed(2, 0));
    }

    #[test]
    fn mean_of_unit_draws_is_centred() {
        let mut rng = Xoshiro256::seed_from_u64(123);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.unit_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }
}
