//! In-repo deterministic property-test harness.
//!
//! A zero-dependency replacement for the `proptest` crate, keeping the
//! workspace hermetic: random cases come from a seeded `SplitMix64`
//! stream (seed derived from the property name, so every run and every
//! machine sees the same cases), and failures are *shrunk by halving* —
//! the failing case is replayed with all size-sensitive draws
//! ([`Gen::len_in`] and friends) halved toward their lower bound until the
//! failure disappears, and the smallest still-failing case is reported.
//!
//! ```
//! use rfid_hash::prop::{check, Gen};
//! use rfid_hash::prop_assert_eq;
//!
//! check("doubling is addition", 256, |g: &mut Gen| {
//!     let x = g.u64_below(1 << 20);
//!     prop_assert_eq!(x * 2, x + x);
//!     Ok(())
//! });
//! ```
//!
//! Assertions use the [`crate::prop_assert!`], [`crate::prop_assert_eq!`]
//! and [`crate::prop_assert_ne!`] macros, which short-circuit the case with
//! an `Err(String)` instead of panicking — the harness panics once, at the
//! end, with the seed, case number, shrink level and message of the
//! smallest failure.

/// Sebastiano Vigna's SplitMix64 — the canonical 64-bit seeding generator.
///
/// Tiny state, full period, excellent mixing; exactly what a reproducible
/// case stream needs.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The random-case generator handed to each property closure.
///
/// All draws are deterministic functions of the case seed. The `shrink`
/// level halves the span of every *size* draw (`len_in`, `vec`, …) toward
/// its lower bound — level 0 is the full range, level `k` divides the span
/// by `2^k`.
#[derive(Debug)]
pub struct Gen {
    rng: SplitMix64,
    shrink: u32,
}

impl Gen {
    fn new(case_seed: u64, shrink: u32) -> Self {
        Gen {
            rng: SplitMix64::new(case_seed),
            shrink,
        }
    }

    /// A uniformly random `u64`.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A uniformly random `u32`.
    pub fn u32(&mut self) -> u32 {
        (self.rng.next_u64() >> 32) as u32
    }

    /// A uniformly random `u8`.
    pub fn u8(&mut self) -> u8 {
        (self.rng.next_u64() >> 56) as u8
    }

    /// A uniformly random bool.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }

    /// A uniform value in `[0, bound)` (Lemire-free modulo is fine here —
    /// test-case generation does not need perfect uniformity).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "u64_below(0)");
        self.rng.next_u64() % bound
    }

    /// A uniform value in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.u64_below(hi - lo)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn f64_unit(&mut self) -> f64 {
        (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64_unit() * (hi - lo)
    }

    /// A *size* draw in `[lo, hi)`: the span shrinks by halving when the
    /// harness replays a failing case, so reported counter-examples are as
    /// small as the property allows.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn len_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = ((hi - lo) >> self.shrink).max(1);
        lo + (self.u64_below(span as u64) as usize)
    }

    /// A vector of `len_in(lo, hi)` draws of `f`.
    pub fn vec<T>(&mut self, lo: usize, hi: usize, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.len_in(lo, hi);
        (0..n).map(|_| f(self)).collect()
    }

    /// A vector of random bools with length in `[lo, hi)` — the most common
    /// shape in the workspace's encode/decode round-trip properties.
    pub fn vec_bool(&mut self, lo: usize, hi: usize) -> Vec<bool> {
        self.vec(lo, hi, Gen::bool)
    }

    /// A sorted set of distinct values below `bound`, with set size drawn
    /// from `[lo, hi)` (clamped to `bound`). Mirrors
    /// `proptest::collection::hash_set` for index-set properties.
    pub fn distinct_below(&mut self, bound: u64, lo: usize, hi: usize) -> Vec<u64> {
        let want = self.len_in(lo, hi).min(bound as usize);
        let mut set = std::collections::BTreeSet::new();
        while set.len() < want {
            set.insert(self.u64_below(bound));
        }
        set.into_iter().collect()
    }
}

/// Outcome of one property case: `Err` carries the assertion message.
pub type CaseResult = Result<(), String>;

/// Runs `cases` deterministic random cases of the property `f`.
///
/// The case stream is seeded from `name`, so adding properties elsewhere
/// never perturbs this one. On failure the case is replayed at increasing
/// shrink levels (halving all size draws); the smallest failing
/// configuration is reported.
///
/// # Panics
/// Panics with full reproduction details if any case fails.
pub fn check(name: &str, cases: u64, f: impl Fn(&mut Gen) -> CaseResult) {
    // FNV-1a over the name: a stable, platform-independent base seed.
    let base = crate::fnv64(name);
    for case in 0..cases {
        let case_seed = SplitMix64::new(base.wrapping_add(case)).next_u64();
        if let Err(first) = f(&mut Gen::new(case_seed, 0)) {
            // Shrink by halving until the failure disappears (or sizes
            // bottom out at 20 halvings ≈ span 1).
            let mut level = 0;
            let mut message = first;
            for candidate in 1..=20u32 {
                match f(&mut Gen::new(case_seed, candidate)) {
                    Err(m) => {
                        level = candidate;
                        message = m;
                    }
                    Ok(()) => break,
                }
            }
            panic!(
                "property '{name}' failed (case {case}/{cases}, seed {case_seed:#018x}, \
                 shrink level {level}): {message}"
            );
        }
    }
}

/// Asserts a condition inside a property, failing the case with context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Asserts two expressions are equal inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
}

/// Asserts two expressions are *not* equal inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vectors() {
        // Reference outputs for seed 1234567 from Vigna's splitmix64.c.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn case_stream_is_deterministic() {
        let collect = || {
            let mut g = Gen::new(42, 0);
            (g.u64(), g.bool(), g.f64_unit(), g.vec_bool(0, 50))
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn shrink_halves_sizes_toward_lower_bound() {
        // At high shrink levels the span bottoms out at 1 → always lo.
        let mut g = Gen::new(7, 20);
        for _ in 0..100 {
            assert_eq!(g.len_in(3, 1000), 3);
        }
        // Level 1 halves the span.
        let mut g = Gen::new(7, 1);
        for _ in 0..100 {
            assert!(g.len_in(0, 100) < 50);
        }
    }

    #[test]
    fn passing_property_passes() {
        check("u64_below stays below", 512, |g| {
            let bound = g.u64_in(1, 1 << 40);
            prop_assert!(g.u64_below(bound) < bound);
            Ok(())
        });
    }

    #[test]
    fn failing_property_reports_seed_and_shrink() {
        let err = std::panic::catch_unwind(|| {
            check("vectors are short", 64, |g| {
                let v = g.vec_bool(0, 200);
                prop_assert!(v.len() < 10, "len {} >= 10", v.len());
                Ok(())
            });
        })
        .expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("vectors are short"), "{msg}");
        assert!(msg.contains("seed"), "{msg}");
        assert!(msg.contains("shrink level"), "{msg}");
    }

    #[test]
    fn distinct_below_yields_sorted_distinct() {
        let mut g = Gen::new(9, 0);
        for _ in 0..50 {
            let v = g.distinct_below(64, 1, 60);
            assert!(v.windows(2).all(|w| w[0] < w[1]));
            assert!(v.iter().all(|&x| x < 64));
            assert!(!v.is_empty());
        }
    }

    #[test]
    fn fnv64_is_split_invariant() {
        check("fnv64 streams over any chunking", 256, |g| {
            let bytes = g.vec(0, 200, Gen::u8);
            let text: String = bytes.iter().map(|&b| char::from(b)).collect();
            let mut h = crate::Fnv64::new();
            let mut rest = text.as_bytes();
            while !rest.is_empty() {
                if g.bool() {
                    h.write(&[]);
                }
                let cut = g.len_in(1, rest.len() + 1);
                h.write(&rest[..cut]);
                rest = &rest[cut..];
            }
            prop_assert_eq!(h.finish(), crate::fnv64(&text));
            Ok(())
        });
        assert_eq!(
            crate::fnv64("a"),
            0xAF63_DC4C_8601_EC8C,
            "FNV-1a test vector"
        );
    }

    #[test]
    fn f64_draws_stay_in_range() {
        let mut g = Gen::new(11, 0);
        for _ in 0..1000 {
            let u = g.f64_unit();
            assert!((0.0..1.0).contains(&u));
            let x = g.f64_in(-2.5, 7.5);
            assert!((-2.5..7.5).contains(&x));
        }
    }
}
