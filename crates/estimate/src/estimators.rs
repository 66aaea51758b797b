//! The classical cardinality estimators.

use crate::frame::FrameObservation;

/// Zero estimator: with `n` tags uniform over `f` slots the empty-slot
/// probability is `p₀ = (1 - 1/f)ⁿ ≈ e^{-n/f}`, so `n̂ = -f·ln(p₀)`.
///
/// Returns `None` when the frame saturated (`p₀ = 0`), in which case the
/// caller must grow the frame and retry.
pub(crate) fn zero_estimator(obs: &FrameObservation) -> Option<f64> {
    let p0 = obs.empty_fraction();
    if p0 <= 0.0 {
        None
    } else if p0 >= 1.0 {
        Some(0.0)
    } else {
        Some(-(obs.frame as f64) * p0.ln())
    }
}

/// Geometric (Flajolet–Martin-style) estimator: every tag replies in slot
/// `j ≥ 0` with probability `2^{-(j+1)}`. If `j*` is the first slot the
/// reader observes *empty*, then `n̂ ≈ 1.2897 · 2^{j*}` (the 1.2897
/// constant corrects the geometric bias). One frame of ~32 slots sizes any
/// population up to 2³²; precision comes from averaging over seeds.
///
/// `first_empty` is `j*`.
pub(crate) fn geometric_estimator(first_empty: u32) -> f64 {
    1.2897 * (1u64 << first_empty.min(62)) as f64
}

/// Derives the slot a tag picks in a geometric frame from a uniform 64-bit
/// hash: the position of the first set bit (≈ geometric with p = 1/2).
pub(crate) fn geometric_slot(hash: u64) -> u32 {
    hash.trailing_zeros().min(63)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_hash::{TagHash, Xoshiro256};

    fn simulate_frame(n: u64, f: u64, seed: u64) -> FrameObservation {
        let hash = TagHash::new(seed);
        let slots: Vec<u64> = (0..n).map(|id| hash.modulo(0, id, f)).collect();
        FrameObservation::observe(f, &slots)
    }

    #[test]
    fn zero_estimator_is_unbiased_at_load_one() {
        let n = 10_000u64;
        let mut acc = 0.0;
        let trials = 30;
        for s in 0..trials {
            let obs = simulate_frame(n, n, s);
            acc += zero_estimator(&obs).expect("frame not saturated");
        }
        let est = acc / trials as f64;
        let err = (est - n as f64).abs() / n as f64;
        assert!(err < 0.02, "zero estimator off by {:.1} %", err * 100.0);
    }

    #[test]
    fn zero_estimator_flags_saturation() {
        // 1000 tags in 4 slots: every slot occupied.
        let obs = simulate_frame(1_000, 4, 1);
        assert_eq!(zero_estimator(&obs), None);
    }

    #[test]
    fn zero_estimator_of_empty_field_is_zero() {
        let obs = FrameObservation::observe(16, &[]);
        assert_eq!(zero_estimator(&obs), Some(0.0));
    }

    #[test]
    fn geometric_slot_distribution_is_halving() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut counts = [0u32; 8];
        let trials = 100_000;
        for _ in 0..trials {
            let j = geometric_slot(rng.next_u64());
            if (j as usize) < counts.len() {
                counts[j as usize] += 1;
            }
        }
        for (j, &c) in counts.iter().enumerate() {
            let expect = trials as f64 / 2f64.powi(j as i32 + 1);
            let err = (c as f64 - expect).abs() / expect;
            assert!(err < 0.05, "slot {j}: {c} vs {expect}");
        }
    }

    #[test]
    fn geometric_estimator_tracks_order_of_magnitude() {
        // Average over many seeds: first empty slot of n hashed tags.
        for &n in &[256u64, 4_096, 65_536] {
            let mut acc = 0.0;
            let trials = 60;
            for s in 0..trials {
                let hash = TagHash::new(s);
                let mut occupied = [false; 64];
                for id in 0..n {
                    occupied[geometric_slot(hash.hash(1, id)) as usize] = true;
                }
                let first_empty = occupied.iter().position(|&o| !o).unwrap_or(63) as u32;
                acc += geometric_estimator(first_empty);
            }
            let est = acc / trials as f64;
            let ratio = est / n as f64;
            // FM sketches with one hash are coarse: right order of
            // magnitude, within a factor ~2.
            assert!(
                (0.4..=2.5).contains(&ratio),
                "n = {n}: estimate {est} (ratio {ratio})"
            );
        }
    }
}
