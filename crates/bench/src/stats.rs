//! Summary statistics over Monte-Carlo runs.

/// Mean / standard deviation / extrema of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for one sample).
    pub std: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Sample size.
    pub count: usize,
}

rfid_system::impl_json_struct!(Summary {
    count,
    mean,
    std,
    min,
    max
});

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Panics
    /// Panics on an empty sample.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "empty sample");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = if samples.len() > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        Summary {
            mean,
            std: var.sqrt(),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            count: samples.len(),
        }
    }

    /// The identity element of [`Summary::merge`]: an empty sample.
    pub fn empty() -> Summary {
        Summary {
            mean: 0.0,
            std: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            count: 0,
        }
    }

    /// Combines two disjoint sub-sample summaries into the summary of their
    /// union (Chan et al.'s parallel mean/variance update).
    ///
    /// Merge laws: `count`, `min` and `max` combine exactly; `mean` and
    /// `std` are commutative bit-exactly (both sides evaluate the same
    /// floating-point expressions) and associative up to rounding, with
    /// [`Summary::empty`] as the identity. The sweep engine therefore folds
    /// partial summaries in a fixed (cell-index) order whenever bit-identical
    /// output across schedules is required.
    #[must_use]
    pub fn merge(self, other: Summary) -> Summary {
        if self.count == 0 {
            return other;
        }
        if other.count == 0 {
            return self;
        }
        let na = self.count as f64;
        let nb = other.count as f64;
        let n = na + nb;
        let mean = (self.mean * na + other.mean * nb) / n;
        // M2 = Σ(x − mean)² = var·(n − 1); Chan's pairwise update.
        let m2_a = self.std * self.std * (na - 1.0);
        let m2_b = other.std * other.std * (nb - 1.0);
        let delta = other.mean - self.mean;
        let m2 = m2_a + m2_b + delta * delta * na * nb / n;
        let std = if self.count + other.count > 1 {
            (m2 / (n - 1.0)).sqrt()
        } else {
            0.0
        };
        Summary {
            mean,
            std,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            count: self.count + other.count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constants() {
        let s = Summary::of(&[2.0, 2.0, 2.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 2.0);
    }

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert!((s.std - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.count, 4);
    }

    #[test]
    fn single_sample_has_zero_std() {
        assert_eq!(Summary::of(&[7.0]).std, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_rejected() {
        Summary::of(&[]);
    }

    #[test]
    fn merge_of_disjoint_blocks_matches_whole_sample() {
        let xs = [1.0, 2.0, 3.0, 4.0, 10.0, -2.5, 7.0];
        let whole = Summary::of(&xs);
        let merged = Summary::of(&xs[..3]).merge(Summary::of(&xs[3..]));
        assert_eq!(merged.count, whole.count);
        assert_eq!(merged.min, whole.min);
        assert_eq!(merged.max, whole.max);
        assert!((merged.mean - whole.mean).abs() < 1e-12);
        assert!((merged.std - whole.std).abs() < 1e-12);
    }

    #[test]
    fn merge_is_commutative_bit_exactly_with_empty_identity() {
        let a = Summary::of(&[1.5, 2.5, 9.0]);
        let b = Summary::of(&[4.0, 4.5]);
        assert_eq!(a.merge(b), b.merge(a));
        assert_eq!(a.merge(Summary::empty()), a);
        assert_eq!(Summary::empty().merge(a), a);
    }

    #[test]
    fn merge_of_single_samples_matches_of() {
        let merged = Summary::of(&[3.0]).merge(Summary::of(&[5.0]));
        let whole = Summary::of(&[3.0, 5.0]);
        assert!((merged.std - whole.std).abs() < 1e-12);
        assert_eq!(merged.mean, whole.mean);
        assert_eq!(merged.count, 2);
    }
}
