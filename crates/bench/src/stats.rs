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
}
