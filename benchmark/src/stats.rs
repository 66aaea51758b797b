//! Exact order statistics over raw samples.
//!
//! Percentiles are nearest-rank over the sorted samples — no histogram
//! buckets — and each carries its sample count and the number of samples
//! strictly beyond it, so a reader can tell a p99 backed by 10 000
//! samples from one backed by 40.

/// One percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile rank asked for, in `(0, 100]`.
    pub p: f64,
    /// The sample at that rank.
    pub value: f64,
    /// How many samples the set holds.
    pub count: usize,
    /// How many samples rank above the chosen one.
    pub beyond: usize,
}

/// Samples a tail percentile must have beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Sorts `values` ascending in place (NaNs are a caller bug).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    sort(&mut v);
    v
}

/// Nearest-rank percentile `p` of ascending `sorted` samples: the
/// smallest sample such that at least `p` % of the set is at or below
/// it. `None` for an empty set.
pub fn percentile(sorted: &[f64], p: f64) -> Option<Percentile> {
    assert!(
        p > 0.0 && p <= 100.0,
        "percentile rank {p} outside (0, 100]"
    );
    let count = sorted.len();
    if count == 0 {
        return None;
    }
    // The epsilon keeps ranks like 99.9 % of 1000 (= 999.0000000000001)
    // from rounding up past their exact integer.
    let rank = ((p / 100.0 * count as f64) - 1e-9).ceil().max(1.0) as usize;
    let rank = rank.min(count);
    Some(Percentile {
        p,
        value: sorted[rank - 1],
        count,
        beyond: count - rank,
    })
}

/// Nearest-rank median of unsorted `values`; `0.0` for an empty set.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0).map_or(0.0, |q| q.value)
}

/// The highest of `candidates` (ascending ranks) that still has at
/// least [`MIN_BEYOND`] samples beyond it.
pub fn highest_reportable(sorted: &[f64], candidates: &[f64]) -> Option<Percentile> {
    candidates
        .iter()
        .rev()
        .filter_map(|&p| percentile(sorted, p))
        .find(|q| q.beyond >= MIN_BEYOND)
}

/// Arithmetic mean; `0.0` for an empty set.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First quartile, median and third quartile of `values`, computed
/// exactly as Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so spreads printed here match the ones an
/// external checker computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let x = sorted(values);
    let m = x.len();
    if m < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *q = (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median (0 when the median
/// is 0 or there are fewer than two values).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_no_percentiles() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tiny_samples_use_nearest_rank() {
        let one = [7.0];
        for p in [0.1, 50.0, 99.9, 100.0] {
            let q = percentile(&one, p).unwrap();
            assert_eq!((q.value, q.count, q.beyond), (7.0, 1, 0));
        }
        let two = [1.0, 2.0];
        assert_eq!(percentile(&two, 50.0).unwrap().value, 1.0);
        assert_eq!(percentile(&two, 50.1).unwrap().value, 2.0);
        let five = sorted(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(percentile(&five, 50.0).unwrap().value, 3.0);
        assert_eq!(percentile(&five, 90.0).unwrap().value, 5.0);
        assert_eq!(percentile(&five, 20.0).unwrap().beyond, 4);
    }

    #[test]
    fn exact_ranks_do_not_round_up() {
        let x: Vec<f64> = (1..=1000).map(f64::from).collect();
        let q = percentile(&x, 99.9).unwrap();
        assert_eq!((q.value, q.beyond), (999.0, 1));
        let q = percentile(&x, 99.0).unwrap();
        assert_eq!((q.value, q.beyond), (990.0, 10));
    }

    #[test]
    fn ties_report_the_tied_value_and_true_rank() {
        let x = sorted(&[2.0, 2.0, 2.0, 2.0, 9.0]);
        let q = percentile(&x, 80.0).unwrap();
        assert_eq!((q.value, q.beyond), (2.0, 1));
        assert_eq!(percentile(&x, 81.0).unwrap().value, 9.0);
        assert_eq!(median(&[3.0, 3.0, 3.0]), 3.0);
    }

    #[test]
    fn highest_reportable_needs_ten_beyond() {
        let ranks = [90.0, 99.0, 99.9];
        let x: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(highest_reportable(&x, &ranks).unwrap().p, 99.0);
        let x: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let q = highest_reportable(&x, &ranks).unwrap();
        assert_eq!((q.p, q.beyond), (99.9, 10));
        let x: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(highest_reportable(&x, &ranks).unwrap().p, 90.0);
        let x: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(highest_reportable(&x, &ranks), None);
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let x: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&x).unwrap(), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]).unwrap(), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(
            quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]).unwrap(),
            [1.0, 3.0, 4.5]
        );
        let s = spread(&x);
        assert!((s - 5.5 / 5.5).abs() < 1e-12, "{s}");
    }
}
