//! Population churn: arrivals and departures between monitoring epochs.
//!
//! Warehouses are not static — pallets ship out and deliveries arrive. The
//! [`ChurnModel`] evolves an ID population between epochs with Poisson-like
//! departure/arrival counts, feeding the continuous-monitoring application.

use rfid_hash::Xoshiro256;
use rfid_system::TagId;

/// Churn rates per epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnModel {
    /// Fraction of the current population departing per epoch.
    pub departure_fraction: f64,
    /// Expected arrivals per epoch.
    pub arrivals_per_epoch: f64,
}

impl ChurnModel {
    /// A busy dock: 10 % departures, ~50 arrivals per epoch.
    pub fn busy() -> Self {
        ChurnModel {
            departure_fraction: 0.10,
            arrivals_per_epoch: 50.0,
        }
    }

    /// Evolves the population one epoch: returns `(remaining, departed,
    /// arrivals)`. Arrival IDs are fresh uniform EPCs guaranteed distinct
    /// from `current`.
    pub fn evolve(
        &self,
        current: &[TagId],
        rng: &mut Xoshiro256,
    ) -> (Vec<TagId>, Vec<TagId>, Vec<TagId>) {
        assert!((0.0..=1.0).contains(&self.departure_fraction));
        assert!(self.arrivals_per_epoch >= 0.0);
        let departures =
            ((current.len() as f64 * self.departure_fraction).round() as usize).min(current.len());
        let mut gone = vec![false; current.len()];
        for i in rng.sample_indices(current.len(), departures) {
            gone[i] = true;
        }
        let mut remaining = Vec::with_capacity(current.len() - departures);
        let mut departed = Vec::with_capacity(departures);
        for (&id, &gone) in current.iter().zip(&gone) {
            if gone {
                departed.push(id);
            } else {
                remaining.push(id);
            }
        }
        // Poisson-ish arrival count: round a jittered mean.
        let jitter = rng.unit_f64() * 2.0; // uniform in [0, 2) around mean 1
        let count = (self.arrivals_per_epoch * jitter).round() as usize;
        let mut existing = current.to_vec();
        existing.sort_unstable();
        let mut arrivals = Vec::with_capacity(count);
        while arrivals.len() < count {
            let id = TagId::from_raw(rng.next_u64() as u32, rng.next_u64());
            if existing.binary_search(&id).is_err() && !arrivals.contains(&id) {
                arrivals.push(id);
            }
        }
        (remaining, departed, arrivals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u64) -> Vec<TagId> {
        (0..n).map(|i| TagId::from_raw(1, i)).collect()
    }

    #[test]
    fn evolve_partitions_the_population() {
        let model = ChurnModel {
            departure_fraction: 0.2,
            arrivals_per_epoch: 10.0,
        };
        let mut rng = Xoshiro256::seed_from_u64(1);
        let current = ids(100);
        let (remaining, departed, arrivals) = model.evolve(&current, &mut rng);
        assert_eq!(remaining.len() + departed.len(), 100);
        assert_eq!(departed.len(), 20);
        // Arrivals are fresh.
        let olds: std::collections::BTreeSet<_> = current.iter().collect();
        for a in &arrivals {
            assert!(!olds.contains(a));
        }
    }

    #[test]
    fn zero_churn_is_identity() {
        let model = ChurnModel {
            departure_fraction: 0.0,
            arrivals_per_epoch: 0.0,
        };
        let mut rng = Xoshiro256::seed_from_u64(2);
        let current = ids(50);
        let (remaining, departed, arrivals) = model.evolve(&current, &mut rng);
        assert_eq!(remaining, current);
        assert!(departed.is_empty());
        assert!(arrivals.is_empty());
    }

    #[test]
    fn full_departure_empties_the_floor() {
        let model = ChurnModel {
            departure_fraction: 1.0,
            arrivals_per_epoch: 0.0,
        };
        let mut rng = Xoshiro256::seed_from_u64(3);
        let (remaining, departed, _) = model.evolve(&ids(30), &mut rng);
        assert!(remaining.is_empty());
        assert_eq!(departed.len(), 30);
    }

    #[test]
    fn arrival_counts_track_the_mean() {
        let model = ChurnModel {
            departure_fraction: 0.0,
            arrivals_per_epoch: 20.0,
        };
        let mut rng = Xoshiro256::seed_from_u64(4);
        let current = ids(10);
        let total: usize = (0..200)
            .map(|_| model.evolve(&current, &mut rng).2.len())
            .sum();
        let mean = total as f64 / 200.0;
        assert!((mean - 20.0).abs() < 2.0, "mean arrivals {mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let model = ChurnModel::busy();
        let current = ids(100);
        let a = model.evolve(&current, &mut Xoshiro256::seed_from_u64(9));
        let b = model.evolve(&current, &mut Xoshiro256::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
