//! Tag-ID generators.
//!
//! The paper evaluates "a more general case without any assumption on the
//! distribution of tag IDs" — uniform random EPCs. The other distributions
//! here exercise the cases the paper discusses qualitatively: sequential
//! serials (fresh rolls of tags), clustered category prefixes (tags affixed
//! to the same class of items share a category ID — enhanced CPP's best
//! case), Zipf category mixes (realistic warehouses), and adversarial
//! shared prefixes.

use rfid_hash::Xoshiro256;
use rfid_system::id::{TagId, CLASS_BITS, MANAGER_BITS, SERIAL_BITS};

/// How tag IDs are distributed.
#[derive(Debug, Clone, PartialEq)]
pub enum IdDistribution {
    /// Fully random 96-bit EPCs (the paper's setting).
    UniformRandom,
    /// One category, sequential serials starting at `start`.
    Sequential {
        /// First serial number.
        start: u64,
    },
    /// `categories` equally likely categories with random serials: tags of
    /// the same category share the 60-bit prefix.
    Clustered {
        /// Number of distinct categories.
        categories: u32,
    },
    /// Categories drawn from a Zipf(`exponent`) law over `categories`
    /// categories (a few popular products dominate).
    Zipf {
        /// Number of distinct categories.
        categories: u32,
        /// Zipf exponent (1.0 = classic).
        exponent: f64,
    },
    /// All tags share the first `prefix_bits` bits; the rest is random.
    SharedPrefix {
        /// Length of the common prefix in bits.
        prefix_bits: u32,
    },
}

impl IdDistribution {
    /// A sampler drawing one tag ID per call from `rng`. It keeps no set:
    /// IDs may repeat, and [`TagPopulation::draw`] draws a repeat again.
    ///
    /// [`TagPopulation::draw`]: rfid_system::TagPopulation::draw
    pub(crate) fn sampler<'a>(&'a self, rng: &'a mut Xoshiro256) -> impl FnMut() -> TagId + 'a {
        let zipf = match self {
            IdDistribution::Zipf {
                categories,
                exponent,
            } => Some(ZipfSampler::new(*categories, *exponent)),
            _ => None,
        };
        let mut serial_counter = match self {
            IdDistribution::Sequential { start } => *start,
            _ => 0,
        };
        move || match self {
            IdDistribution::UniformRandom => TagId::from_raw(rng.next_u64() as u32, rng.next_u64()),
            IdDistribution::Sequential { .. } => {
                let id =
                    TagId::from_fields(0x30, 1, 1, serial_counter & ((1u64 << SERIAL_BITS) - 1));
                serial_counter += 1;
                id
            }
            IdDistribution::Clustered { categories } => {
                let cat = rng.below(*categories as u64) as u32;
                TagId::from_fields(
                    0x30,
                    cat % (1 << MANAGER_BITS),
                    cat % (1 << CLASS_BITS),
                    rng.next_u64() & ((1u64 << SERIAL_BITS) - 1),
                )
            }
            IdDistribution::Zipf { .. } => {
                let cat = zipf.as_ref().expect("sampler built above").sample(rng);
                TagId::from_fields(
                    0x30,
                    cat % (1 << MANAGER_BITS),
                    cat % (1 << CLASS_BITS),
                    rng.next_u64() & ((1u64 << SERIAL_BITS) - 1),
                )
            }
            IdDistribution::SharedPrefix { prefix_bits } => {
                assert!(*prefix_bits <= 96, "prefix longer than an EPC");
                // Fixed prefix of alternating bits, random remainder.
                let fixed_hi: u32 = 0xAAAA_AAAA;
                let fixed_lo: u64 = 0xAAAA_AAAA_AAAA_AAAA;
                let (mut hi, mut lo) = (rng.next_u64() as u32, rng.next_u64());
                let p = *prefix_bits;
                if p >= 32 {
                    hi = fixed_hi;
                    let low_fixed = (p - 32).min(64);
                    if low_fixed > 0 {
                        let mask = if low_fixed == 64 {
                            u64::MAX
                        } else {
                            !(u64::MAX >> low_fixed)
                        };
                        lo = (fixed_lo & mask) | (lo & !mask);
                    }
                } else if p > 0 {
                    let mask = !(u32::MAX >> p);
                    hi = (fixed_hi & mask) | (hi & !mask);
                }
                TagId::from_raw(hi, lo)
            }
        }
    }
}

/// Zipf sampler over ranks `0..categories` by inverse-CDF on precomputed
/// cumulative weights.
struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    fn new(categories: u32, exponent: f64) -> Self {
        assert!(categories > 0, "zipf over zero categories");
        assert!(exponent > 0.0, "non-positive zipf exponent");
        let mut cdf = Vec::with_capacity(categories as usize);
        let mut acc = 0.0;
        for rank in 1..=categories {
            acc += 1.0 / (rank as f64).powf(exponent);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    fn sample(&self, rng: &mut Xoshiro256) -> u32 {
        let u = rng.unit_f64();
        self.cdf.partition_point(|&c| c < u) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_system::TagPopulation;

    fn rng() -> Xoshiro256 {
        Xoshiro256::seed_from_u64(11)
    }

    impl IdDistribution {
        /// `n` distinct IDs, drawn as a population build draws them.
        fn generate(&self, n: usize, rng: &mut Xoshiro256) -> Vec<TagId> {
            TagPopulation::draw(n, 0, self.sampler(rng), |_| {})
                .ids()
                .collect()
        }
    }

    #[test]
    fn all_distributions_yield_n_distinct_ids() {
        let dists = [
            IdDistribution::UniformRandom,
            IdDistribution::Sequential { start: 5 },
            IdDistribution::Clustered { categories: 4 },
            IdDistribution::Zipf {
                categories: 10,
                exponent: 1.0,
            },
            IdDistribution::SharedPrefix { prefix_bits: 60 },
        ];
        for d in dists {
            let ids = d.generate(500, &mut rng());
            assert_eq!(ids.len(), 500, "{d:?}");
            let set: std::collections::BTreeSet<_> = ids.iter().collect();
            assert_eq!(set.len(), 500, "{d:?} produced duplicates");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let d = IdDistribution::UniformRandom;
        let a = d.generate(100, &mut rng());
        let b = d.generate(100, &mut rng());
        assert_eq!(a, b);
        let c = d.generate(100, &mut Xoshiro256::seed_from_u64(12));
        assert_ne!(a, c);
    }

    #[test]
    fn sequential_ids_share_category_and_count_up() {
        let ids = IdDistribution::Sequential { start: 10 }.generate(20, &mut rng());
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.serial(), 10 + i as u64);
            assert_eq!(id.category(), ids[0].category());
        }
    }

    #[test]
    fn clustered_ids_use_exactly_the_requested_categories() {
        let ids = IdDistribution::Clustered { categories: 3 }.generate(300, &mut rng());
        let cats: std::collections::BTreeSet<u64> = ids.iter().map(|i| i.category()).collect();
        assert_eq!(cats.len(), 3);
    }

    #[test]
    fn zipf_is_head_heavy() {
        let ids = IdDistribution::Zipf {
            categories: 50,
            exponent: 1.2,
        }
        .generate(5_000, &mut rng());
        let mut counts = std::collections::HashMap::new();
        for id in &ids {
            *counts.entry(id.category()).or_insert(0usize) += 1;
        }
        let max = *counts.values().max().unwrap();
        let avg = 5_000 / counts.len();
        assert!(max > 3 * avg, "head category {max} vs average {avg}");
    }

    #[test]
    fn shared_prefix_is_shared() {
        let ids = IdDistribution::SharedPrefix { prefix_bits: 32 }.generate(50, &mut rng());
        for id in &ids {
            assert_eq!(id.hi(), 0xAAAA_AAAA);
        }
        let ids = IdDistribution::SharedPrefix { prefix_bits: 48 }.generate(50, &mut rng());
        let first = ids[0].prefix_bits(48);
        for id in &ids {
            assert_eq!(id.prefix_bits(48), first);
        }
    }

    #[test]
    fn shared_prefix_zero_is_uniform() {
        let ids = IdDistribution::SharedPrefix { prefix_bits: 0 }.generate(10, &mut rng());
        let his: std::collections::BTreeSet<u32> = ids.iter().map(|i| i.hi()).collect();
        assert!(his.len() > 1);
    }

    #[test]
    fn uniform_ids_fill_the_high_bits_too() {
        let ids = IdDistribution::UniformRandom.generate(100, &mut rng());
        assert!(ids.iter().any(|i| i.hi() > u16::MAX as u32));
    }
}
