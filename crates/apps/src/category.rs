//! Per-category statistics over collected payloads.
//!
//! Warehouses care about aggregates — "which product line is running out of
//! battery", "is any chilled-food category above threshold" — more than
//! about single tags. This module groups a collection run's payloads by the
//! tags' 60-bit EPC category and summarizes each group, so one polling
//! sweep answers category-level questions.

use std::collections::BTreeMap;

use rfid_system::{BitVec, TagId};

/// Summary of one category's payload values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategoryStats {
    /// Number of tags in the category.
    pub count: usize,
    /// Smallest decoded payload value.
    pub(crate) min: u64,
    /// Largest decoded payload value.
    pub max: u64,
    /// Mean decoded payload value.
    pub mean: f64,
}

/// Groups collected `(id, payload)` pairs by EPC category and summarizes
/// the payload values (payloads decoded as big-endian integers, which
/// matches every [`rfid_workloads::PayloadKind`] encoding).
///
/// # Panics
/// Panics if a payload exceeds 64 bits (not decodable as one value).
pub fn aggregate_by_category(collected: &[(TagId, BitVec)]) -> BTreeMap<u64, CategoryStats> {
    let mut groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for (id, payload) in collected {
        groups
            .entry(id.category())
            .or_default()
            .push(payload.to_value());
    }
    groups
        .into_iter()
        .map(|(cat, values)| {
            let count = values.len();
            let min = *values.iter().min().expect("nonempty group");
            let max = *values.iter().max().expect("nonempty group");
            let mean = values.iter().sum::<u64>() as f64 / count as f64;
            (
                cat,
                CategoryStats {
                    count,
                    min,
                    max,
                    mean,
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::info_collect::run_polling;
    use rfid_protocols::TppConfig;
    use rfid_workloads::{IdDistribution, PayloadKind, Scenario};

    #[test]
    fn aggregates_a_real_collection_run() {
        let scenario = Scenario::uniform(600, 16)
            .with_seed(3)
            .with_ids(IdDistribution::Clustered { categories: 6 })
            .with_payload(PayloadKind::BatteryLevel);
        let outcome = run_polling(&TppConfig::default(), &scenario);
        let stats = aggregate_by_category(&outcome.collected);
        assert_eq!(stats.len(), 6);
        let total: usize = stats.values().map(|s| s.count).sum();
        assert_eq!(total, 600);
        for (cat, s) in &stats {
            assert!(s.min <= s.max, "category {cat}");
            assert!(s.mean >= s.min as f64 && s.mean <= s.max as f64);
            assert!(s.max <= 100, "battery level over 100 % in {cat}");
        }
    }

    #[test]
    fn empty_collection_is_empty_stats() {
        assert!(aggregate_by_category(&[]).is_empty());
    }

    #[test]
    fn grouping_uses_the_category_prefix() {
        use rfid_system::TagId;
        let a = TagId::from_fields(0x30, 7, 9, 1);
        let b = TagId::from_fields(0x30, 7, 9, 2);
        let c = TagId::from_fields(0x30, 8, 9, 1);
        let collected = vec![
            (a, BitVec::from_value(10, 8)),
            (b, BitVec::from_value(20, 8)),
            (c, BitVec::from_value(30, 8)),
        ];
        let stats = aggregate_by_category(&collected);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[&a.category()].count, 2);
        assert_eq!(stats[&a.category()].mean, 15.0);
        assert_eq!(stats[&c.category()].count, 1);
    }
}
