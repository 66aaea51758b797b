//! Tag information payloads.
//!
//! The polling task collects `m ≥ 1` bits from each tag (Section II-C). The
//! paper's three table settings are `m ∈ {1, 16, 32}`; the payload *kind*
//! models what sensor-augmented tags actually report (Section I): a presence
//! bit against theft, a battery energy level, or a chilled-food temperature.

use rfid_hash::Xoshiro256;
use rfid_system::BitVec;

/// What the `m` information bits encode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PayloadKind {
    /// A constant presence marker (all-ones) — 1-bit missing-tag polling.
    Presence,
    /// Uniformly random bits.
    Random,
    /// A battery level in percent (0–100), right-aligned in `m` bits.
    BatteryLevel,
    /// A temperature in 0.25 °C steps around `base_quarters/4` °C with ±2 °C
    /// jitter, encoded as an unsigned offset from −40 °C.
    Temperature {
        /// Base temperature in quarter-degrees C.
        base_quarters: i32,
    },
}

impl PayloadKind {
    /// Appends the `bits`-long payload of one tag to `out`.
    ///
    /// # Panics
    /// Panics if `bits == 0` or `bits > 64` for the numeric kinds.
    pub(crate) fn append(&self, bits: usize, rng: &mut Xoshiro256, out: &mut BitVec) {
        assert!(bits >= 1, "payloads are at least one bit (m ≥ 1)");
        match self {
            PayloadKind::Presence => (0..bits).for_each(|_| out.push(true)),
            PayloadKind::Random => (0..bits).for_each(|_| out.push(rng.chance(0.5))),
            PayloadKind::BatteryLevel => {
                assert!(bits <= 64, "battery level payload too wide");
                let level = rng.below(101); // 0..=100 %
                let max = if bits >= 7 {
                    level
                } else {
                    level.min((1 << bits) - 1)
                };
                out.push_value(max, bits);
            }
            PayloadKind::Temperature { base_quarters } => {
                assert!(bits <= 64, "temperature payload too wide");
                let jitter = rng.below(17) as i32 - 8; // ±2 °C in quarter-steps
                let quarters = base_quarters + jitter;
                // Offset from −40 °C so the encoding is unsigned.
                let encoded = (quarters + 160).max(0) as u64;
                let capped = encoded.min(if bits == 64 {
                    u64::MAX
                } else {
                    (1 << bits) - 1
                });
                out.push_value(capped, bits);
            }
        }
    }
}

/// Decodes a temperature payload back to °C.
pub fn decode_temperature(info: &BitVec) -> f64 {
    (info.to_value() as f64 - 160.0) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256 {
        Xoshiro256::seed_from_u64(4)
    }

    #[test]
    fn presence_is_all_ones() {
        let mut p = BitVec::new();
        PayloadKind::Presence.append(1, &mut rng(), &mut p);
        assert_eq!(p.to_string(), "1");
        PayloadKind::Presence.append(4, &mut rng(), &mut p);
        assert_eq!(p.to_string(), "11111");
    }

    #[test]
    fn random_payload_has_requested_width() {
        let mut p = BitVec::new();
        PayloadKind::Random.append(16, &mut rng(), &mut p);
        assert_eq!(p.len(), 16);
    }

    #[test]
    fn battery_levels_decode_to_percent() {
        let mut r = rng();
        for _ in 0..100 {
            let mut p = BitVec::new();
            PayloadKind::BatteryLevel.append(16, &mut r, &mut p);
            assert!(p.to_value() <= 100);
        }
    }

    #[test]
    fn battery_fits_narrow_payloads() {
        let mut r = rng();
        for _ in 0..50 {
            let mut p = BitVec::new();
            PayloadKind::BatteryLevel.append(3, &mut r, &mut p);
            assert!(p.to_value() < 8);
        }
    }

    #[test]
    fn temperature_round_trips_near_base() {
        let mut r = rng();
        // 4 °C chilled-food base = 16 quarter-degrees.
        for _ in 0..100 {
            let mut p = BitVec::new();
            PayloadKind::Temperature { base_quarters: 16 }.append(16, &mut r, &mut p);
            let t = decode_temperature(&p);
            assert!((t - 4.0).abs() <= 2.01, "temperature {t}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_width_rejected() {
        PayloadKind::Presence.append(0, &mut rng(), &mut BitVec::new());
    }
}
