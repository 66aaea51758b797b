//! [`ToJson`]/[`FromJson`] impls for the `rfid-c1g2` vocabulary types.
//!
//! They live here (not in `rfid-c1g2`) because the JSON traits are defined
//! in this crate and the orphan rule requires one side of an impl to be
//! local. `rfid-system` is the lowest crate that depends on `rfid-c1g2`,
//! so every downstream crate (protocols, baselines, bench, …) picks these
//! impls up for free.
//!
//! Only the types a persisted document reaches carry a codec: durations
//! and the C1G2 clock travel in session snapshots and reports. The link is
//! always the paper's, so `LinkParams` is never persisted, nor is the
//! reader command vocabulary (`Command`).

use super::{write_milli, FromJson, Json, JsonError, ToJson};
use crate::impl_json_enum;
use rfid_c1g2::{Clock, Micros, TimeBreakdown, TimeCategory};

/// A duration is decimal microseconds with at most three fraction digits
/// (`645680.1`): the nanosecond count written with integer digits only,
/// read back through [`Json::Milli`] to the same count, never an `f64`.
impl ToJson for Micros {
    fn to_json(&self) -> Json {
        let ns = self.as_ns();
        if ns % 1_000 == 0 {
            Json::UInt(ns / 1_000)
        } else {
            Json::Milli(ns)
        }
    }

    fn write_json(&self, out: &mut String) {
        write_milli(out, self.as_ns());
    }
}

impl FromJson for Micros {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let err = |why: &str| Err(JsonError(format!("duration {json} µs {why}")));
        match json {
            Json::UInt(us) => match us.checked_mul(1_000) {
                Some(ns) => Ok(Micros::from_ns(ns)),
                None => err("is past the u64 nanosecond range"),
            },
            Json::Milli(ns) => Ok(Micros::from_ns(*ns)),
            Json::Int(_) => err("is negative"),
            Json::Float(x) if x.is_sign_negative() => err("is negative"),
            Json::Float(x) if *x >= 18_446_744_073_709_551.615 => {
                err("is past the u64 nanosecond range")
            }
            Json::Float(_) => err("has more than three fraction digits"),
            _ => err("is not a number"),
        }
    }
}

impl_json_enum!(TimeCategory {
    ReaderCommand,
    PollingVector,
    IndicatorVector,
    Turnaround,
    TagReply,
    WastedSlot,
});

impl ToJson for TimeBreakdown {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(cat, us)| match cat.to_json() {
                    Json::Str(tag) => (tag, us.to_json()),
                    other => unreachable!("TimeCategory serialized as {other}"),
                })
                .collect(),
        )
    }
}

impl FromJson for TimeBreakdown {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let fields = match json {
            Json::Obj(fields) => fields,
            other => return Err(JsonError(format!("expected breakdown object, got {other}"))),
        };
        let mut breakdown = TimeBreakdown::default();
        for (key, value) in fields {
            let cat = TimeCategory::from_json(&Json::str(key.clone()))?;
            breakdown.record(cat, Micros::from_json(value).map_err(|e| e.in_field(key))?);
        }
        Ok(breakdown)
    }
}

/// A clock is its breakdown; the total is the sum.
impl ToJson for Clock {
    fn to_json(&self) -> Json {
        self.breakdown().to_json()
    }
}

impl FromJson for Clock {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        TimeBreakdown::from_json(json).map(Clock::from)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{from_json_str, to_json_string};
    use super::*;

    fn round_trip<T>(value: &T)
    where
        T: ToJson + FromJson + PartialEq + std::fmt::Debug,
    {
        let text = to_json_string(value);
        let back: T = from_json_str(&text).unwrap_or_else(|e| panic!("{e} in {text}"));
        assert_eq!(&back, value, "round-trip through {text}");
    }

    #[test]
    fn micros_round_trip() {
        round_trip(&Micros::from_us(37.45));
        round_trip(&Micros::from_us(0.0));
    }

    #[test]
    fn unit_enums_round_trip() {
        for cat in [
            TimeCategory::ReaderCommand,
            TimeCategory::PollingVector,
            TimeCategory::IndicatorVector,
            TimeCategory::Turnaround,
            TimeCategory::TagReply,
            TimeCategory::WastedSlot,
        ] {
            round_trip(&cat);
        }
        assert!(from_json_str::<TimeCategory>("\"Idle\"").is_err());
    }

    #[test]
    fn clock_round_trip_preserves_buckets() {
        let mut clock = Clock::new();
        clock.spend(TimeCategory::ReaderCommand, Micros::from_us(823.9));
        clock.spend(TimeCategory::Turnaround, Micros::from_us(150.0));
        clock.spend(TimeCategory::TagReply, Micros::from_us(25.0));
        let text = to_json_string(&clock);
        assert_eq!(
            text,
            "{\"ReaderCommand\":823.9,\"PollingVector\":0,\"IndicatorVector\":0,\
             \"Turnaround\":150,\"TagReply\":25,\"WastedSlot\":0}"
        );
        let back: Clock = from_json_str(&text).unwrap();
        assert_eq!(back.breakdown(), clock.breakdown());
        assert_eq!(back.total(), clock.total());
        for twice in [
            r#"{"TagReply": 10, "TagReply": 10}"#,
            r#"{"TagReply": 0, "TagReply": 10}"#,
        ] {
            assert!(from_json_str::<Clock>(twice).is_err(), "{twice}");
        }
    }

    #[test]
    fn micros_is_decimal_us_with_at_most_three_fraction_digits() {
        for (ns, text) in [
            (0, "0"),
            (645_680_100, "645680.1"),
            (37_450, "37.45"),
            (1, "0.001"),
            (576_780_000, "576780"),
            (u64::MAX, "18446744073709551.615"),
        ] {
            let us = Micros::from_ns(ns);
            assert_eq!(to_json_string(&us), text);
            assert_eq!(us.to_json().to_string(), text);
            assert_eq!(from_json_str::<Micros>(text).unwrap(), us, "{text}");
        }
        rfid_hash::prop::check("micros_json_is_exact", 1_024, |g| {
            let us = Micros::from_ns(g.u64() >> g.u64_below(64));
            let text = to_json_string(&us);
            rfid_hash::prop_assert_eq!(us.to_json().to_string(), text.clone());
            rfid_hash::prop_assert!(!text.contains(['e', 'E']), "exponent in {text}");
            let fraction = text.split_once('.').map_or(0, |(_, f)| f.len());
            rfid_hash::prop_assert!(fraction <= 3, "{text} has {fraction} fraction digits");
            rfid_hash::prop_assert_eq!(from_json_str::<Micros>(&text).ok(), Some(us));
            Ok(())
        });
    }

    #[test]
    fn micros_rejects_what_is_not_a_whole_nanosecond_count() {
        for (text, why) in [
            ("-5", "negative"),
            ("-0.5", "negative"),
            ("18446744073709552", "past the u64 nanosecond range"),
            ("18446744073709551.616", "past the u64 nanosecond range"),
            ("0.0001", "more than three fraction digits"),
            ("1.2345", "more than three fraction digits"),
            ("\"5\"", "not a number"),
        ] {
            let err = from_json_str::<Micros>(text).unwrap_err();
            assert!(err.0.contains(why), "{text}: {err}");
        }
    }
}
