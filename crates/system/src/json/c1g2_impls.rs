//! [`ToJson`]/[`FromJson`] impls for the `rfid-c1g2` vocabulary types.
//!
//! They live here (not in `rfid-c1g2`) because the JSON traits are defined
//! in this crate and the orphan rule requires one side of an impl to be
//! local. `rfid-system` is the lowest crate that depends on `rfid-c1g2`,
//! so every downstream crate (protocols, baselines, bench, …) picks these
//! impls up for free.
//!
//! Only the types a persisted document reaches carry a codec: link timing
//! and the C1G2 clock travel in session snapshots and reports. The reader
//! command vocabulary (`Command`, `QueryCommand`, …) is never persisted.

use super::{write_f64, FromJson, Json, JsonError, ToJson};
use crate::{impl_json_enum, impl_json_struct};
use rfid_c1g2::{Clock, LinkParams, Micros, TimeBreakdown, TimeCategory};

impl ToJson for Micros {
    fn to_json(&self) -> Json {
        Json::Float(self.as_f64())
    }

    fn write_json(&self, out: &mut String) {
        write_f64(out, self.as_f64());
    }
}

impl FromJson for Micros {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Micros::from_us(json.as_f64()?))
    }
}

impl_json_struct!(LinkParams {
    reader_bit,
    tag_bit,
    t1,
    t2,
    t3
});
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
            breakdown.record(cat, Micros::from_json(value)?);
        }
        Ok(breakdown)
    }
}

impl ToJson for Clock {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("elapsed_us".to_string(), Json::Float(self.total().as_f64())),
            ("breakdown".to_string(), self.breakdown().to_json()),
        ])
    }
}

impl FromJson for Clock {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        // `elapsed_us` must be restored verbatim, not recomputed from the
        // buckets: the live clock accumulates it one addition per `spend`
        // in chronological order, so a per-category re-sum can differ in
        // the last float bits and break bit-identical session restores.
        let elapsed: Micros = json.field("elapsed_us")?;
        let breakdown: TimeBreakdown = json.field("breakdown")?;
        let total = breakdown.total().as_f64();
        if (elapsed.as_f64() - total).abs() > 1e-6 * total.max(1.0) {
            return Err(JsonError(format!(
                "clock elapsed_us {} inconsistent with breakdown total {total}",
                elapsed.as_f64()
            )));
        }
        Ok(Clock::from_parts(elapsed, breakdown))
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
    fn link_params_round_trip() {
        round_trip(&LinkParams::paper());
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
        let back: Clock = from_json_str(&text).unwrap();
        for (cat, us) in clock.breakdown().iter() {
            assert_eq!(back.breakdown().get(cat), us, "bucket {cat:?}");
        }
        assert_eq!(
            back.total().as_f64().to_bits(),
            clock.total().as_f64().to_bits(),
            "elapsed must restore bit-exactly, not be re-summed"
        );
    }

    #[test]
    fn clock_rejects_inconsistent_elapsed() {
        let text = r#"{"elapsed_us": 500.0, "breakdown": {"TagReply": 10.0}}"#;
        assert!(from_json_str::<Clock>(text).is_err());
    }
}
