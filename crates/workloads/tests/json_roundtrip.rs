//! JSON round-trips for workload descriptions — every variant of the ID and
//! payload enums, plus full scenarios and churn models.

use rfid_system::{from_json_str, to_json_string, FromJson, ToJson};
use rfid_workloads::{ChurnModel, IdDistribution, PayloadKind, Scenario};

fn round_trip<T>(value: &T)
where
    T: ToJson + FromJson + PartialEq + std::fmt::Debug,
{
    let compact = to_json_string(value);
    let back: T = from_json_str(&compact).expect("compact parse");
    assert_eq!(&back, value, "compact round-trip for {compact}");
    let pretty = value.to_json().to_pretty_string();
    let back: T = from_json_str(&pretty).expect("pretty parse");
    assert_eq!(&back, value, "pretty round-trip");
}

/// Round-trips `value` and pins its compact encoding to `text` byte for byte.
fn pinned<T>(value: &T, text: &str)
where
    T: ToJson + FromJson + PartialEq + std::fmt::Debug,
{
    round_trip(value);
    assert_eq!(to_json_string(value), text);
    let back: T = from_json_str(text).expect("pinned text parses");
    assert_eq!(&back, value, "parse of {text}");
}

#[test]
fn every_id_distribution_variant_round_trips() {
    pinned(&IdDistribution::UniformRandom, r#""UniformRandom""#);
    pinned(
        &IdDistribution::Sequential { start: 1_000_000 },
        r#"{"Sequential":{"start":1000000}}"#,
    );
    pinned(
        &IdDistribution::Clustered { categories: 12 },
        r#"{"Clustered":{"categories":12}}"#,
    );
    pinned(
        &IdDistribution::Zipf {
            categories: 40,
            exponent: 1.25,
        },
        r#"{"Zipf":{"categories":40,"exponent":1.25}}"#,
    );
    pinned(
        &IdDistribution::SharedPrefix { prefix_bits: 48 },
        r#"{"SharedPrefix":{"prefix_bits":48}}"#,
    );
    // Unit variant serializes as a bare string (serde-compatible tagging).
    assert_eq!(
        to_json_string(&IdDistribution::UniformRandom),
        "\"UniformRandom\""
    );
}

#[test]
fn every_payload_kind_variant_round_trips() {
    pinned(&PayloadKind::Presence, r#""Presence""#);
    pinned(&PayloadKind::Random, r#""Random""#);
    pinned(&PayloadKind::BatteryLevel, r#""BatteryLevel""#);
    pinned(
        &PayloadKind::Temperature { base_quarters: -80 },
        r#"{"Temperature":{"base_quarters":-80}}"#,
    );
    round_trip(&PayloadKind::Temperature { base_quarters: 88 });
}

#[test]
fn churn_model_round_trips() {
    round_trip(&ChurnModel {
        departure_fraction: 0.05,
        arrivals_per_epoch: 12.5,
    });
}

#[test]
fn scenario_round_trips_with_nested_enums() {
    // Scenario JSON is part of the sweep cache key: its bytes are pinned.
    pinned(
        &Scenario::uniform(500, 16),
        r#"{"n":500,"id_dist":"UniformRandom","info_bits":16,"payload":"Presence","seed":0}"#,
    );
    pinned(
        &Scenario::uniform(64, 8)
            .with_seed(0xDEAD_BEEF_F00D_D00D)
            .with_ids(IdDistribution::Zipf {
                categories: 9,
                exponent: 0.8,
            })
            .with_payload(PayloadKind::Temperature { base_quarters: 100 }),
        concat!(
            r#"{"n":64,"id_dist":{"Zipf":{"categories":9,"exponent":0.8}},"#,
            r#""info_bits":8,"payload":{"Temperature":{"base_quarters":100}},"#,
            r#""seed":16045690985124843533}"#
        ),
    );
}

#[test]
fn malformed_scenario_is_rejected() {
    assert!(from_json_str::<Scenario>("{\"n\": 5}").is_err());
    assert!(from_json_str::<IdDistribution>("{\"Nope\": {}}").is_err());
    assert!(from_json_str::<PayloadKind>("\"Sideways\"").is_err());
    // A unit tag in object form and a struct tag in string form are errors.
    assert!(from_json_str::<IdDistribution>(r#"{"UniformRandom":{}}"#).is_err());
    assert!(from_json_str::<IdDistribution>(r#""Zipf""#).is_err());
    assert!(from_json_str::<PayloadKind>(r#"{"Presence":{}}"#).is_err());
    assert!(from_json_str::<PayloadKind>(r#""Temperature""#).is_err());
}
