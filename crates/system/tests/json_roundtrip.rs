//! JSON round-trip coverage for every `rfid-system` type that used to
//! derive `Serialize`/`Deserialize` — the replacement must persist the
//! same information the serde derives did. Tags and populations persist
//! as a session snapshot stores them: identity list plus packed states. Every round trip also checks
//! that the direct writer (`ToJson::write_json`, behind `to_json_string`)
//! emits exactly the bytes of the `Json` tree.

use rfid_c1g2::Micros;
use rfid_system::json::{from_json_str, to_json_string, FromJson, Json, ToJson};
use rfid_system::{
    BitVec, BroadcastKind, Channel, ContextProgress, Counters, Event, FaultModel, FaultPlan,
    GilbertElliott, KillRule, RoundRange, SimConfig, SimContext, TagId, TagPopulation, TagState,
    TimedEvent,
};

fn round_trip<T>(value: &T)
where
    T: ToJson + FromJson + PartialEq + std::fmt::Debug,
{
    let text = to_json_string(value);
    assert_eq!(
        text,
        value.to_json().to_string(),
        "writer differs from tree"
    );
    let back: T = from_json_str(&text).unwrap_or_else(|e| panic!("{e} in {text}"));
    assert_eq!(&back, value, "round-trip through {text}");
    // Pretty output parses to the same value.
    let pretty = value.to_json().to_pretty_string();
    let back: T = from_json_str(&pretty).unwrap();
    assert_eq!(&back, value, "pretty round-trip");
}

/// Round-trips `value` and pins its compact encoding to `text` byte for byte.
fn pinned<T>(value: &T, text: &str)
where
    T: ToJson + FromJson + PartialEq + std::fmt::Debug,
{
    round_trip(value);
    assert_eq!(to_json_string(value), text);
    assert_eq!(value.to_json().to_string(), text);
    let back: T = from_json_str(text).unwrap_or_else(|e| panic!("{e} in {text}"));
    assert_eq!(&back, value, "parse of {text}");
}

/// One value of every `Event` variant.
fn every_event() -> Vec<Event> {
    vec![
        Event::RoundStarted {
            round: 1,
            h: 3,
            unread: 100,
        },
        Event::CircleStarted {
            circle: 2,
            selected: 40,
        },
        Event::ReaderBroadcast {
            what: BroadcastKind::PollingVector,
            bits: 96,
        },
        Event::TagPolled {
            tag: 5,
            vector_bits: 3,
        },
        Event::TagReply { tag: 5, bits: 16 },
        Event::VectorCharged { bits: 7 },
        Event::SlotEmpty,
        Event::SlotCollision { count: 4 },
        Event::ReplyLost { tag: 3 },
        Event::DownlinkLost { tag: 9 },
        Event::ReplyCorrupted { tag: 12 },
        Event::Retransmission {
            tag: 12,
            attempt: 2,
        },
        Event::DesyncRecovered { tag: 9 },
        Event::StallTick { streak: 5 },
        Event::RecoveryPassStarted {
            pass: 2,
            uncollected: 5,
        },
        Event::BackoffWaited { pass: 1, us: 1500 },
        Event::CircuitOpened {
            passes: 3,
            uncollected: usize::MAX,
        },
        Event::DeadlineReached {
            passes: 1,
            uncollected: 7,
        },
    ]
}

const EVERY_BROADCAST_KIND: [BroadcastKind; 13] = [
    BroadcastKind::RoundInit,
    BroadcastKind::CircleCommand,
    BroadcastKind::PollingVector,
    BroadcastKind::QueryRep,
    BroadcastKind::SlotPrefix,
    BroadcastKind::IndicatorVector,
    BroadcastKind::Select,
    BroadcastKind::Query,
    BroadcastKind::QueryAdjust,
    BroadcastKind::Ack,
    BroadcastKind::Nak,
    BroadcastKind::FrameInit,
    BroadcastKind::Probe,
];

#[test]
fn writer_matches_tree_for_every_timed_event() {
    // Integral, one-, two- and three-fraction-digit, largest and tiny
    // timestamps: every shape a nanosecond count takes in µs.
    let stamps = [0, 37_450, 300, 1_001, 645_680_100, u64::MAX, 1];
    let broadcasts = EVERY_BROADCAST_KIND
        .iter()
        .map(|&what| Event::ReaderBroadcast { what, bits: 4 });
    for event in every_event().into_iter().chain(broadcasts) {
        for &ns in &stamps {
            round_trip(&TimedEvent {
                at: Micros::from_ns(ns),
                event,
            });
        }
    }
    assert_eq!(
        to_json_string(&TimedEvent {
            at: Micros::from_ns(1),
            event: Event::SlotEmpty,
        }),
        r#"{"at":0.001,"event":"SlotEmpty"}"#
    );
}

#[test]
fn string_writer_matches_tree_for_escapes() {
    for s in [
        "",
        "plain",
        "with \"quotes\" and \\backslashes\\",
        "newline\nreturn\rtab\t",
        "backspace\u{08}formfeed\u{0C}",
        "control \u{00}\u{01}\u{1F}\u{7F} chars",
        "unicode: µs, 中文, \u{1F600} \"after\"",
    ] {
        assert_eq!(to_json_string(s), Json::str(s).to_string(), "str {s:?}");
        round_trip(&s.to_string());
    }
    assert_eq!(to_json_string("a\"\\\u{01}"), r#""a\"\\\u0001""#);
}

#[test]
fn bitvec_round_trips_as_bit_string() {
    round_trip(&BitVec::new());
    round_trip(&BitVec::from_str_bits("00101"));
    let long: String = (0..200)
        .map(|i| if i % 3 == 0 { '1' } else { '0' })
        .collect();
    round_trip(&BitVec::from_str_bits(&long));
    assert_eq!(to_json_string(&BitVec::from_str_bits("00101")), "\"00101\"");
    assert!(from_json_str::<BitVec>("\"01x\"").is_err());
}

#[test]
fn tag_id_round_trips_as_urn() {
    let id = TagId::from_raw(0xDEAD_BEEF, 0x0123_4567_89AB_CDEF);
    round_trip(&id);
    assert_eq!(to_json_string(&id), "\"urn:epc:deadbeef.0123456789abcdef\"");
    round_trip(&TagId::from_raw(0, 0));
    assert!(from_json_str::<TagId>("\"urn:epc:zz.00\"").is_err());
    assert!(from_json_str::<TagId>("\"deadbeef.0123456789abcdef\"").is_err());
}

/// `pop` persisted as a session snapshot persists it, through text: its
/// identity as the `tags` list, and each tag's state in the context
/// progress's packed `state`.
fn persisted(pop: &TagPopulation) -> TagPopulation {
    let cfg = SimConfig::paper(1);
    let identity = Json::parse(&pop.identity_json().to_string()).unwrap();
    let progress = Json::parse(&SimContext::new(pop.clone(), &cfg).snapshot().to_string()).unwrap();
    let progress = ContextProgress::decode(&cfg, &progress, pop.len()).unwrap();
    let fresh = TagPopulation::from_identity_json(&identity).unwrap();
    SimContext::restore(&cfg, fresh, progress)
        .unwrap()
        .population
}

#[test]
fn tag_and_state_round_trip() {
    let (id, info) = (TagId::from_raw(7, 42), BitVec::from_str_bits("1011"));
    for state in [TagState::Active, TagState::Asleep, TagState::Deselected] {
        let mut pop = TagPopulation::new([(id, info.clone())]);
        match state {
            TagState::Active => {}
            TagState::Asleep => pop.sleep(0),
            TagState::Deselected => pop.deselect(0),
        }
        let back = persisted(&pop);
        assert_eq!((back.id(0), &back.info(0)), (id, &info));
        assert_eq!(back.state(0), state);
    }
}

#[test]
fn population_round_trips_with_mixed_states() {
    let mut pop = TagPopulation::sequential(6, |i| BitVec::from_value(i as u64 % 4, 2));
    pop.sleep(1);
    pop.sleep(4);
    pop.deselect(2);
    let back = persisted(&pop);
    assert_eq!(back, pop);
    // The derived counts must be rebuilt, not trusted from the document.
    assert_eq!(back.active_count(), pop.active_count());
    assert_eq!(back.asleep_count(), pop.asleep_count());
    assert_eq!(back.listening_count(), pop.listening_count());
}

#[test]
fn population_rejects_duplicate_ids() {
    let one = TagPopulation::new([(TagId::from_raw(0, 1), BitVec::new())]).identity_json();
    let tag = one.as_arr().unwrap()[0].clone();
    let err = TagPopulation::from_identity_json(&Json::Arr(vec![tag.clone(), tag])).unwrap_err();
    assert!(err.0.contains("duplicate tag ID"), "{err:?}");
}

#[test]
fn channel_round_trips() {
    round_trip(&Channel::perfect());
    round_trip(&Channel::lossy(0.25));
    round_trip(&Channel {
        reply_loss_rate: 0.1,
        capture_prob: 0.5,
    });
}

#[test]
fn fault_model_round_trips() {
    round_trip(&FaultModel::perfect());
    round_trip(&GilbertElliott::new(0.05, 0.3, 0.01, 0.8));
    round_trip(&RoundRange { from: 3, to: 5 });
    round_trip(&KillRule {
        tag: 17,
        after_replies: 2,
    });
    let plan = FaultPlan {
        drop_downlink_rounds: vec![RoundRange { from: 3, to: 5 }],
        drop_uplink_rounds: vec![
            RoundRange { from: 1, to: 1 },
            RoundRange { from: 9, to: 12 },
        ],
        kill_after_replies: vec![KillRule {
            tag: 17,
            after_replies: 2,
        }],
    };
    round_trip(&plan);
    round_trip(
        &FaultModel::perfect()
            .with_downlink_loss(0.2)
            .with_corruption(0.1)
            .with_max_poll_retries(5)
            .with_burst(GilbertElliott::new(0.05, 0.3, 0.01, 0.8))
            .with_plan(plan),
    );
}

#[test]
fn events_and_log_round_trip() {
    // One value of every variant, with its exact trace encoding.
    let pins = [
        (
            Event::RoundStarted {
                round: 1,
                h: 3,
                unread: 100,
            },
            r#"{"RoundStarted":{"round":1,"h":3,"unread":100}}"#,
        ),
        (
            Event::CircleStarted {
                circle: 2,
                selected: 40,
            },
            r#"{"CircleStarted":{"circle":2,"selected":40}}"#,
        ),
        (
            Event::ReaderBroadcast {
                what: BroadcastKind::PollingVector,
                bits: 96,
            },
            r#"{"ReaderBroadcast":{"what":"PollingVector","bits":96}}"#,
        ),
        (
            Event::TagPolled {
                tag: 5,
                vector_bits: 3,
            },
            r#"{"TagPolled":{"tag":5,"vector_bits":3}}"#,
        ),
        (
            Event::TagReply { tag: 5, bits: 16 },
            r#"{"TagReply":{"tag":5,"bits":16}}"#,
        ),
        (
            Event::VectorCharged { bits: 7 },
            r#"{"VectorCharged":{"bits":7}}"#,
        ),
        (Event::SlotEmpty, r#""SlotEmpty""#),
        (
            Event::SlotCollision { count: 4 },
            r#"{"SlotCollision":{"count":4}}"#,
        ),
        (Event::ReplyLost { tag: 3 }, r#"{"ReplyLost":{"tag":3}}"#),
        (
            Event::DownlinkLost { tag: 9 },
            r#"{"DownlinkLost":{"tag":9}}"#,
        ),
        (
            Event::ReplyCorrupted { tag: 12 },
            r#"{"ReplyCorrupted":{"tag":12}}"#,
        ),
        (
            Event::Retransmission {
                tag: 12,
                attempt: 2,
            },
            r#"{"Retransmission":{"tag":12,"attempt":2}}"#,
        ),
        (
            Event::DesyncRecovered { tag: 9 },
            r#"{"DesyncRecovered":{"tag":9}}"#,
        ),
        (
            Event::StallTick { streak: 5 },
            r#"{"StallTick":{"streak":5}}"#,
        ),
        (
            Event::RecoveryPassStarted {
                pass: 2,
                uncollected: 5,
            },
            r#"{"RecoveryPassStarted":{"pass":2,"uncollected":5}}"#,
        ),
        (
            Event::BackoffWaited { pass: 1, us: 1500 },
            r#"{"BackoffWaited":{"pass":1,"us":1500}}"#,
        ),
        (
            Event::CircuitOpened {
                passes: 3,
                uncollected: 4,
            },
            r#"{"CircuitOpened":{"passes":3,"uncollected":4}}"#,
        ),
        (
            Event::DeadlineReached {
                passes: 1,
                uncollected: 7,
            },
            r#"{"DeadlineReached":{"passes":1,"uncollected":7}}"#,
        ),
    ];
    for (e, text) in &pins {
        pinned(e, text);
    }
    for bad in [
        r#"{"SlotEmpty":{}}"#,
        r#""StallTick""#,
        r#""Nope""#,
        r#"{"Nope":{}}"#,
        r#"{"StallTick":{}}"#,
        r#"{"TagReply":{"tag":1,"bits":2},"TagPolled":{"tag":1,"vector_bits":2}}"#,
        "7",
    ] {
        assert!(from_json_str::<Event>(bad).is_err(), "accepted {bad}");
    }
    pinned(
        &TimedEvent {
            at: Micros::from_us(162.45),
            event: Event::SlotEmpty,
        },
        r#"{"at":162.45,"event":"SlotEmpty"}"#,
    );
    let events = every_event();
    for e in &events {
        round_trip(e);
    }
    round_trip(&TimedEvent {
        at: Micros::from_us(162.45),
        event: Event::SlotEmpty,
    });
    let trace: Vec<TimedEvent> = events
        .iter()
        .enumerate()
        .map(|(i, &event)| TimedEvent {
            at: Micros::from_us(i as f64 * 37.45),
            event,
        })
        .collect();
    round_trip(&trace);
}

#[test]
fn broadcast_kinds_round_trip_as_strings() {
    for kind in EVERY_BROADCAST_KIND {
        round_trip(&kind);
    }
    assert_eq!(
        to_json_string(&BroadcastKind::PollingVector),
        "\"PollingVector\""
    );
    assert!(from_json_str::<BroadcastKind>("\"Telegram\"").is_err());
}

#[test]
fn sim_config_round_trips() {
    round_trip(&SimConfig::paper(0xFEED_FACE_CAFE_BEEF));
    round_trip(
        &SimConfig::paper(1)
            .with_trace()
            .with_channel(Channel::lossy(0.05)),
    );
    round_trip(
        &SimConfig::paper(2).with_fault(
            FaultModel::perfect()
                .with_downlink_loss(0.3)
                .with_corruption(0.2),
        ),
    );
}

#[test]
fn counters_round_trip() {
    let c = Counters {
        reader_bits: 123_456,
        tag_bits: 98_304,
        vector_bits: 3_000,
        query_rep_bits: 4_000,
        polls: 1_000,
        rounds: 5,
        circles: 2,
        empty_slots: 17,
        collision_slots: 3,
        lost_replies: 1,
        downlink_losses: 11,
        corrupted_replies: 6,
        desync_recoveries: 9,
        retransmissions: 4,
        tag_listen_us: 8.25e6,
        ..Counters::default()
    };
    round_trip(&c);
}

#[test]
fn population_rejects_mixed_payload_widths() {
    let tag = |lo, info| {
        let pop = TagPopulation::new([(TagId::from_raw(0, lo), BitVec::from_str_bits(info))]);
        pop.identity_json().as_arr().unwrap()[0].clone()
    };
    let same = Json::Arr(vec![tag(1, "101"), tag(2, "011")]);
    assert_eq!(
        TagPopulation::from_identity_json(&same)
            .unwrap()
            .info_bits(),
        3
    );
    let mixed = Json::Arr(vec![tag(1, "101"), tag(2, "10101")]);
    let err = TagPopulation::from_identity_json(&mixed).unwrap_err();
    assert!(
        err.0.contains("5-bit payload") && err.0.contains("3-bit"),
        "{err:?}"
    );
}
