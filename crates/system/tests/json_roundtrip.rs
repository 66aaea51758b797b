//! JSON round-trip coverage for every `rfid-system` type that used to
//! derive `Serialize`/`Deserialize` — the replacement must persist the
//! same information the serde derives did.

use rfid_c1g2::Micros;
use rfid_system::json::{from_json_str, to_json_string, FromJson, Json, ToJson};
use rfid_system::{
    BitVec, BroadcastKind, Channel, Counters, Event, EventLog, FaultModel, FaultPlan,
    GilbertElliott, KillRule, RoundRange, SimConfig, SlotOutcome, Tag, TagId, TagPopulation,
    TagState, TimedEvent,
};

fn round_trip<T>(value: &T)
where
    T: ToJson + FromJson + PartialEq + std::fmt::Debug,
{
    let text = to_json_string(value);
    let back: T = from_json_str(&text).unwrap_or_else(|e| panic!("{e} in {text}"));
    assert_eq!(&back, value, "round-trip through {text}");
    // Pretty output parses to the same value.
    let pretty = value.to_json().to_pretty_string();
    let back: T = from_json_str(&pretty).unwrap();
    assert_eq!(&back, value, "pretty round-trip");
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

#[test]
fn tag_and_state_round_trip() {
    for state in [TagState::Active, TagState::Asleep, TagState::Deselected] {
        round_trip(&state);
    }
    let mut tag = Tag::new(TagId::from_raw(7, 42), BitVec::from_str_bits("1011"));
    round_trip(&tag);
    tag.sleep();
    round_trip(&tag);
}

#[test]
fn population_round_trips_with_mixed_states() {
    let mut pop = TagPopulation::sequential(6, |i| BitVec::from_value(i as u64 % 4, 2));
    pop.sleep(1);
    pop.sleep(4);
    pop.deselect(2);
    let back: TagPopulation = from_json_str(&to_json_string(&pop)).unwrap();
    assert_eq!(back, pop);
    // The derived counts must be rebuilt, not trusted from the document.
    assert_eq!(back.active_count(), pop.active_count());
    assert_eq!(back.asleep_count(), pop.asleep_count());
    assert_eq!(back.listening_count(), pop.listening_count());
}

#[test]
fn population_rejects_duplicate_ids() {
    let tag = Tag::new(TagId::from_raw(0, 1), BitVec::new());
    let doc = Json::Arr(vec![tag.to_json(), tag.to_json()]);
    assert!(from_json_str::<TagPopulation>(&doc.to_string()).is_err());
}

#[test]
fn channel_and_slot_outcome_round_trip() {
    round_trip(&Channel::perfect());
    round_trip(&Channel::lossy(0.25));
    round_trip(&Channel {
        reply_loss_rate: 0.1,
        capture_prob: 0.5,
        capture_any: true,
    });
    round_trip(&SlotOutcome::Empty);
    round_trip(&SlotOutcome::Singleton(17));
    round_trip(&SlotOutcome::Collision(3));
    round_trip(&SlotOutcome::Corrupted(9));
    assert!(from_json_str::<SlotOutcome>("\"Partial\"").is_err());
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
    let events = [
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
        Event::ReaderBroadcast {
            what: BroadcastKind::Nak,
            bits: 8,
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
    ];
    for e in &events {
        round_trip(e);
    }
    round_trip(&TimedEvent {
        at: Micros::from_us(162.45),
        event: Event::SlotEmpty,
    });
    let mut log = EventLog::enabled();
    for (i, e) in events.iter().enumerate() {
        log.record(Micros::from_us(i as f64 * 37.45), *e);
    }
    round_trip(&log);
    round_trip(&EventLog::disabled());
}

#[test]
fn broadcast_kinds_round_trip_as_strings() {
    for kind in [
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
    ] {
        round_trip(&kind);
    }
    assert_eq!(
        to_json_string(&BroadcastKind::PollingVector),
        "\"PollingVector\""
    );
    assert!(from_json_str::<BroadcastKind>("\"Telegram\"").is_err());
}

#[test]
fn ring_log_round_trips_with_drop_count() {
    let mut log = EventLog::ring(2);
    for i in 0..5usize {
        log.record(
            Micros::from_us(i as f64),
            Event::TagPolled {
                tag: i,
                vector_bits: 2,
            },
        );
    }
    assert_eq!(log.dropped(), 3);
    round_trip(&log);
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
    let mut c = Counters::default();
    c.reader_bits = 123_456;
    c.tag_bits = 98_304;
    c.vector_bits = 3_000;
    c.query_rep_bits = 4_000;
    c.polls = 1_000;
    c.rounds = 5;
    c.circles = 2;
    c.empty_slots = 17;
    c.collision_slots = 3;
    c.lost_replies = 1;
    c.downlink_losses = 11;
    c.corrupted_replies = 6;
    c.desync_recoveries = 9;
    c.retransmissions = 4;
    c.tag_listen_us = 8.25e6;
    round_trip(&c);
}
