//! Golden pin for the application-layer counter writes: missing-tag
//! identification (HPP and TPP strategies, clean and lossy), missing-tag
//! detection (witness found, clean inventory) and HPP polling under
//! alien-tag interference.
//!
//! These apps drive the simulator outside the `PollingProtocol` engine,
//! so their counters are pinned here on their own. Each case pins the
//! `Report` JSON (counters, clock, time breakdown), the FNV-1a digest of
//! the JSONL event trace and the digest of the trace with its timestamps
//! stripped, and must produce the same `Report` JSON with tracing switched
//! off. The exact-clock re-pin's oracle (DESIGN.md §12) stays here too:
//! every number of the `f64`-clock capture is within 1e-9 relative of its
//! re-pinned value. `aliens-lossy` was re-pinned once more when contention
//! slots began counting the replies the channel loses; its earlier literal
//! stays beside the oracle. The `missing-*` and `detect-*` cases were
//! re-pinned when presence probes began resolving through
//! `SimContext::slot`; their earlier literals stay beside the test that
//! bounds what moved.

mod support;

use fast_rfid_polling::apps::missing::{MissingStrategy, MissingTagApp, MissingTagDetector};
use fast_rfid_polling::apps::unknown::run_hpp_with_aliens;
use fast_rfid_polling::hash::fnv64;
use fast_rfid_polling::prelude::*;
use fast_rfid_polling::system::json::ToJson;
use fast_rfid_polling::system::Channel;

fn config(seed: u64, channel: Channel, traced: bool) -> SimConfig {
    let cfg = SimConfig::paper(seed).with_channel(channel);
    if traced {
        cfg.with_trace()
    } else {
        cfg
    }
}

/// A missing-tag scenario: the reader expects `n` IDs, `gone` are absent.
fn missing_ctx(n: usize, gone: usize, seed: u64, cfg: &SimConfig) -> (Vec<TagId>, SimContext) {
    let (expected, population) = Scenario::uniform(n, 1).with_seed(seed).split_missing(gone);
    (expected, SimContext::new(population, cfg))
}

/// 500 known tags (handles `0..500`) plus 100 aliens.
fn run_aliens(cfg: &SimConfig) -> SimContext {
    let pop = TagPopulation::sequential(600, |_| BitVec::from_value(1, 1));
    let mut ctx = SimContext::new(pop, cfg);
    let known: Vec<usize> = (0..500).collect();
    run_hpp_with_aliens(&mut ctx, &known, 10_000).expect("converges");
    ctx
}

/// Runs one app case over a fresh context, traced or not, and returns the
/// context's report JSON, trace digest and timestamp-stripped digest.
fn run_case(name: &str, traced: bool) -> (String, u64, u64) {
    let clean = |seed| config(seed, Channel::perfect(), traced);
    let lossy = |seed| config(seed, Channel::lossy(0.05), traced);
    let ctx = match name {
        "missing-tpp" | "missing-hpp" | "missing-tpp-lossy" => {
            let cfg = if name == "missing-tpp-lossy" {
                lossy(6)
            } else {
                clean(2)
            };
            let (expected, mut ctx) = missing_ctx(300, 25, cfg.seed, &cfg);
            let strategy = if name == "missing-hpp" {
                MissingStrategy::Hpp
            } else {
                MissingStrategy::Tpp
            };
            let app = MissingTagApp {
                strategy,
                ..MissingTagApp::default()
            };
            app.run(&mut ctx, &expected);
            ctx
        }
        "detect-witness" | "detect-clean" => {
            let (n, gone, seed) = if name == "detect-witness" {
                (1_000, 30, 7)
            } else {
                (400, 0, 8)
            };
            let (expected, mut ctx) = missing_ctx(n, gone, seed, &clean(seed));
            let outcome = MissingTagDetector::default().run(&mut ctx, &expected);
            assert_eq!(outcome.missing_witness.is_some(), gone > 0, "{name}");
            ctx
        }
        "aliens" => run_aliens(&clean(1)),
        "aliens-lossy" => run_aliens(&lossy(1)),
        other => panic!("unknown case {other}"),
    };
    let report = Report::from_context(name, &ctx);
    (
        report.to_json().to_string(),
        ctx.log.digest(),
        support::untimed_digest(&ctx.log),
    )
}

/// Captured before the counter/event write path was unified, re-pinned
/// once for the exact clock and once when presence probes began resolving
/// through `SimContext::slot`: (case, report JSON, FNV-1a of the JSONL
/// trace, FNV-1a of the trace without timestamps).
const GOLDEN: &[(&str, &str, u64, u64)] = &[
    ("missing-tpp", "{\"protocol\":\"missing-tpp\",\"tags\":275,\"total_time\":141118.35,\"breakdown\":{\"ReaderCommand\":58796.5,\"PollingVector\":30446.85,\"IndicatorVector\":0,\"Turnaround\":43750,\"TagReply\":6875,\"WastedSlot\":1250},\"counters\":{\"reader_bits\":2383,\"tag_bits\":275,\"vector_bits\":813,\"query_rep_bits\":1200,\"polls\":275,\"rounds\":9,\"circles\":0,\"empty_slots\":25,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":18962130.650000013}}", 0x86e1cbdc65a41602, 0x39c8ce8cd60a8a10),
    ("missing-hpp", "{\"protocol\":\"missing-hpp\",\"tags\":275,\"total_time\":196843.95,\"breakdown\":{\"ReaderCommand\":61792.5,\"PollingVector\":83176.45,\"IndicatorVector\":0,\"Turnaround\":43750,\"TagReply\":6875,\"WastedSlot\":1250},\"counters\":{\"reader_bits\":3871,\"tag_bits\":275,\"vector_bits\":2221,\"query_rep_bits\":1200,\"polls\":275,\"rounds\":8,\"circles\":0,\"empty_slots\":25,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":27326794.699999996}}", 0x94d1cb5dcb49d9d5, 0xd50a24e9c7b04dea),
    ("missing-tpp-lossy", "{\"protocol\":\"missing-tpp-lossy\",\"tags\":275,\"total_time\":154840.7,\"breakdown\":{\"ReaderCommand\":68346.25,\"PollingVector\":32244.45,\"IndicatorVector\":0,\"Turnaround\":45300,\"TagReply\":6850,\"WastedSlot\":2100},\"counters\":{\"reader_bits\":2686,\"tag_bits\":274,\"vector_bits\":861,\"query_rep_bits\":1264,\"polls\":274,\"rounds\":15,\"circles\":0,\"empty_slots\":42,\"collision_slots\":0,\"lost_replies\":17,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":20000566.849999975}}", 0xe3401a3174858025, 0x5db2a766a5a9a4c1),
    ("detect-witness", "{\"protocol\":\"detect-witness\",\"tags\":970,\"total_time\":8892.3,\"breakdown\":{\"ReaderCommand\":5767.3,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":2650,\"TagReply\":425,\"WastedSlot\":50},\"counters\":{\"reader_bits\":154,\"tag_bits\":17,\"vector_bits\":0,\"query_rep_bits\":72,\"polls\":0,\"rounds\":1,\"circles\":0,\"empty_slots\":1,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":8625531}}", 0x423a5772b2231e50, 0xf013160da4751c19),
    ("detect-clean", "{\"protocol\":\"detect-clean\",\"tags\":400,\"total_time\":877136.4,\"breakdown\":{\"ReaderCommand\":534486.4,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":293700,\"TagReply\":48950,\"WastedSlot\":0},\"counters\":{\"reader_bits\":14272,\"tag_bits\":1958,\"vector_bits\":0,\"query_rep_bits\":7832,\"polls\":0,\"rounds\":11,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":350854560}}", 0xe58ccd3e387de816, 0x609d3a2538cffee1),
    ("aliens", "{\"protocol\":\"aliens\",\"tags\":600,\"total_time\":472159.8,\"breakdown\":{\"ReaderCommand\":348434.8,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":106050,\"TagReply\":12500,\"WastedSlot\":5175},\"counters\":{\"reader_bits\":9304,\"tag_bits\":500,\"vector_bits\":4253,\"query_rep_bits\":8728,\"polls\":500,\"rounds\":18,\"circles\":0,\"empty_slots\":0,\"collision_slots\":207,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":154225808.45}}", 0xd0e23b6a10697afc, 0xd266eb43f6df8155),
    ("aliens-lossy", "{\"protocol\":\"aliens-lossy\",\"tags\":600,\"total_time\":498884.5,\"breakdown\":{\"ReaderCommand\":367384.5,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":112000,\"TagReply\":12600,\"WastedSlot\":6900},\"counters\":{\"reader_bits\":9810,\"tag_bits\":504,\"vector_bits\":4214,\"query_rep_bits\":9234,\"polls\":500,\"rounds\":18,\"circles\":0,\"empty_slots\":25,\"collision_slots\":226,\"lost_replies\":44,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":162467595.6500001}}", 0x0ba2126c80e0e961, 0xf2b3a356cbab61b7),
];

/// The five cases whose presence probes now resolve through
/// `SimContext::slot`, as pinned before that change: (case, report JSON,
/// FNV-1a of the JSONL trace). Their timestamp-stripped digests did not
/// move.
const BEFORE_PRESENCE_PROBE_SLOTS: &[(&str, &str, u64)] = &[
    ("missing-tpp", "{\"protocol\":\"missing-tpp\",\"tags\":275,\"total_time\":141118.35,\"breakdown\":{\"ReaderCommand\":58796.5,\"PollingVector\":30446.85,\"IndicatorVector\":0,\"Turnaround\":43750,\"TagReply\":6875,\"WastedSlot\":1250},\"counters\":{\"reader_bits\":2383,\"tag_bits\":275,\"vector_bits\":813,\"query_rep_bits\":1200,\"polls\":275,\"rounds\":9,\"circles\":0,\"empty_slots\":25,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":18962130.650000002}}", 0x20704406e6b595a5),
    ("missing-hpp", "{\"protocol\":\"missing-hpp\",\"tags\":275,\"total_time\":196843.95,\"breakdown\":{\"ReaderCommand\":61792.5,\"PollingVector\":83176.45,\"IndicatorVector\":0,\"Turnaround\":43750,\"TagReply\":6875,\"WastedSlot\":1250},\"counters\":{\"reader_bits\":3871,\"tag_bits\":275,\"vector_bits\":2221,\"query_rep_bits\":1200,\"polls\":275,\"rounds\":8,\"circles\":0,\"empty_slots\":25,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":27326794.700000007}}", 0x7226030186442acf),
    ("missing-tpp-lossy", "{\"protocol\":\"missing-tpp-lossy\",\"tags\":275,\"total_time\":154840.7,\"breakdown\":{\"ReaderCommand\":68346.25,\"PollingVector\":32244.45,\"IndicatorVector\":0,\"Turnaround\":45300,\"TagReply\":6850,\"WastedSlot\":2100},\"counters\":{\"reader_bits\":2686,\"tag_bits\":274,\"vector_bits\":861,\"query_rep_bits\":1264,\"polls\":274,\"rounds\":15,\"circles\":0,\"empty_slots\":42,\"collision_slots\":0,\"lost_replies\":17,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":20000566.84999997}}", 0x33b7b380841c89f2),
    ("detect-witness", "{\"protocol\":\"detect-witness\",\"tags\":970,\"total_time\":8892.3,\"breakdown\":{\"ReaderCommand\":5767.3,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":2650,\"TagReply\":425,\"WastedSlot\":50},\"counters\":{\"reader_bits\":154,\"tag_bits\":17,\"vector_bits\":0,\"query_rep_bits\":72,\"polls\":0,\"rounds\":1,\"circles\":0,\"empty_slots\":1,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":8625531}}", 0xcce8c589487652a8),
    ("detect-clean", "{\"protocol\":\"detect-clean\",\"tags\":400,\"total_time\":877136.4,\"breakdown\":{\"ReaderCommand\":534486.4,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":293700,\"TagReply\":48950,\"WastedSlot\":0},\"counters\":{\"reader_bits\":14272,\"tag_bits\":1958,\"vector_bits\":0,\"query_rep_bits\":7832,\"polls\":0,\"rounds\":11,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":350854560}}", 0x4ed663a0e732e9dc),
];

/// `aliens-lossy` as captured under the exact clock, before contention
/// slots counted the replies the channel loses (DESIGN.md §12). The
/// exact-clock oracle still compares against it.
const ALIENS_LOSSY_BEFORE_SLOT_LOSS: &str = "{\"protocol\":\"aliens-lossy\",\"tags\":600,\"total_time\":498884.5,\"breakdown\":{\"ReaderCommand\":367384.5,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":112000,\"TagReply\":12600,\"WastedSlot\":6900},\"counters\":{\"reader_bits\":9810,\"tag_bits\":504,\"vector_bits\":4214,\"query_rep_bits\":9234,\"polls\":500,\"rounds\":18,\"circles\":0,\"empty_slots\":25,\"collision_slots\":226,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":162467595.6500001}}";

/// The same cases' report JSON under the `f64`-microsecond clock, before
/// the exact-clock re-pin.
const PRE_EXACT_CLOCK: &[&str] = &[
    "{\"protocol\":\"missing-tpp\",\"tags\":275,\"total_time\":141118.3500000002,\"breakdown\":{\"ReaderCommand\":58796.50000000022,\"PollingVector\":30446.850000000024,\"IndicatorVector\":0,\"Turnaround\":43750,\"TagReply\":6875,\"WastedSlot\":1250},\"counters\":{\"reader_bits\":2383,\"tag_bits\":275,\"vector_bits\":813,\"query_rep_bits\":1200,\"polls\":275,\"rounds\":9,\"circles\":0,\"empty_slots\":25,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":18962130.650000002}}",
    "{\"protocol\":\"missing-hpp\",\"tags\":275,\"total_time\":196843.9500000002,\"breakdown\":{\"ReaderCommand\":61792.50000000028,\"PollingVector\":83176.45000000019,\"IndicatorVector\":0,\"Turnaround\":43750,\"TagReply\":6875,\"WastedSlot\":1250},\"counters\":{\"reader_bits\":3871,\"tag_bits\":275,\"vector_bits\":2221,\"query_rep_bits\":1200,\"polls\":275,\"rounds\":8,\"circles\":0,\"empty_slots\":25,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":27326794.700000007}}",
    "{\"protocol\":\"missing-tpp-lossy\",\"tags\":275,\"total_time\":154840.70000000004,\"breakdown\":{\"ReaderCommand\":68346.25000000023,\"PollingVector\":32244.450000000023,\"IndicatorVector\":0,\"Turnaround\":45300,\"TagReply\":6850,\"WastedSlot\":2100},\"counters\":{\"reader_bits\":2686,\"tag_bits\":274,\"vector_bits\":861,\"query_rep_bits\":1264,\"polls\":274,\"rounds\":15,\"circles\":0,\"empty_slots\":42,\"collision_slots\":0,\"lost_replies\":17,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":20000566.849999975}}",
    "{\"protocol\":\"detect-witness\",\"tags\":970,\"total_time\":8892.3,\"breakdown\":{\"ReaderCommand\":5767.299999999999,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":2650,\"TagReply\":425,\"WastedSlot\":50},\"counters\":{\"reader_bits\":154,\"tag_bits\":17,\"vector_bits\":0,\"query_rep_bits\":72,\"polls\":0,\"rounds\":1,\"circles\":0,\"empty_slots\":1,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":8625531}}",
    "{\"protocol\":\"detect-clean\",\"tags\":400,\"total_time\":877136.3999999986,\"breakdown\":{\"ReaderCommand\":534486.4000000037,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":293700,\"TagReply\":48950,\"WastedSlot\":0},\"counters\":{\"reader_bits\":14272,\"tag_bits\":1958,\"vector_bits\":0,\"query_rep_bits\":7832,\"polls\":0,\"rounds\":11,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":350854560}}",
    "{\"protocol\":\"aliens\",\"tags\":600,\"total_time\":472159.8000000075,\"breakdown\":{\"ReaderCommand\":348434.8000000029,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":106050,\"TagReply\":12500,\"WastedSlot\":5175},\"counters\":{\"reader_bits\":9304,\"tag_bits\":500,\"vector_bits\":4253,\"query_rep_bits\":8728,\"polls\":500,\"rounds\":18,\"circles\":0,\"empty_slots\":0,\"collision_slots\":207,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":154225808.45}}",
    "{\"protocol\":\"aliens-lossy\",\"tags\":600,\"total_time\":498884.50000000786,\"breakdown\":{\"ReaderCommand\":367384.50000000326,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":112000,\"TagReply\":12600,\"WastedSlot\":6900},\"counters\":{\"reader_bits\":9810,\"tag_bits\":504,\"vector_bits\":4214,\"query_rep_bits\":9234,\"polls\":500,\"rounds\":18,\"circles\":0,\"empty_slots\":25,\"collision_slots\":226,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":162467595.6500001}}",
];

#[test]
fn app_counters_and_traces_match_the_capture() {
    for &(name, golden_json, golden_trace, golden_untimed) in GOLDEN {
        let (json, trace, untimed) = run_case(name, true);
        assert_eq!(json, golden_json, "{name}: report drifted");
        assert_eq!(untimed, golden_untimed, "{name}: event sequence drifted");
        assert_eq!(trace, golden_trace, "{name}: trace drifted");
    }
}

#[test]
fn app_counters_do_not_depend_on_tracing() {
    for &(name, golden_json, ..) in GOLDEN {
        let (json, trace, _) = run_case(name, false);
        assert_eq!(json, golden_json, "{name}: untraced report drifted");
        assert_eq!(trace, fnv64(""), "{name}: untraced run recorded events");
    }
}

#[test]
fn exact_clock_repin_moved_no_number_beyond_rounding() {
    assert_eq!(PRE_EXACT_CLOCK.len(), GOLDEN.len());
    for (old, &(name, new, ..)) in PRE_EXACT_CLOCK.iter().zip(GOLDEN) {
        let new = if name == "aliens-lossy" {
            ALIENS_LOSSY_BEFORE_SLOT_LOSS
        } else {
            new
        };
        support::assert_numbers_within(name, old, new, 1e-9);
    }
}

/// Counting the replies a lossy contention slot drops moved `aliens-lossy`
/// in `lost_replies` alone: no draw, slot or time moved with it.
#[test]
fn slot_loss_repin_moved_only_lost_replies() {
    let (_, new, ..) = GOLDEN
        .iter()
        .find(|(name, ..)| *name == "aliens-lossy")
        .expect("aliens-lossy is pinned");
    assert_ne!(*new, ALIENS_LOSSY_BEFORE_SLOT_LOSS);
    assert_eq!(
        new.replace("\"lost_replies\":44,", "\"lost_replies\":0,"),
        ALIENS_LOSSY_BEFORE_SLOT_LOSS
    );
}

/// Resolving presence probes through `SimContext::slot` stamps each event
/// when its own transmission ends and splits one clock advance into two.
/// So only the timed trace digests moved, and in the `missing-*` cases
/// `tag_listen_us` by f64 rounding; every other number is unchanged.
#[test]
fn presence_probe_repin_moved_only_stamps_and_listen_rounding() {
    let listen = |json: &str| -> String {
        let (_, tail) = json.split_once("\"tag_listen_us\":").expect("listen field");
        tail.trim_end_matches('}').to_string()
    };
    for &(name, old_json, old_trace) in BEFORE_PRESENCE_PROBE_SLOTS {
        let &(_, new_json, new_trace, _) = GOLDEN
            .iter()
            .find(|(case, ..)| *case == name)
            .expect("pinned");
        assert_ne!(new_trace, old_trace, "{name}: trace digest did not move");
        let (old_listen, new_listen) = (listen(old_json), listen(new_json));
        assert_eq!(
            new_json.replace(
                &format!("\"tag_listen_us\":{new_listen}"),
                &format!("\"tag_listen_us\":{old_listen}")
            ),
            old_json,
            "{name}: a number besides tag_listen_us moved"
        );
        let (old, new): (f64, f64) = (old_listen.parse().unwrap(), new_listen.parse().unwrap());
        assert!(
            (new - old).abs() <= 1e-14 * old,
            "{name}: tag_listen_us moved beyond rounding"
        );
        if name.starts_with("detect-") {
            assert_eq!(new_json, old_json, "{name}: detection report moved");
        }
    }
}
