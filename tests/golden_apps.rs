//! Golden pin for the application-layer counter writes: missing-tag
//! identification (HPP and TPP strategies, clean and lossy), missing-tag
//! detection (witness found, clean inventory) and HPP polling under
//! alien-tag interference.
//!
//! These apps drive the simulator outside the `PollingProtocol` engine and
//! charge some exchanges by hand, so their counters are pinned here on
//! their own. Each case pins the `Report` JSON (counters, clock, time
//! breakdown) and the FNV-1a digest of the JSONL event trace, and must
//! produce the same `Report` JSON with tracing switched off.

use fast_rfid_polling::apps::missing::{MissingStrategy, MissingTagApp, MissingTagDetector};
use fast_rfid_polling::apps::unknown::run_hpp_with_aliens;
use fast_rfid_polling::prelude::*;
use fast_rfid_polling::system::json::ToJson;
use fast_rfid_polling::system::Channel;

/// FNV-1a over the serialized event trace.
fn fnv64(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

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
/// context's report JSON and trace digest.
fn run_case(name: &str, traced: bool) -> (String, u64) {
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
    (report.to_json().to_string(), fnv64(&ctx.log.to_jsonl()))
}

/// Captured before the counter/event write path was unified: (case,
/// report JSON, FNV-1a of the JSONL trace).
const GOLDEN: &[(&str, &str, u64)] = &[
    ("missing-tpp", "{\"protocol\":\"missing-tpp\",\"tags\":275,\"total_time\":141118.3500000002,\"breakdown\":{\"ReaderCommand\":58796.50000000022,\"PollingVector\":30446.850000000024,\"IndicatorVector\":0,\"Turnaround\":43750,\"TagReply\":6875,\"WastedSlot\":1250},\"counters\":{\"reader_bits\":2383,\"tag_bits\":275,\"vector_bits\":813,\"query_rep_bits\":1200,\"polls\":275,\"rounds\":9,\"circles\":0,\"empty_slots\":25,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":18962130.650000002}}", 0x758282cc3e0b84b5),
    ("missing-hpp", "{\"protocol\":\"missing-hpp\",\"tags\":275,\"total_time\":196843.9500000002,\"breakdown\":{\"ReaderCommand\":61792.50000000028,\"PollingVector\":83176.45000000019,\"IndicatorVector\":0,\"Turnaround\":43750,\"TagReply\":6875,\"WastedSlot\":1250},\"counters\":{\"reader_bits\":3871,\"tag_bits\":275,\"vector_bits\":2221,\"query_rep_bits\":1200,\"polls\":275,\"rounds\":8,\"circles\":0,\"empty_slots\":25,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":27326794.700000007}}", 0x2dc43d10a724662f),
    ("missing-tpp-lossy", "{\"protocol\":\"missing-tpp-lossy\",\"tags\":275,\"total_time\":154840.70000000004,\"breakdown\":{\"ReaderCommand\":68346.25000000023,\"PollingVector\":32244.450000000023,\"IndicatorVector\":0,\"Turnaround\":45300,\"TagReply\":6850,\"WastedSlot\":2100},\"counters\":{\"reader_bits\":2686,\"tag_bits\":274,\"vector_bits\":861,\"query_rep_bits\":1264,\"polls\":274,\"rounds\":15,\"circles\":0,\"empty_slots\":42,\"collision_slots\":0,\"lost_replies\":17,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":20000566.849999975}}", 0x8137d68220eceb12),
    ("detect-witness", "{\"protocol\":\"detect-witness\",\"tags\":970,\"total_time\":8892.3,\"breakdown\":{\"ReaderCommand\":5767.299999999999,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":2650,\"TagReply\":425,\"WastedSlot\":50},\"counters\":{\"reader_bits\":154,\"tag_bits\":17,\"vector_bits\":0,\"query_rep_bits\":72,\"polls\":0,\"rounds\":1,\"circles\":0,\"empty_slots\":1,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":8625531}}", 0x34801dd0302e279e),
    ("detect-clean", "{\"protocol\":\"detect-clean\",\"tags\":400,\"total_time\":877136.3999999986,\"breakdown\":{\"ReaderCommand\":534486.4000000037,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":293700,\"TagReply\":48950,\"WastedSlot\":0},\"counters\":{\"reader_bits\":14272,\"tag_bits\":1958,\"vector_bits\":0,\"query_rep_bits\":7832,\"polls\":0,\"rounds\":11,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":350854560}}", 0x619e32d8f2494ae7),
    ("aliens", "{\"protocol\":\"aliens\",\"tags\":600,\"total_time\":472159.8000000075,\"breakdown\":{\"ReaderCommand\":348434.8000000029,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":106050,\"TagReply\":12500,\"WastedSlot\":5175},\"counters\":{\"reader_bits\":9304,\"tag_bits\":500,\"vector_bits\":4253,\"query_rep_bits\":8728,\"polls\":500,\"rounds\":18,\"circles\":0,\"empty_slots\":0,\"collision_slots\":207,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":154225808.45}}", 0xab0a27bf0b3dae00),
    ("aliens-lossy", "{\"protocol\":\"aliens-lossy\",\"tags\":600,\"total_time\":498884.50000000786,\"breakdown\":{\"ReaderCommand\":367384.50000000326,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":112000,\"TagReply\":12600,\"WastedSlot\":6900},\"counters\":{\"reader_bits\":9810,\"tag_bits\":504,\"vector_bits\":4214,\"query_rep_bits\":9234,\"polls\":500,\"rounds\":18,\"circles\":0,\"empty_slots\":25,\"collision_slots\":226,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":162467595.6500001}}", 0x943cdc08ea7bbc52),
];

#[test]
fn app_counters_and_traces_match_the_capture() {
    for &(name, golden_json, golden_trace) in GOLDEN {
        let (json, trace) = run_case(name, true);
        assert_eq!(json, golden_json, "{name}: report drifted");
        assert_eq!(trace, golden_trace, "{name}: trace drifted");
    }
}

#[test]
fn app_counters_do_not_depend_on_tracing() {
    for &(name, golden_json, _) in GOLDEN {
        let (json, trace) = run_case(name, false);
        assert_eq!(json, golden_json, "{name}: untraced report drifted");
        assert_eq!(trace, fnv64(""), "{name}: untraced run recorded events");
    }
}
