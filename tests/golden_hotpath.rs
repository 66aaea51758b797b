//! Golden regression test for the hot-path rework: every protocol's
//! `Report` JSON and full event trace must be **bit-identical** to the
//! values captured before the round-index/arena optimization landed.
//!
//! The optimization's contract is "same numbers, faster": the counting-sort
//! bucket layouts, arena-backed scratch buffers, and scan-free replier
//! resolution must not perturb a single RNG draw, slot outcome, float
//! accumulation, or trace event. These literals were produced by the
//! pre-change simulator (same scenarios, same seeds); any drift here means
//! the rework changed observable behaviour, not just its cost.
//!
//! Every case also runs untraced and must produce the same report: the
//! counters are written by the same call that records the trace, and
//! switching the trace off must not change them.

use fast_rfid_polling::baselines::{
    CodedPollingConfig, CppConfig, EcppConfig, FsaConfig, LowerBound, MicConfig,
};
use fast_rfid_polling::identify::{BinarySplitConfig, QAlgorithmConfig, QueryTreeConfig};
use fast_rfid_polling::prelude::*;
use fast_rfid_polling::system::json::ToJson;
use fast_rfid_polling::system::{SimConfig, SimContext};

fn all_protocols() -> Vec<Box<dyn PollingProtocol>> {
    vec![
        Box::new(CppConfig::default().into_protocol()),
        Box::new(EcppConfig::default().into_protocol()),
        Box::new(CodedPollingConfig::default().into_protocol()),
        Box::new(HppConfig::default().into_protocol()),
        Box::new(EhppConfig::default().into_protocol()),
        Box::new(TppConfig::default().into_protocol()),
        Box::new(MicConfig::default().into_protocol()),
        Box::new(FsaConfig::default().into_protocol()),
        Box::new(LowerBound),
        Box::new(QueryTreeConfig::default().into_protocol()),
        Box::new(BinarySplitConfig::default().into_protocol()),
        Box::new(QAlgorithmConfig::default().into_protocol()),
    ]
}

/// FNV-1a over the serialized event trace — cheap, stable, and order
/// sensitive, so any reordered/dropped/extra event changes the digest.
fn fnv64(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs `protocol` under `cfg` traced and untraced, checks both reports
/// against `golden_json` and the traced run's trace digest against
/// `golden_trace`.
fn check(protocol: &dyn PollingProtocol, cfg: SimConfig, scenario: &Scenario, golden: (&str, u64)) {
    let name = protocol.name();
    let (golden_json, golden_trace) = golden;
    for traced in [true, false] {
        let cfg = SimConfig {
            trace: traced,
            ..cfg.clone()
        };
        let mut ctx = SimContext::new(scenario.build_population(), &cfg);
        let report = protocol.try_run(&mut ctx).expect("run converges");
        assert_eq!(
            report.to_json().to_string(),
            golden_json,
            "{name} (traced: {traced}): report drifted from the pre-change capture"
        );
        if traced {
            assert_eq!(
                fnv64(&ctx.log.to_jsonl()),
                golden_trace,
                "{name}: event trace drifted from the pre-change capture"
            );
        } else {
            assert!(ctx.log.is_empty(), "{name}: untraced run recorded events");
        }
    }
}

/// Pre-change golden (protocol name, report JSON, FNV-1a of the JSONL
/// trace) on the fault-free `uniform(150, 4)` scenario at seed 31.
const CLEAN_GOLDEN: &[(&str, &str, u64)] = &[
    ("CPP", "{\"protocol\":\"CPP\",\"tags\":150,\"total_time\":576780.0000000005,\"breakdown\":{\"ReaderCommand\":0,\"PollingVector\":539280.0000000009,\"IndicatorVector\":0,\"Turnaround\":22500,\"TagReply\":15000,\"WastedSlot\":0},\"counters\":{\"reader_bits\":14400,\"tag_bits\":600,\"vector_bits\":14400,\"query_rep_bits\":0,\"polls\":150,\"rounds\":0,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":43546890.00000001}}", 0x82d119d11754d4a0),
    ("eCPP", "{\"protocol\":\"eCPP\",\"tags\":150,\"total_time\":576780.0000000005,\"breakdown\":{\"ReaderCommand\":0,\"PollingVector\":539280.0000000009,\"IndicatorVector\":0,\"Turnaround\":22500,\"TagReply\":15000,\"WastedSlot\":0},\"counters\":{\"reader_bits\":14400,\"tag_bits\":600,\"vector_bits\":14400,\"query_rep_bits\":0,\"polls\":150,\"rounds\":0,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":43546890.00000001}}", 0xee643a98fcb6b694),
    ("CP", "{\"protocol\":\"CP\",\"tags\":150,\"total_time\":307140,\"breakdown\":{\"ReaderCommand\":0,\"PollingVector\":269640.00000000047,\"IndicatorVector\":0,\"Turnaround\":22500,\"TagReply\":15000,\"WastedSlot\":0},\"counters\":{\"reader_bits\":7200,\"tag_bits\":600,\"vector_bits\":7200,\"query_rep_bits\":0,\"polls\":150,\"rounds\":0,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":23189070}}", 0xfbbe5c3b04e35c72),
    ("HPP", "{\"protocol\":\"HPP\",\"tags\":150,\"total_time\":105808.80000000005,\"breakdown\":{\"ReaderCommand\":28461.999999999938,\"PollingVector\":39846.800000000054,\"IndicatorVector\":0,\"Turnaround\":22500,\"TagReply\":15000,\"WastedSlot\":0},\"counters\":{\"reader_bits\":1824,\"tag_bits\":600,\"vector_bits\":1064,\"query_rep_bits\":600,\"polls\":150,\"rounds\":5,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":8131773.200000001}}", 0x95248fa939773ed8),
    ("EHPP", "{\"protocol\":\"EHPP\",\"tags\":150,\"total_time\":105808.80000000005,\"breakdown\":{\"ReaderCommand\":28461.999999999938,\"PollingVector\":39846.800000000054,\"IndicatorVector\":0,\"Turnaround\":22500,\"TagReply\":15000,\"WastedSlot\":0},\"counters\":{\"reader_bits\":1824,\"tag_bits\":600,\"vector_bits\":1064,\"query_rep_bits\":600,\"polls\":150,\"rounds\":5,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":8131773.200000001}}", 0x95248fa939773ed8),
    ("TPP", "{\"protocol\":\"TPP\",\"tags\":150,\"total_time\":87046.35000000015,\"breakdown\":{\"ReaderCommand\":33255.59999999995,\"PollingVector\":16290.750000000005,\"IndicatorVector\":0,\"Turnaround\":22500,\"TagReply\":15000,\"WastedSlot\":0},\"counters\":{\"reader_bits\":1323,\"tag_bits\":600,\"vector_bits\":435,\"query_rep_bits\":600,\"polls\":150,\"rounds\":9,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":6252944.149999998}}", 0xdd537e5dbe81dad8),
    ("MIC", "{\"protocol\":\"MIC\",\"tags\":150,\"total_time\":94245.75000000038,\"breakdown\":{\"ReaderCommand\":30109.799999999916,\"PollingVector\":0,\"IndicatorVector\":19885.949999999997,\"Turnaround\":25200,\"TagReply\":15000,\"WastedSlot\":4050},\"counters\":{\"reader_bits\":1335,\"tag_bits\":600,\"vector_bits\":0,\"query_rep_bits\":708,\"polls\":150,\"rounds\":3,\"circles\":0,\"empty_slots\":27,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":8354482.150000001}}", 0x3822155eebc55f44),
    ("FSA", "{\"protocol\":\"FSA\",\"tags\":150,\"total_time\":158712.59999999995,\"breakdown\":{\"ReaderCommand\":65462.6000000004,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":49400,\"TagReply\":15000,\"WastedSlot\":28850},\"counters\":{\"reader_bits\":1748,\"tag_bits\":600,\"vector_bits\":0,\"query_rep_bits\":1492,\"polls\":150,\"rounds\":8,\"circles\":0,\"empty_slots\":131,\"collision_slots\":92,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":12129159.199999994}}", 0x9c4e29158c9eba8e),
    ("LowerBound", "{\"protocol\":\"LowerBound\",\"tags\":150,\"total_time\":59970.00000000016,\"breakdown\":{\"ReaderCommand\":22469.999999999938,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":22500,\"TagReply\":15000,\"WastedSlot\":0},\"counters\":{\"reader_bits\":600,\"tag_bits\":600,\"vector_bits\":0,\"query_rep_bits\":600,\"polls\":150,\"rounds\":0,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":4527735}}", 0x9965b9e7a26df328),
    ("QueryTree", "{\"protocol\":\"QueryTree\",\"tags\":150,\"total_time\":1230589.6000000103,\"breakdown\":{\"ReaderCommand\":66511.20000000054,\"PollingVector\":128528.4,\"IndicatorVector\":0,\"Turnaround\":62950,\"TagReply\":387500,\"WastedSlot\":585100},\"counters\":{\"reader_bits\":5208,\"tag_bits\":15500,\"vector_bits\":1300,\"query_rep_bits\":1776,\"polls\":150,\"rounds\":0,\"circles\":0,\"empty_slots\":73,\"collision_slots\":221,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":95546498.94999988}}", 0x352531f7c462f1f7),
    ("BinSplit", "{\"protocol\":\"BinSplit\",\"tags\":150,\"total_time\":1198508.4000000104,\"breakdown\":{\"ReaderCommand\":68608.40000000058,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":64750,\"TagReply\":420000,\"WastedSlot\":645150},\"counters\":{\"reader_bits\":1832,\"tag_bits\":16800,\"vector_bits\":0,\"query_rep_bits\":1832,\"polls\":150,\"rounds\":0,\"circles\":0,\"empty_slots\":79,\"collision_slots\":229,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":92053187.60000011}}", 0x2776aa9b550f609b),
    ("Q-algo", "{\"protocol\":\"Q-algo\",\"tags\":150,\"total_time\":992667.3000000094,\"breakdown\":{\"ReaderCommand\":305367.29999999696,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":82000,\"TagReply\":540000,\"WastedSlot\":65300},\"counters\":{\"reader_bits\":8154,\"tag_bits\":21600,\"vector_bits\":0,\"query_rep_bits\":1792,\"polls\":150,\"rounds\":119,\"circles\":0,\"empty_slots\":154,\"collision_slots\":144,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":75774107.24999999}}", 0x1c8188056361ee17),
];

/// Same capture under an impaired channel (seed 99, 20 % downlink loss,
/// 20 % corruption, Gilbert–Elliott uplink bursts) for the four paper
/// protocols — faults exercise the loss/desync/retransmission paths whose
/// RNG draws the rework must also leave untouched.
const IMPAIRED_GOLDEN: &[(&str, &str, u64)] = &[
    ("HPP", "{\"protocol\":\"HPP\",\"tags\":150,\"total_time\":218275.49999999907,\"breakdown\":{\"ReaderCommand\":78495.20000000035,\"PollingVector\":70930.29999999996,\"IndicatorVector\":0,\"Turnaround\":42750,\"TagReply\":18900,\"WastedSlot\":7200},\"counters\":{\"reader_bits\":3990,\"tag_bits\":756,\"vector_bits\":1894,\"query_rep_bits\":1176,\"polls\":150,\"rounds\":19,\"circles\":0,\"empty_slots\":144,\"collision_slots\":0,\"lost_replies\":41,\"downlink_losses\":173,\"corrupted_replies\":39,\"desync_recoveries\":100,\"retransmissions\":39,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":16132238.549999997}}", 0x584b46440383a1a0),
    ("EHPP", "{\"protocol\":\"EHPP\",\"tags\":150,\"total_time\":218275.49999999907,\"breakdown\":{\"ReaderCommand\":78495.20000000035,\"PollingVector\":70930.29999999996,\"IndicatorVector\":0,\"Turnaround\":42750,\"TagReply\":18900,\"WastedSlot\":7200},\"counters\":{\"reader_bits\":3990,\"tag_bits\":756,\"vector_bits\":1894,\"query_rep_bits\":1176,\"polls\":150,\"rounds\":19,\"circles\":0,\"empty_slots\":144,\"collision_slots\":0,\"lost_replies\":41,\"downlink_losses\":173,\"corrupted_replies\":39,\"desync_recoveries\":100,\"retransmissions\":39,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":16132238.549999997}}", 0x584b46440383a1a0),
    ("TPP", "{\"protocol\":\"TPP\",\"tags\":150,\"total_time\":176918.74999999974,\"breakdown\":{\"ReaderCommand\":75649.0000000003,\"PollingVector\":32019.750000000007,\"IndicatorVector\":0,\"Turnaround\":42900,\"TagReply\":19600,\"WastedSlot\":6750},\"counters\":{\"reader_bits\":2875,\"tag_bits\":784,\"vector_bits\":855,\"query_rep_bits\":1140,\"polls\":150,\"rounds\":16,\"circles\":0,\"empty_slots\":135,\"collision_slots\":0,\"lost_replies\":39,\"downlink_losses\":200,\"corrupted_replies\":46,\"desync_recoveries\":129,\"retransmissions\":46,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":13643192.750000007}}", 0x0483b0fd1186c5b4),
    ("MIC", "{\"protocol\":\"MIC\",\"tags\":150,\"total_time\":158677.2000000001,\"breakdown\":{\"ReaderCommand\":58721.60000000018,\"PollingVector\":0,\"IndicatorVector\":33255.6,\"Turnaround\":39150,\"TagReply\":15000,\"WastedSlot\":12550},\"counters\":{\"reader_bits\":2456,\"tag_bits\":600,\"vector_bits\":0,\"query_rep_bits\":1184,\"polls\":150,\"rounds\":12,\"circles\":0,\"empty_slots\":105,\"collision_slots\":0,\"lost_replies\":28,\"downlink_losses\":51,\"corrupted_replies\":41,\"desync_recoveries\":40,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":11574821.600000007}}", 0x1e565a4d00086b99),
];

#[test]
fn clean_runs_are_bit_identical_to_pre_change_capture() {
    let scenario = Scenario::uniform(150, 4).with_seed(31);
    for (protocol, &(name, golden_json, golden_trace)) in all_protocols().iter().zip(CLEAN_GOLDEN) {
        assert_eq!(protocol.name(), name, "protocol order drifted");
        let cfg = SimConfig::paper(scenario.protocol_seed());
        check(
            protocol.as_ref(),
            cfg,
            &scenario,
            (golden_json, golden_trace),
        );
    }
}

#[test]
fn impaired_runs_are_bit_identical_to_pre_change_capture() {
    let scenario = Scenario::uniform(150, 4).with_seed(99);
    let protocols: Vec<Box<dyn PollingProtocol>> = vec![
        Box::new(HppConfig::default().into_protocol()),
        Box::new(EhppConfig::default().into_protocol()),
        Box::new(TppConfig::default().into_protocol()),
        Box::new(MicConfig::default().into_protocol()),
    ];
    for (protocol, &(name, golden_json, golden_trace)) in protocols.iter().zip(IMPAIRED_GOLDEN) {
        assert_eq!(protocol.name(), name, "protocol order drifted");
        let fault = FaultModel::perfect()
            .with_downlink_loss(0.2)
            .with_corruption(0.2)
            .with_burst(GilbertElliott::new(0.1, 0.5, 0.0, 0.8));
        let cfg = SimConfig::paper(scenario.protocol_seed()).with_fault(fault);
        check(
            protocol.as_ref(),
            cfg,
            &scenario,
            (golden_json, golden_trace),
        );
    }
}
