//! Golden regression test for the hot-path rework: every protocol's
//! `Report` JSON and full event trace must be **bit-identical** to the
//! pinned capture.
//!
//! The optimization's contract is "same numbers, faster": the counting-sort
//! bucket layouts, arena-backed scratch buffers, and scan-free replier
//! resolution must not perturb a single RNG draw, slot outcome, time
//! accumulation, or trace event. Any drift here means a change moved
//! observable behaviour, not just its cost.
//!
//! The literals were captured before the rework, and re-pinned once when
//! the clock became whole nanoseconds (DESIGN.md §12). That re-pin's
//! oracle stays here: every number of the `f64`-clock capture
//! (`PRE_EXACT_CLOCK`) is within 1e-9 relative of its re-pinned value, and
//! each trace with its timestamps stripped keeps the digest pinned before
//! the re-pin. BinSplit's two trace digests were re-pinned once more when
//! its slots began charging the ID burst in one `TagReply`; its report is
//! unchanged (DESIGN.md §12). The clean Q-algo row was re-pinned once
//! when its frames began to draw slot counters lazily, a slot at a time:
//! the same distribution from a different RNG order (DESIGN.md §12, "The
//! lazy-frame re-pin"). Its earlier row stays as
//! `Q_ALGO_BEFORE_LAZY_FRAMES`, and the exact-clock oracle compares
//! against it.
//!
//! Every case also runs untraced and must produce the same report: the
//! counters are written by the same call that records the trace, and
//! switching the trace off must not change them. The traced run's events
//! must fold back into its counters (DESIGN.md §9).

mod support;

use fast_rfid_polling::daemon::all_protocols;
use fast_rfid_polling::prelude::*;
use fast_rfid_polling::system::json::ToJson;
use fast_rfid_polling::system::{Channel, KillRule, RoundRange, SimConfig, SimContext};

/// One pinned case: protocol name, report JSON, FNV-1a of the JSONL trace,
/// and FNV-1a of the trace with its timestamps stripped.
type Golden = (&'static str, &'static str, u64, u64);

/// Runs `protocol` under `cfg` traced and untraced, checks both reports
/// against the golden report JSON and the traced run's trace digests
/// against the golden ones.
fn check(protocol: &dyn PollingProtocol, cfg: SimConfig, scenario: &Scenario, golden: &Golden) {
    let name = protocol.name();
    let &(_, golden_json, golden_trace, golden_untimed) = golden;
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
            "{name} (traced: {traced}): report drifted from the capture"
        );
        if traced {
            support::assert_trace_folds_into(name, &ctx.log, &ctx.counters);
            assert_eq!(
                support::untimed_digest(&ctx.log),
                golden_untimed,
                "{name}: event sequence drifted from the capture"
            );
            assert_eq!(
                ctx.log.digest(),
                golden_trace,
                "{name}: event trace drifted from the capture"
            );
        } else {
            assert!(ctx.log.is_empty(), "{name}: untraced run recorded events");
        }
    }
}

/// The golden cases on the fault-free `uniform(150, 4)` scenario at
/// seed 31.
const CLEAN_GOLDEN: &[Golden] = &[
    ("CPP", "{\"protocol\":\"CPP\",\"tags\":150,\"total_time\":576780,\"breakdown\":{\"ReaderCommand\":0,\"PollingVector\":539280,\"IndicatorVector\":0,\"Turnaround\":22500,\"TagReply\":15000,\"WastedSlot\":0},\"counters\":{\"reader_bits\":14400,\"tag_bits\":600,\"vector_bits\":14400,\"query_rep_bits\":0,\"polls\":150,\"rounds\":0,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":43546890.00000001}}", 0x1492fd2251c8c7b7, 0x535960a19e9dfad9),
    ("eCPP", "{\"protocol\":\"eCPP\",\"tags\":150,\"total_time\":576780,\"breakdown\":{\"ReaderCommand\":0,\"PollingVector\":539280,\"IndicatorVector\":0,\"Turnaround\":22500,\"TagReply\":15000,\"WastedSlot\":0},\"counters\":{\"reader_bits\":14400,\"tag_bits\":600,\"vector_bits\":14400,\"query_rep_bits\":0,\"polls\":150,\"rounds\":0,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":43546890.00000001}}", 0x53b9a55848ad304f, 0xe2efae02809b8599),
    ("CP", "{\"protocol\":\"CP\",\"tags\":150,\"total_time\":307140,\"breakdown\":{\"ReaderCommand\":0,\"PollingVector\":269640,\"IndicatorVector\":0,\"Turnaround\":22500,\"TagReply\":15000,\"WastedSlot\":0},\"counters\":{\"reader_bits\":7200,\"tag_bits\":600,\"vector_bits\":7200,\"query_rep_bits\":0,\"polls\":150,\"rounds\":0,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":23189070}}", 0x88f47e79ec7c56c7, 0xaf2b9ce43c0b918d),
    ("HPP", "{\"protocol\":\"HPP\",\"tags\":150,\"total_time\":105808.8,\"breakdown\":{\"ReaderCommand\":28462,\"PollingVector\":39846.8,\"IndicatorVector\":0,\"Turnaround\":22500,\"TagReply\":15000,\"WastedSlot\":0},\"counters\":{\"reader_bits\":1824,\"tag_bits\":600,\"vector_bits\":1064,\"query_rep_bits\":600,\"polls\":150,\"rounds\":5,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":8131773.200000001}}", 0x2a2fae0b396f5c6b, 0x7d7a70d6edfec8ac),
    ("EHPP", "{\"protocol\":\"EHPP\",\"tags\":150,\"total_time\":105808.8,\"breakdown\":{\"ReaderCommand\":28462,\"PollingVector\":39846.8,\"IndicatorVector\":0,\"Turnaround\":22500,\"TagReply\":15000,\"WastedSlot\":0},\"counters\":{\"reader_bits\":1824,\"tag_bits\":600,\"vector_bits\":1064,\"query_rep_bits\":600,\"polls\":150,\"rounds\":5,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":8131773.200000001}}", 0x2a2fae0b396f5c6b, 0x7d7a70d6edfec8ac),
    ("TPP", "{\"protocol\":\"TPP\",\"tags\":150,\"total_time\":87046.35,\"breakdown\":{\"ReaderCommand\":33255.6,\"PollingVector\":16290.75,\"IndicatorVector\":0,\"Turnaround\":22500,\"TagReply\":15000,\"WastedSlot\":0},\"counters\":{\"reader_bits\":1323,\"tag_bits\":600,\"vector_bits\":435,\"query_rep_bits\":600,\"polls\":150,\"rounds\":9,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":6252944.149999998}}", 0x19251e59a11056fd, 0xe49da88965ee3a90),
    ("MIC", "{\"protocol\":\"MIC\",\"tags\":150,\"total_time\":94245.75,\"breakdown\":{\"ReaderCommand\":30109.8,\"PollingVector\":0,\"IndicatorVector\":19885.95,\"Turnaround\":25200,\"TagReply\":15000,\"WastedSlot\":4050},\"counters\":{\"reader_bits\":1335,\"tag_bits\":600,\"vector_bits\":0,\"query_rep_bits\":708,\"polls\":150,\"rounds\":3,\"circles\":0,\"empty_slots\":27,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":8354482.150000001}}", 0x93165448edf89853, 0x012f709d30c24b0f),
    ("FSA", "{\"protocol\":\"FSA\",\"tags\":150,\"total_time\":158712.6,\"breakdown\":{\"ReaderCommand\":65462.6,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":49400,\"TagReply\":15000,\"WastedSlot\":28850},\"counters\":{\"reader_bits\":1748,\"tag_bits\":600,\"vector_bits\":0,\"query_rep_bits\":1492,\"polls\":150,\"rounds\":8,\"circles\":0,\"empty_slots\":131,\"collision_slots\":92,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":12129159.199999994}}", 0xb3e476b1f4cbe714, 0xa2713fce23adc8ee),
    ("LowerBound", "{\"protocol\":\"LowerBound\",\"tags\":150,\"total_time\":59970,\"breakdown\":{\"ReaderCommand\":22470,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":22500,\"TagReply\":15000,\"WastedSlot\":0},\"counters\":{\"reader_bits\":600,\"tag_bits\":600,\"vector_bits\":0,\"query_rep_bits\":600,\"polls\":150,\"rounds\":0,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":4527735}}", 0xe06953b94bf0ca63, 0xc3cfba50a138d967),
    ("QueryTree", "{\"protocol\":\"QueryTree\",\"tags\":150,\"total_time\":1230589.6,\"breakdown\":{\"ReaderCommand\":66511.2,\"PollingVector\":128528.4,\"IndicatorVector\":0,\"Turnaround\":62950,\"TagReply\":387500,\"WastedSlot\":585100},\"counters\":{\"reader_bits\":5208,\"tag_bits\":15500,\"vector_bits\":1300,\"query_rep_bits\":1776,\"polls\":150,\"rounds\":0,\"circles\":0,\"empty_slots\":73,\"collision_slots\":221,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":95546498.94999988}}", 0xe8ead455d72bbde8, 0x57243838edf74701),
    ("BinSplit", "{\"protocol\":\"BinSplit\",\"tags\":150,\"total_time\":1198508.4,\"breakdown\":{\"ReaderCommand\":68608.4,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":64750,\"TagReply\":420000,\"WastedSlot\":645150},\"counters\":{\"reader_bits\":1832,\"tag_bits\":16800,\"vector_bits\":0,\"query_rep_bits\":1832,\"polls\":150,\"rounds\":0,\"circles\":0,\"empty_slots\":79,\"collision_slots\":229,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":92053187.60000011}}", 0xe4083352e1e2b570, 0x7a4ce21cb231613a),
    ("Q-algo", "{\"protocol\":\"Q-algo\",\"tags\":150,\"total_time\":1012403.45,\"breakdown\":{\"ReaderCommand\":325103.45,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":82000,\"TagReply\":540000,\"WastedSlot\":65300},\"counters\":{\"reader_bits\":8681,\"tag_bits\":21600,\"vector_bits\":0,\"query_rep_bits\":1792,\"polls\":150,\"rounds\":136,\"circles\":0,\"empty_slots\":154,\"collision_slots\":144,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":78681385.55000004}}", 0x27e71e57d90fcb52, 0x2348beef29b88819),
];

/// The clean Q-algo row as captured before the lazy-frame re-pin (DESIGN.md
/// §12): frames drew every active tag's counter at their start. The
/// exact-clock oracle still holds this row to its f64-clock capture.
const Q_ALGO_BEFORE_LAZY_FRAMES: Golden = ("Q-algo", "{\"protocol\":\"Q-algo\",\"tags\":150,\"total_time\":992667.3,\"breakdown\":{\"ReaderCommand\":305367.3,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":82000,\"TagReply\":540000,\"WastedSlot\":65300},\"counters\":{\"reader_bits\":8154,\"tag_bits\":21600,\"vector_bits\":0,\"query_rep_bits\":1792,\"polls\":150,\"rounds\":119,\"circles\":0,\"empty_slots\":154,\"collision_slots\":144,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":75774107.24999999}}", 0x576e940145cc02c2, 0x7e54c16366e722a9);

/// Same capture under an impaired channel (seed 99, 20 % downlink loss,
/// 20 % corruption, Gilbert–Elliott uplink bursts) for the four paper
/// protocols — faults exercise the loss/desync/retransmission paths whose
/// RNG draws the rework must also leave untouched.
const IMPAIRED_GOLDEN: &[Golden] = &[
    ("HPP", "{\"protocol\":\"HPP\",\"tags\":150,\"total_time\":218275.5,\"breakdown\":{\"ReaderCommand\":78495.2,\"PollingVector\":70930.3,\"IndicatorVector\":0,\"Turnaround\":42750,\"TagReply\":18900,\"WastedSlot\":7200},\"counters\":{\"reader_bits\":3990,\"tag_bits\":756,\"vector_bits\":1894,\"query_rep_bits\":1176,\"polls\":150,\"rounds\":19,\"circles\":0,\"empty_slots\":144,\"collision_slots\":0,\"lost_replies\":41,\"downlink_losses\":173,\"corrupted_replies\":39,\"desync_recoveries\":100,\"retransmissions\":39,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":16132238.549999995}}", 0xf4bf46ad84410ba5, 0x824b78900381e5e1),
    ("EHPP", "{\"protocol\":\"EHPP\",\"tags\":150,\"total_time\":218275.5,\"breakdown\":{\"ReaderCommand\":78495.2,\"PollingVector\":70930.3,\"IndicatorVector\":0,\"Turnaround\":42750,\"TagReply\":18900,\"WastedSlot\":7200},\"counters\":{\"reader_bits\":3990,\"tag_bits\":756,\"vector_bits\":1894,\"query_rep_bits\":1176,\"polls\":150,\"rounds\":19,\"circles\":0,\"empty_slots\":144,\"collision_slots\":0,\"lost_replies\":41,\"downlink_losses\":173,\"corrupted_replies\":39,\"desync_recoveries\":100,\"retransmissions\":39,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":16132238.549999995}}", 0xf4bf46ad84410ba5, 0x824b78900381e5e1),
    ("TPP", "{\"protocol\":\"TPP\",\"tags\":150,\"total_time\":176918.75,\"breakdown\":{\"ReaderCommand\":75649,\"PollingVector\":32019.75,\"IndicatorVector\":0,\"Turnaround\":42900,\"TagReply\":19600,\"WastedSlot\":6750},\"counters\":{\"reader_bits\":2875,\"tag_bits\":784,\"vector_bits\":855,\"query_rep_bits\":1140,\"polls\":150,\"rounds\":16,\"circles\":0,\"empty_slots\":135,\"collision_slots\":0,\"lost_replies\":39,\"downlink_losses\":200,\"corrupted_replies\":46,\"desync_recoveries\":129,\"retransmissions\":46,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":13643192.750000007}}", 0x09fa73fd6b480145, 0xaa2e6d636c96b54a),
    ("MIC", "{\"protocol\":\"MIC\",\"tags\":150,\"total_time\":158677.2,\"breakdown\":{\"ReaderCommand\":58721.6,\"PollingVector\":0,\"IndicatorVector\":33255.6,\"Turnaround\":39150,\"TagReply\":15000,\"WastedSlot\":12550},\"counters\":{\"reader_bits\":2456,\"tag_bits\":600,\"vector_bits\":0,\"query_rep_bits\":1184,\"polls\":150,\"rounds\":12,\"circles\":0,\"empty_slots\":105,\"collision_slots\":0,\"lost_replies\":28,\"downlink_losses\":51,\"corrupted_replies\":41,\"desync_recoveries\":40,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":11574821.600000007}}", 0x781bcbdb43649ce8, 0x1da00383d0ad2444),
];

/// The poll path under the faults [`IMPAIRED_GOLDEN`] leaves out (seed 57):
/// a jammed downlink in round 2 and a jammed uplink in round 4 of a
/// scripted plan, over `Channel::lossy(0.1)`. CPP starts no rounds, so
/// only the loss reaches it.
const JAMMED_LOSSY_GOLDEN: &[Golden] = &[
    ("HPP", "{\"protocol\":\"HPP\",\"tags\":150,\"total_time\":154359.8,\"breakdown\":{\"ReaderCommand\":46288.2,\"PollingVector\":58721.6,\"IndicatorVector\":0,\"Turnaround\":30400,\"TagReply\":15000,\"WastedSlot\":3950},\"counters\":{\"reader_bits\":2804,\"tag_bits\":600,\"vector_bits\":1568,\"query_rep_bits\":916,\"polls\":150,\"rounds\":10,\"circles\":0,\"empty_slots\":79,\"collision_slots\":0,\"lost_replies\":39,\"downlink_losses\":75,\"corrupted_replies\":0,\"desync_recoveries\":75,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":11165434.299999999}}", 0x5733297226cf929e, 0xa472dee9fc8b9baf),
    ("EHPP", "{\"protocol\":\"EHPP\",\"tags\":150,\"total_time\":154359.8,\"breakdown\":{\"ReaderCommand\":46288.2,\"PollingVector\":58721.6,\"IndicatorVector\":0,\"Turnaround\":30400,\"TagReply\":15000,\"WastedSlot\":3950},\"counters\":{\"reader_bits\":2804,\"tag_bits\":600,\"vector_bits\":1568,\"query_rep_bits\":916,\"polls\":150,\"rounds\":10,\"circles\":0,\"empty_slots\":79,\"collision_slots\":0,\"lost_replies\":39,\"downlink_losses\":75,\"corrupted_replies\":0,\"desync_recoveries\":75,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":11165434.299999999}}", 0x5733297226cf929e, 0xa472dee9fc8b9baf),
    ("TPP", "{\"protocol\":\"TPP\",\"tags\":150,\"total_time\":123351.4,\"breakdown\":{\"ReaderCommand\":47636.4,\"PollingVector\":26215,\"IndicatorVector\":0,\"Turnaround\":30500,\"TagReply\":15000,\"WastedSlot\":4000},\"counters\":{\"reader_bits\":1972,\"tag_bits\":600,\"vector_bits\":700,\"query_rep_bits\":920,\"polls\":150,\"rounds\":11,\"circles\":0,\"empty_slots\":80,\"collision_slots\":0,\"lost_replies\":34,\"downlink_losses\":115,\"corrupted_replies\":0,\"desync_recoveries\":115,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":9902124.550000008}}", 0x8cf3baaec08f1f7a, 0xb622828721d048c3),
    ("CPP", "{\"protocol\":\"CPP\",\"tags\":150,\"total_time\":629212.8,\"breakdown\":{\"ReaderCommand\":0,\"PollingVector\":589612.8,\"IndicatorVector\":0,\"Turnaround\":23900,\"TagReply\":15000,\"WastedSlot\":700},\"counters\":{\"reader_bits\":15744,\"tag_bits\":600,\"vector_bits\":15744,\"query_rep_bits\":0,\"polls\":150,\"rounds\":0,\"circles\":0,\"empty_slots\":14,\"collision_slots\":0,\"lost_replies\":14,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":47434407.599999994}}", 0x1ad039fb6bc78d03, 0x6a967b29c6710b45),
];

/// EHPP on `uniform(2000, 4)` at seed 43, large enough that circles open
/// (n* = 221), so circle selection, deselection and reselection run:
/// clean, then under 20 % downlink loss over `Channel::lossy(0.1)`, where
/// each circle command's delivery draws walk the pre-selection active set.
const EHPP_CIRCLES_GOLDEN: &[Golden] = &[
    ("EHPP", "{\"protocol\":\"EHPP\",\"tags\":2000,\"total_time\":1461828.35,\"breakdown\":{\"ReaderCommand\":421836.8,\"PollingVector\":539991.55,\"IndicatorVector\":0,\"Turnaround\":300000,\"TagReply\":200000,\"WastedSlot\":0},\"counters\":{\"reader_bits\":25683,\"tag_bits\":8000,\"vector_bits\":14419,\"query_rep_bits\":8000,\"polls\":2000,\"rounds\":70,\"circles\":8,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":1467678061.25}}", 0xc763bac803db7739, 0x63f1e62c5196bd4c),
    ("EHPP", "{\"protocol\":\"EHPP\",\"tags\":2000,\"total_time\":2370621.9,\"breakdown\":{\"ReaderCommand\":734319.6,\"PollingVector\":915802.3,\"IndicatorVector\":0,\"Turnaround\":447000,\"TagReply\":200000,\"WastedSlot\":73500},\"counters\":{\"reader_bits\":44062,\"tag_bits\":8000,\"vector_bits\":24454,\"query_rep_bits\":13880,\"polls\":2000,\"rounds\":147,\"circles\":8,\"empty_slots\":1470,\"collision_slots\":0,\"lost_replies\":244,\"downlink_losses\":3962,\"corrupted_replies\":0,\"desync_recoveries\":2701,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":2352328229.65}}", 0xf04fac36a4495dd7, 0x8689fc6198c5e11d),
];

/// A bare TPP session (no recovery policy) at seed 61 whose tag 17 is dead
/// from the start and whose tag 40 dies after one reply, under 30 %
/// corruption: the partial report of its `Stalled` end and both digests
/// of its trace.
const KILLED_STALL_GOLDEN: Golden = ("TPP", "{\"protocol\":\"TPP\",\"tags\":150,\"total_time\":523400.9,\"breakdown\":{\"ReaderCommand\":402812.2,\"PollingVector\":27188.7,\"IndicatorVector\":0,\"Turnaround\":58650,\"TagReply\":21700,\"WastedSlot\":13050},\"counters\":{\"reader_bits\":11482,\"tag_bits\":868,\"vector_bits\":726,\"query_rep_bits\":1644,\"polls\":148,\"rounds\":268,\"circles\":0,\"empty_slots\":261,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":69,\"desync_recoveries\":0,\"retransmissions\":67,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":10291133.050000174}}", 0x8afec0ca14c7c827, 0x088d7fc6118988d9);

/// The same cases captured under the `f64`-microsecond clock, before the
/// exact-clock re-pin (DESIGN.md §12), clean rows then impaired rows.
const PRE_EXACT_CLOCK: &[&str] = &[
    "{\"protocol\":\"CPP\",\"tags\":150,\"total_time\":576780.0000000005,\"breakdown\":{\"ReaderCommand\":0,\"PollingVector\":539280.0000000009,\"IndicatorVector\":0,\"Turnaround\":22500,\"TagReply\":15000,\"WastedSlot\":0},\"counters\":{\"reader_bits\":14400,\"tag_bits\":600,\"vector_bits\":14400,\"query_rep_bits\":0,\"polls\":150,\"rounds\":0,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":43546890.00000001}}",
    "{\"protocol\":\"eCPP\",\"tags\":150,\"total_time\":576780.0000000005,\"breakdown\":{\"ReaderCommand\":0,\"PollingVector\":539280.0000000009,\"IndicatorVector\":0,\"Turnaround\":22500,\"TagReply\":15000,\"WastedSlot\":0},\"counters\":{\"reader_bits\":14400,\"tag_bits\":600,\"vector_bits\":14400,\"query_rep_bits\":0,\"polls\":150,\"rounds\":0,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":43546890.00000001}}",
    "{\"protocol\":\"CP\",\"tags\":150,\"total_time\":307140,\"breakdown\":{\"ReaderCommand\":0,\"PollingVector\":269640.00000000047,\"IndicatorVector\":0,\"Turnaround\":22500,\"TagReply\":15000,\"WastedSlot\":0},\"counters\":{\"reader_bits\":7200,\"tag_bits\":600,\"vector_bits\":7200,\"query_rep_bits\":0,\"polls\":150,\"rounds\":0,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":23189070}}",
    "{\"protocol\":\"HPP\",\"tags\":150,\"total_time\":105808.80000000005,\"breakdown\":{\"ReaderCommand\":28461.999999999938,\"PollingVector\":39846.800000000054,\"IndicatorVector\":0,\"Turnaround\":22500,\"TagReply\":15000,\"WastedSlot\":0},\"counters\":{\"reader_bits\":1824,\"tag_bits\":600,\"vector_bits\":1064,\"query_rep_bits\":600,\"polls\":150,\"rounds\":5,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":8131773.200000001}}",
    "{\"protocol\":\"EHPP\",\"tags\":150,\"total_time\":105808.80000000005,\"breakdown\":{\"ReaderCommand\":28461.999999999938,\"PollingVector\":39846.800000000054,\"IndicatorVector\":0,\"Turnaround\":22500,\"TagReply\":15000,\"WastedSlot\":0},\"counters\":{\"reader_bits\":1824,\"tag_bits\":600,\"vector_bits\":1064,\"query_rep_bits\":600,\"polls\":150,\"rounds\":5,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":8131773.200000001}}",
    "{\"protocol\":\"TPP\",\"tags\":150,\"total_time\":87046.35000000015,\"breakdown\":{\"ReaderCommand\":33255.59999999995,\"PollingVector\":16290.750000000005,\"IndicatorVector\":0,\"Turnaround\":22500,\"TagReply\":15000,\"WastedSlot\":0},\"counters\":{\"reader_bits\":1323,\"tag_bits\":600,\"vector_bits\":435,\"query_rep_bits\":600,\"polls\":150,\"rounds\":9,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":6252944.149999998}}",
    "{\"protocol\":\"MIC\",\"tags\":150,\"total_time\":94245.75000000038,\"breakdown\":{\"ReaderCommand\":30109.799999999916,\"PollingVector\":0,\"IndicatorVector\":19885.949999999997,\"Turnaround\":25200,\"TagReply\":15000,\"WastedSlot\":4050},\"counters\":{\"reader_bits\":1335,\"tag_bits\":600,\"vector_bits\":0,\"query_rep_bits\":708,\"polls\":150,\"rounds\":3,\"circles\":0,\"empty_slots\":27,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":8354482.150000001}}",
    "{\"protocol\":\"FSA\",\"tags\":150,\"total_time\":158712.59999999995,\"breakdown\":{\"ReaderCommand\":65462.6000000004,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":49400,\"TagReply\":15000,\"WastedSlot\":28850},\"counters\":{\"reader_bits\":1748,\"tag_bits\":600,\"vector_bits\":0,\"query_rep_bits\":1492,\"polls\":150,\"rounds\":8,\"circles\":0,\"empty_slots\":131,\"collision_slots\":92,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":12129159.199999994}}",
    "{\"protocol\":\"LowerBound\",\"tags\":150,\"total_time\":59970.00000000016,\"breakdown\":{\"ReaderCommand\":22469.999999999938,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":22500,\"TagReply\":15000,\"WastedSlot\":0},\"counters\":{\"reader_bits\":600,\"tag_bits\":600,\"vector_bits\":0,\"query_rep_bits\":600,\"polls\":150,\"rounds\":0,\"circles\":0,\"empty_slots\":0,\"collision_slots\":0,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":4527735}}",
    "{\"protocol\":\"QueryTree\",\"tags\":150,\"total_time\":1230589.6000000103,\"breakdown\":{\"ReaderCommand\":66511.20000000054,\"PollingVector\":128528.4,\"IndicatorVector\":0,\"Turnaround\":62950,\"TagReply\":387500,\"WastedSlot\":585100},\"counters\":{\"reader_bits\":5208,\"tag_bits\":15500,\"vector_bits\":1300,\"query_rep_bits\":1776,\"polls\":150,\"rounds\":0,\"circles\":0,\"empty_slots\":73,\"collision_slots\":221,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":95546498.94999988}}",
    "{\"protocol\":\"BinSplit\",\"tags\":150,\"total_time\":1198508.4000000104,\"breakdown\":{\"ReaderCommand\":68608.40000000058,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":64750,\"TagReply\":420000,\"WastedSlot\":645150},\"counters\":{\"reader_bits\":1832,\"tag_bits\":16800,\"vector_bits\":0,\"query_rep_bits\":1832,\"polls\":150,\"rounds\":0,\"circles\":0,\"empty_slots\":79,\"collision_slots\":229,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":92053187.60000011}}",
    "{\"protocol\":\"Q-algo\",\"tags\":150,\"total_time\":992667.3000000094,\"breakdown\":{\"ReaderCommand\":305367.29999999696,\"PollingVector\":0,\"IndicatorVector\":0,\"Turnaround\":82000,\"TagReply\":540000,\"WastedSlot\":65300},\"counters\":{\"reader_bits\":8154,\"tag_bits\":21600,\"vector_bits\":0,\"query_rep_bits\":1792,\"polls\":150,\"rounds\":119,\"circles\":0,\"empty_slots\":154,\"collision_slots\":144,\"lost_replies\":0,\"downlink_losses\":0,\"corrupted_replies\":0,\"desync_recoveries\":0,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":75774107.24999999}}",
    "{\"protocol\":\"HPP\",\"tags\":150,\"total_time\":218275.49999999907,\"breakdown\":{\"ReaderCommand\":78495.20000000035,\"PollingVector\":70930.29999999996,\"IndicatorVector\":0,\"Turnaround\":42750,\"TagReply\":18900,\"WastedSlot\":7200},\"counters\":{\"reader_bits\":3990,\"tag_bits\":756,\"vector_bits\":1894,\"query_rep_bits\":1176,\"polls\":150,\"rounds\":19,\"circles\":0,\"empty_slots\":144,\"collision_slots\":0,\"lost_replies\":41,\"downlink_losses\":173,\"corrupted_replies\":39,\"desync_recoveries\":100,\"retransmissions\":39,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":16132238.549999997}}",
    "{\"protocol\":\"EHPP\",\"tags\":150,\"total_time\":218275.49999999907,\"breakdown\":{\"ReaderCommand\":78495.20000000035,\"PollingVector\":70930.29999999996,\"IndicatorVector\":0,\"Turnaround\":42750,\"TagReply\":18900,\"WastedSlot\":7200},\"counters\":{\"reader_bits\":3990,\"tag_bits\":756,\"vector_bits\":1894,\"query_rep_bits\":1176,\"polls\":150,\"rounds\":19,\"circles\":0,\"empty_slots\":144,\"collision_slots\":0,\"lost_replies\":41,\"downlink_losses\":173,\"corrupted_replies\":39,\"desync_recoveries\":100,\"retransmissions\":39,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":16132238.549999997}}",
    "{\"protocol\":\"TPP\",\"tags\":150,\"total_time\":176918.74999999974,\"breakdown\":{\"ReaderCommand\":75649.0000000003,\"PollingVector\":32019.750000000007,\"IndicatorVector\":0,\"Turnaround\":42900,\"TagReply\":19600,\"WastedSlot\":6750},\"counters\":{\"reader_bits\":2875,\"tag_bits\":784,\"vector_bits\":855,\"query_rep_bits\":1140,\"polls\":150,\"rounds\":16,\"circles\":0,\"empty_slots\":135,\"collision_slots\":0,\"lost_replies\":39,\"downlink_losses\":200,\"corrupted_replies\":46,\"desync_recoveries\":129,\"retransmissions\":46,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":13643192.750000007}}",
    "{\"protocol\":\"MIC\",\"tags\":150,\"total_time\":158677.2000000001,\"breakdown\":{\"ReaderCommand\":58721.60000000018,\"PollingVector\":0,\"IndicatorVector\":33255.6,\"Turnaround\":39150,\"TagReply\":15000,\"WastedSlot\":12550},\"counters\":{\"reader_bits\":2456,\"tag_bits\":600,\"vector_bits\":0,\"query_rep_bits\":1184,\"polls\":150,\"rounds\":12,\"circles\":0,\"empty_slots\":105,\"collision_slots\":0,\"lost_replies\":28,\"downlink_losses\":51,\"corrupted_replies\":41,\"desync_recoveries\":40,\"retransmissions\":0,\"recovery_passes\":0,\"recovery_backoff_us\":0,\"tag_listen_us\":11574821.600000007}}",
];

#[test]
fn clean_runs_are_bit_identical_to_pre_change_capture() {
    let scenario = Scenario::uniform(150, 4).with_seed(31);
    for (protocol, golden) in all_protocols().iter().zip(CLEAN_GOLDEN) {
        assert_eq!(protocol.name(), golden.0, "protocol order drifted");
        let cfg = SimConfig::paper(scenario.protocol_seed());
        check(protocol.as_ref(), cfg, &scenario, golden);
    }
}

#[test]
fn impaired_runs_are_bit_identical_to_pre_change_capture() {
    let scenario = Scenario::uniform(150, 4).with_seed(99);
    let protocols: Vec<Box<dyn PollingProtocol>> = vec![
        Box::new(HppConfig::default()),
        Box::new(EhppConfig::default()),
        Box::new(TppConfig::default()),
        Box::new(MicConfig::default()),
    ];
    for (protocol, golden) in protocols.iter().zip(IMPAIRED_GOLDEN) {
        assert_eq!(protocol.name(), golden.0, "protocol order drifted");
        let fault = FaultModel::perfect()
            .with_downlink_loss(0.2)
            .with_corruption(0.2)
            .with_burst(GilbertElliott::new(0.1, 0.5, 0.0, 0.8));
        let cfg = SimConfig::paper(scenario.protocol_seed()).with_fault(fault);
        check(protocol.as_ref(), cfg, &scenario, golden);
    }
}

#[test]
fn exact_clock_repin_moved_no_number_beyond_rounding() {
    // The exact-clock re-pin is judged on the Q-algo row it produced,
    // not on the lazy-frame re-pin that followed.
    let repinned = CLEAN_GOLDEN
        .iter()
        .chain(IMPAIRED_GOLDEN)
        .map(|golden| match golden.0 {
            "Q-algo" => &Q_ALGO_BEFORE_LAZY_FRAMES,
            _ => golden,
        });
    assert_eq!(PRE_EXACT_CLOCK.len(), repinned.clone().count());
    for (old, &(name, new, ..)) in PRE_EXACT_CLOCK.iter().zip(repinned) {
        support::assert_numbers_within(name, old, new, 1e-9);
    }
}

#[test]
fn jammed_lossy_polls_are_bit_identical_to_pre_change_capture() {
    let scenario = Scenario::uniform(150, 4).with_seed(57);
    let protocols: Vec<Box<dyn PollingProtocol>> = vec![
        Box::new(HppConfig::default()),
        Box::new(EhppConfig::default()),
        Box::new(TppConfig::default()),
        Box::new(CppConfig::default()),
    ];
    let plan = FaultPlan {
        drop_downlink_rounds: vec![RoundRange { from: 2, to: 2 }],
        drop_uplink_rounds: vec![RoundRange { from: 4, to: 4 }],
        ..FaultPlan::none()
    };
    for (protocol, golden) in protocols.iter().zip(JAMMED_LOSSY_GOLDEN) {
        assert_eq!(protocol.name(), golden.0, "protocol order drifted");
        let cfg = SimConfig::paper(scenario.protocol_seed())
            .with_channel(Channel::lossy(0.1))
            .with_fault(FaultModel::perfect().with_plan(plan.clone()));
        check(protocol.as_ref(), cfg, &scenario, golden);
    }
}

#[test]
fn killed_tags_stall_a_bare_session_bit_identically() {
    let scenario = Scenario::uniform(150, 4).with_seed(61);
    let plan = FaultPlan {
        kill_after_replies: vec![
            KillRule {
                tag: 17,
                after_replies: 0,
            },
            KillRule {
                tag: 40,
                after_replies: 1,
            },
        ],
        ..FaultPlan::none()
    };
    let fault = FaultModel::perfect().with_corruption(0.3).with_plan(plan);
    let cfg = SimConfig::paper(scenario.protocol_seed())
        .with_fault(fault)
        .with_trace();
    let mut ctx = SimContext::new(scenario.build_population(), &cfg);
    let protocol = TppConfig::default();
    let end = Session::open(&protocol, &ctx).run(&mut ctx);
    assert!(
        matches!(end, SessionEnd::Stalled(_)),
        "a dead tag let the session end {end:?}"
    );
    let (name, golden_json, golden_trace, golden_untimed) = KILLED_STALL_GOLDEN;
    assert_eq!(protocol.name(), name);
    assert_eq!(
        end.report().to_json().to_string(),
        golden_json,
        "partial report drifted from the capture"
    );
    support::assert_trace_folds_into(name, &ctx.log, &ctx.counters);
    assert_eq!(
        support::untimed_digest(&ctx.log),
        golden_untimed,
        "event sequence drifted from the capture"
    );
    assert_eq!(
        ctx.log.digest(),
        golden_trace,
        "event trace drifted from the capture"
    );
}

#[test]
fn ehpp_circles_are_bit_identical_to_pre_change_capture() {
    let scenario = Scenario::uniform(2_000, 4).with_seed(43);
    let clean = SimConfig::paper(scenario.protocol_seed());
    let lossy = clean
        .clone()
        .with_channel(Channel::lossy(0.1))
        .with_fault(FaultModel::perfect().with_downlink_loss(0.2));
    for (cfg, golden) in [clean, lossy].into_iter().zip(EHPP_CIRCLES_GOLDEN) {
        assert!(
            !golden.1.contains("\"circles\":0,"),
            "the EHPP capture opened no circle"
        );
        check(&EhppConfig::default(), cfg, &scenario, golden);
    }
}
