//! Crash-chaos bit-identity gate for the resumable session engine.
//!
//! For every protocol (clean channel) and the four paper protocols
//! (impaired channel), runs the scenario twice: once uninterrupted, and
//! once **killed at a seeded slot boundary** — the session is serialized
//! to a JSON snapshot, the process image is discarded (session + context
//! dropped), and the snapshot is parsed and restored into a fresh context
//! which then runs to completion. The final `Report` JSON and the FNV-1a
//! digest of the full event trace must be bit-identical between the two
//! runs; any drift means checkpoint/restore perturbed an RNG draw, a
//! float accumulation, or a trace event. A recovery case (tiny round
//! budget, unbounded passes) additionally kills the session *between
//! recovery passes* with backoff charged.
//!
//! Gates, per case in `BENCH_session.json`: `identical` (report and trace
//! bit-identical) and `snapshot_bytes ≥ 1` (the kill really snapshotted
//! and restored); the recovery case also gates `passes ≥ 2`.

use rfid_baselines::{CodedPollingConfig, CppConfig, EcppConfig, FsaConfig, LowerBound, MicConfig};
use rfid_bench::{fnv64, Bench, BenchRecord, Gate};
use rfid_hash::Xoshiro256;
use rfid_identify::{BinarySplitConfig, QAlgorithmConfig, QueryTreeConfig};
use rfid_protocols::{
    EhppConfig, HppConfig, PollingProtocol, RecoveryPolicy, Session, SessionEnd, TppConfig,
};
use rfid_system::{FaultModel, GilbertElliott, Json, SimConfig, SimContext, ToJson};
use rfid_workloads::Scenario;

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

fn impaired_fault() -> FaultModel {
    FaultModel::perfect()
        .with_downlink_loss(0.2)
        .with_corruption(0.2)
        .with_burst(GilbertElliott::new(0.1, 0.5, 0.0, 0.8))
}

struct Outcome {
    kill_step: u64,
    snapshot_bytes: usize,
    passes: u64,
    identical: bool,
    detail: String,
}

/// Runs the kill/snapshot/restore/finish cycle and compares against the
/// uninterrupted run. The reference run is driven one step at a time to
/// count the *killable* boundaries, and the seeded kill point is drawn
/// from `[1, boundaries]` — so every case genuinely crashes mid-run and
/// exercises snapshot → parse → restore, never a degenerate full run.
fn chaos_case(
    protocol: &dyn PollingProtocol,
    scenario: &Scenario,
    cfg: &SimConfig,
    policy: Option<&RecoveryPolicy>,
    rng: &mut Xoshiro256,
) -> Outcome {
    // Uninterrupted reference, stepped manually to count kill boundaries.
    let mut ctx = SimContext::new(scenario.build_population(), cfg);
    let mut session = Session::open(protocol, &ctx);
    if let Some(p) = policy {
        session = session.with_policy(p.clone());
    }
    let mut boundaries = 0u64;
    let reference = loop {
        match session.run_for(&mut ctx, 1) {
            Some(end) => break end,
            None => boundaries += 1,
        }
    };
    let SessionEnd::Complete {
        report: ref_report,
        passes: ref_passes,
    } = reference
    else {
        return Outcome {
            kill_step: 0,
            snapshot_bytes: 0,
            passes: 0,
            identical: false,
            detail: format!("reference run did not complete: {reference:?}"),
        };
    };
    let ref_json = ref_report.to_json().to_string();
    let ref_trace = fnv64(&ctx.log.to_jsonl());
    let kill_step = 1 + rng.below(boundaries.max(1));

    // Killed run: crash at the seeded step, survive only as a JSON string.
    let mut ctx = SimContext::new(scenario.build_population(), cfg);
    let mut session = Session::open(protocol, &ctx);
    if let Some(p) = policy {
        session = session.with_policy(p.clone());
    }
    let (snapshot_bytes, end, ctx) = match session.run_for(&mut ctx, kill_step) {
        Some(end) => (0, end, ctx),
        None => {
            let snap = session.snapshot(&ctx, cfg).to_string();
            drop(session);
            drop(ctx);
            let doc = match Json::parse(&snap) {
                Ok(doc) => doc,
                Err(e) => {
                    return Outcome {
                        kill_step,
                        snapshot_bytes: snap.len(),
                        passes: 0,
                        identical: false,
                        detail: format!("snapshot failed to parse: {e}"),
                    }
                }
            };
            match Session::restore(protocol, &doc) {
                Ok((mut ctx, mut session)) => {
                    let end = session.run(&mut ctx);
                    (snap.len(), end, ctx)
                }
                Err(e) => {
                    return Outcome {
                        kill_step,
                        snapshot_bytes: snap.len(),
                        passes: 0,
                        identical: false,
                        detail: format!("snapshot failed to restore: {e}"),
                    }
                }
            }
        }
    };
    let SessionEnd::Complete { report, passes } = end else {
        return Outcome {
            kill_step,
            snapshot_bytes,
            passes: 0,
            identical: false,
            detail: format!("restored run did not complete: {end:?}"),
        };
    };
    let json = report.to_json().to_string();
    let trace = fnv64(&ctx.log.to_jsonl());

    let mut mismatches = Vec::new();
    if json != ref_json {
        mismatches.push("report JSON".to_string());
    }
    if trace != ref_trace {
        mismatches.push(format!("trace digest {trace:#018x} != {ref_trace:#018x}"));
    }
    if passes != ref_passes {
        mismatches.push(format!("passes {passes} != {ref_passes}"));
    }
    Outcome {
        kill_step,
        snapshot_bytes,
        passes,
        identical: mismatches.is_empty(),
        detail: if mismatches.is_empty() {
            "bit-identical".to_string()
        } else {
            mismatches.join("; ")
        },
    }
}

/// Records one case: bit-identity and a real snapshot are gated on every
/// case; `min_passes` gates the multi-pass recovery case.
fn record_case(
    b: &mut Bench,
    protocol: &str,
    channel: &str,
    outcome: Outcome,
    min_passes: Option<f64>,
) {
    let label = format!("{protocol}_{channel}");
    if !outcome.identical {
        eprintln!("session/{label}: {}", outcome.detail);
    }
    let record = |metric, unit, value| {
        BenchRecord::new(&label, metric, unit, value)
            .param("protocol", protocol)
            .param("channel", channel)
    };
    b.record(
        record("identical", "bool", f64::from(u8::from(outcome.identical)))
            .gate(Gate::AtLeast(1.0)),
    );
    // A kill that lands after completion never exercises restore.
    b.record(
        record("snapshot_bytes", "bytes", outcome.snapshot_bytes as f64).gate(Gate::AtLeast(1.0)),
    );
    b.record(record("kill_step", "steps", outcome.kill_step as f64));
    b.record(record("passes", "passes", outcome.passes as f64).gate(min_passes.map(Gate::AtLeast)));
}

fn main() {
    let mut b = Bench::new("session");
    // Seeded kill-point stream: reproducible chaos, different per case.
    let mut chaos_rng = Xoshiro256::seed_from_u64(0x5E55_1017);

    // Clean channel: all 12 protocols at the golden scenario.
    let clean = Scenario::uniform(150, 4).with_seed(31);
    let clean_cfg = SimConfig::paper(clean.protocol_seed()).with_trace();
    for protocol in all_protocols() {
        if !b.wants(&format!("{}_clean", protocol.name())) {
            continue;
        }
        let outcome = chaos_case(protocol.as_ref(), &clean, &clean_cfg, None, &mut chaos_rng);
        record_case(&mut b, protocol.name(), "clean", outcome, None);
    }

    // Impaired channel: the four paper protocols under loss + corruption +
    // Gilbert–Elliott bursts, so fault-model state is live at the kill.
    let impaired = Scenario::uniform(150, 4).with_seed(99);
    let impaired_cfg = SimConfig::paper(impaired.protocol_seed())
        .with_trace()
        .with_fault(impaired_fault());
    let paper: Vec<Box<dyn PollingProtocol>> = vec![
        Box::new(HppConfig::default().into_protocol()),
        Box::new(EhppConfig::default().into_protocol()),
        Box::new(TppConfig::default().into_protocol()),
        Box::new(MicConfig::default().into_protocol()),
    ];
    for protocol in paper {
        if !b.wants(&format!("{}_impaired", protocol.name())) {
            continue;
        }
        let outcome = chaos_case(
            protocol.as_ref(),
            &impaired,
            &impaired_cfg,
            None,
            &mut chaos_rng,
        );
        record_case(&mut b, protocol.name(), "impaired", outcome, None);
    }

    // Recovery case: a 2-round budget forces several passes even on a clean
    // channel; the seeded kill lands inside the multi-pass schedule.
    if b.wants("HPP_recovery") {
        let protocol = HppConfig {
            max_rounds: 2,
            ..HppConfig::default()
        }
        .into_protocol();
        let policy = RecoveryPolicy::unbounded();
        let outcome = chaos_case(&protocol, &clean, &clean_cfg, Some(&policy), &mut chaos_rng);
        record_case(&mut b, "HPP", "recovery", outcome, Some(2.0));
    }

    b.finish();
}
