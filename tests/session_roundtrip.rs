//! Checkpoint/restore gate for the session engine: killing a run at an
//! arbitrary slot boundary, serializing the session to JSON, restoring it
//! into a *fresh* context, and finishing must be **bit-identical** to the
//! uninterrupted run — same `Report` JSON, same FNV-1a trace digest, for
//! every protocol on clean and impaired channels, and across recovery
//! passes (mid-backoff kills included).
//!
//! The suite also fuzzes the restore path: randomly corrupted snapshot
//! bytes must either fail to parse, fail to restore with a typed
//! [`JsonError`], or restore into a session that runs without panicking.

use fast_rfid_polling::daemon::all_protocols;
use fast_rfid_polling::hash::prop;
use fast_rfid_polling::prelude::*;
use fast_rfid_polling::system::json::{Json, ToJson};
use fast_rfid_polling::system::{SimConfig, SimContext};

fn impaired_fault() -> FaultModel {
    FaultModel::perfect()
        .with_downlink_loss(0.2)
        .with_corruption(0.2)
        .with_burst(GilbertElliott::new(0.1, 0.5, 0.0, 0.8))
}

/// Report JSON + trace digest of the uninterrupted run.
fn uninterrupted(
    protocol: &dyn PollingProtocol,
    scenario: &Scenario,
    cfg: &SimConfig,
) -> (String, u64) {
    let mut ctx = SimContext::new(scenario.build_population(), cfg);
    let report = protocol.try_run(&mut ctx).expect("uninterrupted run");
    (report.to_json().to_string(), ctx.log.digest())
}

/// Runs to `kill_steps`, "crashes" (drops the session AND the context so
/// nothing but the snapshot string survives), restores into a fresh image,
/// finishes, and returns the same observables as [`uninterrupted`].
fn killed_and_restored(
    protocol: &dyn PollingProtocol,
    scenario: &Scenario,
    cfg: &SimConfig,
    kill_steps: u64,
) -> (String, u64) {
    let mut ctx = SimContext::new(scenario.build_population(), cfg);
    let mut session = Session::open(protocol, &ctx);
    match session.run_for(&mut ctx, kill_steps) {
        Some(SessionEnd::Complete { report, .. }) => {
            // Finished before the kill point — still a valid comparison.
            (report.to_json().to_string(), ctx.log.digest())
        }
        Some(other) => panic!("{}: unexpected early end {other:?}", protocol.name()),
        None => {
            let snap = session.snapshot(&ctx, cfg).to_string();
            drop(session);
            drop(ctx);
            let doc = Json::parse(&snap).expect("snapshot parses");
            let (mut ctx, mut session) =
                Session::restore(protocol, &doc).expect("snapshot restores");
            match session.run(&mut ctx) {
                SessionEnd::Complete { report, .. } => {
                    (report.to_json().to_string(), ctx.log.digest())
                }
                other => panic!("{}: restored run ended {other:?}", protocol.name()),
            }
        }
    }
}

#[test]
fn clean_kill_restore_is_bit_identical_for_every_protocol() {
    let scenario = Scenario::uniform(150, 4).with_seed(31);
    let cfg = SimConfig::paper(scenario.protocol_seed()).with_trace();
    for (i, protocol) in all_protocols().iter().enumerate() {
        let name = protocol.name();
        let golden = uninterrupted(protocol.as_ref(), &scenario, &cfg);
        // Vary the kill point per protocol so snapshots land in different
        // phases (mid-round, mid-frame, mid-traversal).
        let kill = 1 + (i as u64 * 37) % 100;
        let replayed = killed_and_restored(protocol.as_ref(), &scenario, &cfg, kill);
        assert_eq!(
            replayed.0, golden.0,
            "{name}: report drifted across restore"
        );
        assert_eq!(replayed.1, golden.1, "{name}: trace drifted across restore");
    }
}

#[test]
fn impaired_kill_restore_is_bit_identical() {
    let scenario = Scenario::uniform(150, 4).with_seed(99);
    let protocols: Vec<Box<dyn PollingProtocol>> = vec![
        Box::new(HppConfig::default().into_protocol()),
        Box::new(EhppConfig::default().into_protocol()),
        Box::new(TppConfig::default().into_protocol()),
        Box::new(MicConfig::default().into_protocol()),
    ];
    for (i, protocol) in protocols.iter().enumerate() {
        let name = protocol.name();
        let cfg = SimConfig::paper(scenario.protocol_seed())
            .with_trace()
            .with_fault(impaired_fault());
        let golden = uninterrupted(protocol.as_ref(), &scenario, &cfg);
        // Impaired runs take many more rounds; kill deep enough that fault
        // state (burst channel, desync) is mid-flight at the snapshot.
        let kill = 3 + i as u64 * 4;
        let replayed = killed_and_restored(protocol.as_ref(), &scenario, &cfg, kill);
        assert_eq!(replayed.0, golden.0, "{name}: impaired report drifted");
        assert_eq!(replayed.1, golden.1, "{name}: impaired trace drifted");
    }
}

/// Killing *between recovery passes* — after backoff has been charged and
/// the population reselected — must restore pass counters and the backoff
/// RNG stream exactly.
#[test]
fn mid_recovery_kill_restore_is_bit_identical() {
    // A 2-round budget on 150 tags forces several deterministic recovery
    // passes even on a clean channel.
    let protocol = HppConfig {
        max_rounds: 2,
        ..HppConfig::default()
    }
    .into_protocol();
    let scenario = Scenario::uniform(150, 4).with_seed(31);
    let cfg = SimConfig::paper(scenario.protocol_seed()).with_trace();
    let policy = RecoveryPolicy::unbounded();

    let mut ctx = SimContext::new(scenario.build_population(), &cfg);
    let golden = Session::open(&protocol, &ctx)
        .with_policy(policy)
        .run(&mut ctx);
    let SessionEnd::Complete {
        report: golden_report,
        passes: golden_passes,
    } = golden
    else {
        panic!("baseline recovered run must complete, got {golden:?}");
    };
    assert!(
        golden_passes > 1,
        "scenario must actually recover (got {golden_passes} passes)"
    );
    let golden_json = golden_report.to_json().to_string();
    let golden_trace = ctx.log.digest();

    // Interrupted: single-step until the second pass has begun, then crash.
    let mut ctx = SimContext::new(scenario.build_population(), &cfg);
    let mut session = Session::open(&protocol, &ctx).with_policy(policy);
    while session.passes() < 2 {
        if let Some(end) = session.run_for(&mut ctx, 1) {
            panic!("ended before the second pass: {end:?}");
        }
    }
    let snap = session.snapshot(&ctx, &cfg).to_string();
    drop(session);
    drop(ctx);

    let doc = Json::parse(&snap).expect("snapshot parses");
    let (mut ctx, mut session) = Session::restore(&protocol, &doc).expect("snapshot restores");
    let end = session.run(&mut ctx);
    let SessionEnd::Complete { report, passes } = end else {
        panic!("restored recovered run must complete, got {end:?}");
    };
    assert_eq!(passes, golden_passes, "pass count drifted across restore");
    assert_eq!(report.to_json().to_string(), golden_json);
    assert_eq!(ctx.log.digest(), golden_trace);
}

#[test]
fn deadline_converts_overrun_into_degraded() {
    let scenario = Scenario::uniform(150, 4).with_seed(31);
    let cfg = SimConfig::paper(scenario.protocol_seed());
    let protocol = TppConfig::default().into_protocol();

    // TPP needs ~87 ms of sim time for 150 tags; a 20 ms budget must cut
    // the session short with a typed Degraded end, not an error or a hang.
    let mut ctx = SimContext::new(scenario.build_population(), &cfg);
    let end = Session::open(&protocol, &ctx)
        .with_deadline_us(20_000.0)
        .run(&mut ctx);
    let SessionEnd::Degraded {
        report,
        coverage,
        passes,
        cause,
    } = end
    else {
        panic!("expected Degraded, got {end:?}");
    };
    assert_eq!(cause, DegradeCause::Deadline);
    assert_eq!(passes, 1);
    assert!(
        coverage > 0.0 && coverage < 1.0,
        "partial coverage, got {coverage}"
    );
    assert!(
        report.counters.polls < 150,
        "deadline must stop the run early"
    );

    // A generous budget must not perturb completion.
    let mut ctx = SimContext::new(scenario.build_population(), &cfg);
    let end = Session::open(&protocol, &ctx)
        .with_deadline_us(10_000_000.0)
        .run(&mut ctx);
    assert!(end.is_complete(), "huge deadline must not fire: {end:?}");
}

/// The deadline budget is part of the snapshot: a restored session must
/// degrade at the same slot as one that never crashed.
#[test]
fn deadline_survives_snapshot_restore() {
    let scenario = Scenario::uniform(150, 4).with_seed(31);
    let cfg = SimConfig::paper(scenario.protocol_seed()).with_trace();
    let protocol = TppConfig::default().into_protocol();

    let mut ctx = SimContext::new(scenario.build_population(), &cfg);
    let end = Session::open(&protocol, &ctx)
        .with_deadline_us(20_000.0)
        .run(&mut ctx);
    let SessionEnd::Degraded {
        report, coverage, ..
    } = end
    else {
        panic!("expected Degraded, got {end:?}");
    };
    let golden_json = report.to_json().to_string();
    let golden_coverage = coverage;
    let golden_trace = ctx.log.digest();

    let mut ctx = SimContext::new(scenario.build_population(), &cfg);
    let mut session = Session::open(&protocol, &ctx).with_deadline_us(20_000.0);
    assert!(
        session.run_for(&mut ctx, 1).is_none(),
        "the deadline is only checked at the next step boundary"
    );
    let snap = session.snapshot(&ctx, &cfg).to_string();
    drop(session);
    drop(ctx);

    let doc = Json::parse(&snap).expect("snapshot parses");
    let (mut ctx, mut session) = Session::restore(&protocol, &doc).expect("snapshot restores");
    let end = session.run(&mut ctx);
    let SessionEnd::Degraded {
        report,
        coverage,
        cause,
        ..
    } = end
    else {
        panic!("restored session must still degrade, got {end:?}");
    };
    assert_eq!(cause, DegradeCause::Deadline);
    assert_eq!(coverage, golden_coverage);
    assert_eq!(report.to_json().to_string(), golden_json);
    assert_eq!(ctx.log.digest(), golden_trace);
}

#[test]
fn restore_rejects_a_snapshot_from_another_protocol() {
    let scenario = Scenario::uniform(50, 4).with_seed(7);
    let cfg = SimConfig::paper(scenario.protocol_seed());
    let hpp = HppConfig::default().into_protocol();
    let mut ctx = SimContext::new(scenario.build_population(), &cfg);
    let mut session = Session::open(&hpp, &ctx);
    assert!(session.run_for(&mut ctx, 1).is_none());
    let snap = session.snapshot(&ctx, &cfg);

    let tpp = TppConfig::default().into_protocol();
    let err = Session::restore(&tpp, &snap).expect_err("protocol mismatch must be rejected");
    assert!(
        err.to_string().contains("HPP"),
        "error should name the snapshot's protocol: {err}"
    );
}

/// Hostile-input gate: mutate random bytes of a valid mid-run snapshot.
/// Every outcome must be *controlled* — a parse error, a typed restore
/// error, or a session that keeps running — never a panic.
#[test]
fn fuzzed_snapshot_bytes_never_panic() {
    // Base snapshot taken mid-run under the impaired channel so every state
    // class (RNG, burst channel, desync set, retransmission counters, trace
    // cursor) is populated and thus mutable by the fuzzer.
    let scenario = Scenario::uniform(40, 4).with_seed(99);
    let cfg = SimConfig::paper(scenario.protocol_seed())
        .with_trace()
        .with_fault(impaired_fault());
    let protocol = HppConfig::default().into_protocol();
    let mut ctx = SimContext::new(scenario.build_population(), &cfg);
    let mut session = Session::open(&protocol, &ctx);
    assert!(session.run_for(&mut ctx, 3).is_none());
    let base = session.snapshot(&ctx, &cfg).to_string();

    prop::check("fuzzed_snapshot_bytes_never_panic", 300, |g| {
        let mut bytes = base.clone().into_bytes();
        let edits = g.len_in(1, 8);
        for _ in 0..edits {
            let pos = g.u64_below(bytes.len() as u64) as usize;
            bytes[pos] = g.u8();
        }
        let Ok(text) = String::from_utf8(bytes) else {
            return Ok(()); // mutation broke UTF-8: rejected upstream of us
        };
        let Ok(doc) = Json::parse(&text) else {
            return Ok(()); // typed parse error — the desired outcome
        };
        match Session::restore(&protocol, &doc) {
            Err(_) => Ok(()), // typed restore error — also fine
            Ok((mut ctx, mut session)) => {
                // An accepted snapshot must actually run. Bound the steps so
                // a mutated-but-valid config can't spin the test forever.
                let _ = session.run_for(&mut ctx, 200);
                Ok(())
            }
        }
    });
}
