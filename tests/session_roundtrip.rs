//! Checkpoint/restore gate for the session engine: killing a run at a
//! seeded step boundary, serializing the session to JSON, restoring it
//! into a *fresh* context, and finishing must be **bit-identical** to the
//! uninterrupted run — same `Report` JSON, same FNV-1a trace digest, same
//! pass count — for every protocol on clean and impaired channels, and
//! across recovery passes (mid-backoff kills included). Kill points are
//! drawn from the run's own step boundaries, so every row really
//! snapshots and restores.
//!
//! The suite also fuzzes the restore path: randomly corrupted snapshot
//! bytes, of the library form (`tags`) and of the served form (`origin`),
//! must either fail to parse, fail to restore with a typed [`JsonError`]
//! or error response, or restore into a session that runs without
//! panicking. Hand-made hostile documents — a huge `origin.n`, malformed
//! packed vectors, a wrong version, two identities or none — must fail
//! with typed errors before any population is built.

use fast_rfid_polling::daemon::{all_protocols, Service};
use fast_rfid_polling::hash::{prop, Xoshiro256};
use fast_rfid_polling::identify::QAlgorithmConfig;
use fast_rfid_polling::prelude::*;
use fast_rfid_polling::system::json::{FromJson, Json, ToJson};
use fast_rfid_polling::system::{Channel, KillRule, SimConfig, SimContext};
use fast_rfid_polling::wire::{Command, ErrorCode, FrameError, OpenRequest, Response};

fn impaired_fault() -> FaultModel {
    FaultModel::perfect()
        .with_downlink_loss(0.2)
        .with_corruption(0.2)
        .with_burst(GilbertElliott::new(0.1, 0.5, 0.0, 0.8))
}

/// The seeded kill-point stream: reproducible, a different kill per row.
fn kill_points() -> Xoshiro256 {
    Xoshiro256::seed_from_u64(0x5E55_1017)
}

/// What a finished run must reproduce across a restore.
#[derive(Debug, PartialEq)]
struct Finish {
    report: String,
    digest: u64,
    passes: u64,
}

fn finish(end: SessionEnd, ctx: &SimContext, what: &str) -> Finish {
    match end {
        SessionEnd::Complete { report, passes } => Finish {
            report: report.to_json().to_string(),
            digest: ctx.log.digest(),
            passes,
        },
        other => panic!("{what} ended {other:?}"),
    }
}

fn open(
    protocol: &dyn PollingProtocol,
    ctx: &SimContext,
    policy: Option<RecoveryPolicy>,
) -> Session {
    let session = Session::open(protocol, ctx);
    match policy {
        Some(policy) => session.with_policy(policy),
        None => session,
    }
}

/// Runs to step `kill`, snapshots to a JSON string, drops the session AND
/// the context so nothing but the string survives, restores the parsed
/// snapshot into a fresh image and runs to the end. The run must still
/// be live at the kill.
fn killed_and_restored(
    protocol: &dyn PollingProtocol,
    scenario: &Scenario,
    cfg: &SimConfig,
    policy: Option<RecoveryPolicy>,
    kill: u64,
) -> Finish {
    let name = protocol.name();
    let mut ctx = SimContext::new(scenario.build_population(), cfg);
    let mut session = open(protocol, &ctx, policy);
    if let Some(end) = session.run_for(&mut ctx, kill) {
        panic!("{name}: ended before the kill at step {kill}: {end:?}");
    }
    let snap = session.snapshot(&ctx, cfg).to_string();
    drop(session);
    drop(ctx);
    let doc = Json::parse(&snap).expect("snapshot parses");
    let (mut ctx, mut session) = Session::restore(protocol, &doc).expect("snapshot restores");
    let end = session.run(&mut ctx);
    finish(
        end,
        &ctx,
        &format!("{name}: the run restored at step {kill}"),
    )
}

fn assert_same_finish(replayed: &Finish, golden: &Finish, name: &str, kill: u64) {
    assert_eq!(
        replayed.report, golden.report,
        "{name}: report drifted across a restore at step {kill}"
    );
    assert_eq!(
        replayed.digest, golden.digest,
        "{name}: trace drifted across a restore at step {kill}"
    );
    assert_eq!(
        replayed.passes, golden.passes,
        "{name}: pass count drifted across a restore at step {kill}"
    );
}

/// The uninterrupted run, stepped one driver step at a time: its finish
/// and how many step boundaries it passed.
fn uninterrupted(
    protocol: &dyn PollingProtocol,
    scenario: &Scenario,
    cfg: &SimConfig,
    policy: Option<RecoveryPolicy>,
) -> (Finish, u64) {
    let name = protocol.name();
    let mut ctx = SimContext::new(scenario.build_population(), cfg);
    let mut session = open(protocol, &ctx, policy);
    let mut boundaries = 0u64;
    let end = loop {
        match session.run_for(&mut ctx, 1) {
            Some(end) => break end,
            None => boundaries += 1,
        }
    };
    let golden = finish(end, &ctx, &format!("{name}: the uninterrupted run"));
    assert!(boundaries > 0, "{name}: no step boundary to kill at");
    (golden, boundaries)
}

/// One row: the uninterrupted run against a run killed at a boundary
/// drawn from `kills`. Returns the uninterrupted run's finish.
fn assert_seeded_kill_is_bit_identical(
    protocol: &dyn PollingProtocol,
    scenario: &Scenario,
    cfg: &SimConfig,
    policy: Option<RecoveryPolicy>,
    kills: &mut Xoshiro256,
) -> Finish {
    let name = protocol.name();
    let (golden, boundaries) = uninterrupted(protocol, scenario, cfg, policy);
    let kill = 1 + kills.below(boundaries);
    let replayed = killed_and_restored(protocol, scenario, cfg, policy, kill);
    assert_same_finish(&replayed, &golden, name, kill);
    golden
}

#[test]
fn clean_kill_restore_is_bit_identical_for_every_protocol() {
    let scenario = Scenario::uniform(150, 4).with_seed(31);
    let cfg = SimConfig::paper(scenario.protocol_seed()).with_trace();
    let mut kills = kill_points();
    let protocols = all_protocols();
    assert_eq!(protocols.len(), 12);
    for protocol in &protocols {
        assert_seeded_kill_is_bit_identical(protocol.as_ref(), &scenario, &cfg, None, &mut kills);
    }
}

/// Loss, corruption and Gilbert–Elliott bursts on the four paper
/// protocols, so fault-model state (burst channel, desync) is live at the
/// kill.
#[test]
fn impaired_kill_restore_is_bit_identical() {
    let scenario = Scenario::uniform(150, 4).with_seed(99);
    let cfg = SimConfig::paper(scenario.protocol_seed())
        .with_trace()
        .with_fault(impaired_fault());
    let protocols: Vec<Box<dyn PollingProtocol>> = vec![
        Box::new(HppConfig::default()),
        Box::new(EhppConfig::default()),
        Box::new(TppConfig::default()),
        Box::new(MicConfig::default()),
    ];
    let mut kills = kill_points();
    for protocol in &protocols {
        let protocol = protocol.as_ref();
        let golden =
            assert_seeded_kill_is_bit_identical(protocol, &scenario, &cfg, None, &mut kills);
        // Also kill at the first boundary where the burst channel sits in
        // its bad state, which only the snapshot's `ge_bad` carries.
        let mut ctx = SimContext::new(scenario.build_population(), &cfg);
        let mut session = Session::open(protocol, &ctx);
        let mut kill = 0;
        while ctx.snapshot().get("ge_bad") != Some(&Json::Bool(true)) {
            kill += 1;
            assert!(
                session.run_for(&mut ctx, 1).is_none(),
                "{}: the burst channel never went bad",
                protocol.name()
            );
        }
        let replayed = killed_and_restored(protocol, &scenario, &cfg, None, kill);
        assert_same_finish(&replayed, &golden, protocol.name(), kill);
    }
}

/// The Q-algorithm keeps state across frames that no snapshot holds: the
/// set of tags its lazy frame draw has not placed yet, which equals the
/// active set between frames and is rebuilt from it on restore. Killing at
/// every step boundary of a 300-tag run, clean and at 15 % reply loss
/// (where lost and collided tags go back into the set), must finish like
/// the uninterrupted run every time.
#[test]
fn q_algo_kill_restore_at_every_step_is_bit_identical() {
    let protocol = QAlgorithmConfig::default();
    let scenario = Scenario::uniform(300, 4).with_seed(23);
    let kill_everywhere = |channel: Channel| {
        let cfg = SimConfig::paper(scenario.protocol_seed())
            .with_trace()
            .with_channel(channel);
        let (golden, _) = uninterrupted(&protocol, &scenario, &cfg, None);
        // One live run, snapshotted through a JSON string at each boundary;
        // every snapshot restores into a fresh context and runs to the end.
        let mut ctx = SimContext::new(scenario.build_population(), &cfg);
        let mut session = Session::open(&protocol, &ctx);
        let mut kill = 0;
        while session.run_for(&mut ctx, 1).is_none() {
            kill += 1;
            let doc =
                Json::parse(&session.snapshot(&ctx, &cfg).to_string()).expect("snapshot parses");
            let (mut restored, mut resumed) =
                Session::restore(&protocol, &doc).expect("snapshot restores");
            let end = resumed.run(&mut restored);
            let what = format!("Q-algo: the run restored at step {kill}");
            assert_same_finish(&finish(end, &restored, &what), &golden, "Q-algo", kill);
        }
        assert!(kill > 100, "only {kill} step boundaries");
    };
    // Each restore re-parses the whole trace so far: one thread a channel.
    std::thread::scope(|s| {
        let lossy = s.spawn(|| kill_everywhere(Channel::lossy(0.15)));
        kill_everywhere(Channel::perfect());
        lossy.join().expect("the lossy run");
    });
}

/// EHPP at 2,000 tags opens about nine circles, so a snapshot taken inside
/// one carries deselected tags (state code 2) that must rejoin after the
/// restore. Killing at every step boundary, clean and under 20 % downlink
/// loss over a lossy channel, must finish like the uninterrupted run. The
/// clean run is traced; the lossy one is not, since each restore re-parses
/// the trace so far and its 164 boundaries would cost it three times the
/// clean run's time.
#[test]
fn ehpp_kill_restore_at_every_step_is_bit_identical() {
    let protocol = EhppConfig::default();
    let scenario = Scenario::uniform(2_000, 4).with_seed(43);
    let kill_everywhere = |cfg: SimConfig| {
        let (golden, _) = uninterrupted(&protocol, &scenario, &cfg, None);
        let mut ctx = SimContext::new(scenario.build_population(), &cfg);
        let mut session = Session::open(&protocol, &ctx);
        let (mut kill, mut deselected_kills) = (0, 0);
        while session.run_for(&mut ctx, 1).is_none() {
            kill += 1;
            let doc =
                Json::parse(&session.snapshot(&ctx, &cfg).to_string()).expect("snapshot parses");
            let (mut restored, mut resumed) =
                Session::restore(&protocol, &doc).expect("snapshot restores");
            let population = &restored.population;
            if population.active_count() < population.listening_count() {
                deselected_kills += 1;
            }
            let end = resumed.run(&mut restored);
            let what = format!("EHPP: the run restored at step {kill}");
            assert_same_finish(&finish(end, &restored, &what), &golden, "EHPP", kill);
        }
        assert!(
            deselected_kills > 50,
            "only {deselected_kills} of {kill} snapshots held deselected tags"
        );
    };
    let clean = SimConfig::paper(scenario.protocol_seed()).with_trace();
    let lossy = SimConfig::paper(scenario.protocol_seed())
        .with_channel(Channel::lossy(0.1))
        .with_fault(FaultModel::perfect().with_downlink_loss(0.2));
    std::thread::scope(|s| {
        let lossy = s.spawn(|| kill_everywhere(lossy));
        kill_everywhere(clean);
        lossy.join().expect("the lossy run");
    });
}

/// Killing *between recovery passes* — after backoff has been charged and
/// the population reselected — must restore pass counters and the backoff
/// RNG stream exactly.
#[test]
fn mid_recovery_kill_restore_is_bit_identical() {
    // A 2-round budget on 150 tags forces several deterministic recovery
    // passes even on a clean channel.
    let protocol = HppConfig { max_rounds: 2 };
    let scenario = Scenario::uniform(150, 4).with_seed(31);
    let cfg = SimConfig::paper(scenario.protocol_seed()).with_trace();
    let policy = RecoveryPolicy::unbounded();

    // A seeded kill anywhere in the multi-pass schedule.
    let golden = assert_seeded_kill_is_bit_identical(
        &protocol,
        &scenario,
        &cfg,
        Some(policy),
        &mut kill_points(),
    );
    assert!(
        golden.passes >= 2,
        "scenario must actually recover (got {} passes)",
        golden.passes
    );

    // A kill just after the second pass has begun.
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
    assert_eq!(
        finish(end, &ctx, "the restored recovered run"),
        golden,
        "recovered run drifted across a restore in its second pass"
    );
}

#[test]
fn deadline_converts_overrun_into_degraded() {
    let scenario = Scenario::uniform(150, 4).with_seed(31);
    let cfg = SimConfig::paper(scenario.protocol_seed());
    let protocol = TppConfig::default();

    // TPP needs ~87 ms of sim time for 150 tags; a 20 ms budget must cut
    // the session short with a typed Degraded end, not an error or a hang.
    let mut ctx = SimContext::new(scenario.build_population(), &cfg);
    let end = Session::open(&protocol, &ctx)
        .with_deadline(Micros::from_us(20_000.0))
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
        .with_deadline(Micros::from_secs(10.0))
        .run(&mut ctx);
    assert!(end.is_complete(), "huge deadline must not fire: {end:?}");
}

/// The deadline budget is part of the snapshot: a restored session must
/// degrade at the same slot as one that never crashed.
#[test]
fn deadline_survives_snapshot_restore() {
    let scenario = Scenario::uniform(150, 4).with_seed(31);
    let cfg = SimConfig::paper(scenario.protocol_seed()).with_trace();
    let protocol = TppConfig::default();

    let mut ctx = SimContext::new(scenario.build_population(), &cfg);
    let end = Session::open(&protocol, &ctx)
        .with_deadline(Micros::from_us(20_000.0))
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
    let mut session = Session::open(&protocol, &ctx).with_deadline(Micros::from_us(20_000.0));
    assert!(
        session.run_for(&mut ctx, 1).is_none(),
        "the deadline is only checked at the next step boundary"
    );
    let snap = session.snapshot(&ctx, &cfg).to_string();
    drop(session);
    drop(ctx);

    // A whole-µs deadline writes as it did when it was an `f64`; one that
    // is not a whole nanosecond count is a typed error.
    assert!(snap.contains(r#""deadline_us":20000}"#), "{snap}");
    let doc = Json::parse(&snap).expect("snapshot parses");
    for (bad, why) in [
        (Json::Int(-1), "negative"),
        (Json::Float(1.2345), "more than three fraction digits"),
    ] {
        let hostile = edit(&doc, &["driver", "deadline_us"], Some(bad));
        let err = Session::restore(&protocol, &hostile).unwrap_err();
        assert!(err.0.contains(why), "{err}");
    }
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
    let hpp = HppConfig::default();
    let mut ctx = SimContext::new(scenario.build_population(), &cfg);
    let mut session = Session::open(&hpp, &ctx);
    assert!(session.run_for(&mut ctx, 1).is_none());
    let snap = session.snapshot(&ctx, &cfg);

    let tpp = TppConfig::default();
    let err = Session::restore(&tpp, &snap).expect_err("protocol mismatch must be rejected");
    assert!(
        err.to_string().contains("HPP"),
        "error should name the snapshot's protocol: {err}"
    );
}

#[test]
fn restore_rejects_stepper_state_for_a_stateless_protocol() {
    let scenario = Scenario::uniform(50, 4).with_seed(7);
    let cfg = SimConfig::paper(scenario.protocol_seed());
    let hpp = HppConfig::default();
    let mut ctx = SimContext::new(scenario.build_population(), &cfg);
    let mut session = Session::open(&hpp, &ctx);
    assert!(session.run_for(&mut ctx, 1).is_none());
    let Json::Obj(mut fields) = session.snapshot(&ctx, &cfg) else {
        panic!("a snapshot is a JSON object");
    };
    let stepper = fields
        .iter_mut()
        .find(|(key, _)| key == "stepper")
        .expect("snapshot has a stepper");
    assert_eq!(
        stepper.1,
        Json::Obj(Vec::new()),
        "HPP's stepper is stateless"
    );
    stepper.1 = Json::parse(r#"{"x":1}"#).unwrap();

    let err = Session::restore(&hpp, &Json::Obj(fields))
        .expect_err("state a stateless stepper cannot hold must be rejected");
    assert!(
        err.to_string().contains("HPP") && err.to_string().contains(r#"{"x":1}"#),
        "error should name the protocol and the stray state: {err}"
    );
}

/// A served (origin-form) snapshot: an `n`-tag HPP session opened in an
/// in-process service under the impaired fault model plus a kill rule, so
/// every packed vector (`state`, `synced`, `replies_sent`) is present, run
/// 3 steps and checkpointed.
fn served_snapshot(n: u64) -> Json {
    let scenario = Scenario::uniform(n as usize, 4).with_seed(99);
    let kill = FaultPlan {
        kill_after_replies: vec![KillRule {
            tag: 1,
            after_replies: 1,
        }],
        ..FaultPlan::none()
    };
    let mut req = OpenRequest::new("HPP", n, 4, 99);
    req.config = Some(
        SimConfig::paper(scenario.protocol_seed())
            .with_trace()
            .with_fault(impaired_fault().with_plan(kill)),
    );
    let mut service = Service::new();
    let Response::Opened { session } = service.handle(Command::Open(req)).remove(0) else {
        panic!("open failed");
    };
    let ran = service.handle(Command::Run {
        session,
        max_steps: Some(3),
    });
    assert!(matches!(ran.last(), Some(Response::Paused { .. })));
    match service.handle(Command::Checkpoint { session }).remove(0) {
        Response::Snapshot { snapshot, .. } => snapshot,
        other => panic!("expected Snapshot, got {other:?}"),
    }
}

/// Resumes `snapshot` in a fresh in-process service; an accepted one is
/// run for at most `steps` steps. Returns the first reply.
fn resume(snapshot: Json, steps: u64) -> Response {
    let mut service = Service::new();
    let reply = service.handle(Command::Resume { snapshot }).remove(0);
    if let Response::Opened { session } = reply {
        let _ = service.handle(Command::Run {
            session,
            max_steps: Some(steps),
        });
    }
    reply
}

/// `doc` with the field at `path` set to `value`, or removed for `None`.
fn edit(doc: &Json, path: &[&str], value: Option<Json>) -> Json {
    let mut out = doc.clone();
    let mut at = &mut out;
    for key in &path[..path.len() - 1] {
        let Json::Obj(fields) = at else {
            panic!("no object at {key}")
        };
        at = &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1;
    }
    let Json::Obj(fields) = at else {
        panic!("no object at {path:?}")
    };
    let last = path[path.len() - 1];
    fields.retain(|(k, _)| k != last);
    if let Some(value) = value {
        fields.push((last.to_string(), value));
    }
    out
}

/// A packed vector of `doc`'s context, with `f` applied.
fn repacked(doc: &Json, key: &str, f: impl FnOnce(&mut String)) -> Json {
    let mut hex: String = doc.get("context").unwrap().field(key).unwrap();
    f(&mut hex);
    edit(doc, &["context", key], Some(Json::Str(hex)))
}

/// Hostile resumes fail with a typed `Rejected` error naming what is
/// wrong, and none of them builds a population first: the `origin`
/// rows over the tag-bit budget would not fit in memory, and the packed
/// vectors are checked against `origin.n` before the population exists.
#[test]
fn hostile_resumes_fail_with_typed_errors() {
    // 41 tags: the last digit of `state` and `synced` has padding bits.
    let good = served_snapshot(41);
    assert!(good.get("tags").is_none());
    assert!(matches!(resume(good.clone(), 1), Response::Opened { .. }));
    let library = {
        let scenario = Scenario::uniform(41, 4).with_seed(99);
        let cfg = SimConfig::paper(scenario.protocol_seed());
        let ctx = SimContext::new(scenario.build_population(), &cfg);
        Session::open(&HppConfig::default(), &ctx).snapshot(&ctx, &cfg)
    };
    let rows: Vec<(&str, Json, &str)> = vec![
        (
            "2^20 tags named by a 41-tag snapshot",
            edit(&good, &["origin", "n"], Some(Json::UInt(1 << 20))),
            "state has 21 hex digits, expected 524288 for 1048576 tags",
        ),
        (
            "2^40 tags, over the tag-bit budget",
            edit(&good, &["origin", "n"], Some(Json::UInt(1 << 40))),
            "1099511627776 tags of 96 + 4 bits exceed the per-session budget",
        ),
        (
            "2^40 info bits per tag, over the tag-bit budget",
            edit(&good, &["origin", "info_bits"], Some(Json::UInt(1 << 40))),
            "41 tags of 96 + 1099511627776 bits exceed the per-session budget",
        ),
        (
            "zero tags",
            edit(&good, &["origin", "n"], Some(Json::UInt(0))),
            "population must be non-empty",
        ),
        (
            "zero info bits per tag",
            edit(&good, &["origin", "info_bits"], Some(Json::UInt(0))),
            "payloads must be at least one bit wide",
        ),
        (
            "u64::MAX tags",
            edit(&good, &["origin", "n"], Some(Json::UInt(u64::MAX))),
            "exceed the per-session budget",
        ),
        (
            "both identities",
            edit(&good, &["tags"], library.get("tags").cloned()),
            "both 'tags' and 'origin'",
        ),
        (
            "no identity",
            edit(&good, &["origin"], None),
            "neither 'tags' nor 'origin'",
        ),
        (
            "version 4",
            edit(&good, &["v"], Some(Json::UInt(4))),
            "snapshot version 4 is not supported; expected \"v\": 5",
        ),
        (
            "no version",
            edit(&good, &["v"], None),
            "snapshot version (none) is not supported; expected \"v\": 5",
        ),
        (
            "a clock that is not a breakdown",
            edit(&good, &["context", "clock"], Some(Json::Int(-5))),
            "expected breakdown object, got -5",
        ),
        (
            "a negative breakdown bucket",
            edit(
                &good,
                &["context", "clock", "TagReply"],
                Some(Json::Int(-5)),
            ),
            "duration -5 µs is negative",
        ),
        (
            "a breakdown bucket past u64 nanoseconds",
            edit(
                &good,
                &["context", "clock", "Turnaround"],
                Some(Json::UInt(u64::MAX / 1_000 + 1)),
            ),
            "is past the u64 nanosecond range",
        ),
        (
            "a breakdown bucket with four fraction digits",
            edit(
                &good,
                &["context", "clock", "ReaderCommand"],
                Some(Json::parse("1.2345").unwrap()),
            ),
            "has more than three fraction digits",
        ),
        (
            "a non-hex digit",
            repacked(&good, "state", |h| h.replace_range(0..1, "g")),
            "state has 'g' at digit 0, not a lowercase hex digit",
        ),
        (
            "state padding",
            repacked(&good, "state", |h| h.replace_range(20..21, "4")),
            "state has nonzero padding bits past tag 41",
        ),
        (
            "synced padding",
            repacked(&good, "synced", |h| h.replace_range(10..11, "3")),
            "synced has nonzero padding bits past tag 41",
        ),
        (
            "state code 3",
            repacked(&good, "state", |h| h.replace_range(0..1, "3")),
            "state holds the unused code 3",
        ),
        (
            "a short synced vector",
            repacked(&good, "synced", |h| {
                h.pop();
            }),
            "synced has 10 hex digits, expected 11 for 41 tags",
        ),
        (
            "replies_sent cut short",
            repacked(&good, "replies_sent", |h| h.truncate(h.len() - 2)),
            "cannot hold 41 varints",
        ),
        (
            "replies_sent ending inside a varint",
            repacked(&good, "replies_sent", |h| {
                let end = h.len();
                h.replace_range(end - 2.., "80");
            }),
            "replies_sent ends inside varint 40",
        ),
        (
            "replies_sent with a trailing byte",
            repacked(&good, "replies_sent", |h| h.push_str("00")),
            "replies_sent has bytes past its 41 varints",
        ),
        (
            "replies_sent without kill rules",
            edit(
                &good,
                &["config", "fault", "plan", "kill_after_replies"],
                Some(Json::Arr(Vec::new())),
            ),
            "replies_sent present but the fault plan has no kill rules",
        ),
    ];
    for (what, doc, why) in rows {
        match resume(doc, 1) {
            Response::Error {
                code: ErrorCode::Rejected,
                message,
            } => assert!(message.contains(why), "{what}: {message}"),
            other => panic!("{what}: expected a Rejected error, got {other:?}"),
        }
    }

    // The library restore shares the body: it rejects two identities, and
    // an origin it has no scenario to rebuild from.
    let hpp = HppConfig::default();
    let both = edit(&good, &["tags"], library.get("tags").cloned());
    let err = Session::restore(&hpp, &both).unwrap_err();
    assert!(err.0.contains("both 'tags' and 'origin'"), "{err}");
    let err = Session::restore(&hpp, &good).unwrap_err();
    assert!(err.0.contains("'origin'"), "{err}");
    assert!(Session::restore(&hpp, &library).is_ok());
    // A library snapshot is also servable: it keeps its tag list.
    assert!(matches!(resume(library, 1), Response::Opened { .. }));
}

/// A served snapshot whose text names a key twice is refused where its
/// `Resume` frame is decoded, before the service sees it (the daemon
/// answers `BadPayload`): a decoder reads the first of a repeated key, so
/// the repeat would otherwise be ignored. The repeated clock bucket comes
/// first at 0.
#[test]
fn a_served_snapshot_naming_a_key_twice_is_refused() {
    let good = served_snapshot(41);
    let mut frame = Command::Resume {
        snapshot: good.clone(),
    }
    .to_frame();
    assert!(Command::from_frame(&frame).is_ok());
    assert!(matches!(resume(good, 1), Response::Opened { .. }));
    let text = String::from_utf8(frame.payload).unwrap();
    let twice = text.replacen("\"TagReply\":", "\"TagReply\":0,\"TagReply\":", 1);
    assert_ne!(twice, text);
    frame.payload = twice.into_bytes();
    match Command::from_frame(&frame) {
        Err(FrameError::Payload(e)) => assert!(e.0.contains("\"TagReply\" twice"), "{e}"),
        other => panic!("expected a payload error, got {other:?}"),
    }
}

/// Hostile-input gate: mutate random bytes of a valid mid-run snapshot.
/// Every outcome must be *controlled* — a parse error, a typed restore
/// error, or a session that keeps running — never a panic. The library
/// form restores through [`Session::restore`]; the served form resumes
/// through an in-process service, which rebuilds its origin.
#[test]
fn fuzzed_snapshot_bytes_never_panic() {
    // Base snapshot taken mid-run under the impaired channel so every state
    // class (RNG, burst channel, desync set, retransmission counters, trace
    // cursor) is populated and thus mutable by the fuzzer.
    let scenario = Scenario::uniform(40, 4).with_seed(99);
    let cfg = SimConfig::paper(scenario.protocol_seed())
        .with_trace()
        .with_fault(impaired_fault());
    let protocol = HppConfig::default();
    let mut ctx = SimContext::new(scenario.build_population(), &cfg);
    let mut session = Session::open(&protocol, &ctx);
    assert!(session.run_for(&mut ctx, 3).is_none());
    let library = session.snapshot(&ctx, &cfg).to_string();
    let served = served_snapshot(40).to_string();

    for (name, base) in [
        ("fuzzed_snapshot_bytes_never_panic", library),
        ("fuzzed_served_snapshot_bytes_never_panic", served),
    ] {
        prop::check(name, 300, |g| {
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
            if doc.get("origin").is_some() {
                // A typed error reply, or a resumed session that runs
                // (bounded, so a mutated-but-valid config can't spin the
                // test forever).
                let _ = resume(doc, 200);
                return Ok(());
            }
            match Session::restore(&protocol, &doc) {
                Err(_) => Ok(()), // typed restore error — also fine
                Ok((mut ctx, mut session)) => {
                    // An accepted snapshot must actually run. Bound the
                    // steps so a mutated-but-valid config can't spin the
                    // test forever.
                    let _ = session.run_for(&mut ctx, 200);
                    Ok(())
                }
            }
        });
    }
}

/// EHPP deselects tags only inside a selected circle. A served 3,000-tag
/// checkpoint taken inside one, forged to claim the final drain (or no
/// circle at all), is refused: resumed, the forged final drain would end
/// `complete` with the deselected tags never read.
#[test]
fn ehpp_rejects_a_forged_final_drain() {
    let scenario = Scenario::uniform(3_000, 4).with_seed(17);
    let mut req = OpenRequest::new("EHPP", 3_000, 4, 17);
    req.config = Some(SimConfig::paper(scenario.protocol_seed()));
    let mut service = Service::new();
    let Response::Opened { session } = service.handle(Command::Open(req)).remove(0) else {
        panic!("open failed");
    };
    let snapshot = loop {
        let ran = service.handle(Command::Run {
            session,
            max_steps: Some(1),
        });
        assert!(
            matches!(ran.last(), Some(Response::Paused { .. })),
            "no circle opened"
        );
        let Response::Snapshot { snapshot, .. } =
            service.handle(Command::Checkpoint { session }).remove(0)
        else {
            panic!("checkpoint failed");
        };
        let stepper = snapshot.get("stepper").unwrap();
        if stepper.get("final_drain") == Some(&Json::Bool(false)) {
            break snapshot;
        }
    };
    assert!(matches!(
        resume(snapshot.clone(), 1),
        Response::Opened { .. }
    ));
    for (what, forged) in [
        (
            "a final drain",
            edit(
                &snapshot,
                &["stepper", "final_drain"],
                Some(Json::Bool(true)),
            ),
        ),
        (
            "no circle",
            edit(&snapshot, &["stepper", "mode"], Some(Json::str("select"))),
        ),
    ] {
        match resume(forged, 1) {
            Response::Error {
                code: ErrorCode::Rejected,
                message,
            } => assert!(
                message.contains("deselected outside a selected circle"),
                "{what}: {message}"
            ),
            other => panic!("{what}: expected a Rejected error, got {other:?}"),
        }
    }
}

/// Sets the `k`-th unsigned integer leaf of `doc` (depth first, skipping
/// the trace's `events`) to `u64::MAX` and returns its path, or `None`
/// once `doc` has fewer than `k + 1` such leaves.
fn max_out_uint(doc: &mut Json, k: &mut usize, path: &str) -> Option<String> {
    match doc {
        Json::UInt(v) => {
            if *k == 0 {
                *v = u64::MAX;
                return Some(path.to_string());
            }
            *k -= 1;
            None
        }
        Json::Arr(items) => items
            .iter_mut()
            .enumerate()
            .find_map(|(i, item)| max_out_uint(item, k, &format!("{path}[{i}]"))),
        Json::Obj(fields) => fields
            .iter_mut()
            .filter(|(key, _)| key != "events")
            .find_map(|(key, value)| max_out_uint(value, k, &format!("{path}.{key}"))),
        _ => None,
    }
}

/// A restored integer at `u64::MAX` never panics a debug build: for every
/// protocol, a served 300-tag snapshot under downlink loss, corruption and
/// bursts is resumed with one integer leaf at a time set to `u64::MAX`.
/// Each must be refused with a typed error, or resume and run a bounded
/// number of steps. Counters and step counts that a restored value may
/// carry add with wrapping arithmetic, as a release build does.
#[test]
fn a_restored_integer_at_u64_max_never_panics() {
    let mut panicked = Vec::new();
    let mut mutations = 0;
    for protocol in all_protocols() {
        let name = protocol.name();
        let scenario = Scenario::uniform(300, 4).with_seed(13);
        let mut req = OpenRequest::new(name, 300, 4, 13);
        req.config = Some(
            SimConfig::paper(scenario.protocol_seed())
                .with_trace()
                .with_fault(impaired_fault()),
        );
        req.policy = Some(RecoveryPolicy::default());
        let mut service = Service::new();
        let Response::Opened { session } = service.handle(Command::Open(req)).remove(0) else {
            panic!("{name}: open failed");
        };
        let ran = service.handle(Command::Run {
            session,
            max_steps: Some(5),
        });
        assert!(
            matches!(ran.last(), Some(Response::Paused { .. })),
            "{name}"
        );
        let Response::Snapshot { snapshot, .. } =
            service.handle(Command::Checkpoint { session }).remove(0)
        else {
            panic!("{name}: checkpoint failed");
        };
        for k in 0.. {
            let (mut doc, mut skip) = (snapshot.clone(), k);
            let Some(path) = max_out_uint(&mut doc, &mut skip, "") else {
                break;
            };
            mutations += 1;
            let reply = std::panic::catch_unwind(|| resume(doc, 20));
            match reply {
                Ok(Response::Opened { .. } | Response::Error { .. }) => {}
                Ok(other) => panic!("{name}{path}: unexpected reply {other:?}"),
                Err(_) => panicked.push(format!("{name}{path}")),
            }
        }
    }
    assert!(mutations > 12 * 20, "only {mutations} leaves mutated");
    assert!(panicked.is_empty(), "u64::MAX panicked at {panicked:?}");
}

/// A 64-tag HPP run whose tag 0 is dead from the start: under a policy it
/// can only end `Degraded`, once the circuit breaker opens.
fn dead_tag_run() -> (SimContext, SimConfig) {
    let dead = FaultPlan {
        kill_after_replies: vec![KillRule {
            tag: 0,
            after_replies: 0,
        }],
        ..FaultPlan::none()
    };
    let config = SimConfig::paper(11).with_fault(FaultModel::perfect().with_plan(dead));
    let population = Scenario::uniform(64, 4).with_seed(7).build_population();
    (SimContext::new(population, &config), config)
}

fn assert_breaker_opened(end: Option<SessionEnd>) {
    assert!(
        matches!(
            end,
            Some(SessionEnd::Degraded {
                cause: DegradeCause::CircuitOpen,
                ..
            })
        ),
        "a dead tag must open the breaker within 100 000 steps: {end:?}"
    );
}

/// The breaker's threshold is a constant: a policy that still carries the
/// `zero_progress_limit` older peers sent decodes with that key ignored,
/// so it cannot keep a dead session running.
#[test]
fn a_decoded_policy_cannot_switch_off_the_breaker() {
    let policy = Json::parse(
        r#"{"max_passes":0,"base_backoff_us":1000,"max_backoff_us":64000,
            "zero_progress_limit":18446744073709551615}"#,
    )
    .unwrap();
    let policy = RecoveryPolicy::from_json(&policy).unwrap();
    let (mut ctx, _) = dead_tag_run();
    let mut session = Session::open(&HppConfig::default(), &ctx).with_policy(policy);
    assert_breaker_opened(session.run_for(&mut ctx, 100_000));
}

/// The stall guard's threshold is a constant: a snapshot whose driver
/// guard still carries the `cap` older snapshots stored restores with that
/// key ignored, so it cannot keep a dead session running.
#[test]
fn a_restored_guard_cannot_switch_off_the_stall_guard() {
    let (ctx, config) = dead_tag_run();
    let session =
        Session::open(&HppConfig::default(), &ctx).with_policy(RecoveryPolicy::unbounded());
    let doc = edit(
        &session.snapshot(&ctx, &config),
        &["driver", "guard", "cap"],
        Some(Json::UInt(u64::MAX)),
    );
    let (mut ctx, mut session) = Session::restore(&HppConfig::default(), &doc).unwrap();
    assert_breaker_opened(session.run_for(&mut ctx, 100_000));
}
