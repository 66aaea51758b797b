//! In-process replays of served sessions.
//!
//! A replay makes the same public calls the daemon makes for each wire
//! verb — `Scenario::build_population`, `SimContext::new`,
//! `Session::open`, `Session::snapshot`, `Session::run`,
//! `EventLog::to_jsonl` + `fnv64`, `Report::to_json`, `Session::restore`
//! — each timed as a span. It serves twice: as the output check (its
//! report and trace digest must equal what the daemon served) and, in the
//! traced pass, as the split of `Service::handle` into layers.

use rfid_daemon::protocol_by_name;
use rfid_hash::fnv64;
use rfid_protocols::Session;
use rfid_system::{Json, SimConfig, SimContext, SpanProfiler, ToJson};
use rfid_wire::{OpenRequest, SessionOutcome};
use rfid_workloads::Scenario;

use crate::report::RunReport;
use crate::spans::Recorder;

/// A wire verb a client sends within one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `Open`.
    Open,
    /// `Run` with an optional step budget.
    Run(Option<u64>),
    /// `Checkpoint`.
    Checkpoint,
    /// `Resume` from the last checkpoint.
    Resume,
    /// `Close`.
    Close,
}

/// What identifies a finished session's output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    /// FNV-1a of the serialized report.
    pub report: u64,
    /// FNV-1a digest of the JSONL trace, when the session traced.
    pub digest: Option<u64>,
}

impl Fingerprint {
    /// The fingerprint of what the daemon served.
    pub fn of(outcome: &SessionOutcome) -> Fingerprint {
        Fingerprint {
            report: fnv64(&outcome.report.to_string()),
            digest: outcome.trace_digest,
        }
    }
}

/// Wall self-time of the simulator's own profiling spans, in ns.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProfileSums {
    /// `round` scopes (session engine).
    pub round_ns: u64,
    /// `poll` scopes (polling exchanges).
    pub poll_ns: u64,
    /// `slot` scopes (ALOHA slots).
    pub slot_ns: u64,
    /// Tags the profiled runs inventoried.
    pub tags: u64,
}

impl ProfileSums {
    /// Adds one profiled run.
    pub fn add(&mut self, profiler: &SpanProfiler, tags: u64) {
        for node in profiler.nodes() {
            let ns = node.wall_self_ns();
            match node.name {
                "round" => self.round_ns += ns,
                "poll" => self.poll_ns += ns,
                "slot" => self.slot_ns += ns,
                _ => {}
            }
        }
        self.tags += tags;
    }

    /// Sets the per-tag self-time metrics, if anything was profiled.
    pub fn record(&self, report: &mut RunReport) {
        if self.tags > 0 {
            let per_tag = |ns: u64| ns as f64 / self.tags as f64;
            report.set("protocols.round_self_ns_per_tag", per_tag(self.round_ns));
            report.set("system.poll_self_ns_per_tag", per_tag(self.poll_ns));
            report.set("system.slot_self_ns_per_tag", per_tag(self.slot_ns));
        }
    }
}

/// The config the daemon derives for `req` (its default keeps tracing
/// on; an explicit config is used verbatim).
pub fn served_config(req: &OpenRequest) -> (Scenario, SimConfig) {
    let scenario = Scenario::uniform(req.n as usize, req.info_bits as usize).with_seed(req.seed);
    let config = req
        .config
        .clone()
        .unwrap_or_else(|| SimConfig::paper(scenario.protocol_seed()).with_trace());
    (scenario, config)
}

/// Replays `verbs` (each with the request id of the served command it
/// mirrors) in process, recording one span per public call into `rec`.
/// With `profile`, the simulator's span profiler is on and its sums are
/// added to `sums` (profiling never changes results).
pub fn replay(
    req: &OpenRequest,
    verbs: &[(Verb, u64)],
    rec: &mut Recorder,
    profile: Option<&mut ProfileSums>,
) -> Result<Fingerprint, String> {
    let protocol = protocol_by_name(&req.protocol)
        .ok_or_else(|| format!("unknown protocol {}", req.protocol))?;
    let (scenario, mut config) = served_config(req);
    if profile.is_some() {
        config = config.with_profile();
    }
    let mut live: Option<(SimContext, Session)> = None;
    let mut snapshot: Option<Json> = None;
    let mut expected = None;
    for &(verb, r) in verbs {
        match verb {
            Verb::Open => {
                rec.enter("replay.open", r);
                let population = rec.time("workloads.scenario_build", r, || {
                    scenario.build_population()
                });
                let ctx = rec.time("system.ctx_new", r, || SimContext::new(population, &config));
                let session = rec.time("protocols.session_open", r, || {
                    Session::open(protocol.as_ref(), &ctx)
                });
                // The daemon's admission takes a birth checkpoint.
                let birth = rec.time("protocols.snapshot", r, || session.snapshot(&ctx, &config));
                rec.exit();
                rec.count(
                    "protocols.snapshot_bytes",
                    r,
                    birth.to_string().len() as f64,
                );
                live = Some((ctx, session));
            }
            Verb::Run(budget) => {
                let (ctx, session) = live.as_mut().ok_or("run before open")?;
                rec.enter("replay.run", r);
                let before = session.steps_taken();
                let end = rec.time("protocols.run", r, || match budget {
                    None => Some(session.run(ctx)),
                    Some(steps) => session.run_for(ctx, steps),
                });
                let steps = session.steps_taken() - before;
                let mut trace = None;
                if let Some(end) = end {
                    if !end.is_complete() {
                        return Err(format!("in-process {} did not complete", req.protocol));
                    }
                    if config.trace {
                        let jsonl = rec.time("system.trace_jsonl", r, || ctx.log.to_jsonl());
                        let digest = rec.time("hash.fnv64", r, || fnv64(&jsonl));
                        trace = Some((ctx.log.len(), jsonl.len(), digest));
                    }
                    let report = rec.time("protocols.report_json", r, || end.report().to_json());
                    expected = Some(Fingerprint {
                        report: fnv64(&report.to_string()),
                        digest: trace.map(|t| t.2),
                    });
                }
                rec.exit();
                rec.count("protocols.steps", r, steps as f64);
                if let Some((events, bytes, _)) = trace {
                    rec.count("system.trace_events", r, events as f64);
                    rec.count("system.trace_bytes", r, bytes as f64);
                }
            }
            Verb::Checkpoint => {
                let (ctx, session) = live.as_ref().ok_or("checkpoint before open")?;
                let snap = rec.time("protocols.snapshot", r, || session.snapshot(ctx, &config));
                rec.count("protocols.snapshot_bytes", r, snap.to_string().len() as f64);
                snapshot = Some(snap);
            }
            Verb::Resume => {
                let snap = snapshot.take().ok_or("resume before checkpoint")?;
                let restored = rec.time("protocols.restore", r, || {
                    Session::restore(protocol.as_ref(), &snap)
                });
                live = Some(restored.map_err(|e| format!("restore failed: {e}"))?);
            }
            Verb::Close => {}
        }
    }
    if let (Some(sums), Some((ctx, _))) = (profile, &live) {
        sums.add(&ctx.profiler, ctx.counters.polls);
    }
    expected.ok_or_else(|| "replay never finished the session".to_string())
}

/// The reference outcome of `req`: one uninterrupted in-process run.
pub fn reference(
    req: &OpenRequest,
    profile: Option<&mut ProfileSums>,
) -> Result<Fingerprint, String> {
    let mut scratch = Recorder::off();
    replay(
        req,
        &[(Verb::Open, 0), (Verb::Run(None), 0)],
        &mut scratch,
        profile,
    )
}

/// Checks a served session's outcome on its own terms: it completed,
/// covered the population, and carries a digest exactly when traced.
pub fn check_served(outcome: &SessionOutcome, traced: bool) -> Result<(), String> {
    if outcome.status != "complete" || outcome.coverage != 1.0 {
        return Err(format!(
            "session ended {} with coverage {}",
            outcome.status, outcome.coverage
        ));
    }
    if outcome.trace_digest.is_some() != traced {
        return Err(format!(
            "trace digest presence {} but traced = {traced}",
            outcome.trace_digest.is_some()
        ));
    }
    Ok(())
}

/// Checks a served output against the in-process expectation.
pub fn verify(served: Fingerprint, expected: Fingerprint) -> Result<(), String> {
    if served.digest != expected.digest {
        return Err(format!(
            "trace digest {:?} != in-process {:?}",
            served.digest, expected.digest
        ));
    }
    if served.report != expected.report {
        return Err("report differs from the in-process run".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(req: &OpenRequest) -> SessionOutcome {
        let mut service = rfid_daemon::Service::new();
        let id = match service
            .handle(rfid_wire::Command::Open(req.clone()))
            .remove(0)
        {
            rfid_wire::Response::Opened { session } => session,
            other => panic!("expected Opened, got {other:?}"),
        };
        match service
            .handle(rfid_wire::Command::Run {
                session: id,
                max_steps: None,
            })
            .pop()
        {
            Some(rfid_wire::Response::Done { outcome, .. }) => outcome,
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn the_reference_matches_what_the_daemon_serves() {
        let req = OpenRequest::new("TPP", 64, 4, 11);
        let outcome = served(&req);
        check_served(&outcome, true).unwrap();
        verify(Fingerprint::of(&outcome), reference(&req, None).unwrap()).unwrap();
    }

    #[test]
    fn a_forced_digest_mismatch_fails_the_operation_and_the_run() {
        let req = OpenRequest::new("TPP", 64, 4, 12);
        let mut outcome = served(&req);
        outcome.trace_digest = outcome.trace_digest.map(|d| d ^ 1);
        let mut run = RunReport::new("serve_small", 12, false);
        run.attempted = 1;
        if let Err(e) = verify(Fingerprint::of(&outcome), reference(&req, None).unwrap()) {
            run.fail(e);
        }
        assert_eq!(run.failed, 1);
        assert!(!run.correct());
        assert_ne!(run.exit_code(), 0);
    }

    #[test]
    fn migrated_replay_equals_the_uninterrupted_run() {
        let mut req = OpenRequest::new("TPP", 300, 4, 5);
        req.config = Some(SimConfig::paper(served_config(&req).0.protocol_seed()));
        let mut verbs = vec![(Verb::Open, 0)];
        for _ in 0..2 {
            verbs.extend([
                (Verb::Run(Some(1)), 0),
                (Verb::Checkpoint, 0),
                (Verb::Resume, 0),
            ]);
        }
        verbs.push((Verb::Run(None), 0));
        let mut rec = Recorder::new(std::time::Instant::now(), 0);
        let migrated = replay(&req, &verbs, &mut rec, None).unwrap();
        assert_eq!(migrated, reference(&req, None).unwrap());
        assert_eq!(migrated.digest, None, "explicit untraced config");
        assert!(rec.spans.iter().any(|s| s.name == "protocols.restore"));
    }

    #[test]
    fn profiling_records_round_time_without_changing_results() {
        let req = OpenRequest::new("HPP", 500, 4, 3);
        let mut sums = ProfileSums::default();
        let profiled = reference(&req, Some(&mut sums)).unwrap();
        assert_eq!(profiled, reference(&req, None).unwrap());
        assert_eq!(sums.tags, 500);
        assert!(sums.round_ns > 0 && sums.poll_ns > 0);
    }
}
