//! Information collection: the paper's driving application (Section II-C).
//!
//! "Collect m-bit information from each tag in a request-response way as
//! quickly as possible." [`collect`] runs a configured [`Session`] — bare,
//! or with a recovery policy or a deadline — to its end, verifies the polling invariant on a complete run (every tag
//! interrogated exactly once, nothing missed), and returns the collected
//! `(id, payload)` pairs with the session's ending. [`run_polling`] is the
//! scenario shorthand for a bare session over a perfect channel.

use rfid_protocols::{PollingProtocol, Report, Session, SessionEnd};
use rfid_system::{BitVec, SimConfig, SimContext, TagId, TagState};
use rfid_workloads::Scenario;

/// The result of one collection run.
#[derive(Debug, Clone)]
pub struct Collection {
    /// How the session ended — complete, stalled, or degraded with its
    /// coverage — carrying the (possibly partial) cost report.
    pub end: SessionEnd,
    /// Payloads of the tags actually read, in tag order. A complete run
    /// collects the whole population; any other end the covered subset.
    pub collected: Vec<(TagId, BitVec)>,
}

impl Collection {
    /// The cost report of the run (partial unless complete).
    pub fn report(&self) -> &Report {
        self.end.report()
    }

    /// Looks up the collected payload of one tag.
    pub fn payload_of(&self, id: TagId) -> Option<&BitVec> {
        self.collected
            .iter()
            .find(|(tid, _)| *tid == id)
            .map(|(_, p)| p)
    }
}

/// Runs `session` on `ctx` to its end and gathers what was read.
///
/// # Panics
/// Panics if a complete run fails the polling invariant (a tag was never
/// interrogated, or poll counts disagree) — protocol bugs must not be
/// silently reported as results.
pub fn collect(mut session: Session, ctx: &mut SimContext) -> Collection {
    let end = session.run(ctx);
    if end.is_complete() {
        ctx.assert_complete();
    }
    let population = &ctx.population;
    let collected = (0..population.len())
        .filter(|&handle| population.state(handle) == TagState::Asleep)
        .map(|handle| (population.id(handle), population.info(handle)))
        .collect();
    Collection { end, collected }
}

/// Runs `protocol` over the population described by `scenario` on a
/// perfect channel, through a bare session.
///
/// # Panics
/// Panics if the run stalls (the stall error's display is the message);
/// fault-injecting callers build their own context and call [`collect`].
pub fn run_polling(protocol: &dyn PollingProtocol, scenario: &Scenario) -> Collection {
    let population = scenario.build_population();
    let mut ctx = SimContext::new(population, &SimConfig::paper(scenario.protocol_seed()));
    let collection = collect(Session::open(protocol, &ctx), &mut ctx);
    if let SessionEnd::Stalled(err) = &collection.end {
        panic!("{err}");
    }
    collection
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_baselines::{CppConfig, MicConfig};
    use rfid_c1g2::Micros;
    use rfid_protocols::{DegradeCause, EhppConfig, HppConfig, RecoveryPolicy, TppConfig};
    use rfid_system::FaultModel;
    use rfid_workloads::PayloadKind;

    #[test]
    fn collects_correct_payloads_with_every_protocol() {
        let scenario = Scenario::uniform(200, 16)
            .with_seed(7)
            .with_payload(PayloadKind::Random);
        let protocols: Vec<Box<dyn PollingProtocol>> = vec![
            Box::new(HppConfig::default()),
            Box::new(EhppConfig::default()),
            Box::new(TppConfig::default()),
            Box::new(CppConfig::default()),
            Box::new(MicConfig::default()),
        ];
        let reference = scenario.build_population();
        for p in &protocols {
            let outcome = run_polling(p.as_ref(), &scenario);
            assert_eq!(outcome.collected.len(), 200, "{}", p.name());
            for (h, id) in reference.ids().enumerate() {
                assert_eq!(
                    outcome.payload_of(id),
                    Some(&reference.info(h)),
                    "{} corrupted payload of {}",
                    p.name(),
                    id
                );
            }
        }
    }

    #[test]
    fn tpp_is_fastest_of_the_polling_family() {
        let scenario = Scenario::uniform(2_000, 1).with_seed(3);
        let tpp = run_polling(&TppConfig::default(), &scenario);
        let hpp = run_polling(&HppConfig::default(), &scenario);
        let ehpp = run_polling(&EhppConfig::default(), &scenario);
        let cpp = run_polling(&CppConfig::default(), &scenario);
        assert!(tpp.report().total_time < ehpp.report().total_time);
        assert!(ehpp.report().total_time < hpp.report().total_time);
        assert!(hpp.report().total_time < cpp.report().total_time);
    }

    #[test]
    fn payload_lookup_misses_unknown_ids() {
        let scenario = Scenario::uniform(10, 1).with_seed(1);
        let outcome = run_polling(&TppConfig::default(), &scenario);
        assert!(outcome
            .payload_of(TagId::from_raw(u32::MAX, u64::MAX))
            .is_none());
    }

    #[test]
    fn recovered_collection_completes_on_a_lossy_channel() {
        let scenario = Scenario::uniform(300, 8)
            .with_seed(21)
            .with_payload(PayloadKind::Random);
        let protocol = HppConfig { max_rounds: 8 };
        let cfg = SimConfig::paper(scenario.protocol_seed())
            .with_fault(FaultModel::perfect().with_downlink_loss(0.3));
        let mut ctx = SimContext::new(scenario.build_population(), &cfg);
        let session = Session::open(&protocol, &ctx).with_policy(RecoveryPolicy::unbounded());
        let r = collect(session, &mut ctx);
        assert!(r.end.is_complete(), "loss 0.3 must recover fully");
        assert_eq!(r.collected.len(), 300);
        let reference = scenario.build_population();
        for (h, id) in reference.ids().enumerate() {
            assert_eq!(r.payload_of(id), Some(&reference.info(h)));
        }
    }

    #[test]
    fn deadline_collection_degrades_with_the_partial_inventory() {
        let scenario = Scenario::uniform(150, 4)
            .with_seed(31)
            .with_payload(PayloadKind::Random);
        let protocol = TppConfig::default();
        let cfg = SimConfig::paper(scenario.protocol_seed());

        // TPP needs ~87 ms of air time here; a 20 ms budget must stop early.
        let mut ctx = SimContext::new(scenario.build_population(), &cfg);
        let r = collect(
            Session::open(&protocol, &ctx).with_deadline(Micros::from_us(20_000.0)),
            &mut ctx,
        );
        let SessionEnd::Degraded {
            coverage, cause, ..
        } = r.end
        else {
            panic!("expected Degraded, got {:?}", r.end);
        };
        assert_eq!(cause, DegradeCause::Deadline);
        assert!(!r.collected.is_empty() && r.collected.len() < 150);
        assert!((coverage - r.collected.len() as f64 / 150.0).abs() < 1e-12);
        // The partial inventory still carries the right payloads.
        let reference = scenario.build_population();
        for (id, payload) in &r.collected {
            let expected = reference.ids().position(|t| t == *id).unwrap();
            assert_eq!(payload, &reference.info(expected));
        }

        // A generous budget collects everything.
        let mut ctx = SimContext::new(scenario.build_population(), &cfg);
        let r = collect(
            Session::open(&protocol, &ctx).with_deadline(Micros::from_secs(10.0)),
            &mut ctx,
        );
        assert!(r.end.is_complete());
        assert_eq!(r.collected.len(), 150);
    }

    #[test]
    fn recovered_collection_degrades_to_the_covered_subset() {
        use rfid_system::fault::{FaultPlan, KillRule};
        let scenario = Scenario::uniform(60, 4).with_seed(5);
        let plan = FaultPlan {
            kill_after_replies: vec![KillRule {
                tag: 3,
                after_replies: 0,
            }],
            ..FaultPlan::none()
        };
        let cfg = SimConfig::paper(scenario.protocol_seed())
            .with_fault(FaultModel::perfect().with_plan(plan));
        let mut ctx = SimContext::new(scenario.build_population(), &cfg);
        let protocol = HppConfig::default();
        let session = Session::open(&protocol, &ctx).with_policy(RecoveryPolicy::unbounded());
        let r = collect(session, &mut ctx);
        assert!(!r.end.is_complete());
        assert_eq!(r.collected.len(), 59, "everything but the dead tag");
        let dead_id = ctx.population.id(3);
        assert!(r.payload_of(dead_id).is_none());
        assert!((r.end.coverage() - 59.0 / 60.0).abs() < 1e-12);
    }
}
