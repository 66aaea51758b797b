//! Satellite: on a perfect channel the recovery layer must be invisible.
//!
//! Running any protocol in a [`Session`] with a recovery policy must produce
//! a run that is *bit-identical* to the bare `try_run` — same counters, same
//! event trace, same report JSON — because pass 1 of a recovery session is
//! the bare protocol run and a fault-free channel never stalls. This pins
//! the zero-cost contract from DESIGN.md: recovery is pure wrapping, not a
//! different execution path.

use fast_rfid_polling::daemon::all_protocols;
use fast_rfid_polling::prelude::*;
use fast_rfid_polling::system::json::ToJson;
use fast_rfid_polling::system::{SimConfig, SimContext};

fn traced_context(scenario: &Scenario) -> SimContext {
    let cfg = SimConfig::paper(scenario.protocol_seed()).with_trace();
    SimContext::new(scenario.build_population(), &cfg)
}

#[test]
fn recovery_is_bit_identical_to_bare_try_run_on_a_perfect_channel() {
    let scenario = Scenario::uniform(150, 4).with_seed(31);
    for protocol in all_protocols() {
        let mut bare_ctx = traced_context(&scenario);
        let bare_report = protocol
            .try_run(&mut bare_ctx)
            .unwrap_or_else(|e| panic!("{} stalled fault-free: {e}", protocol.name()));

        let mut wrapped_ctx = traced_context(&scenario);
        let outcome = Session::open(protocol.as_ref(), &wrapped_ctx)
            .with_policy(RecoveryPolicy::unbounded())
            .run(&mut wrapped_ctx);
        assert!(
            outcome.is_complete(),
            "{} did not complete under recovery",
            protocol.name()
        );
        assert_eq!(outcome.passes(), 1, "{} needed re-polling", protocol.name());

        // Bit-identical run: counters, full event trace, report JSON.
        assert_eq!(
            bare_ctx.counters,
            wrapped_ctx.counters,
            "{} counters diverged",
            protocol.name()
        );
        assert_eq!(
            bare_ctx.log.to_jsonl(),
            wrapped_ctx.log.to_jsonl(),
            "{} event trace diverged",
            protocol.name()
        );
        assert_eq!(
            bare_report.to_json().to_string(),
            outcome.report().to_json().to_string(),
            "{} report diverged",
            protocol.name()
        );
        assert_eq!(
            wrapped_ctx.counters.recovery_passes,
            0,
            "{} charged recovery passes on a perfect channel",
            protocol.name()
        );
        assert_eq!(
            wrapped_ctx.counters.recovery_backoff_us,
            0,
            "{} charged backoff on a perfect channel",
            protocol.name()
        );
    }
}

#[test]
fn collect_matches_the_policy_session() {
    let scenario = Scenario::uniform(80, 1).with_seed(5);
    let mut a = traced_context(&scenario);
    let mut b = traced_context(&scenario);
    let protocol = TppConfig::default();
    let policy = RecoveryPolicy::default();

    let via_session = Session::open(&protocol, &a).with_policy(policy).run(&mut a);
    let via_collect = collect(Session::open(&protocol, &b).with_policy(policy), &mut b);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.log.to_jsonl(), b.log.to_jsonl());
    assert_eq!(
        via_session.report().to_json().to_string(),
        via_collect.report().to_json().to_string()
    );
    assert_eq!(via_collect.collected.len(), 80);
}
