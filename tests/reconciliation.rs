//! The trace→counter fold on small hand-built populations: for every
//! protocol in the workspace, a traced run's event log must fold into the
//! run's `Counters` bit-for-bit, on a clean channel and under the
//! deterministic impairment matrix, and a trace exported to JSONL must
//! fold the same after re-import. Any mismatch is an instrumentation bug
//! (a counter bumped without an event or vice versa). The random-fault
//! property lives in `fault_matrix.rs`.

mod support;

use fast_rfid_polling::daemon::all_protocols;
use fast_rfid_polling::prelude::*;
use fast_rfid_polling::system::{
    BitVec, Counters, EventLog, GilbertElliott, SimConfig, SimContext, TagPopulation,
};
use support::assert_trace_folds_into;

fn traced_ctx(n: usize, cfg: &SimConfig) -> SimContext {
    let pop = TagPopulation::sequential(n, |i| BitVec::from_value((i % 2) as u64, 1));
    SimContext::new(pop, cfg)
}

#[test]
fn every_protocol_reconciles_on_a_clean_channel() {
    for protocol in &all_protocols() {
        for (n, seed) in [(1usize, 7u64), (60, 11), (200, 13), (120, 1)] {
            let cfg = SimConfig::paper(seed).with_trace();
            let mut ctx = traced_ctx(n, &cfg);
            protocol.run(&mut ctx);
            let label = format!("{} (n={n}, seed={seed})", protocol.name());
            assert_trace_folds_into(&label, &ctx.log, &ctx.counters);
        }
    }
}

#[test]
fn fault_tolerant_protocols_reconcile_across_the_impairment_matrix() {
    let faulty: Vec<Box<dyn PollingProtocol>> = vec![
        Box::new(HppConfig::default()),
        Box::new(EhppConfig::default()),
        Box::new(TppConfig::default()),
        Box::new(MicConfig::default()),
    ];
    for protocol in &faulty {
        for (n, seed, downlink, corruption) in [
            (80usize, 42u64, 0.0f64, 0.0f64),
            (80, 42, 0.0, 0.3),
            (80, 42, 0.3, 0.0),
            (80, 42, 0.3, 0.3),
            (120, 1, 0.3, 0.3),
        ] {
            let fault = FaultModel::perfect()
                .with_downlink_loss(downlink)
                .with_corruption(corruption)
                .with_burst(GilbertElliott::new(0.1, 0.5, 0.0, 0.8));
            let cfg = SimConfig::paper(seed).with_trace().with_fault(fault);
            let mut ctx = traced_ctx(n, &cfg);
            // The fold must hold whether the run completed or stalled:
            // the trace covers everything that happened.
            let _ = protocol.try_run(&mut ctx);
            let label = format!(
                "{} (n={n}, seed={seed}, dl={downlink}, corr={corruption})",
                protocol.name()
            );
            assert_trace_folds_into(&label, &ctx.log, &ctx.counters);
        }
    }
}

#[test]
fn a_trace_exported_to_jsonl_reconciles_after_reimport() {
    // The full loop a consumer would run: trace → JSONL → parse → fold.
    let cfg = SimConfig::paper(3).with_trace();
    let mut ctx = traced_ctx(50, &cfg);
    TppConfig::default().run(&mut ctx);
    assert_trace_folds_into("TPP (n=50, seed=3)", &ctx.log, &ctx.counters);
    let events = EventLog::from_jsonl(&ctx.log.to_jsonl()).expect("trace re-parses");
    assert_eq!(
        Counters::from_events(&events),
        Counters::from_events(ctx.log.events()),
        "the re-imported trace folds differently"
    );
}
