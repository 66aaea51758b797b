//! The reconciliation gate: for every protocol in the workspace, a traced
//! run's event log must replay into the run's `Counters` bit-for-bit —
//! on a clean channel, under the deterministic fault matrix, and under
//! randomly drawn fault models. Any mismatch is an instrumentation bug
//! (a counter bumped without an event or vice versa).

use rfid_baselines::{CodedPollingConfig, CppConfig, EcppConfig, FsaConfig, LowerBound, MicConfig};
use rfid_hash::prop::check;
use rfid_identify::{BinarySplitConfig, QAlgorithmConfig, QueryTreeConfig};
use rfid_obs::reconcile;
use rfid_protocols::{EhppConfig, HppConfig, PollingProtocol, TppConfig};
use rfid_system::{BitVec, FaultModel, GilbertElliott, SimConfig, SimContext, TagPopulation};

fn all_protocols() -> Vec<Box<dyn PollingProtocol>> {
    vec![
        Box::new(HppConfig::default()),
        Box::new(EhppConfig::default()),
        Box::new(TppConfig::default()),
        Box::new(LowerBound),
        Box::new(FsaConfig::default()),
        Box::new(CppConfig::default()),
        Box::new(EcppConfig::default()),
        Box::new(CodedPollingConfig::default()),
        Box::new(MicConfig::default()),
        Box::new(QAlgorithmConfig::default()),
        Box::new(QueryTreeConfig::default()),
        Box::new(BinarySplitConfig::default()),
    ]
}

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
            reconcile(&ctx.log, &ctx.counters)
                .unwrap_or_else(|e| panic!("{} (n={n}, seed={seed}): {e}", protocol.name()));
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
            // Reconciliation must hold whether the run completed or
            // stalled — the trace covers everything that happened.
            let _ = protocol.try_run(&mut ctx);
            reconcile(&ctx.log, &ctx.counters).unwrap_or_else(|e| {
                panic!(
                    "{} (n={n}, seed={seed}, dl={downlink}, corr={corruption}): {e}",
                    protocol.name()
                )
            });
        }
    }
}

#[test]
fn reconciliation_holds_under_random_fault_models() {
    check("reconciliation under random fault models", 48, |g| {
        let n = g.len_in(1, 120);
        let seed = g.u64();
        let mut fault = FaultModel::perfect()
            .with_downlink_loss(g.f64_in(0.0, 0.4))
            .with_corruption(g.f64_in(0.0, 0.4))
            .with_max_poll_retries(g.u64_in(1, 4) as u32);
        if g.bool() {
            fault = fault.with_burst(GilbertElliott::new(
                g.f64_in(0.05, 0.3),
                g.f64_in(0.2, 0.8),
                0.0,
                g.f64_in(0.5, 0.9),
            ));
        }
        let protocols: [Box<dyn PollingProtocol>; 4] = [
            Box::new(HppConfig::default()),
            Box::new(EhppConfig::default()),
            Box::new(TppConfig::default()),
            Box::new(MicConfig::default()),
        ];
        let protocol = &protocols[g.u64_below(4) as usize];
        let cfg = SimConfig::paper(seed).with_trace().with_fault(fault);
        let mut ctx = traced_ctx(n, &cfg);
        let _ = protocol.try_run(&mut ctx);
        if let Err(e) = reconcile(&ctx.log, &ctx.counters) {
            return Err(format!("{} (n={n}, seed={seed}): {e}", protocol.name()));
        }
        Ok(())
    });
}

#[test]
fn a_trace_exported_to_jsonl_reconciles_after_reimport() {
    // The full loop a consumer would run: trace → JSONL → parse → replay.
    let cfg = SimConfig::paper(3).with_trace();
    let mut ctx = traced_ctx(50, &cfg);
    TppConfig::default().run(&mut ctx);
    let jsonl = ctx.log.to_jsonl();
    let events = rfid_system::EventLog::from_jsonl(&jsonl).expect("trace re-parses");
    let replayed = rfid_obs::counters_from_events(&events);
    rfid_obs::reconcile_counters(&replayed, &ctx.counters).expect("reimported trace reconciles");
}
