//! Full-lifecycle integration: a reader meets an unknown floor, identifies
//! it, polls it, monitors it through churn — every crate in one flow.

use fast_rfid_polling::apps::info_collect::collect;
use fast_rfid_polling::apps::monitor::InventoryMonitor;
use fast_rfid_polling::estimate::EstimationProtocol;
use fast_rfid_polling::hash::{split_seed, Xoshiro256};
use fast_rfid_polling::identify::QAlgorithmConfig;
use fast_rfid_polling::prelude::*;
use fast_rfid_polling::system::{SimConfig, SimContext};
use fast_rfid_polling::workloads::ChurnModel;

#[test]
fn estimate_identify_poll_monitor_lifecycle() {
    let n = 800usize;
    let scenario = Scenario::uniform(n, 1).with_seed(555);

    // 1. Size the unknown floor.
    let mut ctx = SimContext::new(
        scenario.build_population(),
        &SimConfig::paper(split_seed(555, 0)),
    );
    let estimate = EstimationProtocol.run(&mut ctx);
    let err = (estimate.estimate - n as f64).abs() / n as f64;
    assert!(err < 0.25, "estimate {:.0} vs {n}", estimate.estimate);

    // 2. Identify every tag with the C1G2 Q-algorithm (the estimate could
    //    seed Q; the default adapts there on its own).
    let mut ctx = SimContext::new(
        scenario.build_population(),
        &SimConfig::paper(split_seed(555, 1)),
    );
    let ident = QAlgorithmConfig::default().run(&mut ctx);
    ctx.assert_complete();
    let known: Vec<TagId> = ctx.population.ids().collect();
    assert_eq!(known.len(), n);

    // 3. With IDs known, polling re-reads the floor far faster.
    let mut ctx = SimContext::new(
        scenario.build_population(),
        &SimConfig::paper(split_seed(555, 2)),
    );
    let tpp = TppConfig::default();
    let poll = collect(Session::open(&tpp, &ctx), &mut ctx);
    assert!(poll.end.is_complete());
    assert!(
        ident.total_time > poll.report().total_time * 5.0,
        "identification {} vs polling {}",
        ident.total_time,
        poll.report().total_time
    );

    // 4. Monitor through three epochs of churn; the list must track truth.
    let mut monitor = InventoryMonitor::new(known.clone());
    let mut floor = known;
    let churn = ChurnModel {
        departure_fraction: 0.05,
        arrivals_per_epoch: 15.0,
    };
    let mut rng = Xoshiro256::seed_from_u64(split_seed(555, 3));
    for epoch in 0..3u64 {
        let (remaining, departed, arrivals) = churn.evolve(&floor, &mut rng);
        floor = remaining;
        floor.extend(&arrivals);
        let present = TagPopulation::new(floor.iter().map(|&id| (id, BitVec::from_value(1, 1))));
        let mut ctx = SimContext::new(present, &SimConfig::paper(split_seed(555, 10 + epoch)));
        let report = monitor.epoch(&mut ctx);
        assert_eq!(report.missing.len(), departed.len(), "epoch {epoch}");
        assert_eq!(report.newcomers.len(), arrivals.len(), "epoch {epoch}");
        let mut list = monitor.known_ids();
        let mut truth = floor.clone();
        list.sort();
        truth.sort();
        assert_eq!(list, truth, "epoch {epoch}: list diverged from the floor");
    }
}

#[test]
fn the_paper_workflow_pays_off_within_two_sweeps() {
    // Identification amortizes after one additional polling sweep: the
    // identify-then-poll total beats identifying twice.
    let n = 600usize;
    let scenario = Scenario::uniform(n, 1).with_seed(777);
    let identify_once = {
        let mut ctx = SimContext::new(
            scenario.build_population(),
            &SimConfig::paper(split_seed(777, 0)),
        );
        QAlgorithmConfig::default().run(&mut ctx).total_time
    };
    let poll_once = {
        let mut ctx = SimContext::new(
            scenario.build_population(),
            &SimConfig::paper(split_seed(777, 1)),
        );
        let tpp = TppConfig::default();
        let poll = collect(Session::open(&tpp, &ctx), &mut ctx);
        assert!(poll.end.is_complete());
        poll.report().total_time
    };
    assert!(identify_once + poll_once < identify_once * 2.0);
    assert!(poll_once * 5.0 < identify_once);
}
