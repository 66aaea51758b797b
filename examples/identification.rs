//! Identification vs polling: quantifying the paper's premise.
//!
//! ```text
//! cargo run --release --example identification
//! ```
//!
//! Before a reader can poll, it must *identify* — learn the IDs in its
//! zone. This example runs the three classical anti-collision families
//! (the C1G2 Q-algorithm, Query Tree, binary splitting) over the same
//! population and compares their cost with a subsequent TPP polling pass:
//! once the IDs are known, re-reading every tag is an order of magnitude
//! cheaper, which is exactly why the paper optimizes the polling phase.

use fast_rfid_polling::identify::{BinarySplitConfig, QAlgorithmConfig, QueryTreeConfig};
use fast_rfid_polling::prelude::*;
use fast_rfid_polling::system::{SimConfig, SimContext};

fn main() {
    let n = 2_000usize;
    println!("identify {n} unknown tags, then poll them — per-phase cost\n");
    println!(
        "{:<12} {:>12} {:>12} {:>16}",
        "protocol", "time", "per tag", "slots/queries"
    );

    let identifiers: Vec<(&str, Box<dyn PollingProtocol>)> = vec![
        (
            "Q-algo",
            Box::new(QAlgorithmConfig::default().into_protocol()),
        ),
        (
            "QueryTree",
            Box::new(QueryTreeConfig::default().into_protocol()),
        ),
        (
            "BinSplit",
            Box::new(BinarySplitConfig::default().into_protocol()),
        ),
    ];

    for (label, protocol) in &identifiers {
        // RN16-style 16-bit slot bursts for the Q-algorithm; the tree
        // protocols carry their ID remainders explicitly.
        let info_bits = if *label == "Q-algo" { 16 } else { 1 };
        let scenario = Scenario::uniform(n, info_bits).with_seed(99);
        let mut ctx = SimContext::new(
            scenario.build_population(),
            &SimConfig::paper(scenario.protocol_seed()),
        );
        let report = protocol.run(&mut ctx);
        ctx.assert_complete();
        let slots =
            report.counters.polls + report.counters.empty_slots + report.counters.collision_slots;
        println!(
            "{label:<12} {:>12} {:>12} {:>16}",
            report.total_time.to_string(),
            report.time_per_tag().to_string(),
            slots
        );
    }

    // Now the reader knows the IDs: polling re-reads the field.
    let scenario = Scenario::uniform(n, 1).with_seed(99);
    let outcome = fast_rfid_polling::apps::info_collect::run_polling(
        &TppConfig::default().into_protocol(),
        &scenario,
    );
    println!(
        "{:<12} {:>12} {:>12} {:>16}",
        "TPP (poll)",
        outcome.report().total_time.to_string(),
        outcome.report().time_per_tag().to_string(),
        outcome.report().counters.polls
    );

    println!("\nidentification pays once; every later presence check or sensor");
    println!("sweep should use polling — and TPP makes polling ~31× cheaper in");
    println!("reader bits than the conventional 96-bit-ID approach.");
}
