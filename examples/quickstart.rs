//! Quickstart: poll 1 000 tags with every protocol and compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a population of uniformly random EPC-96 tags, runs CPP, CP, HPP,
//! EHPP, TPP and MIC over the same population, and prints the paper's two
//! headline metrics per protocol: the average polling-vector length and the
//! total execution time under C1G2 timing.

use fast_rfid_polling::prelude::*;

fn main() {
    let n = 1_000;
    let info_bits = 1;
    let scenario = Scenario::uniform(n, info_bits).with_seed(2016);

    println!("Fast RFID Polling quickstart — {n} tags, {info_bits}-bit payloads\n");
    println!(
        "{:<12} {:>14} {:>16} {:>12} {:>8}",
        "protocol", "mean w (bits)", "w incl. ovh", "time", "rounds"
    );

    let protocols: Vec<Box<dyn PollingProtocol>> = vec![
        Box::new(CppConfig::default().into_protocol()),
        Box::new(CodedPollingConfig::default().into_protocol()),
        Box::new(HppConfig::default().into_protocol()),
        Box::new(EhppConfig::default().into_protocol()),
        Box::new(MicConfig::default().into_protocol()),
        Box::new(TppConfig::default().into_protocol()),
    ];

    for protocol in &protocols {
        let outcome =
            fast_rfid_polling::apps::info_collect::run_polling(protocol.as_ref(), &scenario);
        let r = outcome.report();
        println!(
            "{:<12} {:>14.2} {:>16.2} {:>12} {:>8}",
            r.protocol,
            r.mean_vector_bits(),
            r.mean_vector_bits_with_overhead(),
            r.total_time.to_string(),
            r.counters.rounds,
        );
    }

    println!("\nTPP shortens the polling vector from 96 bits to ~3 bits — the");
    println!("paper's ~31× reduction — and is the fastest protocol end to end.");
}
