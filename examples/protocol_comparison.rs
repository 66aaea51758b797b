//! Full protocol sweep: the shape of Tables I–III in one run.
//!
//! ```text
//! cargo run --release --example protocol_comparison [max_n]
//! ```
//!
//! Sweeps the population size and payload length and prints execution
//! times for every protocol, plus each protocol's distance from the C1G2
//! lower bound. `max_n` defaults to 10 000 (Table-scale 100 000 is what
//! the bench harness runs).

use fast_rfid_polling::apps::info_collect::run_polling;
use fast_rfid_polling::baselines::LowerBound;
use fast_rfid_polling::prelude::*;

/// A table row: label plus a factory of fresh protocol instances.
type ProtocolRow = (&'static str, Box<dyn Fn() -> Box<dyn PollingProtocol>>);

fn main() {
    let max_n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    let ns: Vec<usize> = [100usize, 1_000, 10_000, 100_000]
        .into_iter()
        .filter(|&n| n <= max_n)
        .collect();

    for info_bits in [1usize, 16, 32] {
        println!("\n=== collecting {info_bits}-bit information ===");
        print!("{:<12}", "protocol");
        for n in &ns {
            print!(" {:>12}", format!("n={n}"));
        }
        println!();

        let rows: Vec<ProtocolRow> = vec![
            (
                "CPP",
                Box::new(|| Box::new(CppConfig::default().into_protocol())),
            ),
            (
                "CP",
                Box::new(|| Box::new(CodedPollingConfig::default().into_protocol())),
            ),
            (
                "HPP",
                Box::new(|| Box::new(HppConfig::default().into_protocol())),
            ),
            (
                "EHPP",
                Box::new(|| Box::new(EhppConfig::default().into_protocol())),
            ),
            (
                "MIC k=7",
                Box::new(|| Box::new(MicConfig::default().into_protocol())),
            ),
            (
                "TPP",
                Box::new(|| Box::new(TppConfig::default().into_protocol())),
            ),
            ("LowerBound", Box::new(|| Box::new(LowerBound))),
        ];

        for (label, make) in &rows {
            print!("{label:<12}");
            for &n in &ns {
                let scenario = Scenario::uniform(n, info_bits).with_seed(1);
                let protocol = make();
                let outcome = run_polling(protocol.as_ref(), &scenario);
                print!(" {:>11.3}s", outcome.report().total_time.as_secs());
            }
            println!();
        }
    }

    println!("\nShape to check against the paper: TPP < MIC < EHPP ≤ HPP < CPP");
    println!("at every n ≥ 1 000, and TPP ≈ 1.1–1.4× the lower bound.");
}
