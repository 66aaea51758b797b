//! Cold-chain monitoring: collect 16-bit temperature readings from
//! sensor-augmented tags (the Section-I use case behind Table II).
//!
//! ```text
//! cargo run --release --example cold_chain
//! ```
//!
//! 5 000 chilled-food tags each hold a 16-bit temperature word. The example
//! collects all readings with TPP, flags containers above threshold, and
//! compares the collection time against MIC and the C1G2 lower bound.

use fast_rfid_polling::apps::category::aggregate_by_category;
use fast_rfid_polling::apps::info_collect::run_polling;
use fast_rfid_polling::baselines::LowerBound;
use fast_rfid_polling::prelude::*;
use fast_rfid_polling::workloads::payload::decode_temperature;
use fast_rfid_polling::workloads::PayloadKind;

fn main() {
    let n = 5_000;
    // 4 °C base (chilled food), ±2 °C sensor jitter, 8 product categories.
    let scenario = Scenario::uniform(n, 16)
        .with_seed(4321)
        .with_ids(IdDistribution::Clustered { categories: 8 })
        .with_payload(PayloadKind::Temperature { base_quarters: 16 });

    println!("cold chain: {n} sensor tags, 16-bit temperature words\n");

    let tpp = run_polling(&TppConfig::default(), &scenario);
    let mic = run_polling(&MicConfig::default(), &scenario);
    let lb = run_polling(&LowerBound, &scenario);

    println!("{:<12} {:>12} {:>18}", "protocol", "time", "vs lower bound");
    for r in [tpp.report(), mic.report(), lb.report()] {
        println!(
            "{:<12} {:>12} {:>17.2}×",
            r.protocol,
            r.total_time.to_string(),
            r.time_ratio(lb.report())
        );
    }

    // Analyze the collected readings.
    let threshold = 5.5;
    let temps: Vec<f64> = tpp
        .collected
        .iter()
        .map(|(_, info)| decode_temperature(info))
        .collect();
    let mean = temps.iter().sum::<f64>() / temps.len() as f64;
    let warm: Vec<(&TagId, f64)> = tpp
        .collected
        .iter()
        .map(|(id, info)| (id, decode_temperature(info)))
        .filter(|(_, t)| *t > threshold)
        .collect();

    println!(
        "\nmean temperature {mean:.2} °C; {} tags above {threshold} °C",
        warm.len()
    );
    for (id, t) in warm.iter().take(5) {
        println!("  over-temperature: {id} at {t:.2} °C");
    }

    // Per-category roll-up: which product line runs warm?
    println!("\nper-category temperatures:");
    for (cat, stats) in aggregate_by_category(&tpp.collected) {
        let mean_c = (stats.mean - 160.0) / 4.0;
        println!(
            "  category {cat:#018x}: {:>4} tags, mean {mean_c:.2} °C, max {:.2} °C",
            stats.count,
            (stats.max as f64 - 160.0) / 4.0
        );
    }

    assert!(tpp.report().total_time < mic.report().total_time);
    println!(
        "\nTPP collected all {} readings {:.1} % faster than MIC.",
        n,
        (1.0 - tpp.report().total_time / mic.report().total_time) * 100.0
    );
}
