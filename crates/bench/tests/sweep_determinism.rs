//! Determinism properties of the sweep engine: parallel output is
//! bit-identical to serial for any worker count and run-block size,
//! because the engine reduces by placing each report at its index, in
//! fixed order.

use rfid_bench::{montecarlo, Cell, SweepEngine};
use rfid_hash::prop::{check, Gen};
use rfid_hash::prop_assert_eq;
use rfid_protocols::{HppConfig, PollingProtocol, TppConfig};
use rfid_system::to_json_string;
use rfid_workloads::Scenario;

fn grid_cells<'a>(tpp: &'a TppConfig, hpp: &'a HppConfig) -> Vec<Cell<'a>> {
    // A small but genuinely mixed grid: two protocols × two n × two seeds.
    let mut cells = Vec::new();
    let rows: [(&str, &dyn PollingProtocol); 2] = [("TPP", tpp), ("HPP", hpp)];
    for (label, protocol) in rows {
        for n in [40usize, 90] {
            for seed in [7u64, 8] {
                cells.push(Cell::new(
                    label,
                    protocol,
                    Scenario::uniform(n, 1).with_seed(seed),
                    4,
                ));
            }
        }
    }
    cells
}

/// Bit-exact fingerprint of a sweep result (every counter, time and field).
fn fingerprint(results: &[Vec<rfid_protocols::Report>]) -> String {
    results
        .iter()
        .flatten()
        .map(to_json_string)
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn parallel_equals_serial_bit_for_bit_for_random_schedules() {
    let tpp = TppConfig::default();
    let hpp = HppConfig::default();
    let serial = fingerprint(
        &SweepEngine::new()
            .with_workers(1)
            .run_cells(&grid_cells(&tpp, &hpp)),
    );

    check("parallel sweep == serial sweep", 8, |g: &mut Gen| {
        let workers = g.u64_in(2, 8) as usize;
        let block = g.u64_in(1, 5);
        let parallel = fingerprint(
            &SweepEngine::new()
                .with_workers(workers)
                .with_run_block(block)
                .run_cells(&grid_cells(&tpp, &hpp)),
        );
        prop_assert_eq!(&parallel, &serial);
        Ok(())
    });
}

#[test]
fn engine_reproduces_montecarlo_run_for_run() {
    let scenario = Scenario::uniform(80, 1).with_seed(21);
    let runs = 6u64;
    let tpp = TppConfig::default();
    let reference: Vec<String> = montecarlo(&scenario, runs, &tpp)
        .iter()
        .map(to_json_string)
        .collect();
    let cell = Cell::new("TPP", &tpp, scenario, runs);
    let engine: Vec<String> = SweepEngine::new()
        .with_workers(3)
        .with_run_block(4)
        .run_cells(std::slice::from_ref(&cell))
        .remove(0)
        .iter()
        .map(to_json_string)
        .collect();
    assert_eq!(engine, reference);
}
