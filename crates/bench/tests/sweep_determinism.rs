//! Determinism properties of the sweep engine: parallel output is
//! bit-identical to serial for any worker count, because the engine
//! reduces by placing each run's report at its index, in fixed order.

use rfid_bench::{Cell, SweepEngine};
use rfid_hash::prop::{check, Gen};
use rfid_hash::prop_assert_eq;
use rfid_protocols::{HppConfig, PollingProtocol, Report, TppConfig};
use rfid_system::to_json_string;
use rfid_workloads::Scenario;

/// Monte-Carlo repetitions of every grid cell.
const RUNS: u64 = 4;

fn grid_cells<'a>(tpp: &'a TppConfig, hpp: &'a HppConfig) -> Vec<Cell<'a>> {
    // A small but genuinely mixed grid: two protocols × two n × two seeds.
    let mut cells = Vec::new();
    let rows: [&dyn PollingProtocol; 2] = [tpp, hpp];
    for protocol in rows {
        for n in [40usize, 90] {
            for seed in [7u64, 8] {
                cells.push(Cell::new(
                    protocol,
                    Scenario::uniform(n, 1).with_seed(seed),
                    RUNS,
                ));
            }
        }
    }
    cells
}

/// Bit-exact fingerprint of each run of a cell (every counter, time and
/// field).
fn run_prints(reports: &[Report]) -> Vec<String> {
    reports.iter().map(to_json_string).collect()
}

/// Bit-exact fingerprint of a whole sweep result.
fn fingerprint(results: &[Vec<Report>]) -> String {
    results
        .iter()
        .flat_map(|cell| run_prints(cell))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn parallel_equals_serial_bit_for_bit_for_random_schedules() {
    let tpp = TppConfig::default();
    let hpp = HppConfig::default();
    let cells = grid_cells(&tpp, &hpp);
    let serial_results = SweepEngine::new().with_workers(1).run_cells(&cells);
    assert_eq!(serial_results.len(), cells.len());
    for (ci, reports) in serial_results.iter().enumerate() {
        // A cell yields exactly `runs` reports, and its distinct per-run
        // seeds give runs that differ.
        assert_eq!(reports.len() as u64, RUNS, "cell {ci}");
        let prints = run_prints(reports);
        assert!(
            prints.iter().any(|p| *p != prints[0]),
            "cell {ci}: every run reported the same"
        );
    }
    let serial = fingerprint(&serial_results);

    check("parallel sweep == serial sweep", 8, |g: &mut Gen| {
        let workers = g.u64_in(2, 8) as usize;
        let parallel = fingerprint(
            &SweepEngine::new()
                .with_workers(workers)
                .run_cells(&grid_cells(&tpp, &hpp)),
        );
        prop_assert_eq!(&parallel, &serial);
        Ok(())
    });
}
