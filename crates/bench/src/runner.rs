//! Parallel Monte-Carlo execution of protocol runs.

use rfid_protocols::{PollingProtocol, Report};
use rfid_workloads::Scenario;

use crate::sweep::{Cell, SweepEngine};

/// Runs `runs` independent simulations of `protocol` over `scenario`
/// (run `r` reseeded via [`Scenario::for_run`], exactly as the sweep engine
/// seeds its grid cells) and returns all reports in run order. Workers
/// spread across available cores; a one-run block keeps every run its own
/// job, matching the old chunked scheduler's parallel width.
pub fn montecarlo(scenario: &Scenario, runs: u64, protocol: &dyn PollingProtocol) -> Vec<Report> {
    assert!(runs >= 1);
    let cell = Cell::new("montecarlo", protocol, scenario.clone(), runs);
    SweepEngine::new()
        .with_run_block(1)
        .run_cells(std::slice::from_ref(&cell))
        .pop()
        .expect("one cell in, one cell out")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_protocols::TppConfig;

    #[test]
    fn montecarlo_produces_the_requested_runs() {
        let scenario = Scenario::uniform(100, 1).with_seed(5);
        let reports = montecarlo(&scenario, 8, &TppConfig::default());
        assert_eq!(reports.len(), 8);
        for r in &reports {
            assert_eq!(r.counters.polls, 100);
        }
        // Distinct seeds → runs differ.
        assert!(reports
            .windows(2)
            .any(|w| w[0].total_time != w[1].total_time));
    }

    #[test]
    fn montecarlo_is_reproducible() {
        let scenario = Scenario::uniform(50, 1).with_seed(9);
        let a = montecarlo(&scenario, 4, &TppConfig::default());
        let b = montecarlo(&scenario, 4, &TppConfig::default());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.total_time, y.total_time);
        }
    }
}
