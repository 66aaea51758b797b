//! Deterministic parallel sweep engine for the evaluation grid.
//!
//! `repro` regenerates the paper's figures and tables by walking a grid of
//! *cells* — protocol row × population size × payload width — each cell a
//! number of Monte-Carlo runs. This module schedules those runs across
//! cores without changing a single output bit:
//!
//! * **Jobs.** A job is one run of one cell. Run `r` of a cell always
//!   simulates under `split_seed(scenario.seed, r)` (via
//!   [`Scenario::for_run`]), so results are independent of worker count
//!   and scheduling order.
//! * **Scheduling.** Workers (`std::thread::scope`) pull jobs from a shared
//!   atomic cursor — work-stealing in the only sense that matters here:
//!   whichever thread is free takes the next job. Results land in
//!   cell-index/run-index order: reduction is by placement, in that fixed
//!   order, which is why parallel output is bit-identical to
//!   `--workers 1`.
//! * **Statistics.** Cumulative [`SweepStats`] feed the
//!   `BENCH_sweep.json` throughput trajectory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use rfid_apps::info_collect::run_polling;
use rfid_protocols::{PollingProtocol, Report, SessionEnd};
use rfid_system::Json;
use rfid_workloads::Scenario;

use crate::harness::{write_report, BenchRecord};

/// One grid cell: a protocol row evaluated over a scenario for `runs`
/// Monte-Carlo repetitions.
pub struct Cell<'a> {
    /// The configured protocol, shared by every run and worker.
    pub(crate) protocol: &'a dyn PollingProtocol,
    /// Population description, carrying the cell's master seed.
    pub(crate) scenario: Scenario,
    /// Monte-Carlo repetitions; run `r` executes under
    /// `scenario.for_run(r)`.
    pub(crate) runs: u64,
}

impl<'a> Cell<'a> {
    /// A cell running `protocol` over `scenario` for `runs` repetitions.
    pub fn new(protocol: &'a dyn PollingProtocol, scenario: Scenario, runs: u64) -> Self {
        Cell {
            protocol,
            scenario,
            runs,
        }
    }
}

/// Cumulative execution statistics of a [`SweepEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepStats {
    /// Grid cells processed.
    pub cells: u64,
    /// Monte-Carlo runs processed (one job each).
    pub runs: u64,
    /// Wall-clock seconds spent inside [`SweepEngine::run_cells`].
    pub elapsed_s: f64,
}

impl SweepStats {
    /// Cell throughput (0 when nothing ran).
    pub fn cells_per_sec(&self) -> f64 {
        if self.elapsed_s <= 0.0 {
            0.0
        } else {
            self.cells as f64 / self.elapsed_s
        }
    }
}

/// The deterministic parallel sweep scheduler. See the module docs for the
/// job model and seeding rule.
pub struct SweepEngine {
    workers: usize,
    progress: bool,
    stats: SweepStats,
}

impl Default for SweepEngine {
    fn default() -> Self {
        SweepEngine::new()
    }
}

impl SweepEngine {
    /// An engine with one worker per available core.
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4);
        SweepEngine {
            workers,
            progress: false,
            stats: SweepStats::default(),
        }
    }

    /// Sets the worker-thread count (1 = the serial reference path).
    ///
    /// # Panics
    /// Panics on 0 workers.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        self.workers = workers;
        self
    }

    /// Enables decile progress lines on stderr.
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Cumulative statistics across every `run_cells` call so far.
    pub fn stats(&self) -> SweepStats {
        self.stats
    }

    /// Executes every cell and returns the per-cell reports, in cell order,
    /// with reports in run order. Output is bit-identical for any worker
    /// count or scheduling interleaving: per-run seeds depend only on the
    /// cell's scenario and the run index, and all result placement is by
    /// index.
    pub fn run_cells(&mut self, cells: &[Cell<'_>]) -> Vec<Vec<Report>> {
        let t0 = Instant::now();
        // Jobs in cell-major, run-minor order: job `j`'s report is the
        // `j`-th report of the flattened result.
        let jobs: Vec<(usize, u64)> = cells
            .iter()
            .enumerate()
            .flat_map(|(ci, cell)| {
                assert!(cell.runs >= 1, "cell {ci} has zero runs");
                (0..cell.runs).map(move |r| (ci, r))
            })
            .collect();
        let workers = self.workers.min(jobs.len().max(1));
        let mut reports = run_jobs(cells, &jobs, workers, self.progress).into_iter();
        let results = cells
            .iter()
            .map(|cell| reports.by_ref().take(cell.runs as usize).collect())
            .collect();

        self.stats.cells += cells.len() as u64;
        self.stats.runs += jobs.len() as u64;
        self.stats.elapsed_s += t0.elapsed().as_secs_f64();
        results
    }

    /// Appends this engine's cumulative stats to the records of
    /// `BENCH_sweep.json` under `dir` and returns the file path. Records
    /// accumulate across invocations (e.g. a `--workers 1` run followed by
    /// a default-width run), seeding the sweep-throughput bench trajectory
    /// with cells/sec and worker-count scaling data.
    pub fn write_bench_entry(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let mut records: Vec<BenchRecord> = std::fs::read_to_string(dir.join("BENCH_sweep.json"))
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .and_then(|doc| doc.field("records").ok())
            .unwrap_or_default();
        let s = self.stats();
        let case = format!("workers_{}", self.workers);
        let record = |metric: &str, unit: &str, value: f64| {
            BenchRecord::new(&case, metric, unit, value)
                .param("workers", &self.workers)
                .param("cells", &s.cells)
                .param("runs", &s.runs)
        };
        records.push(record("cells_per_sec", "cells/s", s.cells_per_sec()));
        records.push(record("elapsed_s", "s", s.elapsed_s));
        write_report(dir, "sweep", &records)
    }
}

/// Executes one Monte-Carlo run of a cell on the paper's perfect channel
/// through the validated [`run_polling`] path, which panics on a stall.
fn execute_run(cell: &Cell<'_>, sc: &Scenario) -> Report {
    match run_polling(cell.protocol, sc).end {
        SessionEnd::Complete { report, .. } | SessionEnd::Degraded { report, .. } => report,
        SessionEnd::Stalled(_) => unreachable!("run_polling panics on a stall"),
    }
}

/// Executes `jobs` — `(cell, run)` pairs — across `workers` scoped
/// threads. Returns the reports in `jobs` order.
fn run_jobs(
    cells: &[Cell<'_>],
    jobs: &[(usize, u64)],
    workers: usize,
    progress: bool,
) -> Vec<Report> {
    let cursor = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let worker_results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let j = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&(ci, run)) = jobs.get(j) else { break };
                        let cell = &cells[ci];
                        local.push((j, execute_run(cell, &cell.scenario.for_run(run))));
                        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                        if progress
                            && finished * 10 / jobs.len() != (finished - 1) * 10 / jobs.len()
                        {
                            eprintln!("sweep: {finished}/{} runs", jobs.len());
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<Report>> = (0..jobs.len()).map(|_| None).collect();
    for (j, report) in worker_results.into_iter().flatten() {
        slots[j] = Some(report);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every job computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_protocols::TppConfig;

    #[test]
    fn bench_entries_append_across_invocations() {
        let dir = std::env::temp_dir().join(format!("rfid-sweep-bench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let engine = SweepEngine::new().with_workers(1);
        engine.write_bench_entry(&dir).unwrap();
        let path = engine.write_bench_entry(&dir).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(doc.get("group").unwrap().as_str().unwrap(), "sweep");
        let records: Vec<BenchRecord> = doc.field("records").unwrap();
        assert_eq!(records.len(), 4);
        assert!(records.iter().all(|r| r.case == "workers_1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_accumulate_and_rates_are_sane() {
        let tpp = TppConfig::default();
        let cell = Cell::new(&tpp, Scenario::uniform(20, 1).with_seed(4), 3);
        let mut engine = SweepEngine::new().with_workers(2);
        let out = engine.run_cells(std::slice::from_ref(&cell));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 3);
        let s = engine.stats();
        assert_eq!((s.cells, s.runs), (1, 3));
        assert!(s.cells_per_sec() > 0.0);
    }
}
