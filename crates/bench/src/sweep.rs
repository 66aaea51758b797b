//! Deterministic parallel sweep engine for the evaluation grid.
//!
//! `repro` regenerates the paper's figures and tables by walking a grid of
//! *cells* — protocol row × population size × payload width — each cell a
//! block of Monte-Carlo runs. This module schedules those cells across
//! cores without changing a single output bit:
//!
//! * **Jobs.** Every cell expands into run-blocks of at most
//!   [`SweepEngine::with_run_block`] runs. Run `r` of a cell always
//!   simulates under `split_seed(scenario.seed, r)` (via
//!   [`Scenario::for_run`]), so results are independent of block size,
//!   worker count and scheduling order.
//! * **Scheduling.** Workers (`std::thread::scope`) pull jobs from a shared
//!   atomic cursor — work-stealing in the only sense that matters here:
//!   whichever thread is free takes the next job. Results land in
//!   cell-index/run-index order: reduction is by placement, in that fixed
//!   order, which is why parallel output is bit-identical to
//!   `--workers 1`.
//! * **Caching.** With a cache directory attached, each job's result is
//!   persisted under a content-addressed key — an FNV-1a hash over the
//!   row label, the cell protocol's own JSON, the scenario JSON (including
//!   the master seed), the run-block range and a code-version salt
//!   ([`CACHE_SALT`]) — as one JSONL line of `Report`s. A warm cache skips
//!   recompute; bumping the salt (or any keyed input) invalidates exactly
//!   the affected cells.
//! * **Statistics.** Cumulative [`SweepStats`] feed the
//!   `BENCH_sweep.json` throughput trajectory.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use rfid_apps::info_collect::run_polling;
use rfid_hash::fnv64;
use rfid_protocols::{PollingProtocol, Report, SessionEnd};
use rfid_system::{to_json_string, FromJson, Json, ToJson};
use rfid_workloads::Scenario;

use crate::harness::{write_report, BenchRecord};

/// Code-version salt folded into every cache key. Bump whenever simulator
/// semantics change in a way that alters reports, so stale sweep caches
/// invalidate themselves. (v2: `Counters` gained the recovery fields.)
pub(crate) const CACHE_SALT: &str = "sweep-v3";

/// Default runs per job (run-block size): fine-grained enough that a single
/// cell still fans out across cores.
const DEFAULT_RUN_BLOCK: u64 = 2;

/// One grid cell: a protocol row evaluated over a scenario for `runs`
/// Monte-Carlo repetitions.
pub struct Cell<'a> {
    /// Row label (cache-key component).
    pub(crate) label: String,
    /// The configured protocol, shared by every run and worker; its JSON
    /// is the config component of the cache key.
    pub(crate) protocol: &'a dyn PollingProtocol,
    /// Population description, carrying the cell's master seed.
    pub(crate) scenario: Scenario,
    /// Monte-Carlo repetitions; run `r` executes under
    /// `scenario.for_run(r)`.
    pub(crate) runs: u64,
}

impl<'a> Cell<'a> {
    /// A cell running `protocol` under the row label `label`.
    pub fn new(
        label: impl Into<String>,
        protocol: &'a dyn PollingProtocol,
        scenario: Scenario,
        runs: u64,
    ) -> Self {
        Cell {
            label: label.into(),
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
    /// Jobs (run-blocks) processed, including cache hits.
    pub jobs: u64,
    /// Monte-Carlo runs covered, including cache hits.
    pub(crate) runs: u64,
    /// Jobs served from the cell cache.
    pub cache_hits: u64,
    /// Wall-clock seconds spent inside [`SweepEngine::run_cells`].
    pub elapsed_s: f64,
}

impl SweepStats {
    /// Fraction of jobs served from cache (0 when nothing ran).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.jobs as f64
        }
    }

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
/// job model, seeding and cache-keying rules.
pub struct SweepEngine {
    workers: usize,
    run_block: u64,
    progress: bool,
    cache: Option<SweepCache>,
    stats: SweepStats,
}

impl Default for SweepEngine {
    fn default() -> Self {
        SweepEngine::new()
    }
}

impl SweepEngine {
    /// An engine with one worker per available core, the default run-block
    /// size and no cache.
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4);
        SweepEngine {
            workers,
            run_block: DEFAULT_RUN_BLOCK,
            progress: false,
            cache: None,
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

    /// Sets the maximum runs per job. Does not affect results, only
    /// scheduling granularity and cache addressing.
    ///
    /// # Panics
    /// Panics on a 0-run block.
    pub fn with_run_block(mut self, runs: u64) -> Self {
        assert!(runs >= 1, "need at least one run per block");
        self.run_block = runs;
        self
    }

    /// Enables decile progress lines on stderr.
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Attaches a persistent cell cache rooted at `dir` (created on first
    /// write; unreadable entries are ignored).
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache = Some(SweepCache::open(dir.into()));
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
    /// count, run-block size, or scheduling interleaving: per-run seeds
    /// depend only on the cell's scenario and the global run index, and all
    /// result placement is by index.
    pub fn run_cells(&mut self, cells: &[Cell<'_>]) -> Vec<Vec<Report>> {
        let t0 = Instant::now();
        let jobs = self.expand_jobs(cells);

        // Cache phase: serve what we can, queue the rest.
        let mut results: Vec<Vec<Option<Report>>> =
            cells.iter().map(|c| vec![None; c.runs as usize]).collect();
        let mut pending: Vec<&Job> = Vec::new();
        let mut hits = 0u64;
        for job in &jobs {
            match self.cache.as_ref().and_then(|c| c.get(&job.id)) {
                Some(reports) if reports.len() == job.len as usize => {
                    for (i, r) in reports.iter().enumerate() {
                        results[job.cell][(job.start + i as u64) as usize] = Some(r.clone());
                    }
                    hits += 1;
                }
                _ => pending.push(job),
            }
        }

        // Parallel phase: one atomic cursor, results placed by job index.
        let workers = self.workers.min(pending.len().max(1));
        let computed = run_jobs(cells, &pending, workers, self.progress);

        // Reduction phase, in fixed job order: persist misses, fill slots.
        let mut fresh_lines: Vec<String> = Vec::new();
        for (job, reports) in pending.iter().zip(computed) {
            if self.cache.is_some() {
                fresh_lines.push(cache_line(&job.key, &job.id, &reports));
            }
            for (i, r) in reports.into_iter().enumerate() {
                results[job.cell][(job.start + i as u64) as usize] = Some(r);
            }
        }
        if let Some(cache) = &mut self.cache {
            cache.append(&fresh_lines);
        }

        // Bookkeeping.
        let elapsed = t0.elapsed().as_secs_f64();
        self.stats.cells += cells.len() as u64;
        self.stats.jobs += jobs.len() as u64;
        self.stats.runs += cells.iter().map(|c| c.runs).sum::<u64>();
        self.stats.cache_hits += hits;
        self.stats.elapsed_s += elapsed;

        results
            .into_iter()
            .map(|cell| {
                cell.into_iter()
                    .map(|r| r.expect("every run filled"))
                    .collect()
            })
            .collect()
    }

    /// Appends this engine's cumulative stats to the records of
    /// `BENCH_sweep.json` under `dir` and returns the file path. Records
    /// accumulate across invocations (e.g. a cold `--workers 1` run
    /// followed by a warm default-width run), seeding the sweep-throughput
    /// bench trajectory with cells/sec, cache-hit-rate and worker-count
    /// scaling data.
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
                .param("jobs", &s.jobs)
                .param("runs", &s.runs)
                .param("cache_hits", &s.cache_hits)
        };
        records.push(record("cells_per_sec", "cells/s", s.cells_per_sec()));
        records.push(record("cache_hit_rate", "ratio", s.cache_hit_rate()));
        records.push(record("elapsed_s", "s", s.elapsed_s));
        write_report(dir, "sweep", &records)
    }

    fn expand_jobs(&self, cells: &[Cell<'_>]) -> Vec<Job> {
        let mut jobs = Vec::new();
        for (ci, cell) in cells.iter().enumerate() {
            assert!(cell.runs >= 1, "cell {ci} has zero runs");
            let config_json = to_json_string(cell.protocol);
            let scenario_json = to_json_string(&cell.scenario);
            let mut start = 0;
            while start < cell.runs {
                let len = self.run_block.min(cell.runs - start);
                let id = cache_id(
                    CACHE_SALT,
                    &cell.label,
                    &config_json,
                    &scenario_json,
                    start,
                    len,
                );
                let key = format!("{:016x}", fnv64(&id));
                jobs.push(Job {
                    cell: ci,
                    start,
                    len,
                    id,
                    key,
                });
                start += len;
            }
        }
        jobs
    }
}

/// The content address of one job's cache entry, before hashing: every
/// input that can change its reports, the code-version salt first.
fn cache_id(salt: &str, label: &str, config: &str, scenario: &str, start: u64, len: u64) -> String {
    format!("{salt}|{label}|{config}|{scenario}|{start}+{len}")
}

/// Executes one Monte-Carlo run of a cell on the paper's perfect channel
/// through the validated [`run_polling`] path, which panics on a stall.
fn execute_run(cell: &Cell<'_>, sc: &Scenario) -> Report {
    match run_polling(cell.protocol, sc).end {
        SessionEnd::Complete { report, .. } | SessionEnd::Degraded { report, .. } => report,
        SessionEnd::Stalled(_) => unreachable!("run_polling panics on a stall"),
    }
}

/// One schedulable unit: a run-block of a cell plus its cache identity.
struct Job {
    cell: usize,
    start: u64,
    len: u64,
    /// Full cache-key preimage (collision-proof lookup).
    id: String,
    /// Content hash of `id` (compact on-disk key).
    key: String,
}

/// Executes `pending` jobs across `workers` scoped threads. Returns the
/// computed reports in `pending` order.
fn run_jobs(
    cells: &[Cell<'_>],
    pending: &[&Job],
    workers: usize,
    progress: bool,
) -> Vec<Vec<Report>> {
    let cursor = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let mut slots: Vec<Option<Vec<Report>>> = (0..pending.len()).map(|_| None).collect();
    let worker_results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let j = cursor.fetch_add(1, Ordering::Relaxed);
                        if j >= pending.len() {
                            break;
                        }
                        let job = pending[j];
                        let cell = &cells[job.cell];
                        let mut reports = Vec::with_capacity(job.len as usize);
                        for r in job.start..job.start + job.len {
                            reports.push(execute_run(cell, &cell.scenario.for_run(r)));
                        }
                        local.push((j, reports));
                        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                        if progress
                            && finished * 10 / pending.len() != (finished - 1) * 10 / pending.len()
                        {
                            eprintln!("sweep: {finished}/{} jobs", pending.len());
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
    for (j, reports) in worker_results.into_iter().flatten() {
        slots[j] = Some(reports);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every pending job computed"))
        .collect()
}

/// The persistent content-addressed cell cache: one JSONL file of
/// `{key, id, reports}` lines. Lookups compare the full `id` preimage, so
/// hash collisions cannot alias cells.
struct SweepCache {
    file: PathBuf,
    entries: HashMap<String, Vec<Report>>,
}

impl SweepCache {
    fn open(dir: PathBuf) -> SweepCache {
        let file = dir.join("cells.jsonl");
        let mut entries = HashMap::new();
        if let Ok(text) = std::fs::read_to_string(&file) {
            for line in text.lines() {
                let Ok(doc) = Json::parse(line) else { continue };
                let (Some(id), Some(reports)) = (
                    doc.get("id")
                        .and_then(|v| v.as_str().ok().map(str::to_string)),
                    doc.get("reports")
                        .and_then(|v| Vec::<Report>::from_json(v).ok()),
                ) else {
                    continue;
                };
                entries.insert(id, reports);
            }
        }
        SweepCache { file, entries }
    }

    fn get(&self, id: &str) -> Option<&Vec<Report>> {
        self.entries.get(id)
    }

    fn append(&mut self, lines: &[String]) {
        if lines.is_empty() {
            return;
        }
        if let Some(dir) = self.file.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.file)
        {
            Ok(mut f) => {
                for line in lines {
                    if writeln!(f, "{line}").is_err() {
                        break;
                    }
                }
            }
            Err(e) => eprintln!("sweep cache: could not open {}: {e}", self.file.display()),
        }
        // Keep the in-memory view warm for later batches in this process.
        for line in lines {
            if let Ok(doc) = Json::parse(line) {
                if let (Ok(id), Some(reports)) = (
                    doc.field::<String>("id"),
                    doc.get("reports")
                        .and_then(|v| Vec::<Report>::from_json(v).ok()),
                ) {
                    self.entries.insert(id, reports);
                }
            }
        }
    }
}

fn cache_line(key: &str, id: &str, reports: &[Report]) -> String {
    Json::Obj(vec![
        ("key".to_string(), Json::str(key)),
        ("id".to_string(), Json::str(id)),
        (
            "reports".to_string(),
            Json::Arr(reports.iter().map(ToJson::to_json).collect()),
        ),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_protocols::{IndexRule, TppConfig};

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
        assert_eq!(records.len(), 6);
        assert!(records.iter().all(|r| r.case == "workers_1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jobs_cover_every_run_exactly_once() {
        let tpp = TppConfig::default();
        let cell = Cell::new("TPP", &tpp, Scenario::uniform(10, 1).with_seed(1), 7);
        let engine = SweepEngine::new().with_run_block(3);
        let jobs = engine.expand_jobs(std::slice::from_ref(&cell));
        let covered: Vec<(u64, u64)> = jobs.iter().map(|j| (j.start, j.len)).collect();
        assert_eq!(covered, [(0, 3), (3, 3), (6, 1)]);
    }

    #[test]
    fn cache_ids_differ_by_salt_config_scenario_and_block() {
        let tpp = TppConfig::default();
        let hpp_rule = TppConfig {
            index_rule: IndexRule::HppRule,
            ..tpp
        };
        let base = |salt: &str, config: &TppConfig, seed: u64, start: u64| {
            let scenario = Scenario::uniform(10, 1).with_seed(seed);
            let (config, scenario) = (to_json_string(config), to_json_string(&scenario));
            cache_id(salt, "TPP", &config, &scenario, start, 2)
        };
        let reference = base(CACHE_SALT, &tpp, 1, 0);
        let cell = Cell::new("TPP", &tpp, Scenario::uniform(10, 1).with_seed(1), 2);
        let jobs = SweepEngine::new().expand_jobs(std::slice::from_ref(&cell));
        assert_eq!(jobs[0].id, reference, "jobs are keyed under CACHE_SALT");
        assert_eq!(reference, base(CACHE_SALT, &tpp, 1, 0), "ids are stable");
        assert_ne!(reference, base("sweep-v0", &tpp, 1, 0), "salt invalidates");
        assert_ne!(
            reference,
            base(CACHE_SALT, &hpp_rule, 1, 0),
            "config invalidates"
        );
        assert_ne!(reference, base(CACHE_SALT, &tpp, 2, 0), "seed invalidates");
        assert_ne!(reference, base(CACHE_SALT, &tpp, 1, 2), "block invalidates");
        assert!(
            reference.contains(&to_json_string(&tpp)),
            "the key carries the protocol's config JSON"
        );
    }

    #[test]
    fn stats_accumulate_and_rates_are_sane() {
        let tpp = TppConfig::default();
        let cell = Cell::new("TPP", &tpp, Scenario::uniform(20, 1).with_seed(4), 3);
        let mut engine = SweepEngine::new().with_workers(2).with_run_block(1);
        let out = engine.run_cells(std::slice::from_ref(&cell));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 3);
        let s = engine.stats();
        assert_eq!((s.cells, s.jobs, s.runs, s.cache_hits), (1, 3, 3, 0));
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert!(s.cells_per_sec() > 0.0);
    }
}
