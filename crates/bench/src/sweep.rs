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
//!   cell-index/run-index order, and all reductions (summaries, counter
//!   merges) happen in that fixed order, which is why parallel output is
//!   bit-identical to `--workers 1`.
//! * **Caching.** With a cache directory attached, each job's result is
//!   persisted under a content-addressed key — an FNV-1a hash over the
//!   protocol label, its serialized config, the scenario JSON (including
//!   the master seed), the run-block range and a code-version salt
//!   ([`CACHE_SALT`]) — as one JSONL line of `Report`s. A warm cache skips
//!   recompute; bumping the salt (or any keyed input) invalidates exactly
//!   the affected cells.
//! * **Instrumentation.** Each worker records into a private
//!   [`MetricsRegistry`] (job latency histogram, run counters) folded
//!   post-join via [`MetricsRegistry::merge`]; cumulative [`SweepStats`]
//!   feed the `BENCH_sweep.json` throughput trajectory.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use rfid_apps::info_collect::collect;
use rfid_obs::MetricsRegistry;
use rfid_protocols::{RecoveryPolicy, Report, Session, SessionEnd};
use rfid_system::{to_json_string, FaultModel, FromJson, Json, SimConfig, SimContext, ToJson};
use rfid_workloads::Scenario;

use crate::harness::{write_report, BenchRecord};
use crate::runner::ProtocolFactory;

/// Code-version salt folded into every cache key. Bump whenever simulator
/// semantics change in a way that alters reports, so stale sweep caches
/// invalidate themselves. (v2: `Counters` gained the recovery fields.)
pub const CACHE_SALT: &str = "sweep-v3";

/// Default runs per job (run-block size): fine-grained enough that a single
/// cell still fans out across cores.
const DEFAULT_RUN_BLOCK: u64 = 2;

/// One grid cell: a protocol row evaluated over a scenario for `runs`
/// Monte-Carlo repetitions.
pub struct Cell<'a> {
    /// Protocol display label (cache-key component).
    pub protocol: String,
    /// Serialized protocol configuration (cache-key component); the empty
    /// string for configs that are not serializable.
    pub config: String,
    /// Population description, carrying the cell's master seed.
    pub scenario: Scenario,
    /// Monte-Carlo repetitions; run `r` executes under
    /// `scenario.for_run(r)`.
    pub runs: u64,
    /// Thread-safe factory of fresh protocol instances.
    pub factory: &'a ProtocolFactory<'a>,
    /// Channel fault model injected into every run (cache-key component);
    /// `None` runs the paper's perfect channel.
    pub fault: Option<FaultModel>,
    /// Recovery policy wrapping every run (cache-key component); `None`
    /// runs the bare protocol, which panics on a stall.
    pub recovery: Option<RecoveryPolicy>,
}

impl<'a> Cell<'a> {
    /// A cell with an explicit label and serialized config.
    pub fn new(
        protocol: impl Into<String>,
        config: impl Into<String>,
        scenario: Scenario,
        runs: u64,
        factory: &'a ProtocolFactory<'a>,
    ) -> Self {
        Cell {
            protocol: protocol.into(),
            config: config.into(),
            scenario,
            runs,
            factory,
            fault: None,
            recovery: None,
        }
    }

    /// Injects a fault model into every run of this cell.
    pub fn with_fault(mut self, fault: FaultModel) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Wraps every run of this cell in a recovery session. Degraded runs
    /// still yield their partial report (coverage is `counters.polls /
    /// tags`, passes `counters.recovery_passes + 1`).
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
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
    pub runs: u64,
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
    salt: String,
    cache: Option<SweepCache>,
    metrics: MetricsRegistry,
    stats: SweepStats,
}

impl Default for SweepEngine {
    fn default() -> Self {
        SweepEngine::new()
    }
}

impl SweepEngine {
    /// An engine with one worker per available core, the default run-block
    /// size, no cache and metrics enabled.
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4);
        SweepEngine {
            workers,
            run_block: DEFAULT_RUN_BLOCK,
            progress: false,
            salt: CACHE_SALT.to_string(),
            cache: None,
            metrics: MetricsRegistry::enabled(),
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

    /// Overrides the code-version salt in cache keys (tests use this to
    /// prove invalidation).
    pub fn with_salt(mut self, salt: impl Into<String>) -> Self {
        self.salt = salt.into();
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

    /// The merged sweep metrics (job-latency histogram, job/run/cache-hit
    /// counters).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
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
        let (computed, worker_metrics) = run_jobs(cells, &pending, workers, self.progress);
        self.metrics.merge(&worker_metrics);

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
        self.metrics.inc("sweep_cells", cells.len() as u64);
        self.metrics.inc("sweep_jobs", jobs.len() as u64);
        self.metrics.inc("sweep_cache_hits", hits);
        self.metrics
            .observe("sweep_batch_ms", (elapsed * 1e3) as u64);

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
            let scenario_json = to_json_string(&cell.scenario);
            let fault_json = cell.fault.as_ref().map_or_else(String::new, to_json_string);
            let recovery_json = cell
                .recovery
                .as_ref()
                .map_or_else(String::new, to_json_string);
            let mut start = 0;
            while start < cell.runs {
                let len = self.run_block.min(cell.runs - start);
                let id = format!(
                    "{}|{}|{}|{}|{}|{}|{}+{}",
                    self.salt,
                    cell.protocol,
                    cell.config,
                    scenario_json,
                    fault_json,
                    recovery_json,
                    start,
                    len
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

/// Executes one Monte-Carlo run of a cell through the validated
/// [`collect`] path, with the cell's fault model and recovery policy. A
/// recovered run that degrades still returns its partial report (the
/// recovery counters inside carry passes and backoff); a stall without a
/// policy panics.
fn execute_run(
    cell: &Cell<'_>,
    protocol: &dyn rfid_protocols::PollingProtocol,
    sc: &Scenario,
) -> Report {
    let mut cfg = SimConfig::paper(sc.protocol_seed());
    if let Some(fault) = &cell.fault {
        cfg = cfg.with_fault(fault.clone());
    }
    let mut ctx = SimContext::new(sc.build_population(), &cfg);
    let mut session = Session::open(protocol, &ctx);
    if let Some(policy) = cell.recovery {
        session = session.with_policy(policy);
    }
    match collect(session, &mut ctx).end {
        SessionEnd::Complete { report, .. } | SessionEnd::Degraded { report, .. } => report,
        SessionEnd::Stalled(e) => panic!("{e}"),
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
/// computed reports in `pending` order plus the per-worker metrics merged
/// in worker order (exact bucket/counter sums, so the totals are
/// schedule-independent).
fn run_jobs(
    cells: &[Cell<'_>],
    pending: &[&Job],
    workers: usize,
    progress: bool,
) -> (Vec<Vec<Report>>, MetricsRegistry) {
    let cursor = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let mut slots: Vec<Option<Vec<Report>>> = (0..pending.len()).map(|_| None).collect();
    let worker_results: Vec<(Vec<(usize, Vec<Report>)>, MetricsRegistry)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        let mut metrics = MetricsRegistry::enabled();
                        loop {
                            let j = cursor.fetch_add(1, Ordering::Relaxed);
                            if j >= pending.len() {
                                break;
                            }
                            let job = pending[j];
                            let cell = &cells[job.cell];
                            let jt = Instant::now();
                            let mut reports = Vec::with_capacity(job.len as usize);
                            for r in job.start..job.start + job.len {
                                let sc = cell.scenario.for_run(r);
                                let protocol = (cell.factory)();
                                reports.push(execute_run(cell, protocol.as_ref(), &sc));
                            }
                            metrics.observe("sweep_job_us", jt.elapsed().as_micros() as u64);
                            metrics.inc("sweep_runs", job.len);
                            local.push((j, reports));
                            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                            if progress
                                && finished * 10 / pending.len()
                                    != (finished - 1) * 10 / pending.len()
                            {
                                eprintln!("sweep: {finished}/{} jobs", pending.len());
                            }
                        }
                        (local, metrics)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        });
    let mut merged = MetricsRegistry::enabled();
    for (local, metrics) in worker_results {
        merged.merge(&metrics);
        for (j, reports) in local {
            slots[j] = Some(reports);
        }
    }
    (
        slots
            .into_iter()
            .map(|s| s.expect("every pending job computed"))
            .collect(),
        merged,
    )
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

/// FNV-1a over the cache-key preimage: stable across runs and platforms.
fn fnv64(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_protocols::TppConfig;

    fn tpp_factory() -> Box<dyn Fn() -> Box<dyn rfid_protocols::PollingProtocol> + Sync> {
        Box::new(|| Box::new(TppConfig::default().into_protocol()))
    }

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
        let factory = tpp_factory();
        let cell = Cell::new(
            "TPP",
            "",
            Scenario::uniform(10, 1).with_seed(1),
            7,
            &*factory,
        );
        let engine = SweepEngine::new().with_run_block(3);
        let jobs = engine.expand_jobs(std::slice::from_ref(&cell));
        let covered: Vec<(u64, u64)> = jobs.iter().map(|j| (j.start, j.len)).collect();
        assert_eq!(covered, [(0, 3), (3, 3), (6, 1)]);
    }

    #[test]
    fn cache_ids_differ_by_salt_config_scenario_and_block() {
        let factory = tpp_factory();
        let base = |salt: &str, config: &str, seed: u64| {
            let cell = Cell::new(
                "TPP",
                config,
                Scenario::uniform(10, 1).with_seed(seed),
                2,
                &*factory,
            );
            SweepEngine::new()
                .with_salt(salt)
                .expand_jobs(std::slice::from_ref(&cell))[0]
                .id
                .clone()
        };
        let reference = base("v1", "cfg", 1);
        assert_eq!(reference, base("v1", "cfg", 1), "ids are stable");
        assert_ne!(reference, base("v2", "cfg", 1), "salt invalidates");
        assert_ne!(reference, base("v1", "cfg2", 1), "config invalidates");
        assert_ne!(reference, base("v1", "cfg", 2), "seed invalidates");
    }

    #[test]
    fn fault_and_recovery_key_the_cache_and_stay_deterministic() {
        use rfid_system::FaultModel;
        let factory = tpp_factory();
        let id_of = |cell: &Cell<'_>| {
            SweepEngine::new().expand_jobs(std::slice::from_ref(cell))[0]
                .id
                .clone()
        };
        let plain = Cell::new(
            "TPP",
            "",
            Scenario::uniform(10, 1).with_seed(1),
            2,
            &*factory,
        );
        let faulted = Cell::new(
            "TPP",
            "",
            Scenario::uniform(10, 1).with_seed(1),
            2,
            &*factory,
        )
        .with_fault(FaultModel::perfect().with_downlink_loss(0.2));
        let recovered = Cell::new(
            "TPP",
            "",
            Scenario::uniform(10, 1).with_seed(1),
            2,
            &*factory,
        )
        .with_fault(FaultModel::perfect().with_downlink_loss(0.2))
        .with_recovery(RecoveryPolicy::unbounded());
        assert_ne!(id_of(&plain), id_of(&faulted), "fault keys the cache");
        assert_ne!(id_of(&faulted), id_of(&recovered), "recovery keys it too");

        // A recovered lossy cell completes and is schedule-independent.
        let run = |workers: usize| {
            let cell = Cell::new(
                "TPP",
                "",
                Scenario::uniform(120, 1).with_seed(5),
                4,
                &*factory,
            )
            .with_fault(FaultModel::perfect().with_downlink_loss(0.3))
            .with_recovery(RecoveryPolicy::unbounded());
            let mut engine = SweepEngine::new().with_workers(workers).with_run_block(1);
            engine.run_cells(std::slice::from_ref(&cell))
        };
        let serial = run(1);
        let parallel = run(4);
        for (a, b) in serial[0].iter().zip(&parallel[0]) {
            assert_eq!(a.counters, b.counters, "parallel == serial bit-for-bit");
            assert_eq!(a.counters.polls as usize, a.tags, "loss 0.3 completes");
        }
    }

    #[test]
    fn stats_accumulate_and_rates_are_sane() {
        let factory = tpp_factory();
        let cell = Cell::new(
            "TPP",
            "",
            Scenario::uniform(20, 1).with_seed(4),
            3,
            &*factory,
        );
        let mut engine = SweepEngine::new().with_workers(2).with_run_block(1);
        let out = engine.run_cells(std::slice::from_ref(&cell));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 3);
        let s = engine.stats();
        assert_eq!((s.cells, s.jobs, s.runs, s.cache_hits), (1, 3, 3, 0));
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert!(s.cells_per_sec() > 0.0);
        assert_eq!(engine.metrics().counter("sweep_runs"), 3);
        assert_eq!(engine.metrics().counter("sweep_jobs"), 3);
        assert_eq!(
            engine.metrics().histogram("sweep_job_us").unwrap().count(),
            3
        );
    }
}
