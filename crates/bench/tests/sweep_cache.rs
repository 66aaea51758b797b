//! The content-addressed cell cache: a warm `sweep-cache` directory must
//! serve every job without touching the simulator, serve bit-identical
//! reports, and a changed protocol config must invalidate the entries it
//! keys. (The code-version salt's part of the key is checked by the
//! engine's unit tests.)

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use rfid_bench::{Cell, SweepEngine};
use rfid_protocols::{IndexRule, PollingProtocol, ProtocolStepper, Report, TppConfig};
use rfid_system::{to_json_string, Json, SimContext, ToJson};
use rfid_workloads::Scenario;

/// A unique throwaway cache directory under the target dir. Uses the test
/// process id plus a per-process counter so concurrent test binaries and
/// repeated `#[test]` fns never collide; removed on drop.
struct TempCacheDir(PathBuf);

impl TempCacheDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let unique = format!(
            "sweep-cache-test-{}-{}-{}",
            tag,
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        let dir = std::env::temp_dir().join(unique);
        TempCacheDir(dir)
    }
}

impl Drop for TempCacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// TPP that counts the steppers it opens. Every simulated run opens one,
/// so a count of zero proves the engine never touched the simulator.
#[derive(Default)]
struct CountingTpp {
    config: TppConfig,
    opened: AtomicUsize,
}

impl CountingTpp {
    fn take_count(&self) -> usize {
        self.opened.swap(0, Ordering::Relaxed)
    }
}

impl ToJson for CountingTpp {
    fn to_json(&self) -> Json {
        self.config.to_json()
    }
}

impl PollingProtocol for CountingTpp {
    fn name(&self) -> &'static str {
        self.config.name()
    }

    fn open_stepper(&self, ctx: &SimContext) -> Box<dyn ProtocolStepper> {
        self.opened.fetch_add(1, Ordering::Relaxed);
        self.config.open_stepper(ctx)
    }
}

fn cells(protocol: &dyn PollingProtocol) -> Vec<Cell<'_>> {
    [(50usize, 3u64), (70, 5)]
        .into_iter()
        .map(|(n, seed)| Cell::new("TPP", protocol, Scenario::uniform(n, 1).with_seed(seed), 4))
        .collect()
}

fn render(reports: &[Vec<Report>]) -> Vec<String> {
    reports.iter().flatten().map(to_json_string).collect()
}

#[test]
fn warm_cache_skips_recompute_and_serves_identical_reports() {
    let dir = TempCacheDir::new("warm");
    let counting = CountingTpp::default();

    // Cold run: every run opens a stepper, nothing is served.
    let mut cold = SweepEngine::new().with_workers(2).with_cache_dir(&dir.0);
    let cold_reports = cold.run_cells(&cells(&counting));
    assert_eq!(cold.stats().cache_hits, 0);
    assert_eq!(
        counting.take_count(),
        8,
        "2 cells x 4 runs simulate 8 sessions"
    );

    // Warm run in a fresh engine over the same directory: every job is a
    // hit, the simulator is never touched, and the reports are bit-equal.
    let mut warm = SweepEngine::new().with_workers(2).with_cache_dir(&dir.0);
    let warm_reports = warm.run_cells(&cells(&counting));
    assert_eq!(warm.stats().cache_hits, warm.stats().jobs);
    assert!(warm.stats().jobs > 0);
    assert_eq!(warm.stats().cache_hit_rate(), 1.0);
    assert_eq!(counting.take_count(), 0, "warm cache must not simulate");
    assert_eq!(render(&warm_reports), render(&cold_reports));
}

#[test]
fn changed_config_misses_the_cache_under_the_same_label() {
    let dir = TempCacheDir::new("config");
    let eq15 = CountingTpp::default();
    let hpp_rule = CountingTpp {
        config: TppConfig {
            index_rule: IndexRule::HppRule,
            ..TppConfig::default()
        },
        ..CountingTpp::default()
    };
    let cell = |protocol| Cell::new("TPP", protocol, Scenario::uniform(60, 1).with_seed(3), 4);

    let mut first = SweepEngine::new().with_cache_dir(&dir.0);
    let eq15_reports = first.run_cells(&[cell(&eq15)]);
    assert_eq!(eq15.take_count(), 4);

    // Same label, same scenario, different index rule: no shared entry.
    let mut second = SweepEngine::new().with_cache_dir(&dir.0);
    let hpp_rule_reports = second.run_cells(&[cell(&hpp_rule)]);
    assert_eq!(second.stats().cache_hits, 0);
    assert_eq!(hpp_rule.take_count(), 4, "the other config must simulate");
    assert_ne!(render(&hpp_rule_reports), render(&eq15_reports));

    // Both now sit in the cache side by side, each serving its own reports.
    let mut warm = SweepEngine::new().with_cache_dir(&dir.0);
    let both = warm.run_cells(&[cell(&eq15), cell(&hpp_rule)]);
    assert_eq!(warm.stats().cache_hits, warm.stats().jobs);
    assert_eq!(eq15.take_count() + hpp_rule.take_count(), 0);
    assert_eq!(render(&both[..1]), render(&eq15_reports));
    assert_eq!(render(&both[1..]), render(&hpp_rule_reports));
}

#[test]
fn disabled_cache_never_writes_the_directory() {
    let dir = TempCacheDir::new("off");
    let mut engine = SweepEngine::new();
    engine.run_cells(&cells(&TppConfig::default()));
    assert_eq!(engine.stats().cache_hits, 0);
    assert!(
        !dir.0.exists(),
        "engine without with_cache_dir must not create {:?}",
        dir.0
    );
}
