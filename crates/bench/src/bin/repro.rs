//! `repro` — regenerates every table and figure of *Fast RFID Polling
//! Protocols* (ICPP 2016). Run `repro --help` (or see [`rfid_bench::cli`])
//! for the experiment list and flags.
//!
//! Simulated experiments (Fig. 10, Tables I–III, ablations, energy) walk
//! the evaluation grid through the deterministic parallel sweep engine
//! ([`rfid_bench::sweep`]): every cell is scheduled across cores, results
//! are bit-identical to the serial `--workers 1` path, and cell results
//! persist under `target/sweep-cache/` so a re-run after an unrelated edit
//! skips unchanged cells. Each invocation appends its throughput stats
//! (cells/sec, cache hit rate, worker count) to `target/BENCH_sweep.json`.
//!
//! `--runs` (default 20) controls Monte-Carlo repetitions for the simulated
//! experiments; `--max-n` (default 100000) caps the population sweep.
//! Paper-reported values are printed beside measurements where the text
//! quotes them.

use std::path::PathBuf;

use rfid_analysis as analysis;
use rfid_baselines::{CppConfig, EcppConfig, LowerBound, MicConfig};
use rfid_bench::anchors;
use rfid_bench::cli::{self, ReproOptions};
use rfid_bench::{BenchRecord, Cell, Summary, SweepEngine};
use rfid_c1g2::LinkParams;
use rfid_protocols::{EhppConfig, HppConfig, IndexRule, PollingProtocol, Report, TppConfig};
use rfid_system::to_json_string;
use rfid_workloads::{IdDistribution, Scenario};

/// A grid row: display label, serialized config (cache-key component) and a
/// thread-safe factory of fresh protocol instances.
struct Row {
    label: &'static str,
    config: String,
    factory: Box<dyn Fn() -> Box<dyn PollingProtocol> + Sync>,
}

impl Row {
    fn new(
        label: &'static str,
        config: String,
        factory: impl Fn() -> Box<dyn PollingProtocol> + Sync + 'static,
    ) -> Row {
        Row {
            label,
            config,
            factory: Box::new(factory),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", cli::usage());
        return;
    }
    let opts = match cli::parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n");
            eprint!("{}", cli::usage());
            std::process::exit(2);
        }
    };

    let mut engine = build_engine(&opts);
    match opts.experiment.as_str() {
        "fig1" => fig1(),
        "fig3" => fig3(&opts),
        "fig4" => fig4(),
        "fig5" => fig5(&opts),
        "fig8" => fig8(),
        "fig9" => fig9(&opts),
        "fig10" => fig10(&mut engine, &opts),
        "table1" => table(&mut engine, &opts, 1),
        "table2" => table(&mut engine, &opts, 16),
        "table3" => table(&mut engine, &opts, 32),
        "ablations" => ablations(&mut engine, &opts),
        "energy" => energy(&mut engine, &opts),
        "recovery" => recovery(&mut engine, &opts),
        "session" => session(&opts),
        "all" => {
            fig1();
            fig3(&opts);
            fig4();
            fig5(&opts);
            fig8();
            fig9(&opts);
            fig10(&mut engine, &opts);
            table(&mut engine, &opts, 1);
            table(&mut engine, &opts, 16);
            table(&mut engine, &opts, 32);
            ablations(&mut engine, &opts);
            energy(&mut engine, &opts);
            recovery(&mut engine, &opts);
            session(&opts);
        }
        other => unreachable!("cli::parse_args validated `{other}`"),
    }
    report_sweep_stats(&engine);
}

/// Builds the sweep engine from the CLI flags: worker width, run-block
/// size, and the persistent cell cache (default `target/sweep-cache/`).
fn build_engine(opts: &ReproOptions) -> SweepEngine {
    let mut engine = SweepEngine::new().with_progress(true);
    if let Some(workers) = opts.workers {
        engine = engine.with_workers(workers);
    }
    if let Some(block) = opts.run_block {
        engine = engine.with_run_block(block);
    }
    if opts.cache {
        let dir = opts.cache_dir.clone().unwrap_or_else(|| {
            rfid_bench::find_target_dir()
                .unwrap_or_else(|| PathBuf::from("target"))
                .join("sweep-cache")
        });
        engine = engine.with_cache_dir(dir);
    }
    engine
}

/// Prints the sweep throughput line and appends the `BENCH_sweep.json`
/// entry (the sweep bench trajectory) when any cell actually ran.
fn report_sweep_stats(engine: &SweepEngine) {
    let stats = engine.stats();
    if stats.jobs == 0 {
        return;
    }
    eprintln!(
        "sweep: {} cells / {} jobs ({} cached, {:.0} % hit rate) on {} workers in {:.2} s ({:.1} cells/s)",
        stats.cells,
        stats.jobs,
        stats.cache_hits,
        stats.cache_hit_rate() * 100.0,
        engine.workers(),
        stats.elapsed_s,
        stats.cells_per_sec(),
    );
    if let Some(dir) = rfid_bench::find_target_dir() {
        match engine.write_bench_entry(&dir) {
            Ok(path) => eprintln!("sweep report: {}", path.display()),
            Err(e) => exit_unwritten("BENCH_sweep.json", &e),
        }
    }
}

/// A bench report that cannot be written fails the run.
fn exit_unwritten(file: &str, e: &std::io::Error) -> ! {
    eprintln!("could not write {file}: {e}");
    std::process::exit(1);
}

fn sweep_ns(max_n: u64) -> Vec<u64> {
    [1_000u64, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000]
        .into_iter()
        .filter(|&n| n <= max_n)
        .collect()
}

fn summary_of(reports: &[Report], metric: impl Fn(&Report) -> f64) -> Summary {
    let samples: Vec<f64> = reports.iter().map(metric).collect();
    Summary::of(&samples)
}

// ---------------------------------------------------------------- figures

fn fig1() {
    println!("\n== Fig. 1 — execution time vs polling-vector length (l = 1) ==");
    println!("{:>6} {:>12}", "w bits", "time (ms)");
    for (w, ms) in analysis::timing::fig1_series(&LinkParams::paper(), 100) {
        if w % 10 == 0 {
            println!("{w:>6} {ms:>12.4}");
        }
    }
    println!("(linear, slope 0.03745 ms/bit — matches the paper's Fig. 1)");
}

fn fig3(opts: &ReproOptions) {
    println!("\n== Fig. 3 — HPP average polling-vector length w(n), Eq. (4) ==");
    println!("{:>8} {:>10} {:>10}", "n", "w (bits)", "ceil log2");
    for (n, w) in analysis::hpp::fig3_series(&sweep_ns(opts.max_n)) {
        println!("{n:>8} {w:>10.2} {:>10}", analysis::hpp::upper_bound(n));
    }
    println!("(paper anchors: w ≈ 10 at n = 10^3, w ≈ 16 at n = 10^5)");
}

fn fig4() {
    println!("\n== Fig. 4 — optimal EHPP subset size vs circle-command length (Theorem 1) ==");
    println!(
        "{:>6} {:>12} {:>10} {:>12}",
        "l_c", "lower bound", "optimal", "upper bound"
    );
    let lcs: Vec<u64> = (50..=500).step_by(50).collect();
    for (lc, lo, opt, hi) in analysis::ehpp::fig4_series(&lcs) {
        println!("{lc:>6} {lo:>12.1} {opt:>10} {hi:>12.1}");
    }
    println!("(optimal n* sandwiched in [l_c·ln2, e·l_c·ln2], growing with l_c)");
}

fn fig5(opts: &ReproOptions) {
    println!("\n== Fig. 5 — EHPP average vector length vs n (Sec. III-D) ==");
    let ns = sweep_ns(opts.max_n);
    print!("{:>8}", "n");
    for lc in [100u64, 200, 400] {
        print!(" {:>12}", format!("l_c={lc}"));
    }
    println!();
    for &n in &ns {
        print!("{n:>8}");
        for lc in [100u64, 200, 400] {
            print!(" {:>12.2}", analysis::ehpp::average_vector_length(n, lc, 0));
        }
        println!();
    }
    println!("(paper anchor: ≈ 7.94 bits at l_c = 200, n = 10^5; flat in n)");
}

fn fig8() {
    println!("\n== Fig. 8 — singleton probability mu(lambda) = lambda*e^(-lambda) ==");
    println!("{:>8} {:>10}", "lambda", "mu");
    for (l, m) in analysis::mu::mu_series(4.0, 16) {
        println!("{l:>8.2} {m:>10.4}");
    }
    let (lo, hi) = analysis::mu::optimal_load_interval();
    println!(
        "(peak 1/e ≈ {:.4} at λ = 1; μ(ln2) = μ(2ln2) = {:.4}; optimal λ ∈ [{lo:.3}, {hi:.3}))",
        (-1f64).exp(),
        analysis::mu::min_max_mu()
    );
}

fn fig9(opts: &ReproOptions) {
    println!("\n== Fig. 9 — TPP analytic average vector length, Eqs. (6)(8)(11)(15) ==");
    println!("{:>8} {:>10}", "n", "w (bits)");
    for (n, w) in analysis::tpp::fig9_series(&sweep_ns(opts.max_n)) {
        println!("{n:>8} {w:>10.3}");
    }
    println!(
        "(paper: stable ≈ {}; global Eq. (16) bound {:.4})",
        anchors::FIG9_TPP_ANALYTIC,
        analysis::tpp::global_bound()
    );
}

fn fig10(engine: &mut SweepEngine, opts: &ReproOptions) {
    println!(
        "\n== Fig. 10 — simulated average polling-vector length ({} runs) ==",
        opts.runs
    );
    println!("{:>8} {:>14} {:>14} {:>14}", "n", "HPP", "EHPP", "TPP");
    let ns: Vec<u64> = [10_000u64, 20_000, 40_000, 60_000, 80_000, 100_000]
        .into_iter()
        .filter(|&n| n <= opts.max_n)
        .collect();
    let rows: Vec<Row> = vec![
        Row::new("HPP", to_json_string(&HppConfig::default()), || {
            Box::new(HppConfig::default().into_protocol())
        }),
        Row::new("EHPP", to_json_string(&EhppConfig::default()), || {
            Box::new(EhppConfig::default().into_protocol())
        }),
        Row::new("TPP", to_json_string(&TppConfig::default()), || {
            Box::new(TppConfig::default().into_protocol())
        }),
    ];
    // Cells in (n, protocol) row-major order; the whole figure runs as one
    // parallel batch.
    let mut cells = Vec::new();
    for &n in &ns {
        let scenario = Scenario::uniform(n as usize, 1).with_seed(n);
        for row in &rows {
            cells.push(Cell::new(
                row.label,
                row.config.clone(),
                scenario.clone(),
                opts.runs,
                row.factory.as_ref(),
            ));
        }
    }
    let results = engine.run_cells(&cells);
    for (i, &n) in ns.iter().enumerate() {
        let hpp = summary_of(&results[i * 3], Report::mean_vector_bits);
        let ehpp = summary_of(&results[i * 3 + 1], Report::mean_vector_bits_with_overhead);
        let tpp = summary_of(&results[i * 3 + 2], Report::mean_vector_bits);
        println!(
            "{n:>8} {:>9.2}±{:<4.2} {:>9.2}±{:<4.2} {:>9.2}±{:<4.2}",
            hpp.mean, hpp.std, ehpp.mean, ehpp.std, tpp.mean, tpp.std
        );
    }
    println!(
        "(paper anchors: HPP {}→{} bits, EHPP ≈ {}, TPP ≈ {}; EHPP/TPP flat in n)",
        anchors::FIG10_HPP_AT_1K,
        anchors::FIG10_HPP_AT_100K,
        anchors::FIG10_EHPP,
        anchors::FIG10_TPP
    );
}

// ----------------------------------------------------------------- tables

/// The six table rows (CPP/HPP/EHPP/MIC/TPP/LowerBound) at their default
/// configurations.
fn table_rows() -> Vec<Row> {
    vec![
        Row::new("CPP", to_json_string(&CppConfig::default()), || {
            Box::new(CppConfig::default().into_protocol())
        }),
        Row::new("HPP", to_json_string(&HppConfig::default()), || {
            Box::new(HppConfig::default().into_protocol())
        }),
        Row::new("EHPP", to_json_string(&EhppConfig::default()), || {
            Box::new(EhppConfig::default().into_protocol())
        }),
        Row::new("MIC", to_json_string(&MicConfig::default()), || {
            Box::new(MicConfig::default().into_protocol())
        }),
        Row::new("TPP", to_json_string(&TppConfig::default()), || {
            Box::new(TppConfig::default().into_protocol())
        }),
        Row::new("LowerBound", String::new(), || Box::new(LowerBound)),
    ]
}

fn table(engine: &mut SweepEngine, opts: &ReproOptions, l: usize) {
    let which = match l {
        1 => "I",
        16 => "II",
        _ => "III",
    };
    println!(
        "\n== Table {which} — execution time (s) to collect {l}-bit information ({} runs) ==",
        opts.runs
    );
    let ns: Vec<u64> = anchors::TABLE_NS
        .into_iter()
        .filter(|&n| n <= opts.max_n)
        .collect();
    if ns.is_empty() {
        println!("(no populations ≤ --max-n {})", opts.max_n);
        return;
    }
    print!("{:<12}", "protocol");
    for n in &ns {
        print!(" {:>16}", format!("n={n}"));
    }
    println!();

    let rows = table_rows();
    let mut cells = Vec::new();
    for row in &rows {
        for &n in &ns {
            let scenario = Scenario::uniform(n as usize, l).with_seed(n + l as u64);
            // CPP and LowerBound are deterministic in time; one run suffices.
            let runs = if row.label == "CPP" || row.label == "LowerBound" {
                1
            } else {
                opts.runs
            };
            cells.push(Cell::new(
                row.label,
                row.config.clone(),
                scenario,
                runs,
                row.factory.as_ref(),
            ));
        }
    }
    let results = engine.run_cells(&cells);

    let mut measured: Vec<Vec<f64>> = Vec::new();
    for (ri, row) in rows.iter().enumerate() {
        print!("{:<12}", row.label);
        let mut secs = Vec::new();
        for ci in 0..ns.len() {
            let s = summary_of(&results[ri * ns.len() + ci], |r| r.total_time.as_secs());
            secs.push(s.mean);
            print!(" {:>16.3}", s.mean);
        }
        measured.push(secs);
        println!();
    }

    // Paper anchors where the text quotes them.
    match l {
        1 => {
            println!(
                "paper (n = 10^4): CPP 37.70, HPP 8.12, EHPP 6.63, MIC 5.15, TPP 4.39, LB 3.25"
            );
            if let Some(col) = ns.iter().position(|&n| n == 10_000) {
                for (row, anchor) in measured.iter().zip(anchors::TABLE1.iter()) {
                    if let Some(p) = anchor.seconds[2] {
                        let dev = (row[col] - p) / p * 100.0;
                        println!(
                            "  {:<12} measured {:>7.2} vs paper {:>6.2}  ({dev:+.1} %)",
                            anchor.protocol, row[col], p
                        );
                    }
                }
            }
        }
        16 => {
            println!("paper (n = 10^4): TPP = 85.7 % of MIC, 78.3 % of EHPP, 68.6 % of HPP, 19.6 % of CPP");
            if let Some(col) = ns.iter().position(|&n| n == 10_000) {
                let tpp = measured[4][col];
                for (name, ratio) in anchors::TABLE2_TPP_RATIOS {
                    let idx = rows.iter().position(|r| r.label == name).expect("row");
                    println!(
                        "  TPP/{name:<5} measured {:>6.3} vs paper {ratio:.3}",
                        tpp / measured[idx][col]
                    );
                }
            }
        }
        _ => {
            println!("paper (n = 10^4): xLB — TPP 1.10, MIC 1.28, EHPP 1.31, HPP 1.45, CPP 4.14");
            if let Some(col) = ns.iter().position(|&n| n == 10_000) {
                let lb = measured[5][col];
                for (name, ratio) in anchors::TABLE3_LB_RATIOS {
                    let idx = rows.iter().position(|r| r.label == name).expect("row");
                    println!(
                        "  {name:<5}/LB measured {:>6.3} vs paper {ratio:.2}",
                        measured[idx][col] / lb
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------- energy

/// Extension experiment (after Qiao et al., MobiHoc'11): tag-side energy
/// per protocol — tags listen until read, so shorter polling vectors save
/// energy twice.
fn energy(engine: &mut SweepEngine, opts: &ReproOptions) {
    use rfid_analysis::energy::EnergyParams;
    let n = 10_000.min(opts.max_n) as usize;
    let runs = opts.runs.max(5);
    let scenario = Scenario::uniform(n, 1).with_seed(123);
    let link = LinkParams::paper();
    let params = EnergyParams::semi_passive();
    println!("\n== Energy extension — per-tag energy, semi-passive tags (n = {n}, {runs} runs) ==");
    println!(
        "{:<12} {:>14} {:>12} {:>12}",
        "protocol", "per tag (µJ)", "rx (mJ)", "tx (mJ)"
    );
    let rows: Vec<Row> = table_rows()
        .into_iter()
        .filter(|r| r.label != "LowerBound")
        .collect();
    let cells: Vec<Cell<'_>> = rows
        .iter()
        .map(|row| {
            Cell::new(
                row.label,
                row.config.clone(),
                scenario.clone(),
                runs,
                row.factory.as_ref(),
            )
        })
        .collect();
    let results = engine.run_cells(&cells);
    for (row, reports) in rows.iter().zip(&results) {
        let per_tag = summary_of(reports, |r| r.tag_energy(&params, &link).per_tag_uj());
        let rx = summary_of(reports, |r| r.tag_energy(&params, &link).rx_mj);
        let tx = summary_of(reports, |r| r.tag_energy(&params, &link).tx_mj);
        println!(
            "{:<12} {:>14.2} {:>12.2} {:>12.3}",
            row.label, per_tag.mean, rx.mean, tx.mean
        );
    }
    println!("(listen energy dominates; TPP's short vectors and early sleeps win)");
}

// --------------------------------------------------------------- recovery

/// The chaos-soak recovery grid (ISSUE 5's convergence gate): HPP/EHPP/TPP
/// with deliberately small per-pass budgets, swept over a fault-space grid
/// (i.i.d. loss × Gilbert–Elliott burst × corruption), every run wrapped in
/// a recovery session through the sweep engine. Asserts the convergence
/// invariant — coverage 1.0 on every survivable cell when passes are
/// unbounded — plus the degraded-cell contract (a jammed downlink opens the
/// circuit at `max_passes` with coverage 0), cross-checks a traced degraded
/// run against the event log, and writes `target/BENCH_recovery.json` with
/// passes-to-completion and time overhead vs the fault-free baseline.
fn recovery(engine: &mut SweepEngine, opts: &ReproOptions) {
    use rfid_obs::{metrics_from_log, reconcile};
    use rfid_protocols::{RecoveryPolicy, Session, SessionEnd};
    use rfid_system::fault::{FaultPlan, KillRule};
    use rfid_system::{FaultModel, GilbertElliott, SimConfig, SimContext};

    let n = 1_000.min(opts.max_n) as usize;
    let runs = opts.runs;
    println!("\n== Recovery — chaos-soak convergence grid (n = {n}, {runs} runs) ==");

    // Small per-pass round budgets so survivable faults genuinely exercise
    // multi-pass recovery instead of converging inside pass 1's (huge)
    // default budget.
    let hpp_cfg = HppConfig {
        max_rounds: 24,
        ..HppConfig::default()
    };
    let ehpp_cfg = EhppConfig {
        max_circles: 12,
        ..EhppConfig::default()
    };
    let tpp_cfg = TppConfig {
        max_rounds: 24,
        ..TppConfig::default()
    };
    let rows: Vec<Row> = vec![
        Row::new("HPP", to_json_string(&hpp_cfg), move || {
            Box::new(hpp_cfg.into_protocol())
        }),
        Row::new("EHPP", to_json_string(&ehpp_cfg), move || {
            Box::new(ehpp_cfg.clone().into_protocol())
        }),
        Row::new("TPP", to_json_string(&tpp_cfg), move || {
            Box::new(tpp_cfg.into_protocol())
        }),
    ];
    let faults: Vec<(&str, Option<FaultModel>)> = vec![
        ("fault-free", None),
        (
            "loss 0.1",
            Some(FaultModel::perfect().with_downlink_loss(0.1)),
        ),
        (
            "loss 0.3",
            Some(FaultModel::perfect().with_downlink_loss(0.3)),
        ),
        (
            "loss 0.5",
            Some(FaultModel::perfect().with_downlink_loss(0.5)),
        ),
        (
            "burst",
            Some(FaultModel::perfect().with_burst(GilbertElliott::new(0.05, 0.25, 0.0, 0.95))),
        ),
        (
            "corrupt 0.3",
            Some(FaultModel::perfect().with_corruption(0.3)),
        ),
    ];

    // Grid in (fault, protocol) row-major order, one parallel batch.
    let mut cells = Vec::new();
    for (fi, (_, fault)) in faults.iter().enumerate() {
        let scenario = Scenario::uniform(n, 1).with_seed(5_000 + fi as u64);
        for row in &rows {
            let mut cell = Cell::new(
                row.label,
                row.config.clone(),
                scenario.clone(),
                runs,
                row.factory.as_ref(),
            )
            .with_recovery(RecoveryPolicy::unbounded());
            if let Some(f) = fault {
                cell = cell.with_fault(f.clone());
            }
            cells.push(cell);
        }
    }
    let results = engine.run_cells(&cells);

    println!(
        "{:<12} {:<12} {:>10} {:>10} {:>12} {:>10}",
        "fault", "protocol", "coverage", "passes", "time (s)", "overhead"
    );
    let record = |fault: &str, protocol: &str, runs: u64, metric: &str, unit: &str, value| {
        BenchRecord::new(&format!("{protocol}/{fault}"), metric, unit, value)
            .param("fault", fault)
            .param("protocol", protocol)
            .param("n", &n)
            .param("runs", &runs)
    };
    let mut records = Vec::new();
    let mut baseline: Vec<f64> = vec![0.0; rows.len()];
    for (fi, (flabel, _)) in faults.iter().enumerate() {
        for (ri, row) in rows.iter().enumerate() {
            let reports = &results[fi * rows.len() + ri];
            // The convergence gate: every survivable cell (loss < 1.0)
            // under an unbounded policy reaches coverage 1.0, every run.
            for (r, report) in reports.iter().enumerate() {
                assert_eq!(
                    report.counters.polls as usize, report.tags,
                    "convergence violated: {} under `{flabel}` run {r} collected \
                     {} of {} tags",
                    row.label, report.counters.polls, report.tags
                );
            }
            let passes = summary_of(reports, |r| (r.counters.recovery_passes + 1) as f64);
            let secs = summary_of(reports, |r| r.total_time.as_secs());
            if fi == 0 {
                baseline[ri] = secs.mean;
            }
            let overhead = secs.mean / baseline[ri];
            println!(
                "{flabel:<12} {:<12} {:>10.3} {:>10.2} {:>12.3} {:>9.2}x",
                row.label, 1.0, passes.mean, secs.mean, overhead
            );
            let cell = |metric, unit, value| record(flabel, row.label, runs, metric, unit, value);
            records.extend([
                cell("coverage", "ratio", 1.0),
                cell("mean_passes", "passes", passes.mean),
                cell("max_passes", "passes", passes.max),
                cell("mean_time_s", "s", secs.mean),
                cell("overhead_vs_fault_free", "x", overhead),
            ]);
        }
    }

    // Degraded contract: a jammed downlink cannot complete; a bounded
    // policy opens the circuit at exactly `max_passes` with coverage 0.
    let dead_policy = RecoveryPolicy::unbounded().with_max_passes(4);
    let dead_cell = Cell::new(
        "HPP",
        to_json_string(&hpp_cfg),
        Scenario::uniform(n, 1).with_seed(6_000),
        runs.min(4),
        rows[0].factory.as_ref(),
    )
    .with_fault(FaultModel::perfect().with_downlink_loss(1.0))
    .with_recovery(dead_policy);
    let dead = &engine.run_cells(std::slice::from_ref(&dead_cell))[0];
    for report in dead {
        assert_eq!(report.counters.polls, 0, "a jammed downlink polled a tag");
        assert_eq!(
            report.counters.recovery_passes, 3,
            "circuit must open at max_passes = 4"
        );
    }
    println!(
        "{:<12} {:<12} {:>10.3} {:>10.2} (degraded by design: circuit at {} passes)",
        "loss 1.0", "HPP", 0.0, 4.0, 4
    );
    records.extend([
        record("loss 1.0", "HPP", runs.min(4), "coverage", "ratio", 0.0),
        record("loss 1.0", "HPP", runs.min(4), "mean_passes", "passes", 4.0),
        record("loss 1.0", "HPP", runs.min(4), "max_passes", "passes", 4.0),
    ]);

    // Trace cross-check (one traced degraded run, outside the engine): the
    // recovery events must reconcile bit-for-bit with the counters, and the
    // Degraded coverage must equal the trace-derived coverage series.
    let sc = Scenario::uniform(200.min(n), 1).with_seed(6_001);
    let plan = FaultPlan {
        kill_after_replies: vec![KillRule {
            tag: 7,
            after_replies: 0,
        }],
        ..FaultPlan::none()
    };
    let cfg = SimConfig::paper(sc.protocol_seed())
        .with_fault(FaultModel::perfect().with_plan(plan))
        .with_trace();
    let mut ctx = SimContext::new(sc.build_population(), &cfg);
    let protocol = HppConfig::default().into_protocol();
    let mut session = Session::open(&protocol, &ctx).with_policy(RecoveryPolicy::unbounded());
    let SessionEnd::Degraded { coverage, .. } = session.run(&mut ctx) else {
        panic!("a killed tag must degrade the run");
    };
    reconcile(&ctx.log, &ctx.counters).expect("recovery trace reconciles against counters");
    let m = metrics_from_log(&ctx.log);
    let traced = m
        .series("coverage_pct")
        .and_then(|s| s.last())
        .expect("degraded run leaves a coverage series")
        .value;
    assert!(
        (traced - coverage * 100.0).abs() < 1e-9,
        "trace-derived coverage {traced} disagrees with Degraded coverage {coverage}"
    );
    println!("trace cross-check: degraded coverage {coverage:.4} == trace series, reconciled OK");

    if let Some(dir) = rfid_bench::find_target_dir() {
        match rfid_bench::write_report(&dir, "recovery", &records) {
            Ok(path) => println!("recovery report: {}", path.display()),
            Err(e) => exit_unwritten("BENCH_recovery.json", &e),
        }
    }
}

// ---------------------------------------------------------------- session

/// The resumable-session experiment: for each protocol, run the golden
/// scenario once uninterrupted, then again with a seeded mid-run kill —
/// snapshot, drop the process image, restore from the JSON, finish — and
/// prove the final report and event trace bit-identical.
///
/// `--checkpoint PATH` additionally writes the first killed run's snapshot
/// to disk; `--resume PATH` skips the gate entirely and instead restores
/// the given snapshot and runs it to completion (the two flags together
/// demonstrate a cross-process crash/restore cycle).
fn session(opts: &ReproOptions) {
    use rfid_baselines::{CodedPollingConfig, FsaConfig};
    use rfid_bench::fnv64;
    use rfid_hash::Xoshiro256;
    use rfid_identify::{BinarySplitConfig, QAlgorithmConfig, QueryTreeConfig};
    use rfid_protocols::{Session, SessionEnd};
    use rfid_system::{Json, SimConfig, SimContext, ToJson};

    let protocols: Vec<Box<dyn PollingProtocol>> = vec![
        Box::new(CppConfig::default().into_protocol()),
        Box::new(EcppConfig::default().into_protocol()),
        Box::new(CodedPollingConfig::default().into_protocol()),
        Box::new(HppConfig::default().into_protocol()),
        Box::new(EhppConfig::default().into_protocol()),
        Box::new(TppConfig::default().into_protocol()),
        Box::new(MicConfig::default().into_protocol()),
        Box::new(FsaConfig::default().into_protocol()),
        Box::new(LowerBound),
        Box::new(QueryTreeConfig::default().into_protocol()),
        Box::new(BinarySplitConfig::default().into_protocol()),
        Box::new(QAlgorithmConfig::default().into_protocol()),
    ];

    // --resume: restore a snapshot written by a previous (crashed or
    // checkpointed) invocation and finish the inventory.
    if let Some(path) = &opts.resume {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("could not read {}: {e}", path.display());
            std::process::exit(2);
        });
        let doc = Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("{} is not valid JSON: {e}", path.display());
            std::process::exit(2);
        });
        let name: String = doc.field("protocol").unwrap_or_else(|e| {
            eprintln!("{} is not a session snapshot: {e}", path.display());
            std::process::exit(2);
        });
        let Some(protocol) = protocols.iter().find(|p| p.name() == name) else {
            eprintln!("snapshot is for unknown protocol `{name}`");
            std::process::exit(2);
        };
        let (mut ctx, mut session) =
            Session::restore(protocol.as_ref(), &doc).unwrap_or_else(|e| {
                eprintln!("could not restore {}: {e}", path.display());
                std::process::exit(2);
            });
        println!(
            "resuming {name} from {} (pass {}, {} step(s) into the pass)",
            path.display(),
            session.passes(),
            session.steps_taken()
        );
        match session.run(&mut ctx) {
            SessionEnd::Complete { report, passes } => println!(
                "complete: {} tags polled in {:.3} s over {passes} pass(es)",
                report.counters.polls,
                report.total_time.as_secs()
            ),
            other => println!("session ended without completing: {other:?}"),
        }
        return;
    }

    println!("\n== Session — crash-chaos checkpoint/restore gate (n = 150, seed 31) ==");
    println!(
        "{:<12} {:>6} {:>10} {:>10}  {}",
        "protocol", "kill@", "snapshot", "restored", "bit-identical"
    );
    let scenario = Scenario::uniform(150, 4).with_seed(31);
    let cfg = SimConfig::paper(scenario.protocol_seed()).with_trace();
    let mut rng = Xoshiro256::seed_from_u64(0x5E55_1017);
    let mut checkpoint = opts.checkpoint.clone();
    for protocol in &protocols {
        let name = protocol.name();

        // Uninterrupted reference, stepped to count killable boundaries.
        let mut ctx = SimContext::new(scenario.build_population(), &cfg);
        let mut sess = Session::open(protocol.as_ref(), &ctx);
        let mut boundaries = 0u64;
        let reference = loop {
            match sess.run_for(&mut ctx, 1) {
                Some(end) => break end,
                None => boundaries += 1,
            }
        };
        let SessionEnd::Complete { report, .. } = reference else {
            panic!("{name}: reference run did not complete");
        };
        let ref_json = report.to_json().to_string();
        let ref_trace = fnv64(&ctx.log.to_jsonl());

        // Killed run: crash at a seeded boundary, survive as JSON only.
        let kill = 1 + rng.below(boundaries.max(1));
        let mut ctx = SimContext::new(scenario.build_population(), &cfg);
        let mut sess = Session::open(protocol.as_ref(), &ctx);
        assert!(
            sess.run_for(&mut ctx, kill).is_none(),
            "{name}: kill point {kill} of {boundaries} must land mid-run"
        );
        let snap = sess.snapshot(&ctx, &cfg).to_string();
        drop(sess);
        drop(ctx);
        if let Some(path) = checkpoint.take() {
            match std::fs::write(&path, snap.as_bytes()) {
                Ok(()) => println!(
                    "checkpoint: {name} killed at step {kill} -> {} \
                     (finish it with `repro session --resume`)",
                    path.display()
                ),
                Err(e) => eprintln!("could not write {}: {e}", path.display()),
            }
        }
        let doc = Json::parse(&snap).expect("snapshot parses");
        let (mut ctx, mut sess) =
            Session::restore(protocol.as_ref(), &doc).expect("snapshot restores");
        let end = sess.run(&mut ctx);
        let SessionEnd::Complete { report, .. } = end else {
            panic!("{name}: restored run did not complete: {end:?}");
        };
        let identical =
            report.to_json().to_string() == ref_json && fnv64(&ctx.log.to_jsonl()) == ref_trace;
        println!(
            "{name:<12} {kill:>6} {:>9}B {:>10} {:>10}",
            snap.len(),
            "ok",
            if identical { "yes" } else { "NO" }
        );
        assert!(identical, "{name}: restored run drifted from the reference");
    }
    println!("(every restored run reproduced its reference bit-for-bit)");
}

// -------------------------------------------------------------- ablations

fn ablations(engine: &mut SweepEngine, opts: &ReproOptions) {
    let n = 10_000.min(opts.max_n) as usize;
    let runs = opts.runs.max(5);
    let scenario = Scenario::uniform(n, 1).with_seed(99);
    println!("\n== Ablations (n = {n}, l = 1, {runs} runs) ==");

    // One batch for the whole section: rows 0..N in a fixed order, metrics
    // picked per row below.
    let hpp_rule_cfg = TppConfig {
        index_rule: IndexRule::HppRule,
        ..TppConfig::default()
    };
    let n_star = EhppConfig::default().effective_subset_size();
    let mut rows: Vec<Row> = vec![
        Row::new("TPP", to_json_string(&TppConfig::default()), || {
            Box::new(TppConfig::default().into_protocol())
        }),
        Row::new("TPP-hpp-rule", to_json_string(&hpp_rule_cfg), move || {
            Box::new(hpp_rule_cfg.into_protocol())
        }),
    ];
    let subset_sizes = [n_star / 2, n_star, n_star * 2];
    for size in subset_sizes {
        let cfg = EhppConfig {
            subset_size: Some(size),
            ..EhppConfig::default()
        };
        let json = to_json_string(&cfg);
        rows.push(Row::new("EHPP-subset", json, move || {
            Box::new(cfg.clone().into_protocol())
        }));
    }
    let mic_ks = [1usize, 2, 4, 7];
    for k in mic_ks {
        let cfg = MicConfig {
            k,
            ..MicConfig::default()
        };
        let json = to_json_string(&cfg);
        rows.push(Row::new("MIC-k", json, move || {
            Box::new(cfg.clone().into_protocol())
        }));
    }
    rows.push(Row::new(
        "HPP",
        to_json_string(&HppConfig::default()),
        || Box::new(HppConfig::default().into_protocol()),
    ));
    let cells: Vec<Cell<'_>> = rows
        .iter()
        .map(|row| {
            Cell::new(
                row.label,
                row.config.clone(),
                scenario.clone(),
                runs,
                row.factory.as_ref(),
            )
        })
        .collect();
    let results = engine.run_cells(&cells);

    // 1. TPP index-length rule: Eq. (15) vs HPP's rule.
    let opt = summary_of(&results[0], Report::mean_vector_bits);
    let hpp_rule = summary_of(&results[1], Report::mean_vector_bits);
    println!(
        "TPP h-rule:      Eq.(15) {:.3} bits  vs  HPP-rule {:.3} bits",
        opt.mean, hpp_rule.mean
    );

    // 2. EHPP subset size: Theorem-1 optimum vs halved/doubled.
    for (i, (label, size)) in [
        ("n*/2", subset_sizes[0]),
        ("n* (Thm 1)", subset_sizes[1]),
        ("2n*", subset_sizes[2]),
    ]
    .into_iter()
    .enumerate()
    {
        let s = summary_of(&results[2 + i], Report::mean_vector_bits_with_overhead);
        println!(
            "EHPP subset {label:<11} ({size:>4} tags): {:.3} bits incl. overhead",
            s.mean
        );
    }

    // 3. MIC hash count.
    for (i, k) in mic_ks.into_iter().enumerate() {
        let reports = &results[5 + i];
        let secs = summary_of(reports, |r| r.total_time.as_secs());
        let waste = summary_of(reports, |r| {
            r.counters.empty_slots as f64 / (r.counters.empty_slots + r.counters.polls) as f64
        });
        println!(
            "MIC k={k}:  {:.3} s, wasted slots {:.1} %",
            secs.mean,
            waste.mean * 100.0
        );
    }

    // 4. Tree encoding vs flat singleton broadcast at the same h (isolates
    //    the polling tree itself): TPP with HPP's h vs HPP.
    let flat = summary_of(&results[9], Report::mean_vector_bits);
    println!(
        "tree encoding:   flat HPP {:.3} bits  vs  tree @ same h {:.3} bits",
        flat.mean, hpp_rule.mean
    );

    // 5. ID-distribution sensitivity: the hashed protocols are
    //    distribution-free; eCPP is not. A second small batch (the rows
    //    above all share the uniform scenario).
    let dist_rows: Vec<Row> = vec![
        Row::new("TPP", to_json_string(&TppConfig::default()), || {
            Box::new(TppConfig::default().into_protocol())
        }),
        Row::new("eCPP", to_json_string(&EcppConfig::default()), || {
            Box::new(EcppConfig::default().into_protocol())
        }),
    ];
    let dists = [
        ("uniform", IdDistribution::UniformRandom),
        ("clustered", IdDistribution::Clustered { categories: 10 }),
    ];
    let mut dist_cells = Vec::new();
    for (_, dist) in &dists {
        let sc = scenario.clone().with_ids(dist.clone());
        for row in &dist_rows {
            dist_cells.push(Cell::new(
                row.label,
                row.config.clone(),
                sc.clone(),
                runs,
                row.factory.as_ref(),
            ));
        }
    }
    let dist_results = engine.run_cells(&dist_cells);
    for (i, (label, _)) in dists.iter().enumerate() {
        let tpp = summary_of(&dist_results[i * 2], Report::mean_vector_bits);
        let ecpp = summary_of(&dist_results[i * 2 + 1], Report::mean_vector_bits);
        println!(
            "IDs {label:<10} TPP {:.3} bits, eCPP {:.1} bits",
            tpp.mean, ecpp.mean
        );
    }
}
