//! `repro` — regenerates every table and figure of *Fast RFID Polling
//! Protocols* (ICPP 2016). Run `repro --help` (or see [`rfid_bench::cli`])
//! for the experiment list and flags.
//!
//! Simulated experiments (Fig. 10, Tables I–III, ablations, energy) walk
//! the evaluation grid through the deterministic parallel sweep engine
//! (`rfid_bench::sweep`): every cell is scheduled across cores, results
//! are bit-identical to the serial `--workers 1` path. Each invocation
//! appends its throughput stats (cells/sec, elapsed time, worker count) to
//! `target/BENCH_sweep.json`.
//!
//! `--runs` (default 20) controls Monte-Carlo repetitions for the simulated
//! experiments; `--max-n` (default 100000) caps the population sweep.
//! Paper-reported values are printed beside measurements where the text
//! quotes them.

use rfid_analysis as analysis;
use rfid_baselines::{CppConfig, EcppConfig, LowerBound, MicConfig};
use rfid_bench::anchors;
use rfid_bench::cli::{self, ReproOptions};
use rfid_bench::{Cell, Summary, SweepEngine};
use rfid_c1g2::LinkParams;
use rfid_protocols::{EhppConfig, HppConfig, IndexRule, PollingProtocol, Report, TppConfig};
use rfid_workloads::{IdDistribution, Scenario};

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
        }
        other => unreachable!("cli::parse_args validated `{other}`"),
    }
    report_sweep_stats(&engine);
}

/// Builds the sweep engine from the CLI's worker width.
fn build_engine(opts: &ReproOptions) -> SweepEngine {
    let engine = SweepEngine::new().with_progress(true);
    match opts.workers {
        Some(workers) => engine.with_workers(workers),
        None => engine,
    }
}

/// Prints the sweep throughput line and appends the `BENCH_sweep.json`
/// entry (the sweep bench trajectory) when any cell actually ran.
fn report_sweep_stats(engine: &SweepEngine) {
    let stats = engine.stats();
    if stats.runs == 0 {
        return;
    }
    eprintln!(
        "sweep: {} cells / {} runs on {} workers in {:.2} s ({:.1} cells/s)",
        stats.cells,
        stats.runs,
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
    let (hpp, ehpp, tpp) = (
        HppConfig::default(),
        EhppConfig::default(),
        TppConfig::default(),
    );
    let rows: [&dyn PollingProtocol; 3] = [&hpp, &ehpp, &tpp];
    // Cells in (n, protocol) row-major order; the whole figure runs as one
    // parallel batch.
    let mut cells = Vec::new();
    for &n in &ns {
        let scenario = Scenario::uniform(n as usize, 1).with_seed(n);
        for &row in &rows {
            cells.push(Cell::new(row, scenario.clone(), opts.runs));
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
/// configurations, each labelled by its protocol name.
fn table_rows() -> Vec<Box<dyn PollingProtocol>> {
    vec![
        Box::new(CppConfig::default()),
        Box::new(HppConfig::default()),
        Box::new(EhppConfig::default()),
        Box::new(MicConfig::default()),
        Box::new(TppConfig::default()),
        Box::new(LowerBound),
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
            let runs = if row.name() == "CPP" || row.name() == "LowerBound" {
                1
            } else {
                opts.runs
            };
            cells.push(Cell::new(row.as_ref(), scenario, runs));
        }
    }
    let results = engine.run_cells(&cells);

    let mut measured: Vec<Vec<f64>> = Vec::new();
    for (ri, row) in rows.iter().enumerate() {
        print!("{:<12}", row.name());
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
                    let idx = rows.iter().position(|r| r.name() == name).expect("row");
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
                    let idx = rows.iter().position(|r| r.name() == name).expect("row");
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
    let rows: Vec<Box<dyn PollingProtocol>> = table_rows()
        .into_iter()
        .filter(|r| r.name() != "LowerBound")
        .collect();
    let cells: Vec<Cell<'_>> = rows
        .iter()
        .map(|row| Cell::new(row.as_ref(), scenario.clone(), runs))
        .collect();
    let results = engine.run_cells(&cells);
    for (row, reports) in rows.iter().zip(&results) {
        let per_tag = summary_of(reports, |r| r.tag_energy(&params, &link).per_tag_uj());
        let rx = summary_of(reports, |r| r.tag_energy(&params, &link).rx_mj);
        let tx = summary_of(reports, |r| r.tag_energy(&params, &link).tx_mj);
        println!(
            "{:<12} {:>14.2} {:>12.2} {:>12.3}",
            row.name(),
            per_tag.mean,
            rx.mean,
            tx.mean
        );
    }
    println!("(listen energy dominates; TPP's short vectors and early sleeps win)");
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
    let mut rows: Vec<Box<dyn PollingProtocol>> =
        vec![Box::new(TppConfig::default()), Box::new(hpp_rule_cfg)];
    let subset_sizes = [n_star / 2, n_star, n_star * 2];
    for size in subset_sizes {
        let cfg = EhppConfig {
            subset_size: Some(size),
            ..EhppConfig::default()
        };
        rows.push(Box::new(cfg));
    }
    let mic_ks = [1usize, 2, 4, 7];
    for k in mic_ks {
        let cfg = MicConfig {
            k,
            ..MicConfig::default()
        };
        rows.push(Box::new(cfg));
    }
    rows.push(Box::new(HppConfig::default()));
    let cells: Vec<Cell<'_>> = rows
        .iter()
        .map(|row| Cell::new(row.as_ref(), scenario.clone(), runs))
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
    let (tpp, ecpp) = (TppConfig::default(), EcppConfig::default());
    let dist_rows: [&dyn PollingProtocol; 2] = [&tpp, &ecpp];
    let dists = [
        ("uniform", IdDistribution::UniformRandom),
        ("clustered", IdDistribution::Clustered { categories: 10 }),
    ];
    let mut dist_cells = Vec::new();
    for (_, dist) in &dists {
        let sc = scenario.clone().with_ids(dist.clone());
        for &row in &dist_rows {
            dist_cells.push(Cell::new(row, sc.clone(), runs));
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
