//! Argument parsing for the `repro`, `obs_report` and `rfid_daemon`
//! binaries.
//!
//! Parsing is a pure function from the argument list to either a validated
//! options struct ([`ReproOptions`] / [`ObsReportOptions`] /
//! [`DaemonOptions`]) or an error message, so both the usage-message paths
//! and the name validation are unit-testable without spawning the
//! binaries. All binaries follow the same conventions: `--help`-free
//! (usage prints on any bad flag), exit 2 on parse errors, and a
//! subcommand list in the usage text.

use std::path::PathBuf;

/// Every experiment `repro` knows, with its one-line description. The
/// order matches the paper's presentation and the usage message.
pub const EXPERIMENTS: &[(&str, &str)] = &[
    ("fig1", "execution time vs polling-vector length (analytic)"),
    ("fig3", "HPP average vector length vs n            (Eq. 4)"),
    (
        "fig4",
        "optimal EHPP subset size vs l_c           (Theorem 1)",
    ),
    ("fig5", "EHPP vector length vs n for l_c in {100, 200, 400}"),
    (
        "fig8",
        "singleton probability mu(lambda)          (Eq. 12/13)",
    ),
    (
        "fig9",
        "TPP analytic vector length vs n           (Eqs. 6/8/11/15)",
    ),
    ("fig10", "simulated vector lengths: HPP / EHPP / TPP"),
    (
        "table1",
        "execution time, l = 1  bit   (CPP/HPP/EHPP/MIC/TPP/LB)",
    ),
    ("table2", "execution time, l = 16 bits"),
    ("table3", "execution time, l = 32 bits"),
    (
        "ablations",
        "design-choice ablations (TPP h-rule, EHPP subset, MIC k)",
    ),
    (
        "energy",
        "tag-side energy extension (semi-passive power model)",
    ),
    (
        "recovery",
        "chaos-soak recovery grid: convergence gate + overhead",
    ),
    (
        "session",
        "checkpoint/restore: crash-chaos bit-identity gate",
    ),
    ("all", "everything above"),
];

/// Validated `repro` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproOptions {
    /// Which experiment to regenerate.
    pub experiment: String,
    /// Monte-Carlo repetitions for the simulated experiments.
    pub runs: u64,
    /// Population-sweep cap.
    pub max_n: u64,
    /// Sweep worker threads (`None` = one per core).
    pub workers: Option<usize>,
    /// Runs per sweep job (`None` = engine default).
    pub run_block: Option<u64>,
    /// Whether the persistent cell cache is enabled.
    pub cache: bool,
    /// Cache root override (`None` = `target/sweep-cache`).
    pub cache_dir: Option<PathBuf>,
    /// Where the `session` experiment writes its mid-run snapshot.
    pub checkpoint: Option<PathBuf>,
    /// A snapshot file to restore and finish instead of starting fresh.
    pub resume: Option<PathBuf>,
}

impl Default for ReproOptions {
    fn default() -> Self {
        ReproOptions {
            experiment: "all".to_string(),
            runs: 20,
            max_n: 100_000,
            workers: None,
            run_block: None,
            cache: true,
            cache_dir: None,
            checkpoint: None,
            resume: None,
        }
    }
}

/// The full usage message, experiment list included.
pub fn usage() -> String {
    let mut out = String::from(
        "usage: repro [experiment] [--runs N] [--max-n N] [--workers N]\n\
         \x20            [--run-block N] [--no-cache] [--cache-dir PATH]\n\
         \x20            [--checkpoint PATH] [--resume PATH]\n\n\
         experiments:\n",
    );
    for (name, desc) in EXPERIMENTS {
        out.push_str(&format!("  {name:<10} {desc}\n"));
    }
    out.push_str(
        "\n--runs (default 20) controls Monte-Carlo repetitions; --max-n\n\
         (default 100000) caps the population sweep. --workers 1 is the\n\
         serial reference path (output is bit-identical to any width).\n\
         Cell results persist under target/sweep-cache/ unless --no-cache.\n\
         The session experiment kills a run mid-flight and proves the\n\
         restored run bit-identical; --checkpoint PATH writes the snapshot\n\
         of a killed run, --resume PATH restores one and finishes it.\n",
    );
    out
}

/// Parses `repro`'s arguments (without the program name). `Err` carries a
/// one-line message; callers print it with [`usage`] and exit nonzero.
pub fn parse_args(args: &[String]) -> Result<ReproOptions, String> {
    let mut opts = ReproOptions::default();
    let mut experiment: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--runs" => opts.runs = parse_value(it.next(), "--runs", |v| v >= 1)?,
            "--max-n" => opts.max_n = parse_value(it.next(), "--max-n", |v| v >= 1)?,
            "--workers" => {
                opts.workers = Some(parse_value(it.next(), "--workers", |v: usize| v >= 1)?)
            }
            "--run-block" => {
                opts.run_block = Some(parse_value(it.next(), "--run-block", |v| v >= 1)?)
            }
            "--no-cache" => opts.cache = false,
            "--cache-dir" => {
                opts.cache_dir = Some(PathBuf::from(it.next().ok_or("--cache-dir needs a path")?))
            }
            "--checkpoint" => {
                opts.checkpoint = Some(PathBuf::from(it.next().ok_or("--checkpoint needs a path")?))
            }
            "--resume" => {
                opts.resume = Some(PathBuf::from(it.next().ok_or("--resume needs a path")?))
            }
            other if !other.starts_with('-') => {
                if let Some(first) = &experiment {
                    return Err(format!(
                        "two experiments given ({first} and {other}); pick one"
                    ));
                }
                experiment = Some(other.to_string());
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if let Some(exp) = experiment {
        if !EXPERIMENTS.iter().any(|(name, _)| *name == exp) {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
            return Err(format!(
                "unknown experiment `{exp}`; expected one of: {}",
                names.join(", ")
            ));
        }
        opts.experiment = exp;
    }
    Ok(opts)
}

fn parse_value<T: std::str::FromStr + Copy>(
    value: Option<&String>,
    flag: &str,
    valid: impl Fn(T) -> bool,
) -> Result<T, String> {
    value
        .and_then(|v| v.parse().ok())
        .filter(|&v| valid(v))
        .ok_or_else(|| format!("{flag} needs a positive integer"))
}

/// Every `obs_report` mode, with its one-line description (the usage
/// message's subcommand list).
pub const OBS_MODES: &[(&str, &str)] = &[
    (
        "(default)",
        "worked examples + trace-derived metric summaries",
    ),
    (
        "--flame",
        "span profile of the paper protocols (flame table + folded stacks)",
    ),
    ("--reconcile", "trace→counters gate over every protocol"),
];

/// Which `obs_report` mode was selected (modes are mutually exclusive).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ObsMode {
    /// Render the worked examples and metric summaries.
    #[default]
    Examples,
    /// Render the span profile (flame table + folded stacks).
    Flame,
    /// Run the trace→counters reconciliation gate.
    Reconcile,
}

/// Validated `obs_report` invocation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsReportOptions {
    /// The selected mode.
    pub mode: ObsMode,
    /// Population size for the example/flame/reconcile runs.
    pub n: Option<usize>,
    /// Seed for the example/flame/reconcile runs.
    pub seed: Option<u64>,
}

/// The full `obs_report` usage message, mode list included.
pub fn obs_usage() -> String {
    let mut out = String::from(
        "usage: obs_report [mode] [--n N] [--seed S]\n\nmodes (mutually exclusive):\n",
    );
    for (name, desc) in OBS_MODES {
        out.push_str(&format!("  {name:<24} {desc}\n"));
    }
    out.push_str(
        "\n--n (default 200; the reconcile gate caps it at 120) sets the\n\
         population, --seed (default 1) the master seed.\n",
    );
    out
}

/// Parses `obs_report`'s arguments (without the program name). `Err`
/// carries a one-line message; callers print it with [`obs_usage`] and
/// exit 2.
pub fn parse_obs_args(args: &[String]) -> Result<ObsReportOptions, String> {
    let mut opts = ObsReportOptions::default();
    let mut it = args.iter();
    let set_mode = |opts: &mut ObsReportOptions, mode: ObsMode| {
        if opts.mode != ObsMode::Examples {
            return Err(format!(
                "two modes given ({:?} and {mode:?}); pick one",
                opts.mode
            ));
        }
        opts.mode = mode;
        Ok(())
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--flame" => set_mode(&mut opts, ObsMode::Flame)?,
            "--reconcile" => set_mode(&mut opts, ObsMode::Reconcile)?,
            "--n" => opts.n = Some(parse_value(it.next(), "--n", |v: usize| v >= 1)?),
            "--seed" => opts.seed = Some(parse_value(it.next(), "--seed", |_: u64| true)?),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(opts)
}

/// Which `rfid_daemon` mode was selected (modes are mutually exclusive).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum DaemonMode {
    /// Bind and serve until a client sends `Shutdown`.
    #[default]
    Serve,
    /// Connect to a running daemon and drive one session.
    Client(String),
    /// In-process end-to-end smoke: port 0, one clean + one impaired
    /// session over real TCP, clean shutdown.
    Smoke,
    /// In-process resilience smoke: a chaos-impaired resilient client
    /// must finish bit-identically to a clean in-process run.
    ChaosSmoke,
}

/// Validated `rfid_daemon` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonOptions {
    /// The selected mode.
    pub mode: DaemonMode,
    /// Bind address for `Serve` (port 0 picks a free port).
    pub addr: String,
    /// Accept shards for `Serve` (`None` = one per core).
    pub shards: Option<usize>,
    /// Flight-bundle directory override for `Serve`.
    pub flight_dir: Option<PathBuf>,
    /// Protocol the `Client`/`Smoke` session runs.
    pub protocol: String,
    /// Population size for the `Client`/`Smoke` session.
    pub n: u64,
    /// Bits of information per tag.
    pub info_bits: u64,
    /// Scenario seed.
    pub seed: u64,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            mode: DaemonMode::Serve,
            addr: "127.0.0.1:0".to_string(),
            shards: None,
            flight_dir: None,
            protocol: "TPP".to_string(),
            n: 150,
            info_bits: 4,
            seed: 31,
        }
    }
}

/// The full `rfid_daemon` usage message.
pub fn daemon_usage() -> String {
    "usage: rfid_daemon [mode] [options]\n\n\
     modes (mutually exclusive; default --serve):\n\
     \x20 --serve             bind --addr and serve until a Shutdown command\n\
     \x20 --client ADDR       connect and run one session against a daemon\n\
     \x20 --smoke             in-process TCP smoke: one clean + one impaired\n\
     \x20                     session on port 0, then a clean shutdown\n\
     \x20 --chaos-smoke       in-process resilience smoke: a chaos-impaired\n\
     \x20                     link must finish bit-identically to a clean run\n\n\
     serve options:\n\
     \x20 --addr HOST:PORT    bind address (default 127.0.0.1:0)\n\
     \x20 --shards N          accept shards (default: one per core)\n\
     \x20 --flight-dir PATH   where postmortem flight bundles are written\n\n\
     session options (client/smoke):\n\
     \x20 --protocol NAME     protocol to serve (default TPP)\n\
     \x20 --n N               population size (default 150)\n\
     \x20 --info-bits N       information bits per tag (default 4)\n\
     \x20 --seed S            scenario seed (default 31)\n"
        .to_string()
}

/// Parses `rfid_daemon`'s arguments (without the program name). `Err`
/// carries a one-line message; callers print it with [`daemon_usage`] and
/// exit 2.
pub fn parse_daemon_args(args: &[String]) -> Result<DaemonOptions, String> {
    let mut opts = DaemonOptions::default();
    let mut mode: Option<DaemonMode> = None;
    let set_mode = |mode_slot: &mut Option<DaemonMode>, m: DaemonMode| {
        if let Some(first) = mode_slot {
            return Err(format!("two modes given ({first:?} and {m:?}); pick one"));
        }
        *mode_slot = Some(m);
        Ok(())
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--serve" => set_mode(&mut mode, DaemonMode::Serve)?,
            "--client" => {
                let addr = it.next().ok_or("--client needs an address")?;
                set_mode(&mut mode, DaemonMode::Client(addr.clone()))?;
            }
            "--smoke" => set_mode(&mut mode, DaemonMode::Smoke)?,
            "--chaos-smoke" => set_mode(&mut mode, DaemonMode::ChaosSmoke)?,
            "--addr" => opts.addr = it.next().ok_or("--addr needs HOST:PORT")?.clone(),
            "--shards" => {
                opts.shards = Some(parse_value(it.next(), "--shards", |v: usize| v >= 1)?)
            }
            "--flight-dir" => {
                opts.flight_dir = Some(PathBuf::from(it.next().ok_or("--flight-dir needs a path")?))
            }
            "--protocol" => opts.protocol = it.next().ok_or("--protocol needs a name")?.clone(),
            "--n" => opts.n = parse_value(it.next(), "--n", |v| v >= 1)?,
            "--info-bits" => opts.info_bits = parse_value(it.next(), "--info-bits", |v| v >= 1)?,
            "--seed" => opts.seed = parse_value(it.next(), "--seed", |_: u64| true)?,
            other => return Err(format!("unknown option {other}")),
        }
    }
    opts.mode = mode.unwrap_or_default();
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ReproOptions, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_run_everything() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts, ReproOptions::default());
        assert_eq!(opts.experiment, "all");
    }

    #[test]
    fn flags_parse_in_any_order() {
        let opts = parse(&[
            "--workers",
            "3",
            "table2",
            "--runs",
            "5",
            "--max-n",
            "2000",
            "--run-block",
            "4",
        ])
        .unwrap();
        assert_eq!(opts.experiment, "table2");
        assert_eq!(opts.runs, 5);
        assert_eq!(opts.max_n, 2_000);
        assert_eq!(opts.workers, Some(3));
        assert_eq!(opts.run_block, Some(4));
        assert!(opts.cache);
    }

    #[test]
    fn cache_flags_parse() {
        let opts = parse(&["--no-cache"]).unwrap();
        assert!(!opts.cache);
        let opts = parse(&["--cache-dir", "/tmp/x"]).unwrap();
        assert_eq!(opts.cache_dir, Some(PathBuf::from("/tmp/x")));
    }

    #[test]
    fn session_flags_parse() {
        let opts = parse(&["session", "--checkpoint", "/tmp/s.json"]).unwrap();
        assert_eq!(opts.experiment, "session");
        assert_eq!(opts.checkpoint, Some(PathBuf::from("/tmp/s.json")));
        assert_eq!(opts.resume, None);
        let opts = parse(&["session", "--resume", "/tmp/s.json"]).unwrap();
        assert_eq!(opts.resume, Some(PathBuf::from("/tmp/s.json")));
    }

    #[test]
    fn missing_or_bad_numbers_are_errors_not_panics() {
        for args in [
            &["--runs"][..],
            &["--runs", "zero"],
            &["--runs", "0"],
            &["--max-n", "-3"],
            &["--workers", "0"],
            &["--run-block", "x"],
            &["--cache-dir"],
            &["--checkpoint"],
            &["--resume"],
        ] {
            assert!(parse(args).is_err(), "{args:?} should be rejected");
        }
    }

    #[test]
    fn unknown_experiment_lists_the_valid_ones() {
        let err = parse(&["fig99"]).unwrap_err();
        assert!(err.contains("unknown experiment `fig99`"));
        assert!(err.contains("fig10"), "error names the experiments: {err}");
        assert!(err.contains("table3"));
    }

    #[test]
    fn unknown_option_and_double_experiment_are_errors() {
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("--frobnicate"));
        assert!(parse(&["fig1", "fig3"]).unwrap_err().contains("pick one"));
    }

    #[test]
    fn usage_names_every_experiment() {
        let text = usage();
        for (name, _) in EXPERIMENTS {
            assert!(text.contains(name), "usage missing {name}");
        }
    }

    fn parse_obs(args: &[&str]) -> Result<ObsReportOptions, String> {
        parse_obs_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn obs_defaults_to_the_examples_mode() {
        let opts = parse_obs(&[]).unwrap();
        assert_eq!(opts.mode, ObsMode::Examples);
        assert_eq!(opts.n, None);
        assert_eq!(opts.seed, None);
    }

    #[test]
    fn obs_modes_and_knobs_parse_in_any_order() {
        let opts = parse_obs(&["--n", "50", "--flame", "--seed", "9"]).unwrap();
        assert_eq!(opts.mode, ObsMode::Flame);
        assert_eq!(opts.n, Some(50));
        assert_eq!(opts.seed, Some(9));
        let opts = parse_obs(&["--reconcile"]).unwrap();
        assert_eq!(opts.mode, ObsMode::Reconcile);
    }

    #[test]
    fn obs_bad_flags_and_mode_conflicts_are_errors() {
        for args in [
            &["--n"][..],
            &["--n", "0"],
            &["--n", "lots"],
            &["--seed"],
            &["--seed", "x"],
            &["--check-hotpath", "target/BENCH_hotpath.json"],
            &["--frobnicate"],
        ] {
            assert!(parse_obs(args).is_err(), "{args:?} should be rejected");
        }
        let err = parse_obs(&["--flame", "--reconcile"]).unwrap_err();
        assert!(err.contains("pick one"), "{err}");
    }

    #[test]
    fn obs_usage_names_every_mode() {
        let text = obs_usage();
        for (name, _) in OBS_MODES {
            let flag = name.split_whitespace().next().unwrap();
            assert!(text.contains(flag), "obs usage missing {flag}");
        }
    }

    fn parse_daemon(args: &[&str]) -> Result<DaemonOptions, String> {
        parse_daemon_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn daemon_defaults_to_serving_a_free_port() {
        let opts = parse_daemon(&[]).unwrap();
        assert_eq!(opts, DaemonOptions::default());
        assert_eq!(opts.mode, DaemonMode::Serve);
        assert_eq!(opts.addr, "127.0.0.1:0");
        assert_eq!(opts.shards, None);
    }

    #[test]
    fn daemon_modes_and_knobs_parse_in_any_order() {
        let opts = parse_daemon(&["--shards", "4", "--serve", "--addr", "0.0.0.0:9000"]).unwrap();
        assert_eq!(opts.mode, DaemonMode::Serve);
        assert_eq!(opts.addr, "0.0.0.0:9000");
        assert_eq!(opts.shards, Some(4));
        let opts = parse_daemon(&[
            "--client",
            "localhost:9000",
            "--protocol",
            "hpp",
            "--n",
            "500",
            "--info-bits",
            "16",
            "--seed",
            "7",
        ])
        .unwrap();
        assert_eq!(opts.mode, DaemonMode::Client("localhost:9000".to_string()));
        assert_eq!(opts.protocol, "hpp");
        assert_eq!(opts.n, 500);
        assert_eq!(opts.info_bits, 16);
        assert_eq!(opts.seed, 7);
        let opts = parse_daemon(&["--smoke", "--flight-dir", "/tmp/f"]).unwrap();
        assert_eq!(opts.mode, DaemonMode::Smoke);
        assert_eq!(opts.flight_dir, Some(PathBuf::from("/tmp/f")));
        let opts = parse_daemon(&["--chaos-smoke", "--seed", "11"]).unwrap();
        assert_eq!(opts.mode, DaemonMode::ChaosSmoke);
        assert_eq!(opts.seed, 11);
    }

    #[test]
    fn daemon_bad_flags_and_mode_conflicts_are_errors() {
        for args in [
            &["--client"][..],
            &["--addr"],
            &["--shards"],
            &["--shards", "0"],
            &["--shards", "many"],
            &["--flight-dir"],
            &["--protocol"],
            &["--n", "0"],
            &["--info-bits", "x"],
            &["--seed"],
            &["--frobnicate"],
            &["serve"],
        ] {
            assert!(parse_daemon(args).is_err(), "{args:?} should be rejected");
        }
        let err = parse_daemon(&["--smoke", "--serve"]).unwrap_err();
        assert!(err.contains("pick one"), "{err}");
        let err = parse_daemon(&["--chaos-smoke", "--smoke"]).unwrap_err();
        assert!(err.contains("pick one"), "{err}");
        let err = parse_daemon(&["--client", "a:1", "--client", "b:2"]).unwrap_err();
        assert!(err.contains("pick one"), "{err}");
    }

    #[test]
    fn daemon_usage_names_every_mode_and_flag() {
        let text = daemon_usage();
        for flag in [
            "--serve",
            "--client",
            "--smoke",
            "--chaos-smoke",
            "--addr",
            "--shards",
            "--flight-dir",
            "--protocol",
            "--n",
            "--info-bits",
            "--seed",
        ] {
            assert!(text.contains(flag), "daemon usage missing {flag}");
        }
    }
}
