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

/// Every experiment `repro` knows, with its one-line description. The
/// order matches the paper's presentation and the usage message.
pub(crate) const EXPERIMENTS: &[(&str, &str)] = &[
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
}

impl Default for ReproOptions {
    fn default() -> Self {
        ReproOptions {
            experiment: "all".to_string(),
            runs: 20,
            max_n: 100_000,
            workers: None,
        }
    }
}

/// The full usage message, experiment list included.
pub fn usage() -> String {
    let mut out = String::from(
        "usage: repro [experiment] [--runs N] [--max-n N] [--workers N]\n\n\
         experiments:\n",
    );
    for (name, desc) in EXPERIMENTS {
        out.push_str(&format!("  {name:<10} {desc}\n"));
    }
    out.push_str(
        "\n--runs (default 20) controls Monte-Carlo repetitions; --max-n\n\
         (default 100000) caps the population sweep. --workers 1 is the\n\
         serial reference path (output is bit-identical to any width).\n",
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
pub(crate) const OBS_MODES: &[(&str, &str)] = &[
    (
        "(default)",
        "worked examples + trace-derived metric summaries",
    ),
    (
        "--flame",
        "span profile of the paper protocols (flame table + folded stacks)",
    ),
];

/// Which `obs_report` mode was selected (modes are mutually exclusive).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ObsMode {
    /// Render the worked examples and metric summaries.
    #[default]
    Examples,
    /// Render the span profile (flame table + folded stacks).
    Flame,
}

/// Validated `obs_report` invocation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsReportOptions {
    /// The selected mode.
    pub mode: ObsMode,
    /// Population size for the example/flame runs.
    pub n: Option<usize>,
    /// Seed for the example/flame runs.
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
        "\n--n (default 200) sets the population, --seed (default 1) the\n\
         master seed.\n",
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
}

/// Validated `rfid_daemon` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonOptions {
    /// The selected mode.
    pub mode: DaemonMode,
    /// Bind address for `Serve` (port 0 picks a free port).
    pub addr: String,
    /// Protocol the `Client` session runs.
    pub protocol: String,
    /// Population size for the `Client` session.
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
     \x20 --client ADDR       connect and run one session against a daemon\n\n\
     serve options:\n\
     \x20 --addr HOST:PORT    bind address (default 127.0.0.1:0)\n\n\
     session options (client):\n\
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
            "--addr" => opts.addr = it.next().ok_or("--addr needs HOST:PORT")?.clone(),
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
        let opts = parse(&["--workers", "3", "table2", "--runs", "5", "--max-n", "2000"]).unwrap();
        assert_eq!(opts.experiment, "table2");
        assert_eq!(opts.runs, 5);
        assert_eq!(opts.max_n, 2_000);
        assert_eq!(opts.workers, Some(3));
    }

    #[test]
    fn missing_or_bad_numbers_are_errors_not_panics() {
        for args in [
            &["--runs"][..],
            &["--runs", "zero"],
            &["--runs", "0"],
            &["--max-n", "-3"],
            &["--workers", "0"],
            // The session experiment's flags went with it.
            &["--checkpoint", "/tmp/s.json"],
            &["--resume", "/tmp/s.json"],
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
            &["--reconcile"],
            &["--frobnicate"],
        ] {
            assert!(parse_obs(args).is_err(), "{args:?} should be rejected");
        }
        let err = parse_obs(&["--flame", "--flame"]).unwrap_err();
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
    }

    #[test]
    fn daemon_modes_and_knobs_parse_in_any_order() {
        let opts = parse_daemon(&["--serve", "--addr", "0.0.0.0:9000"]).unwrap();
        assert_eq!(opts.mode, DaemonMode::Serve);
        assert_eq!(opts.addr, "0.0.0.0:9000");
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
        let opts = parse_daemon(&["--addr", "0.0.0.0:7", "--serve"]).unwrap();
        assert_eq!(opts.mode, DaemonMode::Serve);
        assert_eq!(opts.addr, "0.0.0.0:7");
    }

    #[test]
    fn daemon_bad_flags_and_mode_conflicts_are_errors() {
        for args in [
            &["--client"][..],
            &["--addr"],
            &["--shards", "4"],
            &["--protocol"],
            &["--n", "0"],
            &["--info-bits", "x"],
            &["--seed"],
            &["--frobnicate"],
            &["serve"],
        ] {
            assert!(parse_daemon(args).is_err(), "{args:?} should be rejected");
        }
        // The removed in-process smoke modes live on as the tests in
        // `tests/daemon_serving.rs`, and a served session keeps its
        // bundle in memory; their flags are unknown now.
        for flag in ["--smoke", "--chaos-smoke", "--flight-dir"] {
            let err = parse_daemon(&[flag, "/tmp/f"]).unwrap_err();
            assert!(err.contains("unknown option"), "{flag}: {err}");
        }
        let err = parse_daemon(&["--client", "a:1", "--serve"]).unwrap_err();
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
            "--addr",
            "--protocol",
            "--n",
            "--info-bits",
            "--seed",
        ] {
            assert!(text.contains(flag), "daemon usage missing {flag}");
        }
    }
}
