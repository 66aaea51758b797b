//! The repository benchmark: five workloads across the serving layer and
//! the simulator core, end-to-end metrics from an untraced pass and a
//! per-layer breakdown from a traced one. See `README.md` next to this
//! crate for the workloads, the metrics and how to run them.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> [--seed S] [--seconds T] [--trace [0|1]] \
//!     [--repeat K] [--quick]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the process exits non-zero when
//! any operation failed or produced the wrong output.

mod inventory;
mod reference;
mod replay;
mod report;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use rfid_system::Json;

use crate::inventory::{InvProtocol, InventorySpec, LargeRun};
use crate::report::RunReport;
use crate::serve::{Migrate, ServeSpec};

/// How one workload run is driven.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every input of the run derives from.
    pub seed: u64,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    /// Traced (per-layer) pass instead of the untraced one.
    pub trace: bool,
    /// Tiny sizes, for smoke tests.
    pub quick: bool,
}

impl RunConfig {
    /// Length of each timed phase: all of `seconds` for an untraced run,
    /// a quarter each for a traced run's untraced and traced phases.
    pub fn phase_s(&self) -> f64 {
        if self.trace {
            self.seconds / 4.0
        } else {
            self.seconds
        }
    }
}

const SERVE_SMALL: ServeSpec = ServeSpec {
    name: "serve_small",
    n: 64,
    quick_n: 64,
    migrate: None,
};

const SERVE_LARGE: ServeSpec = ServeSpec {
    name: "serve_large",
    n: 10_000,
    quick_n: 500,
    migrate: None,
};

/// Three migrations three steps apart: a TPP inventory of 2 000 tags
/// takes at least 11 steps (11–30 over 300 seeds), so every session
/// migrates exactly three times.
const SERVE_MIGRATE: ServeSpec = ServeSpec {
    name: "serve_migrate",
    n: 2_000,
    quick_n: 200,
    migrate: Some(Migrate { every: 3, times: 3 }),
};

/// The paper's polling protocols. Timed populations stay cache-sized: at
/// 400 000 tags a run's time swung by ±20 % from minute to minute on a
/// shared two-vCPU machine, at 20 000 by ±2 %. Sizes give each protocol a
/// similar share of a cycle's timed time. The large-population regime
/// behind the paper's claims is an HPP run at a million tags in the
/// traced pass, reported per layer and not gated.
pub const INVENTORY_POLLING: InventorySpec = InventorySpec {
    name: "inventory_polling",
    protocols: &[
        InvProtocol {
            name: "HPP",
            n: 50_000,
            quick_n: 2_000,
        },
        InvProtocol {
            name: "TPP",
            n: 20_000,
            quick_n: 1_000,
        },
        InvProtocol {
            name: "EHPP",
            n: 10_000,
            quick_n: 300,
        },
    ],
    large: &[LargeRun {
        protocol: InvProtocol {
            name: "HPP",
            n: 1_000_000,
            quick_n: 5_000,
        },
        metric: "protocols.HPP_1M.tags_per_s",
    }],
};

/// Identification under collisions: the Q-algorithm straggler, framed
/// ALOHA and the two tree walks, sized like the polling workload.
pub const INVENTORY_ALOHA: InventorySpec = InventorySpec {
    name: "inventory_aloha",
    protocols: &[
        InvProtocol {
            name: "Q-algo",
            n: 1_000,
            quick_n: 100,
        },
        InvProtocol {
            name: "FSA",
            n: 20_000,
            quick_n: 1_000,
        },
        InvProtocol {
            name: "BinSplit",
            n: 10_000,
            quick_n: 500,
        },
        InvProtocol {
            name: "QueryTree",
            n: 5_000,
            quick_n: 500,
        },
    ],
    large: &[],
};

/// Every workload, in the order `all` runs them.
const WORKLOADS: &[&str] = &[
    "serve_small",
    "serve_large",
    "serve_migrate",
    "inventory_polling",
    "inventory_aloha",
];

fn run_workload(name: &str, cfg: &RunConfig) -> RunReport {
    let mut report = match name {
        "serve_small" => serve::run(&SERVE_SMALL, cfg),
        "serve_large" => serve::run(&SERVE_LARGE, cfg),
        "serve_migrate" => serve::run(&SERVE_MIGRATE, cfg),
        "inventory_polling" => inventory::run(&INVENTORY_POLLING, cfg),
        "inventory_aloha" => inventory::run(&INVENTORY_ALOHA, cfg),
        other => unreachable!("workload {other} was validated by the parser"),
    };
    report.set("peak_rss_mb", report::peak_rss_mb());
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.note("failed_ratio", failed_ratio);
    report
}

const USAGE: &str = "usage: rfid-benchmark --workload <name|all> [--seed S] [--seconds T] \
[--trace [0|1]] [--repeat K] [--quick]
workloads: serve_small serve_large serve_migrate inventory_polling inventory_aloha";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = None;
    let mut trace = false;
    let mut repeat = None;
    let mut quick = false;
    let mut i = 0;
    let value = |i: usize, flag: &str| {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                workload = Some(value(i, "--workload")?);
                i += 1;
            }
            "--seed" => {
                seed = value(i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                let s: f64 = value(i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    trace = true;
                    i += 1;
                }
                _ => trace = true,
            },
            "--repeat" => {
                let k: usize = value(i, "--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if !(2..=100).contains(&k) {
                    return Err(format!("--repeat {k} outside 2..=100"));
                }
                repeat = Some(k);
                i += 1;
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![*WORKLOADS
            .iter()
            .find(|w| **w == workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?]
    };
    Ok(Args {
        workloads,
        seed,
        seconds: seconds.unwrap_or(if quick { 0.4 } else { 20.0 }),
        trace,
        repeat,
        quick,
    })
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/results")
}

/// Writes `text` to `name` under the results directory; a failure is
/// reported but does not fail the run.
fn write_result(name: &str, text: &str) {
    let dir = results_dir();
    let path = dir.join(name);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Writes a traced run's spans as `<workload>-seed<S>.spans.jsonl`.
pub fn write_spans_file(cfg: &RunConfig, workload: &str, spans: &[spans::Span]) {
    let dir = results_dir();
    let path = dir.join(format!("{workload}-seed{}.spans.jsonl", cfg.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| spans::write_jsonl(&path, spans)) {
        Ok(()) => println!("wrote {} ({} spans)", path.display(), spans.len()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn config(args: &Args) -> RunConfig {
    RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
    }
}

/// One workload in this process.
fn run_here(args: &Args, workload: &str) -> i32 {
    let report = run_workload(workload, &config(args));
    report.print_lines();
    let suffix = if args.trace { "-traced" } else { "" };
    write_result(
        &format!("{workload}-seed{}{suffix}.json", args.seed),
        &report.record_json().to_pretty_string(),
    );
    println!("{}", report.result_json());
    report.exit_code()
}

/// One workload in a child process (so each has its own peak RSS):
/// echoes the child's lines and returns its result line, or an empty
/// object — which counts as incorrect — if the child gave none.
fn run_child(args: &Args, workload: &str) -> Json {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this program: {e}");
            return Json::Obj(Vec::new());
        }
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = match cmd.output() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("spawn {workload}: {e}");
            return Json::Obj(Vec::new());
        }
    };
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    Json::parse(last).unwrap_or_else(|e| {
        eprintln!("{workload}: no result line ({e}): {last}");
        Json::Obj(Vec::new())
    })
}

/// One result line over several child runs: correct only if every run
/// was, with their operations summed.
fn result_line(results: &[(&str, Json)], metrics: Vec<(String, Json)>) -> Json {
    let mut correct = !results.is_empty();
    let (mut attempted, mut failed) = (0, 0);
    for (_, r) in results {
        correct &= r.field::<bool>("correct").unwrap_or(false);
        attempted += r.field::<u64>("attempted").unwrap_or(0);
        failed += r.field::<u64>("failed").unwrap_or(0);
    }
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::UInt(attempted)),
        ("failed".to_string(), Json::UInt(failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
}

/// Prints the result line and returns the exit code it calls for.
fn finish(line: &Json) -> i32 {
    println!("{line}");
    if line.field::<bool>("correct").unwrap_or(false) {
        0
    } else {
        1
    }
}

fn run_all(args: &Args) -> i32 {
    let results: Vec<(&str, Json)> = args
        .workloads
        .iter()
        .map(|w| (*w, run_child(args, w)))
        .collect();
    let mut metrics = Vec::new();
    for (workload, r) in &results {
        if let Some(Json::Obj(ms)) = r.get("metrics") {
            for (name, m) in ms {
                metrics.push((format!("{workload}.{name}"), m.clone()));
            }
        }
    }
    finish(&result_line(&results, metrics))
}

/// The end-to-end bounds `BENCHMARK.json` fixes, by metric name.
fn bounds() -> BTreeMap<String, f64> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return BTreeMap::new();
    };
    let Ok(spec) = Json::parse(&text) else {
        return BTreeMap::new();
    };
    spec.get("end_to_end")
        .and_then(|m| m.as_arr().ok())
        .unwrap_or_default()
        .iter()
        .filter_map(|m| Some((m.field("name").ok()?, m.field("bound").ok()?)))
        .collect()
}

/// Runs the workloads `K` times in alternating order and prints each
/// metric's median and quartiles, flagging spreads beyond the bound.
fn run_repeat(args: &Args, k: usize) -> i32 {
    let mut results: Vec<(&str, Json)> = Vec::new();
    for rep in 0..k {
        let mut order = args.workloads.clone();
        if rep % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            results.push((workload, run_child(args, workload)));
        }
    }
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let mut units: BTreeMap<String, String> = BTreeMap::new();
    for (workload, r) in &results {
        if let Some(Json::Obj(ms)) = r.get("metrics") {
            for (name, m) in ms {
                if let (Ok(v), Ok(u)) = (m.field::<f64>("value"), m.field::<String>("unit")) {
                    values.entry((workload, name.clone())).or_default().push(v);
                    units.insert(name.clone(), u);
                }
            }
        }
    }
    let bounds = bounds();
    println!(
        "{:<18} {:<40} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    let mut summary = Vec::new();
    for ((workload, name), vs) in &values {
        let [q1, q2, q3] = stats::quartiles(vs).unwrap_or([vs[0]; 3]);
        let spread = stats::spread(vs);
        let bound = bounds.get(name).copied();
        let flag = match bound {
            Some(b) if spread > b => "  SPREAD>BOUND",
            _ => "",
        };
        println!(
            "{workload:<18} {name:<40} {q1:>14.4} {q2:>14.4} {q3:>14.4} {spread:>8.4} {:>6}{flag}",
            bound.map_or("-".to_string(), |b| b.to_string())
        );
        summary.push((
            format!("{workload}.{name}"),
            Json::Obj(vec![
                ("value".to_string(), Json::Float(q2)),
                ("unit".to_string(), Json::str(&units[name])),
                ("q1".to_string(), Json::Float(q1)),
                ("q3".to_string(), Json::Float(q3)),
                ("spread".to_string(), Json::Float(spread)),
                (
                    "runs".to_string(),
                    Json::Arr(vs.iter().map(|v| Json::Float(*v)).collect()),
                ),
            ]),
        ));
    }
    let line = result_line(&results, summary);
    let traced = if args.trace { "-traced" } else { "" };
    write_result(
        &format!("repeat-seed{}-k{k}{traced}.json", args.seed),
        &line.to_pretty_string(),
    );
    finish(&line)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match args.repeat {
        Some(k) => run_repeat(&args, k),
        None if args.workloads.len() == 1 => run_here(&args, args.workloads[0]),
        None => run_all(&args),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_documented_flag_forms_parse() {
        let a = parse("--workload serve_small --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workloads, ["serve_small"]);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (7, 10.0, false, false)
        );
        assert!(parse("--workload serve_small --trace 1").unwrap().trace);
        assert!(parse("--workload serve_small --trace").unwrap().trace);
        assert!(
            parse("--workload serve_small --trace --quick")
                .unwrap()
                .quick
        );
    }

    #[test]
    fn all_expands_and_bad_input_is_refused() {
        assert_eq!(parse("--workload all").unwrap().workloads, WORKLOADS);
        assert_eq!(parse("--workload all --repeat 5").unwrap().repeat, Some(5));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload all --seconds 0").is_err());
        assert!(parse("--workload all --repeat 1").is_err());
        assert!(parse("--workload all --bogus").is_err());
    }

    #[test]
    fn combined_results_fail_when_any_workload_fails() {
        let ok = Json::parse(r#"{"correct":true,"attempted":2,"failed":0,"metrics":{}}"#).unwrap();
        let bad =
            Json::parse(r#"{"correct":false,"attempted":1,"failed":1,"metrics":{}}"#).unwrap();
        let line = result_line(&[("a", ok.clone()), ("b", bad)], Vec::new());
        assert!(!line.field::<bool>("correct").unwrap());
        assert_eq!(line.field::<u64>("attempted").unwrap(), 3);
        assert_eq!(line.field::<u64>("failed").unwrap(), 1);
        let line = result_line(&[("a", ok), ("c", Json::Obj(Vec::new()))], Vec::new());
        assert!(
            !line.field::<bool>("correct").unwrap(),
            "a run with no result line fails"
        );
    }
}
