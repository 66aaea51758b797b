//! End-to-end simulator throughput: one full inventory per protocol.
//! (The *protocol-metric* regeneration lives in the `repro` binary; these
//! benches measure how fast the simulator itself runs, which is what caps
//! Monte-Carlo experiment turnaround.) Runs on the in-repo harness
//! (`rfid_bench::Bench`), so `cargo bench` needs nothing from crates-io.

use std::hint::black_box;

use rfid_baselines::{CppConfig, MicConfig};
use rfid_bench::Bench;
use rfid_estimate::EstimationProtocol;
use rfid_identify::{BinarySplitConfig, QAlgorithmConfig, QueryTreeConfig};
use rfid_protocols::{EhppConfig, HppConfig, PollingProtocol, TppConfig};
use rfid_system::{BitVec, SimConfig, SimContext, TagPopulation};

fn population(n: usize) -> TagPopulation {
    TagPopulation::sequential(n, |_| BitVec::from_value(1, 1))
}

fn run_once(protocol: &dyn PollingProtocol, n: usize, seed: u64) -> f64 {
    let mut ctx = SimContext::new(population(n), &SimConfig::paper(seed));
    protocol.run(&mut ctx).total_time.as_secs()
}

fn bench_full_runs(b: &mut Bench) {
    let n = 10_000;
    let protocols: Vec<(&str, Box<dyn PollingProtocol>)> = vec![
        ("cpp", Box::new(CppConfig::default())),
        ("hpp", Box::new(HppConfig::default())),
        ("ehpp", Box::new(EhppConfig::default())),
        ("tpp", Box::new(TppConfig::default())),
        ("mic", Box::new(MicConfig::default())),
    ];
    for (name, protocol) in &protocols {
        let mut seed = 0u64;
        b.bench(&format!("inventory/{name}/{n}"), || {
            seed += 1;
            black_box(run_once(protocol.as_ref(), n, seed))
        });
    }
}

fn bench_tpp_scaling(b: &mut Bench) {
    let tpp = TppConfig::default();
    for n in [1_000usize, 10_000, 100_000] {
        let mut seed = 0u64;
        b.bench(&format!("tpp_scaling/{n}"), || {
            seed += 1;
            black_box(run_once(&tpp, n, seed))
        });
    }
}

fn bench_identification(b: &mut Bench) {
    let n = 2_000;
    let protocols: Vec<(&str, Box<dyn PollingProtocol>)> = vec![
        ("q_algo", Box::new(QAlgorithmConfig::default())),
        ("query_tree", Box::new(QueryTreeConfig::default())),
        ("bin_split", Box::new(BinarySplitConfig::default())),
    ];
    for (name, protocol) in &protocols {
        let mut seed = 0u64;
        b.bench(&format!("identification/{name}/{n}"), || {
            seed += 1;
            black_box(run_once(protocol.as_ref(), n, seed))
        });
    }
}

fn bench_estimation(b: &mut Bench) {
    for n in [1_000usize, 10_000, 100_000] {
        let mut seed = 0u64;
        b.bench(&format!("estimation/{n}"), || {
            seed += 1;
            let mut ctx = SimContext::new(population(n), &SimConfig::paper(seed));
            black_box(EstimationProtocol::default().run(&mut ctx).estimate)
        });
    }
}

fn main() {
    let mut b = Bench::new("protocols");
    b.sample_size(10);
    bench_full_runs(&mut b);
    bench_tpp_scaling(&mut b);
    bench_identification(&mut b);
    bench_estimation(&mut b);
    b.finish();
}
