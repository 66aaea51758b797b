//! Ablation benches for the design choices DESIGN.md §7 calls out.
//! Each bench measures the *simulated protocol metric* (total inventory
//! time on the C1G2 clock) rather than host CPU time: the harness's
//! iteration wall-time tracks the simulator work, while the printed custom
//! metric is what the paper's tables report. Run `repro ablations` for the
//! metric-level summary table.

use std::hint::black_box;

use rfid_baselines::MicConfig;
use rfid_bench::Bench;
use rfid_protocols::{EhppConfig, IndexRule, PollingProtocol, TppConfig};
use rfid_system::{BitVec, SimConfig, SimContext, TagPopulation};

fn run_once(protocol: &dyn PollingProtocol, n: usize, seed: u64) -> f64 {
    let pop = TagPopulation::sequential(n, |_| BitVec::from_value(1, 1));
    let mut ctx = SimContext::new(pop, &SimConfig::paper(seed));
    protocol.run(&mut ctx).total_time.as_secs()
}

fn ablation_tpp_h(b: &mut Bench) {
    let n = 10_000;
    for (name, rule) in [
        ("eq15", IndexRule::Eq15Optimal),
        ("hpp_rule", IndexRule::HppRule),
    ] {
        let protocol = TppConfig {
            index_rule: rule,
            ..TppConfig::default()
        };
        let mut seed = 0u64;
        b.bench(&format!("ablation_tpp_h/{name}"), || {
            seed += 1;
            black_box(run_once(&protocol, n, seed))
        });
    }
}

fn ablation_ehpp_subset(b: &mut Bench) {
    let n = 10_000;
    let n_star = EhppConfig::default().effective_subset_size();
    for (name, size) in [
        ("half", n_star / 2),
        ("thm1", n_star),
        ("double", n_star * 2),
    ] {
        let protocol = EhppConfig {
            subset_size: Some(size),
            ..EhppConfig::default()
        };
        let mut seed = 0u64;
        b.bench(&format!("ablation_ehpp_subset/{name}"), || {
            seed += 1;
            black_box(run_once(&protocol, n, seed))
        });
    }
}

fn ablation_mic_k(b: &mut Bench) {
    let n = 10_000;
    for k in [1usize, 4, 7] {
        let protocol = MicConfig {
            k,
            ..MicConfig::default()
        };
        let mut seed = 0u64;
        b.bench(&format!("ablation_mic_k/{k}"), || {
            seed += 1;
            black_box(run_once(&protocol, n, seed))
        });
    }
}

fn main() {
    let mut b = Bench::new("ablations");
    b.sample_size(10);
    ablation_tpp_h(&mut b);
    ablation_ehpp_subset(&mut b);
    ablation_mic_k(&mut b);
    b.finish();
}
