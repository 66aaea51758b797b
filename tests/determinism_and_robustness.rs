//! Full-stack determinism (same seed ⇒ identical runs) and robustness
//! under channel impairments.

use fast_rfid_polling::apps::info_collect::{collect, run_polling};
use fast_rfid_polling::baselines::MicConfig;
use fast_rfid_polling::prelude::*;
use fast_rfid_polling::system::{Channel, SimConfig, SimContext};

#[test]
fn identical_seeds_produce_identical_runs() {
    let protocols: Vec<Box<dyn PollingProtocol>> = vec![
        Box::new(HppConfig::default()),
        Box::new(EhppConfig::default()),
        Box::new(TppConfig::default()),
        Box::new(MicConfig::default()),
    ];
    for protocol in &protocols {
        let scenario = Scenario::uniform(600, 4).with_seed(123);
        let a = run_polling(protocol.as_ref(), &scenario);
        let b = run_polling(protocol.as_ref(), &scenario);
        assert_eq!(
            a.report().total_time,
            b.report().total_time,
            "{} not deterministic",
            protocol.name()
        );
        assert_eq!(
            a.report().counters.reader_bits,
            b.report().counters.reader_bits
        );
        assert_eq!(a.collected.len(), b.collected.len());
        for (x, y) in a.collected.iter().zip(&b.collected) {
            assert_eq!(x, y);
        }
    }
}

#[test]
fn different_seeds_change_the_run_but_not_the_result() {
    let s1 = Scenario::uniform(500, 2).with_seed(1);
    let s2 = Scenario::uniform(500, 2).with_seed(2);
    let a = run_polling(&TppConfig::default(), &s1);
    let b = run_polling(&TppConfig::default(), &s2);
    assert_ne!(a.report().total_time, b.report().total_time);
    assert_eq!(a.report().counters.polls, b.report().counters.polls);
}

#[test]
fn protocols_survive_heavy_loss() {
    for loss in [0.1f64, 0.3, 0.5] {
        let protocols: Vec<Box<dyn PollingProtocol>> = vec![
            Box::new(HppConfig::default()),
            Box::new(EhppConfig::default()),
            Box::new(TppConfig::default()),
            Box::new(MicConfig::default()),
        ];
        for protocol in &protocols {
            let scenario = Scenario::uniform(200, 1).with_seed(77);
            let population = scenario.build_population();
            let cfg = SimConfig::paper(scenario.protocol_seed()).with_channel(Channel::lossy(loss));
            let mut ctx = SimContext::new(population, &cfg);
            let outcome = collect(Session::open(protocol.as_ref(), &ctx), &mut ctx);
            assert!(
                outcome.end.is_complete(),
                "{} at loss {loss}: {:?}",
                protocol.name(),
                outcome.end
            );
            assert_eq!(
                outcome.report().counters.polls,
                200,
                "{} at loss {loss}",
                protocol.name()
            );
            // Direct polls record losses explicitly; MIC's frame slots see
            // a lost reply as an empty slot instead.
            assert!(
                outcome.report().counters.lost_replies > 0
                    || outcome.report().counters.empty_slots > 0,
                "{} at loss {loss} saw no channel impairment",
                protocol.name()
            );
        }
    }
}

#[test]
fn loss_increases_cost_monotonically_in_expectation() {
    let mut previous = 0.0;
    for loss in [0.0f64, 0.2, 0.4] {
        let mut acc = 0.0;
        for seed in 0..5u64 {
            let scenario = Scenario::uniform(300, 1).with_seed(seed);
            let population = scenario.build_population();
            let cfg = SimConfig::paper(scenario.protocol_seed()).with_channel(Channel::lossy(loss));
            let mut ctx = SimContext::new(population, &cfg);
            let tpp = TppConfig::default();
            let outcome = collect(Session::open(&tpp, &ctx), &mut ctx);
            assert!(outcome.end.is_complete());
            acc += outcome.report().total_time.as_secs();
        }
        let mean = acc / 5.0;
        assert!(
            mean > previous,
            "loss {loss}: mean {mean} not above {previous}"
        );
        previous = mean;
    }
}

#[test]
fn capture_effect_only_helps_aloha() {
    use fast_rfid_polling::baselines::FsaConfig;
    let scenario = Scenario::uniform(1_000, 1).with_seed(5);
    let run_fsa = |capture: f64| {
        let population = scenario.build_population();
        let cfg = SimConfig::paper(scenario.protocol_seed()).with_channel(Channel {
            reply_loss_rate: 0.0,
            capture_prob: capture,
        });
        let mut ctx = SimContext::new(population, &cfg);
        let fsa = FsaConfig::default();
        let outcome = collect(Session::open(&fsa, &ctx), &mut ctx);
        assert!(outcome.end.is_complete());
        outcome.report().total_time
    };
    let plain = run_fsa(0.0);
    let captured = run_fsa(0.7);
    assert!(
        captured < plain,
        "capture {captured} not faster than plain {plain}"
    );
}
