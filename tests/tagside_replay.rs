//! Reader/tag equivalence by full replay: the fast reader-side TPP
//! implementation and a field of independent tag-side automata must agree
//! broadcast-for-broadcast.
//!
//! On a perfect channel the TPP reader draws round seeds from a xoshiro
//! stream and consumes nothing else, so a test harness holding one
//! [`TagMachine`] per tag can regenerate the *identical* broadcast sequence
//! and compare: same rounds, same singleton owners, same polls, same total
//! vector bits.

use fast_rfid_polling::analysis;
use fast_rfid_polling::hash::Xoshiro256;
use fast_rfid_polling::prelude::*;
use fast_rfid_polling::protocols::{Broadcast, PollingTree, TagMachine, TppConfig};
use fast_rfid_polling::system::{SimConfig, SimContext};
use fast_rfid_polling::workloads::Scenario;

#[test]
fn tpp_fast_path_equals_tag_machine_replay() {
    let n = 700usize;
    let seed = 12345u64;
    let scenario = Scenario::uniform(n, 1).with_seed(seed);

    // Fast path.
    let population = scenario.build_population();
    let ids: Vec<TagId> = population.ids().collect();
    let mut ctx = SimContext::new(population, &SimConfig::paper(scenario.protocol_seed()));
    let report = TppConfig::default().run(&mut ctx);
    ctx.assert_complete();

    // Replay: one automaton per tag, reader logic re-derived from machine
    // state only (the reader *knows* the IDs, so it can run each machine's
    // computation — that is the paper's precomputation assumption).
    let mut machines: Vec<TagMachine> = ids.into_iter().map(TagMachine::new).collect();
    let mut rng = Xoshiro256::seed_from_u64(scenario.protocol_seed());
    let mut polls = 0u64;
    let mut vector_bits = 0u64;
    let mut rounds = 0u64;
    while machines.iter().any(|m| !m.is_read()) {
        rounds += 1;
        assert!(rounds < 100_000, "replay diverged");
        let unread = machines.iter().filter(|m| !m.is_read()).count() as u64;
        let h = analysis::tpp::optimal_index_length(unread);
        let round_seed = rng.next_u64();

        if h == 0 {
            // Single tag left: the bare poll (empty index) addresses it.
            let init = Broadcast::RoundInit {
                h,
                seed: round_seed,
            };
            for m in &mut machines {
                m.receive(&init);
            }
            let poll = Broadcast::PollIndex(BitVec::new());
            let repliers = machines
                .iter_mut()
                .filter(|m| !m.is_read())
                .filter_map(|m| m.receive(&poll).then_some(()))
                .count();
            assert_eq!(repliers, 1);
            polls += 1;
            continue;
        }

        let init = Broadcast::RoundInit {
            h,
            seed: round_seed,
        };
        for m in &mut machines {
            m.receive(&init);
        }
        // Reader-side sift over machine state.
        let mut groups: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, m) in machines.iter().enumerate() {
            if !m.is_read() {
                groups
                    .entry(m.current_index().to_value())
                    .or_default()
                    .push(i);
            }
        }
        let mut singles: Vec<(u64, usize)> = groups
            .into_iter()
            .filter(|(_, v)| v.len() == 1)
            .map(|(idx, v)| (idx, v[0]))
            .collect();
        singles.sort_unstable();
        if singles.is_empty() {
            continue;
        }
        let tree =
            PollingTree::from_indices(h, &singles.iter().map(|&(i, _)| i).collect::<Vec<_>>());
        for (segment, &(_, owner)) in tree.preorder_segments().iter().zip(&singles) {
            vector_bits += segment.len() as u64;
            let b = Broadcast::TreeSegment(segment.clone());
            let repliers: Vec<usize> = machines
                .iter_mut()
                .enumerate()
                .filter_map(|(i, m)| m.receive(&b).then_some(i))
                .collect();
            assert_eq!(repliers, vec![owner], "segment delivered to the wrong tag");
            polls += 1;
        }
    }

    assert_eq!(polls, report.counters.polls, "poll counts diverge");
    assert_eq!(rounds, report.counters.rounds, "round counts diverge");
    assert_eq!(
        vector_bits, report.counters.vector_bits,
        "vector bits diverge"
    );
}

#[test]
fn hpp_fast_path_equals_tag_machine_replay() {
    let n = 500usize;
    let seed = 777u64;
    let scenario = Scenario::uniform(n, 1).with_seed(seed);

    let population = scenario.build_population();
    let ids: Vec<TagId> = population.ids().collect();
    let mut ctx = SimContext::new(population, &SimConfig::paper(scenario.protocol_seed()));
    let report = HppConfig::default().run(&mut ctx);
    ctx.assert_complete();

    let mut machines: Vec<TagMachine> = ids.into_iter().map(TagMachine::new).collect();
    let mut rng = Xoshiro256::seed_from_u64(scenario.protocol_seed());
    let mut polls = 0u64;
    let mut vector_bits = 0u64;
    let mut rounds = 0u64;
    while machines.iter().any(|m| !m.is_read()) {
        rounds += 1;
        assert!(rounds < 100_000, "replay diverged");
        let unread = machines.iter().filter(|m| !m.is_read()).count() as u64;
        let h = analysis::hpp::index_length(unread);
        let round_seed = rng.next_u64();
        let init = Broadcast::RoundInit {
            h,
            seed: round_seed,
        };
        for m in &mut machines {
            m.receive(&init);
        }
        let mut groups: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for (i, m) in machines.iter().enumerate() {
            if !m.is_read() {
                *groups.entry(m.current_index().to_value()).or_insert(0) += 1;
                let _ = i;
            }
        }
        let mut singles: Vec<u64> = groups
            .iter()
            .filter(|(_, &c)| c == 1)
            .map(|(&idx, _)| idx)
            .collect();
        singles.sort_unstable();
        for idx in singles {
            vector_bits += h as u64;
            let poll = Broadcast::PollIndex(BitVec::from_value(idx, h as usize));
            let repliers = machines
                .iter_mut()
                .filter_map(|m| m.receive(&poll).then_some(()))
                .count();
            assert_eq!(repliers, 1, "poll {idx} drew {repliers} replies");
            polls += 1;
        }
    }

    assert_eq!(polls, report.counters.polls);
    assert_eq!(rounds, report.counters.rounds);
    assert_eq!(vector_bits, report.counters.vector_bits);
}

#[test]
fn hpp_replay_stays_identical_under_reply_loss() {
    // Same replay idea on a lossy channel: the fast path consumes exactly
    // one seed draw per round plus one loss draw per singleton poll (sorted
    // index order), so a replay drawing in that pattern reproduces every
    // counter — including which polls were lost.
    let n = 400usize;
    let loss = 0.3f64;
    let scenario = Scenario::uniform(n, 1).with_seed(4242);

    let population = scenario.build_population();
    let ids: Vec<TagId> = population.ids().collect();
    let cfg = SimConfig::paper(scenario.protocol_seed())
        .with_channel(fast_rfid_polling::system::Channel::lossy(loss));
    let mut ctx = SimContext::new(population, &cfg);
    let report = HppConfig::default().run(&mut ctx);
    ctx.assert_complete();

    let mut machines: Vec<TagMachine> = ids.into_iter().map(TagMachine::new).collect();
    let mut rng = Xoshiro256::seed_from_u64(scenario.protocol_seed());
    let (mut polls, mut lost, mut rounds, mut vector_bits) = (0u64, 0u64, 0u64, 0u64);
    while machines.iter().any(|m| !m.is_read()) {
        rounds += 1;
        assert!(rounds < 100_000, "replay diverged");
        let unread = machines.iter().filter(|m| !m.is_read()).count() as u64;
        let h = analysis::hpp::index_length(unread);
        let round_seed = rng.next_u64();
        let init = Broadcast::RoundInit {
            h,
            seed: round_seed,
        };
        for m in &mut machines {
            m.receive(&init);
        }
        let mut groups: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, m) in machines.iter().enumerate() {
            if !m.is_read() {
                groups
                    .entry(m.current_index().to_value())
                    .or_default()
                    .push(i);
            }
        }
        let mut singles: Vec<(u64, usize)> = groups
            .into_iter()
            .filter(|(_, v)| v.len() == 1)
            .map(|(idx, v)| (idx, v[0]))
            .collect();
        singles.sort_unstable();
        for (idx, owner) in singles {
            vector_bits += h as u64;
            let poll = Broadcast::PollIndex(BitVec::from_value(idx, h as usize));
            let repliers: Vec<usize> = machines
                .iter_mut()
                .enumerate()
                .filter_map(|(i, m)| m.receive(&poll).then_some(i))
                .collect();
            assert_eq!(repliers, vec![owner], "poll {idx} hit the wrong tag");
            if rng.chance(loss) {
                // Reply lost on the air: no ACK arrives, the tag reverts to
                // pollable and retries in a later round.
                machines[owner].nak();
                lost += 1;
            } else {
                polls += 1;
            }
        }
    }

    assert_eq!(polls, report.counters.polls, "poll counts diverge");
    assert_eq!(rounds, report.counters.rounds, "round counts diverge");
    assert_eq!(lost, report.counters.lost_replies, "loss draws diverge");
    assert_eq!(
        vector_bits, report.counters.vector_bits,
        "vector bits diverge"
    );
}
