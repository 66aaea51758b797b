//! Property-based protocol invariants: for *any* population size and seed,
//! each protocol must complete, never waste a slot, and satisfy its exact
//! reader-bit accounting identity.

use rfid_hash::prop::{check, Gen};
use rfid_hash::{prop_assert, prop_assert_eq};
use rfid_protocols::{EhppConfig, HppConfig, PollingProtocol, TppConfig};
use rfid_system::{BitVec, SimConfig, SimContext, TagPopulation};

fn context(n: usize, seed: u64) -> SimContext {
    let pop = TagPopulation::sequential(n, |i| BitVec::from_value((i % 2) as u64, 1));
    SimContext::new(pop, &SimConfig::paper(seed))
}

fn draw_run(g: &mut Gen, max_n: usize) -> (usize, u64) {
    (g.len_in(1, max_n), g.u64())
}

#[test]
fn hpp_invariants() {
    check("hpp invariants", 64, |g| {
        let (n, seed) = draw_run(g, 300);
        let mut ctx = context(n, seed);
        let report = HppConfig::default().run(&mut ctx);
        ctx.assert_complete();
        prop_assert_eq!(report.counters.polls as usize, n);
        prop_assert_eq!(report.counters.empty_slots, 0);
        prop_assert_eq!(report.counters.collision_slots, 0);
        // Exact accounting: every reader bit is a round initiation (32), a
        // QueryRep prefix (4 per poll) or polling-vector payload.
        prop_assert_eq!(
            report.counters.reader_bits,
            32 * report.counters.rounds
                + report.counters.query_rep_bits
                + report.counters.vector_bits
        );
        prop_assert_eq!(report.counters.query_rep_bits, 4 * report.counters.polls);
        // Eq. (5): no vector exceeds ⌈log₂ n⌉ bits, so neither does the mean.
        let bound = rfid_analysis::hpp::upper_bound(n as u64) as f64;
        prop_assert!(report.mean_vector_bits() <= bound + 1e-9);
        Ok(())
    });
}

#[test]
fn tpp_invariants() {
    check("tpp invariants", 64, |g| {
        let (n, seed) = draw_run(g, 300);
        let mut ctx = context(n, seed);
        let report = TppConfig::default().run(&mut ctx);
        ctx.assert_complete();
        prop_assert_eq!(report.counters.polls as usize, n);
        prop_assert_eq!(report.counters.empty_slots, 0);
        prop_assert_eq!(report.counters.collision_slots, 0);
        prop_assert_eq!(
            report.counters.reader_bits,
            32 * report.counters.rounds
                + report.counters.query_rep_bits
                + report.counters.vector_bits
        );
        // The tree never transmits more bits than flat singleton broadcast
        // would: per round L ≤ h·m, so totals obey the same inequality
        // against an h ≤ ⌈log₂ n⌉ + 1 ceiling (TPP may use one extra bit).
        let h_cap = rfid_analysis::hpp::upper_bound(n as u64) as u64 + 1;
        prop_assert!(report.counters.vector_bits <= h_cap * report.counters.polls);
        Ok(())
    });
}

#[test]
fn ehpp_invariants() {
    check("ehpp invariants", 64, |g| {
        let (n, seed) = draw_run(g, 400);
        let mut ctx = context(n, seed);
        let report = EhppConfig::default().run(&mut ctx);
        ctx.assert_complete();
        prop_assert_eq!(report.counters.polls as usize, n);
        prop_assert_eq!(report.counters.empty_slots, 0);
        prop_assert_eq!(
            report.counters.reader_bits,
            32 * report.counters.rounds
                + 128 * report.counters.circles
                + report.counters.query_rep_bits
                + report.counters.vector_bits
        );
        Ok(())
    });
}

#[test]
fn tpp_time_equals_component_sum() {
    check("tpp time equals component sum", 64, |g| {
        // The clock total must equal the sum of its breakdown — across any
        // protocol execution path.
        let (n, seed) = draw_run(g, 200);
        let mut ctx = context(n, seed);
        let report = TppConfig::default().run(&mut ctx);
        prop_assert_eq!(report.total_time, report.breakdown.total());
        Ok(())
    });
}

#[test]
fn protocols_agree_on_who_gets_read() {
    check("protocols agree on who gets read", 64, |g| {
        // Different protocols, same population: all must read exactly the
        // same set (everyone) — no protocol may lose or duplicate a tag.
        let (n, seed) = draw_run(g, 150);
        for protocol in [
            &HppConfig::default() as &dyn PollingProtocol,
            &TppConfig::default(),
            &EhppConfig::default(),
        ] {
            let mut ctx = context(n, seed);
            protocol.run(&mut ctx);
            prop_assert!(
                ctx.population.all_asleep(),
                "{} missed tags",
                protocol.name()
            );
        }
        Ok(())
    });
}
