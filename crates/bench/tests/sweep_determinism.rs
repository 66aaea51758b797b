//! Determinism properties of the sweep engine and the merge laws it
//! relies on: parallel output is bit-identical to serial for any worker
//! count and run-block size, and `Summary`/`Counters` merging is
//! commutative (bit-exactly) and associative (exactly for integer fields,
//! up to rounding for `f64` sums).

use rfid_bench::{montecarlo, Cell, Summary, SweepEngine};
use rfid_hash::prop::{check, Gen};
use rfid_hash::{prop_assert, prop_assert_eq};
use rfid_protocols::{HppConfig, PollingProtocol, TppConfig};
use rfid_system::{to_json_string, Counters};
use rfid_workloads::Scenario;

fn grid_cells<'a>(tpp: &'a TppConfig, hpp: &'a HppConfig) -> Vec<Cell<'a>> {
    // A small but genuinely mixed grid: two protocols × two n × two seeds.
    let mut cells = Vec::new();
    let rows: [(&str, &dyn PollingProtocol); 2] = [("TPP", tpp), ("HPP", hpp)];
    for (label, protocol) in rows {
        for n in [40usize, 90] {
            for seed in [7u64, 8] {
                cells.push(Cell::new(
                    label,
                    protocol,
                    Scenario::uniform(n, 1).with_seed(seed),
                    4,
                ));
            }
        }
    }
    cells
}

/// Bit-exact fingerprint of a sweep result (every counter, time and field).
fn fingerprint(results: &[Vec<rfid_protocols::Report>]) -> String {
    results
        .iter()
        .flatten()
        .map(to_json_string)
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn parallel_equals_serial_bit_for_bit_for_random_schedules() {
    let tpp = TppConfig::default();
    let hpp = HppConfig::default();
    let serial = fingerprint(
        &SweepEngine::new()
            .with_workers(1)
            .run_cells(&grid_cells(&tpp, &hpp)),
    );

    check("parallel sweep == serial sweep", 8, |g: &mut Gen| {
        let workers = g.u64_in(2, 8) as usize;
        let block = g.u64_in(1, 5);
        let parallel = fingerprint(
            &SweepEngine::new()
                .with_workers(workers)
                .with_run_block(block)
                .run_cells(&grid_cells(&tpp, &hpp)),
        );
        prop_assert_eq!(&parallel, &serial);
        Ok(())
    });
}

#[test]
fn engine_reproduces_montecarlo_run_for_run() {
    let scenario = Scenario::uniform(80, 1).with_seed(21);
    let runs = 6u64;
    let tpp = TppConfig::default();
    let reference: Vec<String> = montecarlo(&scenario, runs, &tpp)
        .iter()
        .map(to_json_string)
        .collect();
    let cell = Cell::new("TPP", &tpp, scenario, runs);
    let engine: Vec<String> = SweepEngine::new()
        .with_workers(3)
        .with_run_block(4)
        .run_cells(std::slice::from_ref(&cell))
        .remove(0)
        .iter()
        .map(to_json_string)
        .collect();
    assert_eq!(engine, reference);
}

fn random_counters(g: &mut Gen) -> Counters {
    // Initializers run in the order written, fixing the draw order.
    Counters {
        reader_bits: g.u64_below(1 << 20),
        tag_bits: g.u64_below(1 << 20),
        vector_bits: g.u64_below(1 << 20),
        query_rep_bits: g.u64_below(1 << 16),
        polls: g.u64_below(1 << 16),
        rounds: g.u64_below(1 << 10),
        circles: g.u64_below(1 << 10),
        empty_slots: g.u64_below(1 << 12),
        collision_slots: g.u64_below(1 << 12),
        lost_replies: g.u64_below(1 << 8),
        downlink_losses: g.u64_below(1 << 8),
        corrupted_replies: g.u64_below(1 << 8),
        desync_recoveries: g.u64_below(1 << 8),
        retransmissions: g.u64_below(1 << 8),
        tag_listen_us: g.f64_in(0.0, 1e9),
        ..Counters::default()
    }
}

/// Exact equality on integer fields; `tag_listen_us` compared within one
/// part in 1e12 (f64 addition is associative only up to rounding).
fn counters_close(a: &Counters, b: &Counters) -> bool {
    let ints_equal = {
        let strip = |c: &Counters| {
            let mut c = *c;
            c.tag_listen_us = 0.0;
            c
        };
        strip(a) == strip(b)
    };
    let listen_close = (a.tag_listen_us - b.tag_listen_us).abs()
        <= 1e-12 * a.tag_listen_us.abs().max(b.tag_listen_us.abs()).max(1.0);
    ints_equal && listen_close
}

#[test]
fn counters_merge_is_commutative_and_associative() {
    check("counters merge laws", 128, |g: &mut Gen| {
        let a = random_counters(g);
        let b = random_counters(g);
        let c = random_counters(g);
        // Commutativity is bit-exact (x + y == y + x in f64 too).
        prop_assert_eq!(a.merged(&b), b.merged(&a));
        // Associativity: exact for the integer monoid, within rounding for
        // the f64 listen-time sum.
        let left = a.merged(&b).merged(&c);
        let right = a.merged(&b.merged(&c));
        prop_assert!(
            counters_close(&left, &right),
            "associativity violated: {left:?} vs {right:?}"
        );
        // Identity.
        prop_assert_eq!(a.merged(&Counters::default()), a);
        Ok(())
    });
}

fn random_summary(g: &mut Gen) -> Summary {
    let samples = g.vec(1, 12, |g| g.f64_in(-1e3, 1e3));
    Summary::of(&samples)
}

fn summaries_close(a: Summary, b: Summary) -> bool {
    a.count == b.count
        && a.min == b.min
        && a.max == b.max
        && (a.mean - b.mean).abs() <= 1e-9 * a.mean.abs().max(1.0)
        && (a.std - b.std).abs() <= 1e-6 * a.std.abs().max(1.0)
}

#[test]
fn summary_merge_is_commutative_and_associative() {
    check("summary merge laws", 128, |g: &mut Gen| {
        let a = random_summary(g);
        let b = random_summary(g);
        let c = random_summary(g);
        // Commutativity is bit-exact by construction.
        prop_assert_eq!(a.merge(b), b.merge(a));
        // Associativity up to rounding.
        let left = a.merge(b).merge(c);
        let right = a.merge(b.merge(c));
        prop_assert!(
            summaries_close(left, right),
            "associativity violated: {left:?} vs {right:?}"
        );
        // Identity, both sides.
        prop_assert_eq!(a.merge(Summary::empty()), a);
        prop_assert_eq!(Summary::empty().merge(a), a);
        Ok(())
    });
}

#[test]
fn summary_merge_tree_matches_flat_summary() {
    // The reduction shape the engine uses: per-block summaries folded in
    // block order equal the whole-sample summary within rounding.
    check("blocked summary == flat summary", 64, |g: &mut Gen| {
        let samples = g.vec(2, 24, |g| g.f64_in(-50.0, 50.0));
        let flat = Summary::of(&samples);
        let block = 1 + g.len_in(1, 5);
        let folded = samples
            .chunks(block)
            .map(Summary::of)
            .fold(Summary::empty(), Summary::merge);
        prop_assert!(
            summaries_close(flat, folded),
            "blocked {folded:?} vs flat {flat:?}"
        );
        Ok(())
    });
}
