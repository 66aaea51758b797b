//! The host-speed reference.
//!
//! The benchmark runs on shared virtual machines whose speed for it
//! changes from second to second with load from outside, without any
//! stolen time to show for it: the 5th-percentile cycle of the same
//! single-threaded inventory workload read 10.6 ms in one run and
//! 16.2 ms in another an hour later, on a CPU for the whole run both
//! times. A fixed loop owned by the benchmark, timed at the start of each
//! half-second window, slows in step with the operations around it. Over
//! two sets of ten 10-second runs of every workload on a two-vCPU Xeon
//! machine, the median operation time spread (inter-quartile distance
//! over the median) by up to 0.28 between runs in wall time, and by at
//! most 0.074 counted in passes of this loop. No change to the program
//! can change the loop, so every change to the program's speed shows in
//! full.

use std::time::{Duration, Instant};

/// Length of one measuring window: the reference is timed at its start,
/// and the window's operations are counted in its passes.
pub const WINDOW: Duration = Duration::from_millis(500);
/// Table the loop updates: 2 MiB, so it mixes arithmetic with cache
/// misses, as the simulator and the codec do.
const TABLE_WORDS: usize = 1 << 18;
/// Table updates per pass: about 2 ms on a two-vCPU Xeon machine.
const ROUNDS: usize = 500_000;
/// Passes timed per window. Outside load only ever adds time to a pass,
/// so the fastest is the window's reading; the median of the same three
/// left run-to-run spreads of up to 0.14.
const PASSES: usize = 3;

/// The reference loop and its table.
pub struct Reference {
    table: Vec<u64>,
    state: u64,
}

impl Reference {
    /// A reference with its table written once, so no pass pays for
    /// page faults.
    pub fn new() -> Reference {
        Reference {
            table: vec![1; TABLE_WORDS],
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// One pass: xorshift-driven read-modify-writes at random slots.
    fn pass(&mut self) -> u64 {
        let mask = self.table.len() - 1;
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..ROUNDS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            acc = acc.wrapping_add(self.table[i]);
            self.table[i] = acc ^ x;
        }
        self.state = x;
        acc
    }

    /// Seconds one pass takes now: the fastest of [`PASSES`] passes.
    pub fn measure(&mut self) -> f64 {
        (0..PASSES)
            .map(|_| {
                let started = Instant::now();
                std::hint::black_box(self.pass());
                started.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_takes_time_and_changes_the_table() {
        let mut r = Reference::new();
        let before = r.table.clone();
        assert!(r.measure() > 0.0);
        assert_ne!(r.table, before);
    }
}
