//! # rfid-bench — experiment harness shared by `repro` and the micro-benches.
//!
//! Provides the deterministic parallel sweep engine (grid cells scheduled
//! work-stealing-style over std scoped threads, per-run seeds fanned out
//! from each cell's master seed, persistent content-addressed cell cache),
//! the Monte-Carlo runner built on it, summary statistics, a
//! dependency-free bench harness with the one bench-report schema, the
//! `repro` CLI parser, and the paper's anchor values for side-by-side
//! reporting. Everything here builds offline against the standard library
//! alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anchors;
pub mod cli;
pub mod harness;
pub mod runner;
pub mod stats;
pub mod sweep;

pub use harness::{find_target_dir, fnv64, write_report, Bench, BenchRecord, Gate};
pub use runner::{montecarlo, ProtocolFactory};
pub use stats::Summary;
pub use sweep::{Cell, SweepEngine, SweepStats, CACHE_SALT};
