//! # rfid-bench — experiment harness shared by `repro` and the micro-benches.
//!
//! Provides the deterministic parallel sweep engine (one job per
//! Monte-Carlo run of a grid cell, scheduled work-stealing-style over std
//! scoped threads, per-run seeds fanned out from each cell's master seed),
//! summary statistics, a dependency-free bench harness with the one
//! bench-report schema, the `repro` CLI parser, and the paper's anchor
//! values for side-by-side reporting. Everything here builds offline against the standard library
//! alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anchors;
pub mod cli;
pub(crate) mod harness;
pub(crate) mod stats;
pub(crate) mod sweep;

pub use harness::{find_target_dir, Bench, BenchRecord, Gate};
pub use stats::Summary;
pub use sweep::{Cell, SweepEngine};
