//! # rfid-hash — tag-side hashing and deterministic randomness
//!
//! The polling protocols of *Fast RFID Polling Protocols* rest on one
//! primitive: a tag computes `H(r, id) mod 2^h` from the reader-supplied
//! random seed `r` and its own 96-bit ID, and picks that value as its index
//! for the round. The reader — which knows every ID — precomputes the same
//! values. This crate provides:
//!
//! * [`TagHash`] — the seeded 64-bit hash `H(r, id)` (a SplitMix64-style
//!   finalizer over the EPC words, the kind of mixing a tag's tiny hash
//!   circuit realizes), with [`TagHash::index`] reducing it to `h` bits,
//! * [`HashFamily`] — an indexed family `H_j(r, id)` for protocols that need
//!   several independent hash functions per tag (MIC uses `k = 7`),
//! * [`Xoshiro256`] / [`split_seed`] — a self-contained xoshiro256** PRNG and
//!   a seed fan-out so every Monte-Carlo run in the workspace is bit-exactly
//!   reproducible without external dependencies,
//! * [`uniformity`] — χ² and avalanche checkers used by the test-suite to
//!   certify that the hash family behaves uniformly (the assumption behind
//!   every equation in the paper),
//! * [`prop`] — the in-repo deterministic property-test harness (seeded
//!   SplitMix64 case stream, shrink-by-halving) that replaces `proptest`
//!   so the workspace builds and tests offline with std alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod family;
pub(crate) mod mix;
pub mod prop;
pub(crate) mod rng;
pub mod uniformity;

pub use family::HashFamily;
pub use mix::{fnv64, Fnv64, TagHash};
pub use rng::{split_seed, Xoshiro256};
