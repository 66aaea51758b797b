//! # rfid-identify — tag identification (anti-collision) protocols
//!
//! The polling protocols of *Fast RFID Polling Protocols* assume the reader
//! already knows every tag ID — "a fundamental assumption for many
//! system-level applications". That knowledge comes from an earlier
//! *identification* pass, the classical anti-collision problem. This crate
//! implements the three canonical families, on the same simulator substrate
//! and C1G2 timing as everything else:
//!
//! * [`QueryTreeConfig`] — deterministic prefix splitting: the reader
//!   broadcasts an ID prefix, matching tags reply with their remainder,
//!   collisions split the prefix 0/1 (memoryless, ≈2.9 queries/tag on
//!   random IDs),
//! * [`QAlgorithmConfig`] — the C1G2 standard's slotted-ALOHA
//!   inventory with the floating-point `Q` adaptation, the RN16 → ACK → EPC
//!   handshake and QueryRep/QueryAdjust slot control,
//! * [`BinarySplitConfig`] — randomized binary tree splitting with
//!   tag-side counters (Capetanakis-style).
//!
//! Each config is the protocol: all three implement
//! [`rfid_protocols::PollingProtocol`] ("reading" a tag = identifying it),
//! so they slot into the same harness — and quantify the
//! paper's premise: identification costs milliseconds per tag, so once IDs
//! are known, sub-millisecond polling is the right tool for re-reads
//! (see `examples/identification.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod binary_split;
pub(crate) mod q_algorithm;
pub(crate) mod query_tree;

pub use binary_split::BinarySplitConfig;
pub use q_algorithm::QAlgorithmConfig;
pub use query_tree::QueryTreeConfig;
