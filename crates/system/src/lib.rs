//! # rfid-system — the RFID system simulator substrate
//!
//! Models the system of *Fast RFID Polling Protocols*: a reader that knows
//! every tag ID, a population of C1G2 tags that answer only when addressed
//! (Reader-Talks-First), and the shared wireless channel in which concurrent
//! replies collide. Protocol crates build on these pieces:
//!
//! * [`TagId`] — structured 96-bit EPC identifiers,
//! * [`BitVec`] — the compact bit vector used for polling vectors, indicator
//!   vectors, tag payloads and the TPP tag-side array `A`,
//! * [`TagPopulation`] — the tags' IDs as columns by handle and their
//!   payloads as one bit column of a single width `m`, with each tag's
//!   inventory state (active, asleep, deselected) in bitsets,
//! * [`Channel`] / [`SlotOutcome`] — slot resolution (empty / singleton /
//!   collision) with optional reply-loss injection for robustness studies,
//! * `RoundIndex` — the reusable per-round bucket sort of hashed tag
//!   indices that makes the singleton sift O(active) and allocation-free,
//! * [`EventLog`] — an optional, self-describing trace of a protocol run,
//! * [`SpanProfiler`] — hierarchical span profiling (sim-time and host
//!   wall-time per scope) with a zero-cost disabled path,
//! * [`packed`] — the hex bit/varint vectors a session snapshot packs its
//!   per-tag progress into,
//! * [`json`] — the zero-dependency JSON writer/parser (with the
//!   [`impl_json_struct!`] / [`impl_json_enum!`] macros) that encodes wire
//!   payloads, snapshots, traces and reports without `serde`,
//! * [`SimContext`] — the facility a protocol drives: it owns the clock, the
//!   population, the channel and the counters, and exposes the composite
//!   operations (broadcast, poll exchange, ALOHA slots) with correct C1G2
//!   time accounting.
//!
//! The simulator is fully deterministic: all randomness flows from the
//! [`rfid_hash::Xoshiro256`] generator seeded by the caller.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod bitvec;
pub(crate) mod channel;
pub(crate) mod context;
pub mod event;
pub mod fault;
pub mod id;
pub mod json;
pub mod packed;
pub(crate) mod population;
pub(crate) mod round_index;
pub(crate) mod span;

pub use bitvec::BitVec;
pub use channel::{Channel, SlotOutcome};
pub use context::{ContextProgress, Counters, SimConfig, SimContext};
pub use event::{BroadcastKind, Event, EventLog, TimedEvent};
pub use fault::{FaultModel, FaultPlan, FaultPlanError, GilbertElliott, KillRule, RoundRange};
pub use id::TagId;
pub use json::{from_json_str, to_json_string, FromJson, Json, JsonError, ToJson};
pub use population::{TagPopulation, TagState};
pub use span::SpanProfiler;
