//! # rfid-daemon — the reader-fleet service layer
//!
//! Serves the workspace's inventory protocols over the
//! [`rfid_wire`] protocol: a warehouse controller opens hundreds of
//! concurrent virtual reader sessions, drives each through the resumable
//! [`rfid_protocols::Session`] engine, checkpoints and resumes them
//! across process lives, injects faults mid-flight, and scrapes
//! Prometheus metrics and the postmortem bundle every session that ends
//! `stalled` or `degraded` keeps — all over plain `std::net` TCP or an
//! in-memory loopback pipe.
//!
//! * `registry` — wire names → the twelve servable protocols,
//! * `service` — the per-connection dispatcher ([`Service`]) and the
//!   shared read→dispatch→write loop ([`serve_connection`]),
//! * `server` — the TCP [`Daemon`]: one accept loop, one handler
//!   thread per connection,
//! * `client` — the typed [`DaemonClient`] over any [`Transport`],
//! * `supervisor` — the fleet resilience layer (DESIGN.md §16):
//!   admission control with typed `Busy` shedding, periodic session
//!   checkpoints, resurrection of sessions orphaned by dead connections
//!   or handler panics, and drain-on-shutdown,
//! * `resilient` — the self-healing [`ResilientClient`]: retry with
//!   capped backoff, transparent reconnect, and checkpoint-based run
//!   resumption that ends bit-identical to an unfaulted run.
//!
//! Determinism survives serving — and chaos: a session opened with the
//! same request produces the same report JSON and FNV-1a trace digest
//! whether it runs in-process, over loopback, over TCP, through a
//! corrupted-and-reconnected link, or resurrected by the supervisor
//! after its handler was killed mid-run. The serving and resilience
//! gates in `tests/` hold the layer to that.
//!
//! [`Transport`]: rfid_wire::Transport

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod client;
pub(crate) mod registry;
pub(crate) mod resilient;
pub(crate) mod server;
pub(crate) mod service;
pub(crate) mod supervisor;

pub use client::{ClientError, DaemonClient, RunEnd};
pub use registry::{all_protocols, protocol_by_name};
pub use resilient::{ResilientClient, RetryPolicy};
pub use server::Daemon;
pub use service::{serve_connection, Service};
pub use supervisor::{install_killpoint_hook, FleetLimits, Supervisor};
