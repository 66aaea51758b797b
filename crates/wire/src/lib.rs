//! # rfid-wire — the reader-fleet framed wire protocol
//!
//! A warehouse deploying the polling protocols of *Fast RFID Polling
//! Protocols* runs them from a controller talking to many readers over a
//! byte stream. This crate is that wire, built on std alone:
//!
//! * `frame` — the binary framing: `0xBB` start-of-frame, version,
//!   kind, big-endian length, JSON payload, CRC-16/CCITT (the same
//!   polynomial C1G2 air frames use, via `rfid_c1g2::crc`), `0x7E`
//!   terminator. The [`Decoder`] is self-resynchronizing: any corrupted
//!   byte yields a typed [`FrameError`] and later frames still decode.
//! * `message` — the command/response vocabulary ([`Command`],
//!   [`Response`]): open/run/checkpoint/resume inventory sessions,
//!   inject faults, stream progress, fetch metrics and flight bundles.
//! * `transport` — the [`Transport`] seam ([`StreamTransport`] over
//!   any `Read + Write`) so the daemon, client, and tests share one code
//!   path for TCP and in-memory bytes.
//! * `loopback` — the in-memory duplex pipe used as the
//!   bit-identity reference for the TCP path.
//! * `chaos` — seeded deterministic fault injection ([`ChaosDirector`]
//!   wrapping any stream in a `ChaosStream`): byte flips, mid-frame
//!   disconnects and Gilbert–Elliott bursts, under a finite budget so a
//!   soaked link is always eventually usable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod chaos;
pub(crate) mod frame;
pub(crate) mod loopback;
pub(crate) mod message;
pub(crate) mod transport;

pub use chaos::{ChaosDirector, ChaosPlan};
pub use frame::{Decoder, Frame, FrameError, WIRE_VERSION};
pub use loopback::{loopback, Pipe};
pub use message::{Command, ErrorCode, OpenRequest, Response, SessionOutcome};
pub use transport::{StreamTransport, Transport, WireError};
