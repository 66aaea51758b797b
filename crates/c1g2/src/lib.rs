//! # rfid-c1g2 — EPC Class-1 Generation-2 air-interface model
//!
//! This crate models the *timing* of the EPCglobal Class-1 Generation-2
//! (C1G2, a.k.a. ISO 18000-6C) UHF air interface at the level required to
//! evaluate anti-collision and polling protocols:
//!
//! * [`Micros`] — exact time arithmetic in whole nanoseconds, read in
//!   microseconds, used everywhere in the workspace,
//! * [`LinkParams`] — the reader↔tag link budget: per-bit data rates and
//!   the `T1`/`T2`/`T3` turnaround times,
//! * [`commands`] — bit costs of the standard C1G2 commands the protocols
//!   issue (`Query`, `QueryRep`, `ACK`, `NAK`, `Select`),
//! * [`crc`] — the CRC-16/CCITT generator mandated by the standard (used by
//!   tags to protect backscattered data and by the Coded Polling baseline),
//! * [`Clock`] — an accumulating micro-second clock with a per-category
//!   breakdown, so a protocol run can report *where* its time went.
//!
//! The default [`LinkParams::paper`] constants follow Section V-A of
//! *Fast RFID Polling Protocols* (ICPP 2016): `T1 = 100 µs`, `T2 = 50 µs`,
//! reader→tag 26.7 kbps (37.45 µs/bit) and tag→reader 40 kbps (25 µs/bit).
//!
//! ```
//! use rfid_c1g2::{LinkParams, Clock, TimeCategory};
//!
//! let link = LinkParams::paper();
//! let mut clock = Clock::new();
//! // Reader sends a 4-bit QueryRep plus a 3-bit polling vector:
//! clock.spend(TimeCategory::ReaderCommand, link.reader_tx(4));
//! clock.spend(TimeCategory::PollingVector, link.reader_tx(3));
//! clock.spend(TimeCategory::Turnaround, link.t1);
//! clock.spend(TimeCategory::TagReply, link.tag_tx(1));
//! clock.spend(TimeCategory::Turnaround, link.t2);
//! // Whole nanoseconds: the total, the sum of the breakdown, is exact.
//! assert_eq!(clock.total().as_ns(), 37_450 * 7 + 100_000 + 25_000 + 50_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commands;
pub mod crc;
pub(crate) mod params;
pub(crate) mod time;
pub(crate) mod timing;

pub use commands::{NAK_BITS, QUERY_REP_BITS};
pub use params::LinkParams;
pub use time::Micros;
pub use timing::{Clock, TimeBreakdown, TimeCategory};

// Symbol-level PIE/FM0/Miller timing. The model charges the paper's fixed
// per-bit rates (`LinkParams::paper`), so only the tests derive rates from
// symbols.
#[cfg(test)]
mod encoding;
