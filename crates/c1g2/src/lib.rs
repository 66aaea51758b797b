//! # rfid-c1g2 — EPC Class-1 Generation-2 air-interface model
//!
//! This crate models the *timing* of the EPCglobal Class-1 Generation-2
//! (C1G2, a.k.a. ISO 18000-6C) UHF air interface at the level required to
//! evaluate anti-collision and polling protocols:
//!
//! * [`Micros`] — exact time arithmetic in whole nanoseconds, read in
//!   microseconds, used everywhere in the workspace,
//! * [`LinkParams`] — the reader↔tag link budget: data rates, the `T1`/`T2`
//!   turnaround times, and the preamble/calibration symbols they are derived
//!   from,
//! * [`encoding`] — reader→tag PIE (pulse-interval encoding) and tag→reader
//!   FM0 / Miller-modulated subcarrier symbol timing,
//! * [`commands`] — bit costs of the C1G2 commands protocols issue
//!   (`Query`, `QueryRep`, `Select`, ACKs and protocol-specific payloads),
//! * [`crc`] — the CRC-5 and CRC-16/CCITT generators mandated by the
//!   standard (used by tags to protect backscattered data and by the Coded
//!   Polling baseline),
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
//! // Whole nanoseconds: the sum is exact, and so is its breakdown's.
//! assert_eq!(clock.total().as_ns(), 37_450 * 7 + 100_000 + 25_000 + 50_000);
//! assert_eq!(clock.total(), clock.breakdown().total());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commands;
pub mod crc;
pub mod encoding;
pub mod params;
pub mod time;
pub mod timing;

pub use commands::{Command, NAK_BITS, QUERY_REP_BITS};
pub use encoding::{ReaderEncoding, TagEncoding};
pub use params::{DivideRatio, LinkParams};
pub use time::Micros;
pub use timing::{Clock, TimeBreakdown, TimeCategory};
