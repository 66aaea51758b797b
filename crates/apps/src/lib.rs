//! # rfid-apps — applications built on the polling protocols
//!
//! The system-level applications the paper motivates in Section I,
//! implemented on top of the protocol crates:
//!
//! * [`info_collect`] — collect `m`-bit sensor information from every tag
//!   (battery levels, chilled-food temperatures): [`collect`] runs any
//!   configured [`rfid_protocols::Session`] and returns a [`Collection`]
//!   with end-to-end payload validation,
//! * [`missing`] — detect and *identify* missing tags: the reader polls its
//!   expected ID list with 1-bit presence replies; a silent singleton poll
//!   pinpoints a missing tag,
//! * [`multi_reader`] — multiple readers with overlapping interrogation
//!   zones: a greedy conflict-graph coloring builds the collision-free
//!   schedule the paper assumes, then per-reader polling runs execute in
//!   parallel within each color class,
//! * [`unknown`] — robustness extension: *alien* tags the reader does not
//!   know interfere with singleton polls; hashed polling degrades
//!   gracefully because fresh per-round seeds disperse repeat collisions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod category;
pub mod info_collect;
pub mod missing;
pub mod monitor;
pub mod multi_reader;
pub mod unknown;

pub use info_collect::{collect, run_polling, Collection};
pub use missing::{
    DetectionOutcome, MissingTagApp, MissingTagDetector, MissingTagReport, RecoveredMissing,
};
pub use monitor::{EpochReport, InventoryMonitor, MonitorConfig};
pub use multi_reader::{DeploymentPlan, MultiReaderOutcome, ReaderZone};
pub use unknown::{run_hpp_with_aliens, InterferenceReport};
