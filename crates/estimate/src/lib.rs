//! # rfid-estimate — tag-cardinality estimation
//!
//! The polling protocols of the paper assume the reader knows every tag ID
//! (and hence `n`). In deployments where only the ID *list* is stale or the
//! population must be sized first, readers run a quick cardinality
//! estimation phase — the literature the paper builds on (its reference
//! \[23\], Li et al., *Energy efficient algorithms for the RFID estimation
//! problem*) supplies the standard estimators implemented here:
//!
//! * `estimators::zero_estimator` — invert the empty-slot probability
//!   `p₀ = e^{-n/f}` of one ALOHA frame,
//! * `estimators::geometric_estimator` — Flajolet–Martin-style: tags
//!   reply in slot `j` with probability `2^{-(j+1)}`; the first empty slot
//!   position tracks `log₂ n`,
//! * [`protocol::EstimationProtocol`] — a timed, multi-frame estimation run
//!   on the simulator (one geometric frame, then a fixed number of
//!   refinement frames), whose output can seed HPP/TPP when `n` is unknown.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod estimators;
pub(crate) mod frame;
pub(crate) mod protocol;

pub use frame::FrameObservation;
pub use protocol::{EstimationProtocol, EstimationResult};
