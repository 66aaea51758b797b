//! # rfid-workloads — tag populations and scenarios
//!
//! Generators for the tag populations the evaluation runs over, and the
//! [`Scenario`] describing one experiment:
//!
//! * [`IdDistribution`] — uniform random EPC-96 IDs (the paper's general
//!   case, "without any assumption on the distribution of tag IDs"),
//!   sequential serials, clustered category prefixes (the enhanced-CPP
//!   best case), Zipf-weighted category mixes, and adversarial shared
//!   prefixes,
//! * [`PayloadKind`] — the `m`-bit information tags carry: a presence bit,
//!   random bits, battery levels, temperature readings,
//! * [`Scenario`] — `(n, distribution, payload, seed)` bundled, with
//!   [`Scenario::build_population`] producing the deterministic
//!   [`TagPopulation`](rfid_system::TagPopulation) and
//!   [`Scenario::split_missing`] deriving missing-tag variants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod churn;
pub(crate) mod ids;
pub mod payload;
pub(crate) mod scenario;

pub use churn::ChurnModel;
pub use ids::IdDistribution;
pub use payload::PayloadKind;
pub use scenario::Scenario;
