//! # rfid-baselines — the protocols the paper compares against
//!
//! Every comparator in the evaluation of *Fast RFID Polling Protocols*,
//! implemented on the same [`rfid_system::SimContext`] substrate as the
//! paper's own protocols:
//!
//! * [`CppConfig`] — **Conventional Polling**: broadcast the full 96-bit tag
//!   ID per poll (Section II-B, the Tables' `CPP` row),
//! * [`EcppConfig`] — **enhanced CPP**: mask a common ID prefix with a
//!   Select command, then poll with differential bits only — fast exactly
//!   when tag IDs cluster (Section II-B's discussion),
//! * [`CodedPollingConfig`] — **Coded Polling** (Qiao et al., MobiHoc'11):
//!   48-bit CRC-validated codes instead of full IDs,
//! * [`MicConfig`] — **Multi-hash Information Collection** (Chen et al.,
//!   INFOCOM'11): the state-of-the-art ALOHA-based comparator, `k = 7` hash
//!   functions and a per-slot indicator vector,
//! * [`FsaConfig`] — plain (dynamic) framed-slotted ALOHA, the baseline
//!   whose 63.2 % slot waste motivates MIC,
//! * [`LowerBound`] — the C1G2 information-collection lower
//!   bound `(37.45·4 + T1 + 25·l + T2)·n`.
//!
//! As in `rfid-protocols`, each config is the protocol: it implements
//! [`rfid_protocols::PollingProtocol`] directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod aloha;
pub(crate) mod cp;
pub(crate) mod cpp;
pub(crate) mod ecpp;
pub(crate) mod lower_bound;
pub(crate) mod mic;

pub use aloha::FsaConfig;
pub use cp::CodedPollingConfig;
pub use cpp::CppConfig;
pub use ecpp::EcppConfig;
pub use lower_bound::LowerBound;
pub use mic::MicConfig;
