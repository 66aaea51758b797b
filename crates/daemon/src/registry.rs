//! The daemon's protocol registry.
//!
//! Maps wire protocol names to the workspace's twelve inventory
//! protocols — the paper's three (HPP, EHPP, TPP) plus every baseline —
//! so an [`crate::service::Service`] can open or resume a session from a
//! name alone. It is the workspace's one protocol list: the bit-identity
//! tests and the crash-chaos test iterate it too, so anything they cover
//! is also servable, and the golden pins fix its order.

use rfid_baselines::{CodedPollingConfig, CppConfig, EcppConfig, FsaConfig, LowerBound, MicConfig};
use rfid_identify::{BinarySplitConfig, QAlgorithmConfig, QueryTreeConfig};
use rfid_protocols::{EhppConfig, HppConfig, PollingProtocol, TppConfig};

/// Every protocol the daemon can serve, default-configured.
pub fn all_protocols() -> Vec<Box<dyn PollingProtocol>> {
    vec![
        Box::new(CppConfig::default()),
        Box::new(EcppConfig::default()),
        Box::new(CodedPollingConfig::default()),
        Box::new(HppConfig::default()),
        Box::new(EhppConfig::default()),
        Box::new(TppConfig::default()),
        Box::new(MicConfig::default()),
        Box::new(FsaConfig::default()),
        Box::new(LowerBound),
        Box::new(QueryTreeConfig),
        Box::new(BinarySplitConfig::default()),
        Box::new(QAlgorithmConfig::default()),
    ]
}

/// Looks a protocol up by its display name (case-insensitive).
pub fn protocol_by_name(name: &str) -> Option<Box<dyn PollingProtocol>> {
    all_protocols()
        .into_iter()
        .find(|p| p.name().eq_ignore_ascii_case(name))
}

/// The servable protocol names, in registry order.
pub(crate) fn protocol_names() -> Vec<&'static str> {
    all_protocols().iter().map(|p| p.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_serves_twelve_distinct_protocols() {
        let names = protocol_names();
        assert_eq!(names.len(), 12);
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "names must be unique");
    }

    #[test]
    fn lookup_is_case_insensitive_and_total() {
        for name in protocol_names() {
            assert!(protocol_by_name(name).is_some());
            assert!(protocol_by_name(&name.to_lowercase()).is_some());
        }
        assert!(protocol_by_name("no-such-protocol").is_none());
    }
}
