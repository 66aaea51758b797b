//! Enhanced CPP — prefix-masked polling (Section II-B).
//!
//! When tags share ID prefixes (tags on the same product class share the
//! 60-bit category), the reader can (1) broadcast a Select masking the
//! common prefix, then (2) poll each tag in the masked subset with only the
//! *differential* bits. The paper notes this "improves the polling
//! performance but relies on the specific distribution of tag IDs" — on
//! uniform IDs the groups degenerate to singletons and the Select overhead
//! makes things worse, which is exactly what the ablation bench shows.

use std::collections::BTreeMap;

use rfid_c1g2::commands::SELECT_FIXED_BITS;
use rfid_c1g2::TimeCategory;
use rfid_protocols::{PollingProtocol, ProtocolStepper, StepDiscipline, StepOutcome};
use rfid_system::{id::EPC_BITS, SimContext};

/// The enhanced (prefix-masked) Conventional Polling Protocol, as its
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcppConfig {
    /// Prefix length used for grouping (default: the 60-bit category —
    /// header + manager + object class).
    pub prefix_bits: u32,
    /// Safety cap on retry sweeps over a lossy channel.
    pub max_sweeps: u64,
}

impl Default for EcppConfig {
    fn default() -> Self {
        EcppConfig {
            prefix_bits: rfid_system::id::CATEGORY_BITS as u32,
            max_sweeps: 1_000_000,
        }
    }
}

impl PollingProtocol for EcppConfig {
    fn name(&self) -> &'static str {
        "eCPP"
    }

    fn open_stepper(&self, _ctx: &SimContext) -> Box<dyn ProtocolStepper> {
        Box::new(EcppStepper::open(*self))
    }
}

/// One step = one sweep: group the still-active tags by prefix, Select each
/// group of two or more, poll everyone. A singleton group is polled with its
/// full ID, since a Select for one tag would waste the whole command.
struct EcppStepper {
    cfg: EcppConfig,
    diff_bits: u64,
}

impl EcppStepper {
    fn open(cfg: EcppConfig) -> Self {
        let p = cfg.prefix_bits as usize;
        assert!(p < EPC_BITS, "prefix must leave differential bits");
        EcppStepper {
            cfg,
            diff_bits: (EPC_BITS - p) as u64,
        }
    }
}

impl ProtocolStepper for EcppStepper {
    fn discipline(&self) -> StepDiscipline {
        StepDiscipline::budgeted(self.cfg.max_sweeps)
    }

    fn step(&mut self, ctx: &mut SimContext) -> StepOutcome {
        let p = self.cfg.prefix_bits as usize;
        // Group active tags by their p-bit prefix. BTreeMap gives a
        // deterministic polling order.
        let mut groups: BTreeMap<u128, Vec<usize>> = BTreeMap::new();
        let pop = &ctx.population;
        pop.for_each_active(|handle| {
            groups
                .entry(pop.id(handle).as_u128() >> (EPC_BITS - p))
                .or_default()
                .push(handle);
        });
        for (_, members) in groups {
            if members.len() >= 2 {
                // Select masks the shared prefix once...
                ctx.reader_tx(
                    rfid_system::BroadcastKind::Select,
                    SELECT_FIXED_BITS + p as u64,
                    TimeCategory::ReaderCommand,
                );
                // ...then each member costs only the differential bits.
                for handle in members {
                    ctx.poll_tag(self.diff_bits, false, handle);
                }
            } else {
                for handle in members {
                    ctx.poll_tag(EPC_BITS as u64, false, handle);
                }
            }
        }
        StepOutcome::Progressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpp::CppConfig;
    use rfid_hash::Xoshiro256;
    use rfid_system::{BitVec, SimConfig, TagId, TagPopulation};

    fn clustered_population(n: usize, categories: u32, seed: u64) -> TagPopulation {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut seen = std::collections::HashSet::new();
        let mut tags = Vec::new();
        while tags.len() < n {
            let cat = rng.below(categories as u64) as u32;
            let id = TagId::from_fields(0x30, cat, cat, rng.next_u64() & ((1u64 << 36) - 1));
            if seen.insert(id) {
                tags.push((id, BitVec::from_value(1, 1)));
            }
        }
        TagPopulation::new(tags)
    }

    #[test]
    fn reads_everything_on_clustered_ids() {
        let pop = clustered_population(200, 4, 1);
        let mut ctx = SimContext::new(pop, &SimConfig::paper(1));
        let report = EcppConfig::default().run(&mut ctx);
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 200);
        // Differential vectors: 96 - 60 = 36 bits.
        assert_eq!(report.mean_vector_bits(), 36.0);
    }

    #[test]
    fn beats_cpp_on_clustered_ids() {
        let pop = clustered_population(500, 3, 2);
        let mut ctx_e = SimContext::new(pop.clone(), &SimConfig::paper(2));
        let ecpp = EcppConfig::default().run(&mut ctx_e);
        let mut ctx_c = SimContext::new(pop, &SimConfig::paper(2));
        let cpp = CppConfig::default().run(&mut ctx_c);
        assert!(
            ecpp.total_time < cpp.total_time,
            "eCPP {} vs CPP {}",
            ecpp.total_time,
            cpp.total_time
        );
    }

    #[test]
    fn paper_claim_still_above_64_bit_effective_cost() {
        // Section II-B: even with a fully shared 32-bit prefix the polling
        // vector stays above 64 bits — far from efficient.
        let pop = clustered_population(100, 1, 3);
        let mut ctx = SimContext::new(pop, &SimConfig::paper(3));
        let cfg = EcppConfig {
            prefix_bits: 32,
            ..EcppConfig::default()
        };
        let report = cfg.run(&mut ctx);
        assert_eq!(report.mean_vector_bits(), 64.0);
    }

    #[test]
    fn uniform_ids_fall_back_to_full_id_polls() {
        // Uniform 96-bit IDs almost never share a 60-bit prefix: every
        // group is a singleton, eCPP degenerates to CPP exactly.
        let pop = TagPopulation::new((0..100).map(|i| {
            (
                TagId::from_raw(i as u32 * 40_503_319, (i as u64) << 32 | 0x9E37),
                BitVec::from_value(1, 1),
            )
        }));
        let mut ctx = SimContext::new(pop.clone(), &SimConfig::paper(4));
        let ecpp = EcppConfig::default().run(&mut ctx);
        let mut ctx_c = SimContext::new(pop, &SimConfig::paper(4));
        let cpp = CppConfig::default().run(&mut ctx_c);
        assert_eq!(ecpp.total_time, cpp.total_time);
        assert_eq!(ecpp.mean_vector_bits(), 96.0);
    }

    #[test]
    fn select_commands_are_charged() {
        let pop = clustered_population(50, 2, 5);
        let mut ctx = SimContext::new(pop, &SimConfig::paper(5));
        let report = EcppConfig::default().run(&mut ctx);
        // 2 categories → 2 Selects of (fixed + 60) bits + 50 × 36-bit polls.
        let expect = 2 * (SELECT_FIXED_BITS + 60) + 50 * 36;
        assert_eq!(report.counters.reader_bits, expect);
    }
}
