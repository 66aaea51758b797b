//! Continuous inventory monitoring — the "warehouse over time" application
//! that composes everything: per epoch, the reader
//!
//! 1. runs missing-tag *identification* over its known ID list (TPP-style
//!    1-bit presence polling): absentees are dropped from the list, and as
//!    a side effect every present known tag is polled to sleep,
//! 2. opens the floor: any remaining active tag is a *newcomer*, which a
//!    Query-Tree pass identifies and adds to the list.
//!
//! A separate TRP-style detection pre-pass (see
//! [`crate::missing::MissingTagDetector`]) is deliberately *not* used here:
//! with 1-bit presence replies a detection probe costs exactly as much as
//! an identification probe, so scanning twice only adds time. (Detection
//! pays off when the alternative is re-collecting long payloads or full
//! IDs.) The result is a reader whose ID list tracks a churning population
//! at polling prices — the operating mode the paper's protocols are built
//! for.

use std::collections::BTreeSet;

use rfid_c1g2::Micros;
use rfid_identify::QueryTreeConfig;
use rfid_protocols::PollingProtocol;
use rfid_system::{SimContext, TagId};

use crate::missing::MissingTagApp;

/// What one epoch observed and cost.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Missing tags identified (removed from the list).
    pub missing: Vec<TagId>,
    /// Newcomers identified (added to the list).
    pub newcomers: Vec<TagId>,
    /// Air time the epoch consumed.
    pub time: Micros,
}

/// A reader's evolving knowledge of the tag population.
#[derive(Debug, Clone)]
pub struct InventoryMonitor {
    known: BTreeSet<TagId>,
}

impl InventoryMonitor {
    /// Starts monitoring from an initial (already identified) ID list.
    pub fn new(initial: impl IntoIterator<Item = TagId>) -> Self {
        InventoryMonitor {
            known: initial.into_iter().collect(),
        }
    }

    /// The reader's current ID list.
    pub fn known_ids(&self) -> Vec<TagId> {
        self.known.iter().copied().collect()
    }

    /// Runs one monitoring epoch against the physical population in `ctx`
    /// (which may contain departures-already-gone and newcomer tags the
    /// reader does not know).
    ///
    /// Newcomers are modelled as silent during the known-list sweep (they
    /// would occasionally collide with known singleton polls — see
    /// [`crate::unknown`] for that interference in isolation; combining
    /// both effects changes epoch cost by at most the collision-retry
    /// fraction measured there).
    pub fn epoch(&mut self, ctx: &mut SimContext) -> EpochReport {
        let started = ctx.clock.total();
        let expected = self.known_ids();

        // 1. Missing identification over the known list; present known
        //    tags are polled asleep along the way.
        let report = MissingTagApp::default().run(ctx, &expected);
        let missing = report.missing;
        for id in &missing {
            self.known.remove(id);
        }

        // 2. Newcomer discovery: every still-active tag is unknown to the
        //    reader; a Query-Tree pass identifies them.
        let before: BTreeSet<TagId> = ctx
            .population
            .ids()
            .enumerate()
            .filter(|&(handle, _)| ctx.population.is_active(handle))
            .map(|(_, id)| id)
            .collect();
        let mut newcomers = Vec::new();
        if !before.is_empty() {
            QueryTreeConfig.run(ctx);
            newcomers = before.into_iter().collect();
            for &id in &newcomers {
                self.known.insert(id);
            }
        }

        EpochReport {
            missing,
            newcomers,
            time: ctx.clock.total() - started,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_system::{BitVec, SimConfig, TagPopulation};
    use rfid_workloads::Scenario;

    /// Builds an epoch context: `survivors` known tags still present,
    /// `newcomers` unknown tags, and returns (known list incl. departed,
    /// ctx, departed, newcomer ids).
    fn epoch_setup(
        known: usize,
        departed: usize,
        newcomers: usize,
        seed: u64,
    ) -> (Vec<TagId>, SimContext, Vec<TagId>, Vec<TagId>) {
        let base = Scenario::uniform(known + newcomers, 1).with_seed(seed);
        let all = base.build_population();
        let ids: Vec<TagId> = all.ids().collect();
        let (known_ids, newcomer_ids) = ids.split_at(known);
        let departed_ids: Vec<TagId> = known_ids[..departed].to_vec();
        let present = TagPopulation::new(
            known_ids[departed..]
                .iter()
                .chain(newcomer_ids)
                .map(|&id| (id, BitVec::from_value(1, 1))),
        );
        let ctx = SimContext::new(present, &SimConfig::paper(seed));
        (known_ids.to_vec(), ctx, departed_ids, newcomer_ids.to_vec())
    }

    #[test]
    fn steady_state_epoch_is_clean() {
        let (known, mut ctx, _, _) = epoch_setup(300, 0, 0, 1);
        let mut monitor = InventoryMonitor::new(known.clone());
        let report = monitor.epoch(&mut ctx);
        assert!(report.missing.is_empty() && report.newcomers.is_empty());
        assert_eq!(monitor.known_ids().len(), 300);
    }

    #[test]
    fn departures_are_dropped_from_the_list() {
        let (known, mut ctx, departed, _) = epoch_setup(300, 25, 0, 2);
        let mut monitor = InventoryMonitor::new(known);
        let report = monitor.epoch(&mut ctx);
        assert!(!(report.missing.is_empty() && report.newcomers.is_empty()));
        let mut got = report.missing.clone();
        let mut want = departed;
        got.sort();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(monitor.known_ids().len(), 275);
    }

    #[test]
    fn newcomers_are_identified_and_added() {
        let (known, mut ctx, _, newcomers) = epoch_setup(200, 0, 40, 3);
        let mut monitor = InventoryMonitor::new(known);
        let report = monitor.epoch(&mut ctx);
        assert_eq!(report.newcomers.len(), 40);
        let list: std::collections::HashSet<TagId> = monitor.known_ids().into_iter().collect();
        for id in newcomers {
            assert!(list.contains(&id), "newcomer {id} not adopted");
        }
        assert_eq!(list.len(), 240);
    }

    #[test]
    fn churn_in_both_directions_converges() {
        let (known, mut ctx, departed, newcomers) = epoch_setup(250, 30, 20, 4);
        let mut monitor = InventoryMonitor::new(known);
        let report = monitor.epoch(&mut ctx);
        assert_eq!(report.missing.len(), departed.len());
        assert_eq!(report.newcomers.len(), newcomers.len());
        assert_eq!(monitor.known_ids().len(), 250 - 30 + 20);
        // After the epoch the list matches the physical population exactly:
        // a follow-up epoch on the same floor is clean.
        let survivors: Vec<TagId> = monitor.known_ids();
        let present =
            TagPopulation::new(survivors.iter().map(|&id| (id, BitVec::from_value(1, 1))));
        let mut ctx2 = SimContext::new(present, &SimConfig::paper(5));
        let follow_up = monitor.epoch(&mut ctx2);
        assert!(follow_up.missing.is_empty() && follow_up.newcomers.is_empty());
        let _ = ctx;
    }

    #[test]
    fn clean_epochs_cost_less_than_churn_epochs() {
        let (known, mut ctx_clean, _, _) = epoch_setup(400, 0, 0, 6);
        let mut m1 = InventoryMonitor::new(known.clone());
        let clean = m1.epoch(&mut ctx_clean);
        let (known2, mut ctx_churn, _, _) = epoch_setup(400, 40, 40, 6);
        let mut m2 = InventoryMonitor::new(known2);
        let churn = m2.epoch(&mut ctx_churn);
        assert!(
            clean.time < churn.time,
            "clean epoch {} not cheaper than churn epoch {}",
            clean.time,
            churn.time
        );
    }
}
