//! Missing-tag identification by polling (Section I's first use case).
//!
//! The reader expects a set of tag IDs (its inventory list) but some tags
//! may have been stolen or misplaced. Polling identifies exactly which:
//! run HPP/TPP-style rounds over the *expected* set — present singletons
//! answer their poll, absent singletons leave a silent (empty) slot that
//! pinpoints a missing tag with certainty. Collision-index tags (expected
//! ones not yet resolved) roll into the next round.
//!
//! Both the HPP flat-index broadcast and the TPP polling-tree broadcast are
//! supported; the tree keeps the per-tag vector near 3 bits even while
//! probing for absentees.

use std::collections::{HashMap, HashSet};

use rfid_analysis::{hpp::index_length, tpp::optimal_index_length};
use rfid_c1g2::{TimeCategory, QUERY_REP_BITS};
use rfid_hash::TagHash;
use rfid_protocols::{PollingError, PollingTree, Report, StallCause};
use rfid_system::{BroadcastKind, SimContext, SlotOutcome, TagId};

/// Which broadcast scheme carries the singleton indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissingStrategy {
    /// Broadcast each singleton index in full (HPP-style).
    Hpp,
    /// Broadcast the polling tree's differential segments (TPP-style).
    Tpp,
}

/// Missing-tag identification application.
#[derive(Debug, Clone)]
pub struct MissingTagApp {
    /// Broadcast scheme.
    pub strategy: MissingStrategy,
    /// Safety cap on rounds.
    pub max_rounds: u64,
}

impl Default for MissingTagApp {
    fn default() -> Self {
        MissingTagApp {
            strategy: MissingStrategy::Tpp,
            max_rounds: 1_000_000,
        }
    }
}

/// Result of a missing-tag run.
#[derive(Debug, Clone)]
pub struct MissingTagReport {
    /// IDs identified as missing (deterministic order: as resolved).
    pub missing: Vec<TagId>,
    /// IDs confirmed present.
    pub present: Vec<TagId>,
    /// Total time spent.
    pub total_time: rfid_c1g2::Micros,
}

impl MissingTagApp {
    /// Runs identification: `expected` is the reader's inventory list; the
    /// context's population contains the tags physically present.
    ///
    /// Present tags not in `expected` are ignored (they never match a
    /// broadcast index by construction of the sift, up to hash collisions
    /// the reader resolves by precomputation).
    ///
    /// # Panics
    /// Panics (via the enriched [`PollingError::Stalled`] display) if the
    /// run exceeds `max_rounds`; fault-injecting callers should use
    /// `MissingTagApp::try_run`.
    pub fn run(&self, ctx: &mut SimContext, expected: &[TagId]) -> MissingTagReport {
        match self.try_run(ctx, expected) {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`MissingTagApp::run`]: exceeding the round cap
    /// comes back as a typed [`PollingError::Stalled`] whose `uncollected`
    /// list holds the expected IDs still unresolved.
    // The stall carries its partial report by value; callers match on it
    // directly, so it is not boxed.
    #[allow(clippy::result_large_err)]
    pub(crate) fn try_run(
        &self,
        ctx: &mut SimContext,
        expected: &[TagId],
    ) -> Result<MissingTagReport, PollingError> {
        let handle_of: HashMap<TagId, usize> = ctx
            .population
            .ids()
            .enumerate()
            .map(|(h, id)| (id, h))
            .collect();
        let mut unresolved = dedup(expected);
        let mut missing = Vec::new();
        let mut present = Vec::new();
        let mut rounds = 0u64;
        while !unresolved.is_empty() {
            if rounds >= self.max_rounds {
                return Err(PollingError::Stalled {
                    partial_report: Report::from_context("missing-id", ctx),
                    uncollected: unresolved,
                    cause: StallCause::RoundCap,
                });
            }
            rounds += 1;
            let n = unresolved.len() as u64;
            let h = match self.strategy {
                MissingStrategy::Hpp => index_length(n),
                MissingStrategy::Tpp => optimal_index_length(n),
            };
            let seed = ctx.draw_round_seed();
            ctx.begin_round(h);
            if h == 0 {
                // One expected tag left; a bare poll resolves it.
                let id = unresolved.pop().expect("nonempty");
                self.probe(ctx, &handle_of, id, 0, &mut present, &mut missing);
                continue;
            }

            // Sift singleton indices over the *expected* unresolved set —
            // the reader's knowledge, regardless of who is physically there.
            let singles = sift_singles(&unresolved, seed, h);
            if singles.is_empty() {
                continue;
            }
            let resolved: HashSet<TagId> = singles.iter().map(|&(_, id)| id).collect();

            match self.strategy {
                MissingStrategy::Hpp => {
                    for &(_, id) in &singles {
                        self.probe(ctx, &handle_of, id, h as u64, &mut present, &mut missing);
                    }
                }
                MissingStrategy::Tpp => {
                    let tree = PollingTree::from_indices(
                        h,
                        &singles.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
                    );
                    for (segment, &(_, id)) in tree.preorder_segments().iter().zip(&singles) {
                        self.probe(
                            ctx,
                            &handle_of,
                            id,
                            segment.len() as u64,
                            &mut present,
                            &mut missing,
                        );
                    }
                }
            }
            unresolved.retain(|id| !resolved.contains(id));
        }
        Ok(MissingTagReport {
            missing,
            present,
            total_time: ctx.clock.total(),
        })
    }

    /// Polls one expected tag: a present tag answers (1-bit presence), an
    /// absent one leaves the slot silent and is declared missing.
    fn probe(
        &self,
        ctx: &mut SimContext,
        handle_of: &HashMap<TagId, usize>,
        id: TagId,
        vector_bits: u64,
        present: &mut Vec<TagId>,
        missing: &mut Vec<TagId>,
    ) {
        match handle_of.get(&id) {
            Some(&handle) if ctx.population.is_active(handle) => {
                if ctx.poll_tag(vector_bits, true, handle) {
                    present.push(id);
                } else {
                    // Reply lost: cannot distinguish from missing in one
                    // probe — the tag stays unresolved? It was consumed from
                    // `unresolved` by the caller, so classify conservatively
                    // as missing only after a confirmation probe.
                    if ctx.poll_tag(vector_bits, true, handle) {
                        present.push(id);
                    } else {
                        missing.push(id);
                    }
                }
            }
            _ => {
                // Nobody answers: an empty slot certifies the absence.
                presence_probe(ctx, &[], vector_bits);
                missing.push(id);
            }
        }
    }
}

/// Probabilistic missing-tag *detection* (after Tan et al.'s Trusted Reader
/// Protocol, the paper's reference \[11\]): instead of identifying every
/// missing tag, decide *whether any tag is missing* with confidence `α`,
/// far faster than full identification when everything is in place.
///
/// Each round sifts the singleton indices of the expected set and polls
/// them with 1-bit presence probes; the first silent probe certifies a
/// missing tag. A missing tag is a singleton with probability ≥ 1/e per
/// round, so `⌈ln(1−α)/ln(1−1/e)⌉` clean rounds bound the miss probability
/// by `1 − α`.
///
/// Probes resolve through [`SimContext::slot`], so the channel and the
/// fault model reach them: on a lossy channel a silent probe may be a lost
/// reply from a present tag, and the witness is then a false alarm. The
/// `α` bound assumes a reliable channel.
#[derive(Debug, Clone)]
pub struct MissingTagDetector {
    /// Required detection confidence `α` (e.g. 0.99).
    pub(crate) confidence: f64,
}

impl Default for MissingTagDetector {
    fn default() -> Self {
        MissingTagDetector { confidence: 0.99 }
    }
}

/// Outcome of a detection run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionOutcome {
    /// `Some(id)` — a missing tag was certified (detection stops at the
    /// first one); `None` — no absence observed within the round budget.
    pub missing_witness: Option<TagId>,
    /// Rounds executed.
    pub(crate) rounds: u64,
    /// Time spent.
    pub(crate) time: rfid_c1g2::Micros,
}

impl MissingTagDetector {
    /// Number of rounds needed for the configured confidence: a missing
    /// tag is a singleton (and thus probed) with probability ≥ 1/e per
    /// round, so it survives `k` rounds undetected with probability at most
    /// `(1 − 1/e)^k ≤ 1 − α`.
    pub(crate) fn rounds_needed(&self) -> u64 {
        assert!(
            (0.0..1.0).contains(&self.confidence),
            "confidence must be in [0, 1)"
        );
        let survive = 1.0 - (-1.0f64).exp();
        ((1.0 - self.confidence).ln() / survive.ln())
            .ceil()
            .max(1.0) as u64
    }

    /// Runs detection over the context's population against `expected`.
    pub fn run(&self, ctx: &mut SimContext, expected: &[TagId]) -> DetectionOutcome {
        let started = ctx.clock.total();
        let handle_of: HashMap<TagId, usize> = ctx
            .population
            .ids()
            .enumerate()
            .map(|(h, id)| (id, h))
            .collect();
        let expected = dedup(expected);
        let budget = self.rounds_needed();
        for round in 1..=budget {
            let n = expected.len() as u64;
            if n == 0 {
                break;
            }
            let h = optimal_index_length(n);
            let seed = ctx.draw_round_seed();
            ctx.begin_round(h);
            let singles = sift_singles(&expected, seed, h);
            // Broadcast via the polling tree; probe each singleton for a
            // 1-bit presence reply. Detection halts on the first silence,
            // and the probe never puts a tag to sleep.
            let tree = PollingTree::from_indices(
                h,
                &singles.iter().map(|&(idx, _)| idx).collect::<Vec<_>>(),
            );
            for (segment, &(_, id)) in tree.preorder_segments().iter().zip(&singles) {
                let here = handle_of
                    .get(&id)
                    .filter(|&&handle| ctx.population.is_active(handle));
                let repliers = here.map_or(&[][..], std::slice::from_ref);
                if presence_probe(ctx, repliers, segment.len() as u64) == SlotOutcome::Empty {
                    return DetectionOutcome {
                        missing_witness: Some(id),
                        rounds: round,
                        time: ctx.clock.total() - started,
                    };
                }
            }
        }
        DetectionOutcome {
            missing_witness: None,
            rounds: budget,
            time: ctx.clock.total() - started,
        }
    }
}

/// `ids` with repeats dropped, in first-occurrence order. A repeated ID
/// would always share its hash index with itself and never sift out as
/// a singleton.
fn dedup(ids: &[TagId]) -> Vec<TagId> {
    let mut seen = HashSet::with_capacity(ids.len());
    ids.iter().copied().filter(|&id| seen.insert(id)).collect()
}

/// The singleton sift over the reader's expected set: `(index, id)` for
/// every `h`-bit index of `H(seed, id)` that exactly one ID picks,
/// ascending by index.
fn sift_singles(ids: &[TagId], seed: u64, h: u32) -> Vec<(u64, TagId)> {
    let hash = TagHash::new(seed);
    let mut pairs: Vec<(u64, TagId)> = ids
        .iter()
        .map(|&id| (hash.index(id.hi(), id.lo(), h), id))
        .collect();
    pairs.sort_unstable_by_key(|&(idx, id)| (idx, id));
    let alone = |i: usize| {
        let idx = pairs[i].0;
        (i == 0 || pairs[i - 1].0 != idx) && (i + 1 == pairs.len() || pairs[i + 1].0 != idx)
    };
    (0..pairs.len())
        .filter(|&i| alone(i))
        .map(|i| pairs[i])
        .collect()
}

/// One 1-bit presence probe: a QueryRep and the `bits`-bit probe vector,
/// then a slot in which `repliers` (the probed tag, if it is in the zone,
/// or nobody) answer. An `Empty` outcome is the silence that marks the
/// tag missing.
fn presence_probe(ctx: &mut SimContext, repliers: &[usize], bits: u64) -> SlotOutcome {
    ctx.reader_tx(
        BroadcastKind::QueryRep,
        QUERY_REP_BITS,
        TimeCategory::ReaderCommand,
    );
    ctx.reader_tx(BroadcastKind::Probe, bits, TimeCategory::ReaderCommand);
    ctx.slot(repliers, 0, Some(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_system::{Channel, FaultModel, FaultPlan, KillRule, SimConfig};
    use rfid_workloads::Scenario;

    fn setup(n: usize, gone: usize, seed: u64) -> (Vec<TagId>, SimContext, Vec<TagId>) {
        let scenario = Scenario::uniform(n, 1).with_seed(seed);
        let (expected, population) = scenario.split_missing(gone);
        let present_ids: std::collections::HashSet<TagId> = population.ids().collect();
        let truly_missing: Vec<TagId> = expected
            .iter()
            .copied()
            .filter(|id| !present_ids.contains(id))
            .collect();
        let ctx = SimContext::new(population, &SimConfig::paper(seed));
        (expected, ctx, truly_missing)
    }

    #[test]
    fn identifies_exactly_the_missing_tags_tpp() {
        let (expected, mut ctx, truth) = setup(500, 40, 1);
        let report = MissingTagApp::default().run(&mut ctx, &expected);
        let mut found = report.missing.clone();
        let mut want = truth.clone();
        found.sort();
        want.sort();
        assert_eq!(found, want);
        assert_eq!(report.present.len(), 460);
    }

    #[test]
    fn identifies_exactly_the_missing_tags_hpp() {
        let (expected, mut ctx, truth) = setup(300, 25, 2);
        let app = MissingTagApp {
            strategy: MissingStrategy::Hpp,
            ..MissingTagApp::default()
        };
        let report = app.run(&mut ctx, &expected);
        let mut found = report.missing;
        let mut want = truth;
        found.sort();
        want.sort();
        assert_eq!(found, want);
    }

    #[test]
    fn no_missing_tags_means_empty_report() {
        let (expected, mut ctx, _) = setup(200, 0, 3);
        let report = MissingTagApp::default().run(&mut ctx, &expected);
        assert!(report.missing.is_empty());
        assert_eq!(report.present.len(), 200);
        ctx.assert_complete();
    }

    #[test]
    fn everything_missing_is_detected() {
        let (expected, mut ctx, _) = setup(50, 50, 4);
        let report = MissingTagApp::default().run(&mut ctx, &expected);
        assert_eq!(report.missing.len(), 50);
        assert!(report.present.is_empty());
    }

    #[test]
    fn tpp_strategy_is_cheaper_than_hpp_strategy() {
        let (expected, mut ctx_t, _) = setup(2_000, 100, 5);
        let tpp = MissingTagApp::default().run(&mut ctx_t, &expected);
        let (expected2, mut ctx_h, _) = setup(2_000, 100, 5);
        let hpp = MissingTagApp {
            strategy: MissingStrategy::Hpp,
            ..MissingTagApp::default()
        };
        let hpp_report = hpp.run(&mut ctx_h, &expected2);
        assert!(tpp.total_time < hpp_report.total_time);
    }

    #[test]
    fn detector_certifies_a_missing_tag_quickly() {
        let (expected, mut ctx, truth) = setup(1_000, 30, 7);
        let d = MissingTagDetector::default();
        let outcome = d.run(&mut ctx, &expected);
        let witness = outcome.missing_witness.expect("30 tags missing");
        assert!(truth.contains(&witness), "witness {witness} is not missing");
        // Detection halts early — well before a full identification pass.
        let (expected2, mut ctx2, _) = setup(1_000, 30, 7);
        let ident = MissingTagApp::default().run(&mut ctx2, &expected2);
        assert!(
            outcome.time < ident.total_time / 2.0,
            "detection {} vs identification {}",
            outcome.time,
            ident.total_time
        );
    }

    #[test]
    fn detector_reports_clean_inventories_clean() {
        let (expected, mut ctx, _) = setup(400, 0, 8);
        let d = MissingTagDetector::default();
        let outcome = d.run(&mut ctx, &expected);
        assert_eq!(outcome.missing_witness, None);
        assert_eq!(outcome.rounds, d.rounds_needed());
        // Detection leaves the population untouched for the real inventory.
        assert_eq!(ctx.population.active_count(), 400);
    }

    #[test]
    fn detector_names_a_tag_that_left_the_zone() {
        let (expected, population) = Scenario::uniform(400, 1).with_seed(8).split_missing(0);
        let gone = population.id(0);
        let plan = FaultPlan {
            kill_after_replies: vec![KillRule {
                tag: 0,
                after_replies: 0,
            }],
            ..FaultPlan::none()
        };
        let cfg = SimConfig::paper(8).with_fault(FaultModel::perfect().with_plan(plan));
        let mut ctx = SimContext::new(population, &cfg);
        let outcome = MissingTagDetector::default().run(&mut ctx, &expected);
        assert_eq!(outcome.missing_witness, Some(gone));
    }

    #[test]
    fn detector_probes_hear_the_lossy_channel() {
        let (expected, population) = Scenario::uniform(400, 1).with_seed(8).split_missing(0);
        let cfg = SimConfig::paper(8).with_channel(Channel::lossy(0.5));
        let mut ctx = SimContext::new(population, &cfg);
        let outcome = MissingTagDetector::default().run(&mut ctx, &expected);
        assert!(ctx.counters.lost_replies > 0);
        // Nothing is missing: the witness is a present tag whose reply was
        // lost.
        assert!(outcome.missing_witness.is_some());
    }

    #[test]
    fn app_resolves_a_duplicated_expected_id() {
        let (mut expected, mut ctx, _) = setup(50, 0, 10);
        expected.push(expected[7]);
        let app = MissingTagApp {
            max_rounds: 64,
            ..MissingTagApp::default()
        };
        let report = app.run(&mut ctx, &expected);
        assert!(report.missing.is_empty());
        assert_eq!(report.present.len(), 50);
    }

    #[test]
    fn detector_sees_a_duplicated_missing_id() {
        let (mut expected, mut ctx, truth) = setup(50, 1, 11);
        expected.push(truth[0]);
        let outcome = MissingTagDetector::default().run(&mut ctx, &expected);
        assert_eq!(outcome.missing_witness, Some(truth[0]));
    }

    #[test]
    fn detector_round_budget_matches_confidence_math() {
        let d99 = MissingTagDetector { confidence: 0.99 };
        // (1 - 1/e)^k ≤ 0.01 → k = 11.
        assert_eq!(d99.rounds_needed(), 11);
        let d9 = MissingTagDetector { confidence: 0.9 };
        assert!(d9.rounds_needed() < d99.rounds_needed());
    }

    #[test]
    fn detector_catches_a_single_missing_tag_usually() {
        // One missing tag out of 500: detected within the α = 0.99 budget
        // in the vast majority of seeds.
        let mut hits = 0;
        let trials = 20;
        for seed in 0..trials {
            let (expected, mut ctx, _) = setup(500, 1, 100 + seed);
            if MissingTagDetector::default()
                .run(&mut ctx, &expected)
                .missing_witness
                .is_some()
            {
                hits += 1;
            }
        }
        assert!(hits >= 18, "only {hits}/{trials} detections at α = 0.99");
    }

    #[test]
    fn try_run_surfaces_a_round_cap_stall() {
        let (expected, mut ctx, _) = setup(100, 5, 9);
        let app = MissingTagApp {
            max_rounds: 1,
            ..MissingTagApp::default()
        };
        let err = app.try_run(&mut ctx, &expected).unwrap_err();
        assert_eq!(err.cause(), rfid_protocols::StallCause::RoundCap);
        let msg = err.to_string();
        assert!(msg.contains("missing-id stalled"), "{msg}");
        assert!(msg.contains("cause: round cap"), "{msg}");
    }

    #[test]
    fn survives_a_lossy_channel_without_false_positives() {
        // With reply losses, a present tag may need a confirmation probe;
        // the app must not declare it missing on one lost reply... but a
        // double loss *will* misclassify (bounded false-positive rate, as
        // in the probabilistic detection literature). Use a mild loss and
        // check presence dominates.
        let scenario = Scenario::uniform(300, 1).with_seed(6);
        let (expected, population) = scenario.split_missing(10);
        let cfg = SimConfig::paper(6).with_channel(Channel::lossy(0.05));
        let mut ctx = SimContext::new(population, &cfg);
        let report = MissingTagApp::default().run(&mut ctx, &expected);
        // All 10 truly-missing found; false positives ≤ 0.25 % expected
        // (0.05² per tag) — allow a couple.
        assert!(report.missing.len() >= 10);
        assert!(
            report.missing.len() <= 13,
            "{} missing",
            report.missing.len()
        );
    }
}
