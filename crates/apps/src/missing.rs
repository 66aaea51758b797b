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

use std::collections::HashMap;

use rfid_analysis::{hpp::index_length, tpp::optimal_index_length};
use rfid_c1g2::TimeCategory;
use rfid_hash::TagHash;
use rfid_protocols::{PollingError, PollingTree, RecoveryPolicy, Report, StallCause};
use rfid_system::{BroadcastKind, Event, SimContext, TagId};

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
    /// Reader bits per round initiation.
    pub round_init_bits: u64,
    /// Safety cap on rounds.
    pub max_rounds: u64,
}

impl Default for MissingTagApp {
    fn default() -> Self {
        MissingTagApp {
            strategy: MissingStrategy::Tpp,
            round_init_bits: 32,
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
    /// Rounds executed.
    pub rounds: u64,
}

/// Result of a recovery-wrapped missing-tag run: never panics — an
/// unconvergeable run degrades to whatever was resolved.
#[derive(Debug, Clone)]
pub struct RecoveredMissing {
    /// The (possibly partial) identification report.
    pub report: MissingTagReport,
    /// Identification passes used (1 = no recovery was needed).
    pub passes: u64,
    /// Whether every expected tag was resolved.
    pub complete: bool,
    /// Expected IDs never resolved (empty when `complete`).
    pub unresolved: Vec<TagId>,
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
    /// [`MissingTagApp::try_run`] or [`MissingTagApp::run_recovered`].
    pub fn run(&self, ctx: &mut SimContext, expected: &[TagId]) -> MissingTagReport {
        match self.try_run(ctx, expected) {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`MissingTagApp::run`]: exceeding the round cap
    /// comes back as a typed [`PollingError::Stalled`] whose `uncollected`
    /// list holds the expected IDs still unresolved.
    pub fn try_run(
        &self,
        ctx: &mut SimContext,
        expected: &[TagId],
    ) -> Result<MissingTagReport, PollingError> {
        let handle_of = Self::handle_map(ctx);
        let mut unresolved: Vec<TagId> = expected.to_vec();
        let mut missing = Vec::new();
        let mut present = Vec::new();
        let (rounds, done) =
            self.run_rounds(ctx, &handle_of, &mut unresolved, &mut present, &mut missing);
        if !done {
            return Err(PollingError::Stalled {
                partial_report: Report::from_context("missing-id", ctx),
                uncollected: unresolved,
                cause: StallCause::RoundCap,
            });
        }
        Ok(MissingTagReport {
            missing,
            present,
            total_time: ctx.clock.total(),
            rounds,
        })
    }

    /// Recovery-wrapped identification: after a round-cap stall, waits out
    /// an exponential backoff (charged on the C1G2 clock), then re-runs a
    /// fresh round budget over only the still-unresolved IDs, merging the
    /// verdicts. Gives up — returning the partial report — once
    /// `policy.max_passes` passes run out or `policy.zero_progress_limit`
    /// consecutive passes resolve nothing.
    pub fn run_recovered(
        &self,
        ctx: &mut SimContext,
        expected: &[TagId],
        policy: &RecoveryPolicy,
    ) -> RecoveredMissing {
        let handle_of = Self::handle_map(ctx);
        let mut unresolved: Vec<TagId> = expected.to_vec();
        let mut missing = Vec::new();
        let mut present = Vec::new();
        let mut passes = 1u64;
        let mut total_rounds = 0u64;
        let mut idle_passes = 0u64;
        loop {
            let before = unresolved.len();
            let (rounds, done) =
                self.run_rounds(ctx, &handle_of, &mut unresolved, &mut present, &mut missing);
            total_rounds += rounds;
            let report = MissingTagReport {
                missing: missing.clone(),
                present: present.clone(),
                total_time: ctx.clock.total(),
                rounds: total_rounds,
            };
            if done {
                return RecoveredMissing {
                    report,
                    passes,
                    complete: true,
                    unresolved: Vec::new(),
                };
            }
            if unresolved.len() < before {
                idle_passes = 0;
            } else {
                idle_passes += 1;
            }
            let out_of_passes = policy.max_passes != 0 && passes >= policy.max_passes;
            if out_of_passes || idle_passes >= policy.zero_progress_limit {
                ctx.note_circuit_opened(passes, unresolved.len());
                return RecoveredMissing {
                    report,
                    passes,
                    complete: false,
                    unresolved,
                };
            }
            let base = policy.backoff_us(passes);
            let jitter = if base > 1 {
                ctx.rng.below(base / 2 + 1)
            } else {
                0
            };
            ctx.charge_recovery_backoff(passes, base + jitter);
            passes += 1;
            ctx.note_recovery_pass(passes, unresolved.len());
        }
    }

    fn handle_map(ctx: &SimContext) -> HashMap<TagId, usize> {
        ctx.population
            .iter()
            .map(|(handle, tag)| (tag.id, handle))
            .collect()
    }

    /// Runs up to `max_rounds` identification rounds over `unresolved`,
    /// moving verdicts into `present`/`missing`. Returns the rounds spent
    /// and whether the set fully resolved.
    fn run_rounds(
        &self,
        ctx: &mut SimContext,
        handle_of: &HashMap<TagId, usize>,
        unresolved: &mut Vec<TagId>,
        present: &mut Vec<TagId>,
        missing: &mut Vec<TagId>,
    ) -> (u64, bool) {
        let mut rounds = 0u64;
        while !unresolved.is_empty() {
            if rounds >= self.max_rounds {
                return (rounds, false);
            }
            rounds += 1;
            let n = unresolved.len() as u64;
            let h = match self.strategy {
                MissingStrategy::Hpp => index_length(n),
                MissingStrategy::Tpp => optimal_index_length(n),
            };
            let seed = ctx.draw_round_seed();
            ctx.begin_round(h, self.round_init_bits);
            if h == 0 {
                // One expected tag left; a bare poll resolves it.
                let id = unresolved.pop().expect("nonempty");
                self.probe(ctx, handle_of, id, 0, present, missing);
                continue;
            }

            // Sift singleton indices over the *expected* unresolved set —
            // the reader's knowledge, regardless of who is physically there.
            let hash = TagHash::new(seed);
            let mut pairs: Vec<(u64, TagId)> = unresolved
                .iter()
                .map(|&id| (hash.index(id.hi(), id.lo(), h), id))
                .collect();
            pairs.sort_unstable_by_key(|&(idx, id)| (idx, id));
            let mut singles: Vec<(u64, TagId)> = Vec::new();
            let mut i = 0;
            while i < pairs.len() {
                let mut j = i + 1;
                while j < pairs.len() && pairs[j].0 == pairs[i].0 {
                    j += 1;
                }
                if j - i == 1 {
                    singles.push(pairs[i]);
                }
                i = j;
            }
            if singles.is_empty() {
                continue;
            }
            let resolved: std::collections::HashSet<TagId> =
                singles.iter().map(|&(_, id)| id).collect();

            match self.strategy {
                MissingStrategy::Hpp => {
                    for &(_, id) in &singles {
                        self.probe(ctx, handle_of, id, h as u64, present, missing);
                    }
                }
                MissingStrategy::Tpp => {
                    let tree = PollingTree::from_indices(
                        h,
                        &singles.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
                    );
                    for (segment, &(_, id)) in tree.preorder_segments().iter().zip(&singles) {
                        self.probe(ctx, handle_of, id, segment.len() as u64, present, missing);
                    }
                }
            }
            unresolved.retain(|id| !resolved.contains(id));
        }
        (rounds, true)
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
            Some(&handle) if ctx.population.get(handle).is_active() => {
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
                // Nobody answers: the reader transmits the vector, waits T1,
                // and times out — an empty slot that certifies the absence.
                ctx.wait(
                    TimeCategory::ReaderCommand,
                    ctx.link.reader_tx(4 + vector_bits),
                );
                ctx.wait(TimeCategory::Turnaround, ctx.link.t1);
                ctx.wait(TimeCategory::WastedSlot, ctx.link.t3);
                ctx.emit(Event::ReaderBroadcast {
                    what: BroadcastKind::QueryRep,
                    bits: 4,
                });
                ctx.emit(Event::ReaderBroadcast {
                    what: BroadcastKind::Probe,
                    bits: vector_bits,
                });
                ctx.emit(Event::SlotEmpty);
                missing.push(id);
            }
        }
    }
}

/// Probabilistic missing-tag *detection* (after Tan et al.'s Trusted Reader
/// Protocol, the paper's reference [11]): instead of identifying every
/// missing tag, decide *whether any tag is missing* with confidence `α`,
/// far faster than full identification when everything is in place.
///
/// Each round sifts the singleton indices of the expected set and polls
/// them with 1-bit presence probes; the first silent probe certifies a
/// missing tag. A missing tag is a singleton with probability ≥ 1/e per
/// round, so `⌈ln(1−α)/ln(1−1/e)⌉` clean rounds bound the miss probability
/// by `1 − α`.
#[derive(Debug, Clone)]
pub struct MissingTagDetector {
    /// Required detection confidence `α` (e.g. 0.99).
    pub confidence: f64,
    /// Reader bits per round initiation.
    pub round_init_bits: u64,
}

impl Default for MissingTagDetector {
    fn default() -> Self {
        MissingTagDetector {
            confidence: 0.99,
            round_init_bits: 32,
        }
    }
}

/// Outcome of a detection run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionOutcome {
    /// `Some(id)` — a missing tag was certified (detection stops at the
    /// first one); `None` — no absence observed within the round budget.
    pub missing_witness: Option<TagId>,
    /// Rounds executed.
    pub rounds: u64,
    /// Time spent.
    pub time: rfid_c1g2::Micros,
}

impl MissingTagDetector {
    /// Number of rounds needed for the configured confidence: a missing
    /// tag is a singleton (and thus probed) with probability ≥ 1/e per
    /// round, so it survives `k` rounds undetected with probability at most
    /// `(1 − 1/e)^k ≤ 1 − α`.
    pub fn rounds_needed(&self) -> u64 {
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
            .iter()
            .map(|(handle, tag)| (tag.id, handle))
            .collect();
        let budget = self.rounds_needed();
        for round in 1..=budget {
            let n = expected.len() as u64;
            if n == 0 {
                break;
            }
            let h = optimal_index_length(n);
            let seed = ctx.draw_round_seed();
            ctx.begin_round(h, self.round_init_bits);
            let hash = TagHash::new(seed);
            let mut pairs: Vec<(u64, TagId)> = expected
                .iter()
                .map(|&id| (hash.index(id.hi(), id.lo(), h), id))
                .collect();
            pairs.sort_unstable_by_key(|&(idx, id)| (idx, id));
            let mut i = 0;
            let mut singles: Vec<(u64, TagId)> = Vec::new();
            while i < pairs.len() {
                let mut j = i + 1;
                while j < pairs.len() && pairs[j].0 == pairs[i].0 {
                    j += 1;
                }
                if j - i == 1 {
                    singles.push(pairs[i]);
                }
                i = j;
            }
            // Broadcast via the polling tree; probe each singleton for a
            // 1-bit presence reply. Detection halts on the first silence.
            let tree = PollingTree::from_indices(
                h,
                &singles.iter().map(|&(idx, _)| idx).collect::<Vec<_>>(),
            );
            for (segment, &(_, id)) in tree.preorder_segments().iter().zip(&singles) {
                let bits = segment.len() as u64;
                match handle_of.get(&id) {
                    Some(&handle) if ctx.population.get(handle).is_active() => {
                        // Present: replies. Detection must not consume the
                        // tag for later rounds, so wake it back up is not
                        // possible — instead charge the exchange manually.
                        ctx.wait(TimeCategory::ReaderCommand, ctx.link.reader_tx(4 + bits));
                        ctx.emit(Event::ReaderBroadcast {
                            what: BroadcastKind::QueryRep,
                            bits: 4,
                        });
                        ctx.emit(Event::ReaderBroadcast {
                            what: BroadcastKind::Probe,
                            bits,
                        });
                        ctx.wait(TimeCategory::Turnaround, ctx.link.t1);
                        ctx.wait(TimeCategory::TagReply, ctx.link.tag_tx(1));
                        ctx.emit(Event::TagReply {
                            tag: handle,
                            bits: 1,
                        });
                        ctx.wait(TimeCategory::Turnaround, ctx.link.t2);
                    }
                    _ => {
                        ctx.wait(TimeCategory::ReaderCommand, ctx.link.reader_tx(4 + bits));
                        ctx.emit(Event::ReaderBroadcast {
                            what: BroadcastKind::QueryRep,
                            bits: 4,
                        });
                        ctx.emit(Event::ReaderBroadcast {
                            what: BroadcastKind::Probe,
                            bits,
                        });
                        ctx.wait(TimeCategory::Turnaround, ctx.link.t1);
                        ctx.wait(TimeCategory::WastedSlot, ctx.link.t3);
                        ctx.emit(Event::SlotEmpty);
                        return DetectionOutcome {
                            missing_witness: Some(id),
                            rounds: round,
                            time: ctx.clock.total() - started,
                        };
                    }
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

rfid_system::impl_json_enum_units!(MissingStrategy { Hpp, Tpp });

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_system::{Channel, SimConfig};
    use rfid_workloads::Scenario;

    fn setup(n: usize, gone: usize, seed: u64) -> (Vec<TagId>, SimContext, Vec<TagId>) {
        let scenario = Scenario::uniform(n, 1).with_seed(seed);
        let (expected, population) = scenario.split_missing(gone);
        let present_ids: std::collections::HashSet<TagId> =
            population.iter().map(|(_, t)| t.id).collect();
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
    fn detector_round_budget_matches_confidence_math() {
        let d99 = MissingTagDetector {
            confidence: 0.99,
            ..MissingTagDetector::default()
        };
        // (1 - 1/e)^k ≤ 0.01 → k = 11.
        assert_eq!(d99.rounds_needed(), 11);
        let d9 = MissingTagDetector {
            confidence: 0.9,
            ..MissingTagDetector::default()
        };
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
    fn recovered_run_finishes_what_a_small_budget_starts() {
        let (expected, mut ctx, truth) = setup(400, 30, 10);
        let app = MissingTagApp {
            max_rounds: 2,
            ..MissingTagApp::default()
        };
        let r = app.run_recovered(&mut ctx, &expected, &RecoveryPolicy::unbounded());
        assert!(r.complete, "unbounded recovery must finish");
        assert!(r.passes > 1, "a 2-round budget cannot finish pass 1");
        assert!(r.unresolved.is_empty());
        let mut found = r.report.missing.clone();
        found.sort();
        let mut want = truth;
        want.sort();
        assert_eq!(found, want, "verdicts merged across passes");
        assert_eq!(ctx.counters.recovery_passes, r.passes - 1);
        assert!(ctx.counters.recovery_backoff_us > 0);
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
