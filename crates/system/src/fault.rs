//! Bidirectional fault injection.
//!
//! The [`Channel`](crate::Channel) models i.i.d. *uplink* reply loss; real
//! Gen2 links misbehave in more ways, and the protocols' correctness hinges
//! on every tag hearing every round command. [`FaultModel`] adds the rest of
//! the taxonomy:
//!
//! * **Downlink command loss** — a tag misses a round initiation, circle
//!   command or polling vector and *desynchronizes* instead of silently
//!   staying in sync. A desynced tag stays quiet until the next broadcast it
//!   hears, when it re-joins (`desync_recoveries` counts that).
//! * **Payload corruption** — distinct from loss: the reply arrives, the
//!   CRC-16 check fails, and the reader NAKs so the tag retransmits
//!   (bounded by `FaultModel::max_poll_retries`) instead of timing out.
//! * **Gilbert–Elliott burst loss** — a two-state Markov channel whose bad
//!   state clusters uplink losses, alongside the i.i.d. model.
//! * **Scripted [`FaultPlan`]s** — deterministic chaos ("drop all downlink
//!   in rounds 3–5", "kill tag 17 after its 2nd reply") for reproducible
//!   tests of non-convergence handling.
//!
//! [`FaultModel::perfect`] disables everything and — by construction — makes
//! the simulator consume *zero* extra RNG draws, so perfect-channel runs
//! stay bit-identical to the paper-reproduction figures.

use rfid_hash::Xoshiro256;

fn check_rate(rate: f64, what: &str) -> Result<(), String> {
    // `NaN` fails both comparisons, so the message fires for it too.
    if (0.0..=1.0).contains(&rate) {
        Ok(())
    } else {
        Err(format!("{what} rate {rate} outside [0, 1]"))
    }
}

fn assert_rate(rate: f64, what: &str) {
    if let Err(msg) = check_rate(rate, what) {
        panic!("{msg}");
    }
}

/// A two-state Gilbert–Elliott burst-loss channel for the uplink.
///
/// The channel sits in a *good* or *bad* state; each slot it transitions
/// with the configured probabilities and then drops each reply with the
/// state's loss rate. `loss_bad ≫ loss_good` clusters losses into bursts —
/// the failure mode i.i.d. loss cannot reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Probability of moving good → bad per slot.
    pub p_enter_bad: f64,
    /// Probability of moving bad → good per slot.
    pub p_exit_bad: f64,
    /// Reply-loss probability while in the good state.
    pub loss_good: f64,
    /// Reply-loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A validated burst model.
    ///
    /// # Panics
    /// Panics if any probability is outside `[0, 1]` (NaN included).
    pub fn new(p_enter_bad: f64, p_exit_bad: f64, loss_good: f64, loss_bad: f64) -> Self {
        let ge = GilbertElliott {
            p_enter_bad,
            p_exit_bad,
            loss_good,
            loss_bad,
        };
        if let Err(msg) = ge.try_validate() {
            panic!("{msg}");
        }
        ge
    }

    /// Checks all four probabilities (for models built via struct
    /// literals or JSON).
    pub fn try_validate(&self) -> Result<(), String> {
        check_rate(self.p_enter_bad, "Gilbert-Elliott p_enter_bad")?;
        check_rate(self.p_exit_bad, "Gilbert-Elliott p_exit_bad")?;
        check_rate(self.loss_good, "Gilbert-Elliott loss_good")?;
        check_rate(self.loss_bad, "Gilbert-Elliott loss_bad")
    }

    /// One step of the walk for one attempt: the chain in state `bad`
    /// switches with its state's switch probability, then the attempt is
    /// lost with the new state's loss rate. A probability of 0 draws
    /// nothing from `rng`; every seeded run's goldens pin this draw order.
    pub fn attempt_lost(&self, bad: &mut bool, rng: &mut Xoshiro256) -> bool {
        let p_switch = if *bad {
            self.p_exit_bad
        } else {
            self.p_enter_bad
        };
        if p_switch > 0.0 && rng.chance(p_switch) {
            *bad = !*bad;
        }
        let p_loss = if *bad { self.loss_bad } else { self.loss_good };
        p_loss > 0.0 && rng.chance(p_loss)
    }
}

/// An inclusive range of 1-based global round numbers (a struct rather than
/// a tuple so it serializes through the workspace JSON layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundRange {
    /// First affected round (1-based, as counted by `Counters::rounds`).
    pub from: u64,
    /// Last affected round, inclusive.
    pub to: u64,
}

impl RoundRange {
    /// Whether `round` falls inside the range.
    pub(crate) fn contains(&self, round: u64) -> bool {
        (self.from..=self.to).contains(&round)
    }
}

/// "Kill tag `tag` after it has transmitted `after_replies` replies" — the
/// tag leaves the zone (battery, shadowing, theft) and never answers again.
/// `after_replies = 0` means the tag is dead from the start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillRule {
    /// Tag handle (index into the population).
    pub tag: usize,
    /// Number of replies the tag gets to send before dying.
    pub after_replies: u64,
}

/// Why a [`FaultPlan`] failed validation. Rounds are 1-based — a range
/// starting at 0 would silently never fire in round 0 — and duplicate
/// entries (overlapping round ranges, two kill rules for one tag) would
/// otherwise misbehave quietly: the first kill rule wins and the second is
/// dead script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A round range starts at round 0 (rounds are 1-based) or is inverted.
    BadRoundRange {
        /// Which list the range came from.
        direction: &'static str,
        /// The offending range.
        from: u64,
        /// The offending range's end.
        to: u64,
    },
    /// Two round ranges in one direction overlap (duplicate scripting).
    OverlappingRounds {
        /// Which list the ranges came from.
        direction: &'static str,
        /// A round covered by both ranges.
        round: u64,
    },
    /// Two kill rules name the same tag (only the first would ever apply).
    DuplicateKillRule {
        /// The tag handle named twice.
        tag: usize,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::BadRoundRange {
                direction,
                from,
                to,
            } => write!(
                f,
                "{direction} round range {from}..={to} invalid: rounds are 1-based and from <= to"
            ),
            FaultPlanError::OverlappingRounds { direction, round } => write!(
                f,
                "{direction} round ranges overlap (round {round} scripted twice)"
            ),
            FaultPlanError::DuplicateKillRule { tag } => {
                write!(f, "duplicate kill rule for tag {tag}")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A deterministic fault script: exact rounds in which to jam a direction,
/// and tags to remove mid-run. Plans compose with the probabilistic rates —
/// a scripted drop happens regardless of the dice (and consumes no draw).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Rounds in which *every* downlink broadcast and polling vector is
    /// dropped (no tag hears anything the reader says).
    pub drop_downlink_rounds: Vec<RoundRange>,
    /// Rounds in which every tag reply is jammed on the uplink.
    pub drop_uplink_rounds: Vec<RoundRange>,
    /// Tags that die after a fixed number of replies.
    pub kill_after_replies: Vec<KillRule>,
}

impl FaultPlan {
    /// The empty plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// `true` when the plan scripts nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.drop_downlink_rounds.is_empty()
            && self.drop_uplink_rounds.is_empty()
            && self.kill_after_replies.is_empty()
    }

    /// Whether the plan jams the downlink in `round` (1-based; protocols
    /// that never start rounds run at round 0, which no range contains).
    pub(crate) fn drops_downlink(&self, round: u64) -> bool {
        self.drop_downlink_rounds.iter().any(|r| r.contains(round))
    }

    /// Whether the plan jams the uplink in `round`.
    pub(crate) fn drops_uplink(&self, round: u64) -> bool {
        self.drop_uplink_rounds.iter().any(|r| r.contains(round))
    }

    /// The kill rule for `tag`, if any (first match wins).
    pub(crate) fn kill_rule_for(&self, tag: usize) -> Option<&KillRule> {
        self.kill_after_replies.iter().find(|k| k.tag == tag)
    }

    /// Validates the script: round ranges must be 1-based and ordered
    /// (`1 <= from <= to`), ranges within one direction must not overlap,
    /// and no tag may carry two kill rules. `after_replies = 0` stays valid —
    /// it means the tag is dead from the start.
    pub(crate) fn validate(&self) -> Result<(), FaultPlanError> {
        for (direction, ranges) in [
            ("downlink", &self.drop_downlink_rounds),
            ("uplink", &self.drop_uplink_rounds),
        ] {
            for r in ranges {
                if r.from == 0 || r.from > r.to {
                    return Err(FaultPlanError::BadRoundRange {
                        direction,
                        from: r.from,
                        to: r.to,
                    });
                }
            }
            for (i, a) in ranges.iter().enumerate() {
                for b in &ranges[i + 1..] {
                    if a.from <= b.to && b.from <= a.to {
                        return Err(FaultPlanError::OverlappingRounds {
                            direction,
                            round: a.from.max(b.from),
                        });
                    }
                }
            }
        }
        let mut tags: Vec<usize> = self.kill_after_replies.iter().map(|k| k.tag).collect();
        tags.sort_unstable();
        if let Some(dup) = tags.windows(2).find(|w| w[0] == w[1]) {
            return Err(FaultPlanError::DuplicateKillRule { tag: dup[0] });
        }
        Ok(())
    }
}

/// The full bidirectional fault model layered on top of the uplink
/// [`Channel`](crate::Channel). Everything defaults off; [`FaultModel::perfect`]
/// runs are bit-identical to the seed behaviour because every fault path is
/// gated on its rate before touching the RNG.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    /// Per-broadcast, per-tag probability that a tag misses a downlink
    /// command (round initiation, circle command, or its polling vector).
    pub(crate) downlink_loss_rate: f64,
    /// Probability that a received reply is corrupted in flight. The CRC-16
    /// catches it and the reader NAKs for a retransmission.
    pub(crate) corruption_rate: f64,
    /// How many NAK-and-retry attempts one polling exchange gets before the
    /// reader gives up and re-addresses the tag in a later round.
    pub(crate) max_poll_retries: u32,
    /// Optional Gilbert–Elliott burst-loss overlay on the uplink.
    pub(crate) burst: Option<GilbertElliott>,
    /// Deterministic scripted faults.
    pub(crate) plan: FaultPlan,
}

impl FaultModel {
    /// No faults (the paper's setting). Consumes zero RNG draws.
    pub fn perfect() -> Self {
        FaultModel {
            downlink_loss_rate: 0.0,
            corruption_rate: 0.0,
            max_poll_retries: 3,
            burst: None,
            plan: FaultPlan::none(),
        }
    }

    /// Sets the downlink command-loss rate.
    ///
    /// # Panics
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn with_downlink_loss(mut self, rate: f64) -> Self {
        assert_rate(rate, "downlink loss");
        self.downlink_loss_rate = rate;
        self
    }

    /// Sets the payload-corruption rate.
    ///
    /// # Panics
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn with_corruption(mut self, rate: f64) -> Self {
        assert_rate(rate, "corruption");
        self.corruption_rate = rate;
        self
    }

    /// Sets the retry budget of one polling exchange.
    pub fn with_max_poll_retries(mut self, retries: u32) -> Self {
        self.max_poll_retries = retries;
        self
    }

    /// Enables Gilbert–Elliott burst loss on the uplink.
    ///
    /// # Panics
    /// Panics if any of the burst model's probabilities is outside `[0, 1]`.
    pub fn with_burst(mut self, burst: GilbertElliott) -> Self {
        if let Err(msg) = burst.try_validate() {
            panic!("{msg}");
        }
        self.burst = Some(burst);
        self
    }

    /// Installs a scripted fault plan.
    ///
    /// # Panics
    /// Panics if the plan fails `FaultPlan::validate` (0-based rounds,
    /// overlapping ranges, duplicate kill rules).
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        self.plan = plan;
        self
    }

    /// Re-checks every rate and the scripted plan (for models built via
    /// struct literals or JSON, such as those in untrusted snapshot bytes).
    pub fn try_validate(&self) -> Result<(), String> {
        check_rate(self.downlink_loss_rate, "downlink loss")?;
        check_rate(self.corruption_rate, "corruption")?;
        if let Some(burst) = &self.burst {
            burst.try_validate()?;
        }
        self.plan
            .validate()
            .map_err(|e| format!("invalid fault plan: {e}"))
    }

    /// Whether anything at all is configured (used to keep the no-fault
    /// paths free of bookkeeping and RNG draws).
    pub(crate) fn is_perfect(&self) -> bool {
        self.downlink_loss_rate == 0.0
            && self.corruption_rate == 0.0
            && self.burst.is_none()
            && self.plan.is_empty()
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel::perfect()
    }
}

crate::impl_json_struct!(GilbertElliott {
    p_enter_bad,
    p_exit_bad,
    loss_good,
    loss_bad
});
crate::impl_json_struct!(RoundRange { from, to });
crate::impl_json_struct!(KillRule { tag, after_replies });
crate::impl_json_struct!(FaultPlan {
    drop_downlink_rounds,
    drop_uplink_rounds,
    kill_after_replies
});
crate::impl_json_struct!(FaultModel {
    downlink_loss_rate,
    corruption_rate,
    max_poll_retries,
    burst,
    plan
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_is_perfect() {
        let f = FaultModel::perfect();
        assert!(f.is_perfect());
        assert_eq!(f, FaultModel::default());
    }

    #[test]
    fn builders_flip_is_perfect() {
        assert!(!FaultModel::perfect().with_downlink_loss(0.1).is_perfect());
        assert!(!FaultModel::perfect().with_corruption(0.1).is_perfect());
        assert!(!FaultModel::perfect()
            .with_burst(GilbertElliott::new(0.1, 0.5, 0.0, 0.9))
            .is_perfect());
        let plan = FaultPlan {
            kill_after_replies: vec![KillRule {
                tag: 3,
                after_replies: 1,
            }],
            ..FaultPlan::none()
        };
        assert!(!FaultModel::perfect().with_plan(plan).is_perfect());
    }

    #[test]
    fn plan_round_ranges_are_inclusive() {
        let plan = FaultPlan {
            drop_downlink_rounds: vec![RoundRange { from: 3, to: 5 }],
            drop_uplink_rounds: vec![RoundRange { from: 7, to: 7 }],
            kill_after_replies: Vec::new(),
        };
        assert!(!plan.drops_downlink(2));
        assert!(plan.drops_downlink(3));
        assert!(plan.drops_downlink(5));
        assert!(!plan.drops_downlink(6));
        assert!(plan.drops_uplink(7));
        assert!(!plan.drops_uplink(8));
        // Round 0 (protocols that never start rounds) is never scripted.
        assert!(!plan.drops_downlink(0));
    }

    #[test]
    fn kill_rule_lookup() {
        let plan = FaultPlan {
            kill_after_replies: vec![KillRule {
                tag: 17,
                after_replies: 2,
            }],
            ..FaultPlan::none()
        };
        assert_eq!(plan.kill_rule_for(17).unwrap().after_replies, 2);
        assert!(plan.kill_rule_for(16).is_none());
    }

    #[test]
    fn plan_validation_rejects_zero_based_and_inverted_ranges() {
        for bad in [RoundRange { from: 0, to: 3 }, RoundRange { from: 5, to: 2 }] {
            let plan = FaultPlan {
                drop_downlink_rounds: vec![bad],
                ..FaultPlan::none()
            };
            assert!(matches!(
                plan.validate(),
                Err(FaultPlanError::BadRoundRange { .. })
            ));
        }
        // The same rules apply to the uplink list.
        let plan = FaultPlan {
            drop_uplink_rounds: vec![RoundRange { from: 0, to: 0 }],
            ..FaultPlan::none()
        };
        let err = plan.validate().unwrap_err();
        assert!(err.to_string().contains("uplink"));
    }

    #[test]
    fn plan_validation_rejects_overlapping_ranges() {
        let plan = FaultPlan {
            drop_downlink_rounds: vec![
                RoundRange { from: 1, to: 4 },
                RoundRange { from: 4, to: 6 },
            ],
            ..FaultPlan::none()
        };
        assert_eq!(
            plan.validate(),
            Err(FaultPlanError::OverlappingRounds {
                direction: "downlink",
                round: 4,
            })
        );
        // Adjacent but disjoint ranges are fine.
        let plan = FaultPlan {
            drop_downlink_rounds: vec![
                RoundRange { from: 1, to: 3 },
                RoundRange { from: 4, to: 6 },
            ],
            ..FaultPlan::none()
        };
        assert_eq!(plan.validate(), Ok(()));
    }

    #[test]
    fn plan_validation_rejects_duplicate_kill_rules_but_keeps_zero_replies() {
        let dup = FaultPlan {
            kill_after_replies: vec![
                KillRule {
                    tag: 7,
                    after_replies: 1,
                },
                KillRule {
                    tag: 7,
                    after_replies: 2,
                },
            ],
            ..FaultPlan::none()
        };
        assert_eq!(
            dup.validate(),
            Err(FaultPlanError::DuplicateKillRule { tag: 7 })
        );
        // `after_replies = 0` (dead from the start) remains a valid script.
        let dead = FaultPlan {
            kill_after_replies: vec![KillRule {
                tag: 3,
                after_replies: 0,
            }],
            ..FaultPlan::none()
        };
        assert_eq!(dead.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn with_plan_panics_on_invalid_script() {
        let plan = FaultPlan {
            drop_downlink_rounds: vec![RoundRange { from: 0, to: 1 }],
            ..FaultPlan::none()
        };
        let _ = FaultModel::perfect().with_plan(plan);
    }

    #[test]
    #[should_panic(expected = "downlink loss rate")]
    fn invalid_downlink_rate_rejected() {
        let _ = FaultModel::perfect().with_downlink_loss(1.5);
    }

    #[test]
    #[should_panic(expected = "corruption rate")]
    fn nan_corruption_rate_rejected() {
        let _ = FaultModel::perfect().with_corruption(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "loss_bad")]
    fn invalid_burst_rejected() {
        let _ = GilbertElliott::new(0.1, 0.5, 0.0, 2.0);
    }
}
