//! Typed non-convergence errors.
//!
//! On a sufficiently hostile channel (downlink jammed forever, a tag killed
//! mid-run) no polling protocol can finish. The old behaviour was an
//! `assert!` deep inside the round loop; the typed [`PollingError::Stalled`]
//! replaces it, carrying the partial [`Report`], the IDs the run failed to
//! collect, and *why* the loop stopped ([`StallCause`]) so the recovery
//! layer can tell a spent round budget from a genuinely dead channel.

use std::fmt;

use rfid_system::{SimContext, TagId};

use crate::report::Report;

/// How many consecutive rounds (or frames/sweeps) with zero successful
/// polls a protocol tolerates before declaring itself stalled. At a 50 %
/// per-poll failure rate the odds of 256 straight failed rounds are below
/// `0.5^256` — heavy-but-survivable loss never trips this, only genuinely
/// dead configurations (permanent jam, killed tag) do.
pub(crate) const DEFAULT_STALL_ROUNDS: u64 = 256;

/// Why a protocol loop stopped short of completion.
///
/// The distinction matters to the recovery layer: a [`StallCause::RoundCap`]
/// stall just means the per-pass budget ran out — another pass with a fresh
/// budget can still converge — while a [`StallCause::NoProgress`] stall
/// means hundreds of consecutive rounds polled nothing, which at any
/// survivable loss rate only happens on a dead channel or a killed tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// The stall guard tripped: consecutive no-progress rounds.
    NoProgress,
    /// The protocol's own round/sweep/slot cap was exceeded.
    RoundCap,
}

impl StallCause {
    /// Short human-readable label used in the `Stalled` message.
    pub fn label(&self) -> &'static str {
        match self {
            StallCause::NoProgress => "no progress",
            StallCause::RoundCap => "round cap",
        }
    }
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a protocol run did not complete.
#[derive(Debug, Clone)]
pub enum PollingError {
    /// The protocol stopped making progress (or hit its round cap) with
    /// tags still uncollected.
    Stalled {
        /// Everything collected (and spent) up to the stall.
        partial_report: Report,
        /// IDs of the tags never successfully read.
        uncollected: Vec<TagId>,
        /// What stopped the loop.
        cause: StallCause,
    },
}

impl PollingError {
    /// Builds a `Stalled` error from the context at the moment of the stall,
    /// attributed to the stall guard ([`StallCause::NoProgress`]).
    pub fn stalled(protocol: &str, ctx: &SimContext) -> Self {
        PollingError::stalled_with(protocol, ctx, StallCause::NoProgress)
    }

    /// Builds a `Stalled` error with an explicit cause.
    pub fn stalled_with(protocol: &str, ctx: &SimContext, cause: StallCause) -> Self {
        let uncollected = ctx
            .uncollected_handles()
            .into_iter()
            .map(|h| ctx.population.id(h))
            .collect();
        PollingError::Stalled {
            partial_report: Report::from_context(protocol, ctx),
            uncollected,
            cause,
        }
    }

    /// The partial report, regardless of variant.
    pub(crate) fn partial_report(&self) -> &Report {
        match self {
            PollingError::Stalled { partial_report, .. } => partial_report,
        }
    }

    /// The stall cause, regardless of variant.
    pub fn cause(&self) -> StallCause {
        match self {
            PollingError::Stalled { cause, .. } => *cause,
        }
    }
}

impl fmt::Display for PollingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PollingError::Stalled {
                partial_report,
                uncollected,
                cause,
            } => write!(
                f,
                "{} stalled: {} of {} tags uncollected after {} rounds \
                 ({} polls, {} collected, cause: {cause})",
                partial_report.protocol,
                uncollected.len(),
                partial_report.tags,
                partial_report.counters.rounds,
                partial_report.counters.polls,
                partial_report.tags - uncollected.len(),
            ),
        }
    }
}

impl std::error::Error for PollingError {}

/// Detects a stalled run by *lack of progress*: the guard trips after
/// `DEFAULT_STALL_ROUNDS` consecutive rounds in which the poll counter did
/// not advance. Progress of even one tag resets the streak, so
/// slow-but-converging runs never stall.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StallGuard {
    last_polls: u64,
    streak: u64,
}

// The guard is part of a session's serialized driver state: a restored run
// must resume with the same idle-round streak or stall at a different round.
// The threshold is a constant, so no snapshot carries it.
rfid_system::impl_json_struct!(StallGuard { last_polls, streak });

impl StallGuard {
    /// Checks progress at a round boundary; `true` means the run stalled.
    /// Each idle round leaves a [`rfid_system::Event::StallTick`] in the
    /// trace so stalls are visible long before the guard trips.
    pub fn no_progress(&mut self, ctx: &mut SimContext) -> bool {
        if ctx.counters.polls > self.last_polls {
            self.last_polls = ctx.counters.polls;
            self.streak = 0;
            return false;
        }
        self.streak += 1;
        ctx.emit(rfid_system::Event::StallTick {
            streak: self.streak,
        });
        self.streak >= DEFAULT_STALL_ROUNDS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_system::{BitVec, SimConfig, TagPopulation};

    fn ctx(n: usize) -> SimContext {
        let pop = TagPopulation::sequential(n, |_| BitVec::from_value(1, 1));
        SimContext::new(pop, &SimConfig::paper(1))
    }

    #[test]
    fn stall_guard_trips_only_without_progress() {
        let mut c = ctx(3);
        let mut guard = StallGuard::default();
        for _ in 1..DEFAULT_STALL_ROUNDS {
            assert!(!guard.no_progress(&mut c));
        }
        c.poll_tag(1, true, 0);
        // Progress resets the streak.
        assert!(!guard.no_progress(&mut c));
        for _ in 1..DEFAULT_STALL_ROUNDS {
            assert!(!guard.no_progress(&mut c));
        }
        assert!(
            guard.no_progress(&mut c),
            "the DEFAULT_STALL_ROUNDS-th consecutive idle round trips"
        );
    }

    #[test]
    fn stalled_error_carries_partial_state() {
        let mut c = ctx(3);
        c.poll_tag(1, true, 1);
        let err = PollingError::stalled("HPP", &c);
        let PollingError::Stalled {
            partial_report,
            uncollected,
            cause,
        } = &err;
        assert_eq!(partial_report.counters.polls, 1);
        assert_eq!(uncollected.len(), 2);
        assert_eq!(uncollected[0], c.population.id(0));
        assert_eq!(*cause, StallCause::NoProgress);
        let msg = err.to_string();
        assert!(msg.contains("HPP stalled: 2 of 3"), "{msg}");
        // Satellite fix: the panic path (run() formats this Display) now
        // names the collected count, stall round and cause too.
        assert!(msg.contains("1 collected"), "{msg}");
        assert!(msg.contains("0 rounds"), "{msg}");
        assert!(msg.contains("cause: no progress"), "{msg}");
    }

    #[test]
    fn stall_guard_round_trips_mid_streak() {
        let mut c = ctx(2);
        let mut guard = StallGuard::default();
        c.poll_tag(1, true, 0);
        assert!(!guard.no_progress(&mut c));
        assert!(!guard.no_progress(&mut c));
        let json = rfid_system::to_json_string(&guard);
        let back: StallGuard = rfid_system::from_json_str(&json).expect("parses");
        assert_eq!(back, guard, "streak and poll watermark must survive");
    }

    #[test]
    fn polling_error_is_a_std_error() {
        let c = ctx(1);
        let err = PollingError::stalled("CPP", &c);
        let dynerr: &dyn std::error::Error = &err;
        assert!(dynerr.to_string().contains("cause: no progress"));
    }

    #[test]
    fn stalled_with_records_the_round_cap_cause() {
        let c = ctx(2);
        let err = PollingError::stalled_with("TPP", &c, StallCause::RoundCap);
        assert_eq!(err.cause(), StallCause::RoundCap);
        assert!(err.to_string().contains("cause: round cap"));
    }
}
