//! The trace→counters reconciliation validator.
//!
//! The simulator writes counters and trace through one call,
//! [`rfid_system::SimContext::emit`], which applies
//! [`Counters::apply`] and records the same event. Replaying a complete
//! trace therefore recomputes the run's counters by construction;
//! [`reconcile`] checks the trace is complete (enabled, nothing evicted)
//! and then compares field by field, so a counter written outside `emit`
//! still shows up as a named mismatch. The CI reconciliation slice
//! (`obs_report --reconcile`) runs it against one seeded run of every
//! protocol.
//!
//! One field is exempt: `tag_listen_us` is a continuous time integral
//! (every elapsed interval weighted by the live listener count), not a
//! discrete event sum, so it cannot be replayed from events and is not
//! compared (DESIGN.md §9).

use std::fmt;

use rfid_system::{Counters, EventLog, TimedEvent};

/// Replays events into the counters they imply: a fold of
/// [`Counters::apply`], the same mapping the simulator's
/// [`rfid_system::SimContext::emit`] applies live. `tag_listen_us` stays
/// zero.
pub fn counters_from_events<'a, I>(events: I) -> Counters
where
    I: IntoIterator<Item = &'a TimedEvent>,
{
    events.into_iter().fold(Counters::default(), |mut c, te| {
        c.apply(&te.event);
        c
    })
}

/// Why a reconciliation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconcileError {
    /// The log never recorded (reconciling a disabled trace proves
    /// nothing).
    TraceDisabled,
    /// The ring buffer evicted events; the replay would be incomplete.
    TraceTruncated {
        /// Number of evicted events.
        dropped: u64,
        /// Number of events still in the ring.
        retained: u64,
    },
    /// A counter disagrees between replay and run.
    Mismatch {
        /// Name of the disagreeing `Counters` field.
        field: &'static str,
        /// Value recomputed from the trace.
        from_trace: u64,
        /// Value the run accumulated.
        from_run: u64,
    },
}

impl fmt::Display for ReconcileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconcileError::TraceDisabled => {
                write!(f, "cannot reconcile: the event log is disabled")
            }
            ReconcileError::TraceTruncated { dropped, retained } => write!(
                f,
                "cannot reconcile: the ring buffer dropped {dropped} of {total} events \
                 ({retained} retained) — a replay would undercount every counter",
                total = dropped + retained
            ),
            ReconcileError::Mismatch {
                field,
                from_trace,
                from_run,
            } => write!(
                f,
                "counter mismatch on `{field}`: trace replays {from_trace}, run counted {from_run}"
            ),
        }
    }
}

impl std::error::Error for ReconcileError {}

/// The discrete (event-countable) counter fields, with accessors.
const FIELDS: [(&str, fn(&Counters) -> u64); 16] = [
    ("reader_bits", |c| c.reader_bits),
    ("tag_bits", |c| c.tag_bits),
    ("vector_bits", |c| c.vector_bits),
    ("query_rep_bits", |c| c.query_rep_bits),
    ("polls", |c| c.polls),
    ("rounds", |c| c.rounds),
    ("circles", |c| c.circles),
    ("empty_slots", |c| c.empty_slots),
    ("collision_slots", |c| c.collision_slots),
    ("lost_replies", |c| c.lost_replies),
    ("downlink_losses", |c| c.downlink_losses),
    ("corrupted_replies", |c| c.corrupted_replies),
    ("desync_recoveries", |c| c.desync_recoveries),
    ("retransmissions", |c| c.retransmissions),
    ("recovery_passes", |c| c.recovery_passes),
    ("recovery_backoff_us", |c| c.recovery_backoff_us),
];

/// Compares a replayed counter set against a run's, field by field (all
/// fields except the continuous `tag_listen_us`). Returns the first
/// mismatch.
pub fn reconcile_counters(
    from_trace: &Counters,
    from_run: &Counters,
) -> Result<(), ReconcileError> {
    for (field, get) in FIELDS {
        let (t, r) = (get(from_trace), get(from_run));
        if t != r {
            return Err(ReconcileError::Mismatch {
                field,
                from_trace: t,
                from_run: r,
            });
        }
    }
    Ok(())
}

/// Replays `log` and checks the result against `counters` bit-for-bit.
///
/// Refuses disabled logs (a vacuous pass) and ring-truncated logs — the
/// error carries the drop and retention counts, so a ring-mode trace
/// surfaces "N events were evicted" instead of the bare counter mismatch a
/// partial replay would fabricate.
pub fn reconcile(log: &EventLog, counters: &Counters) -> Result<(), ReconcileError> {
    if !log.is_enabled() {
        return Err(ReconcileError::TraceDisabled);
    }
    if log.dropped() > 0 {
        return Err(ReconcileError::TraceTruncated {
            dropped: log.dropped(),
            retained: log.len() as u64,
        });
    }
    reconcile_counters(&counters_from_events(log.events()), counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_c1g2::Micros;
    use rfid_system::{BroadcastKind, Event};

    fn at(us: f64) -> Micros {
        Micros::from_us(us)
    }

    #[test]
    fn replay_attributes_broadcast_bits_by_kind() {
        let mut log = EventLog::enabled();
        log.record(
            at(0.0),
            Event::ReaderBroadcast {
                what: BroadcastKind::QueryRep,
                bits: 4,
            },
        );
        log.record(
            at(1.0),
            Event::ReaderBroadcast {
                what: BroadcastKind::PollingVector,
                bits: 7,
            },
        );
        log.record(
            at(2.0),
            Event::ReaderBroadcast {
                what: BroadcastKind::Probe,
                bits: 9,
            },
        );
        log.record(at(3.0), Event::VectorCharged { bits: 2 });
        let c = counters_from_events(log.events());
        assert_eq!(c.reader_bits, 20);
        assert_eq!(c.query_rep_bits, 4);
        assert_eq!(c.vector_bits, 9, "PollingVector bits + VectorCharged");
    }

    #[test]
    fn reconcile_rejects_disabled_and_truncated_logs() {
        let counters = Counters::default();
        assert_eq!(
            reconcile(&EventLog::disabled(), &counters),
            Err(ReconcileError::TraceDisabled)
        );
        let mut ring = EventLog::ring(1);
        ring.record(at(0.0), Event::SlotEmpty);
        ring.record(at(1.0), Event::SlotEmpty);
        assert_eq!(
            reconcile(&ring, &counters),
            Err(ReconcileError::TraceTruncated {
                dropped: 1,
                retained: 1
            })
        );
    }

    #[test]
    fn truncated_ring_never_reports_a_bare_mismatch() {
        // A ring trace whose retained events would replay into counters
        // that disagree with the run: the diagnostic must blame the drops,
        // not fabricate a counter mismatch from the partial replay.
        let mut ring = EventLog::ring(2);
        for i in 0..5 {
            ring.record(at(i as f64), Event::SlotEmpty);
        }
        let counters = Counters {
            empty_slots: 5,
            ..Counters::default()
        };
        let err = reconcile(&ring, &counters).unwrap_err();
        assert!(
            matches!(
                err,
                ReconcileError::TraceTruncated {
                    dropped: 3,
                    retained: 2
                }
            ),
            "got {err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("dropped 3"), "says how many dropped: {msg}");
        assert!(msg.contains("2 retained"), "says how many survive: {msg}");
        assert!(!msg.contains("mismatch"), "no bare mismatch: {msg}");
    }

    #[test]
    fn mismatch_names_the_field() {
        let mut log = EventLog::enabled();
        log.record(at(0.0), Event::SlotEmpty);
        let counters = Counters::default();
        let err = reconcile(&log, &counters).unwrap_err();
        assert_eq!(
            err,
            ReconcileError::Mismatch {
                field: "empty_slots",
                from_trace: 1,
                from_run: 0,
            }
        );
        assert!(err.to_string().contains("empty_slots"));
    }

    #[test]
    fn recovery_events_replay_into_recovery_counters() {
        let mut log = EventLog::enabled();
        log.record(at(0.0), Event::BackoffWaited { pass: 1, us: 1_500 });
        log.record(
            at(1.0),
            Event::RecoveryPassStarted {
                pass: 2,
                uncollected: 7,
            },
        );
        log.record(
            at(2.0),
            Event::CircuitOpened {
                passes: 2,
                uncollected: 7,
            },
        );
        let c = counters_from_events(log.events());
        assert_eq!(c.recovery_passes, 1);
        assert_eq!(c.recovery_backoff_us, 1_500);
    }

    #[test]
    fn tag_listen_us_is_exempt() {
        let log = EventLog::enabled();
        let counters = Counters {
            tag_listen_us: 123.456,
            ..Counters::default()
        };
        assert_eq!(reconcile(&log, &counters), Ok(()));
    }
}
