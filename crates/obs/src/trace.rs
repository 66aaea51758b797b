//! Trace-derived metrics.
//!
//! A recorded trace carries more information than the end-of-run counters:
//! every event knows *when* it happened on the C1G2 clock. This module
//! replays a trace once and derives the paper-relevant distributions —
//! polling-vector lengths (the quantity Figs 6–7 average), per-tag poll
//! latency, slot durations, unread tags over time and retransmission
//! depth — into a [`MetricsRegistry`].
//!
//! Metric catalogue (all derived in one pass):
//!
//! | name                     | kind      | sample                                         |
//! |--------------------------|-----------|------------------------------------------------|
//! | `vector_bits`            | histogram | `TagPolled.vector_bits` per poll               |
//! | `poll_latency_us`        | histogram | poll time − enclosing round/circle start       |
//! | `slot_us`                | histogram | gap between consecutive slot-terminal events   |
//! | `unread_tags`            | series    | `RoundStarted.unread` at each round start      |
//! | `retransmission_depth`   | series    | `Retransmission.attempt` at each retry         |
//! | `reader_bits`/`tag_bits` | counter   | broadcast / reply payload bits                 |
//! | `coverage_pct`           | series    | collected % at recovery-pass / circuit events  |
//! | per-event counts         | counter   | `polls`, `rounds`, `recovery_passes`, …        |

use rfid_system::{Event, EventLog, TimedEvent};

use crate::metrics::MetricsRegistry;

/// Rounds a non-negative microsecond delta into a histogram sample.
fn us(delta: f64) -> u64 {
    if delta <= 0.0 {
        0
    } else {
        delta.round() as u64
    }
}

/// Replays timestamped events into the standard metric set.
pub fn metrics_from_events<'a, I>(events: I) -> MetricsRegistry
where
    I: IntoIterator<Item = &'a TimedEvent>,
{
    let mut m = MetricsRegistry::enabled();
    // Sim-time of the innermost enclosing round or circle start: the
    // latency origin for every poll inside it.
    let mut epoch: Option<f64> = None;
    // Sim-time of the previous slot boundary (terminal event or
    // round/circle start): the origin of the next slot-duration sample.
    let mut slot_origin: Option<f64> = None;
    // Largest unread count ever announced — the population size, used as
    // the denominator of the `coverage_pct` series at recovery boundaries.
    let mut population: Option<usize> = None;
    for te in events {
        let now = te.at.as_f64();
        match te.event {
            Event::RoundStarted { unread, .. } => {
                m.inc("rounds", 1);
                m.point("unread_tags", te.at, unread as f64);
                population = Some(population.unwrap_or(0).max(unread));
                epoch = Some(now);
                slot_origin = Some(now);
            }
            Event::CircleStarted { .. } => {
                m.inc("circles", 1);
                epoch = Some(now);
                slot_origin = Some(now);
            }
            Event::ReaderBroadcast { bits, .. } => m.inc("reader_bits", bits),
            Event::TagPolled { vector_bits, .. } => {
                m.inc("polls", 1);
                m.observe("vector_bits", vector_bits);
                if let Some(t0) = epoch {
                    m.observe("poll_latency_us", us(now - t0));
                }
                if let Some(t0) = slot_origin.replace(now) {
                    m.observe("slot_us", us(now - t0));
                }
            }
            Event::TagReply { bits, .. } => m.inc("tag_bits", bits),
            Event::VectorCharged { bits } => m.inc("vector_bits_charged", bits),
            Event::SlotEmpty => {
                m.inc("empty_slots", 1);
                if let Some(t0) = slot_origin.replace(now) {
                    m.observe("slot_us", us(now - t0));
                }
            }
            Event::SlotCollision { .. } => {
                m.inc("collision_slots", 1);
                if let Some(t0) = slot_origin.replace(now) {
                    m.observe("slot_us", us(now - t0));
                }
            }
            Event::ReplyLost { .. } => m.inc("lost_replies", 1),
            Event::DownlinkLost { .. } => m.inc("downlink_losses", 1),
            Event::ReplyCorrupted { .. } => {
                m.inc("corrupted_replies", 1);
                if let Some(t0) = slot_origin.replace(now) {
                    m.observe("slot_us", us(now - t0));
                }
            }
            Event::Retransmission { attempt, .. } => {
                m.inc("retransmissions", 1);
                m.point("retransmission_depth", te.at, attempt as f64);
            }
            Event::DesyncRecovered { .. } => m.inc("desync_recoveries", 1),
            Event::StallTick { .. } => m.inc("stall_ticks", 1),
            Event::RecoveryPassStarted { uncollected, .. } => {
                m.inc("recovery_passes", 1);
                if let Some(pop) = population {
                    m.point("coverage_pct", te.at, coverage_pct(pop, uncollected));
                }
            }
            Event::BackoffWaited { us, .. } => m.inc("recovery_backoff_us", us),
            Event::CircuitOpened { uncollected, .. } => {
                m.inc("circuit_opened", 1);
                if let Some(pop) = population {
                    m.point("coverage_pct", te.at, coverage_pct(pop, uncollected));
                }
            }
        }
    }
    m
}

/// Collected percentage of a `pop`-tag inventory with `uncollected` left.
fn coverage_pct(pop: usize, uncollected: usize) -> f64 {
    if pop == 0 {
        100.0
    } else {
        (pop.saturating_sub(uncollected)) as f64 / pop as f64 * 100.0
    }
}

/// [`metrics_from_events`] over a whole event log.
pub fn metrics_from_log(log: &EventLog) -> MetricsRegistry {
    metrics_from_events(log.events())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_c1g2::Micros;
    use rfid_system::BroadcastKind;

    fn log_with(events: &[(f64, Event)]) -> EventLog {
        let mut log = EventLog::enabled();
        for &(t, e) in events {
            log.record(Micros::from_us(t), e);
        }
        log
    }

    #[test]
    fn poll_latency_is_measured_from_the_round_start() {
        let log = log_with(&[
            (
                100.0,
                Event::RoundStarted {
                    round: 1,
                    h: 3,
                    unread: 8,
                },
            ),
            (
                250.0,
                Event::TagPolled {
                    tag: 0,
                    vector_bits: 3,
                },
            ),
            (
                400.0,
                Event::TagPolled {
                    tag: 1,
                    vector_bits: 5,
                },
            ),
        ]);
        let m = metrics_from_log(&log);
        let latency = m.histogram("poll_latency_us").unwrap();
        assert_eq!(latency.count(), 2);
        assert_eq!(latency.min(), Some(150));
        assert_eq!(latency.max(), Some(300));
        let vec_bits = m.histogram("vector_bits").unwrap();
        assert_eq!(vec_bits.sum(), 8);
        assert_eq!(m.counter("polls"), 2);
        assert_eq!(m.counter("rounds"), 1);
    }

    #[test]
    fn slot_durations_are_gaps_between_terminal_events() {
        let log = log_with(&[
            (
                0.0,
                Event::RoundStarted {
                    round: 1,
                    h: 2,
                    unread: 4,
                },
            ),
            (80.0, Event::SlotEmpty),
            (300.0, Event::SlotCollision { count: 2 }),
            (
                450.0,
                Event::TagPolled {
                    tag: 0,
                    vector_bits: 2,
                },
            ),
        ]);
        let m = metrics_from_log(&log);
        let slots = m.histogram("slot_us").unwrap();
        assert_eq!(slots.count(), 3);
        assert_eq!(slots.sum(), 450, "gaps 80 + 220 + 150 tile the round");
        assert_eq!(m.counter("empty_slots"), 1);
        assert_eq!(m.counter("collision_slots"), 1);
    }

    #[test]
    fn a_circle_start_resets_latency_and_slot_origins() {
        let log = log_with(&[
            (
                0.0,
                Event::RoundStarted {
                    round: 1,
                    h: 1,
                    unread: 2,
                },
            ),
            (
                1000.0,
                Event::CircleStarted {
                    circle: 2,
                    selected: 1,
                },
            ),
            (
                1040.0,
                Event::TagPolled {
                    tag: 5,
                    vector_bits: 4,
                },
            ),
        ]);
        let m = metrics_from_log(&log);
        assert_eq!(m.histogram("poll_latency_us").unwrap().max(), Some(40));
        assert_eq!(m.histogram("slot_us").unwrap().max(), Some(40));
        assert_eq!(m.counter("circles"), 1);
    }

    #[test]
    fn series_track_unread_tags_and_retransmission_depth() {
        let log = log_with(&[
            (
                0.0,
                Event::RoundStarted {
                    round: 1,
                    h: 2,
                    unread: 10,
                },
            ),
            (50.0, Event::Retransmission { tag: 3, attempt: 1 }),
            (90.0, Event::Retransmission { tag: 3, attempt: 2 }),
            (
                200.0,
                Event::RoundStarted {
                    round: 2,
                    h: 2,
                    unread: 6,
                },
            ),
            (
                210.0,
                Event::ReaderBroadcast {
                    what: BroadcastKind::QueryRep,
                    bits: 4,
                },
            ),
        ]);
        let m = metrics_from_log(&log);
        let unread = m.series("unread_tags").unwrap();
        assert_eq!(unread.points.len(), 2);
        assert_eq!(unread.last().unwrap().value, 6.0);
        let depth = m.series("retransmission_depth").unwrap();
        assert_eq!(depth.last().unwrap().value, 2.0);
        assert_eq!(m.counter("retransmissions"), 2);
        assert_eq!(m.counter("reader_bits"), 4);
    }

    #[test]
    fn recovery_events_derive_a_coverage_series() {
        let log = log_with(&[
            (
                0.0,
                Event::RoundStarted {
                    round: 1,
                    h: 3,
                    unread: 10,
                },
            ),
            (100.0, Event::BackoffWaited { pass: 1, us: 1_000 }),
            (
                1_100.0,
                Event::RecoveryPassStarted {
                    pass: 2,
                    uncollected: 4,
                },
            ),
            (
                2_000.0,
                Event::CircuitOpened {
                    passes: 2,
                    uncollected: 2,
                },
            ),
        ]);
        let m = metrics_from_log(&log);
        assert_eq!(m.counter("recovery_passes"), 1);
        assert_eq!(m.counter("recovery_backoff_us"), 1_000);
        assert_eq!(m.counter("circuit_opened"), 1);
        let cov = m.series("coverage_pct").unwrap();
        assert_eq!(cov.points.len(), 2);
        assert_eq!(cov.points[0].value, 60.0, "6 of 10 at the pass start");
        assert_eq!(cov.last().unwrap().value, 80.0, "8 of 10 at the circuit");
    }
}
