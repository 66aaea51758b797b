//! Protocol-run event traces.
//!
//! When enabled, the simulator records a self-describing, sim-time-stamped
//! event per protocol action. Traces serve four purposes: debugging protocol
//! implementations, asserting fine-grained behaviour in tests (e.g. "TPP
//! never broadcast the same prefix twice in a round"), producing the worked
//! examples in the documentation (Figs. 2, 6 and 7 of the paper are
//! reproduced from traces by the `obs_report` binary), and recomputing the
//! run's [`crate::Counters`]: both are written by the same
//! [`crate::SimContext::emit`], so a complete trace folds back into the
//! exact counters the figures are built on.
//!
//! Every recorded event carries the C1G2 clock's microsecond timestamp
//! ([`TimedEvent`]). The log is on or off: disabled (the default —
//! Monte-Carlo sweeps must not pay for tracing) or enabled, keeping every
//! event. [`crate::SimConfig::trace`] alone decides which.

use std::fmt;

use rfid_c1g2::Micros;

use crate::json::ToJson as _;

/// What a [`Event::ReaderBroadcast`] payload was — a closed enum instead of
/// a `String` so an enabled trace never allocates on the broadcast path,
/// and so trace replay can attribute the bits to the right counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BroadcastKind {
    /// Round initiation `(h, r)` (HPP/TPP and frame announcements that
    /// count as rounds).
    RoundInit,
    /// EHPP circle command.
    CircleCommand,
    /// A polling vector (full index or TPP tree segment) — the bits behind
    /// the paper's `w` metric.
    PollingVector,
    /// A 4-bit QueryRep slot-advance prefix.
    QueryRep,
    /// A bulk slot prefix charged as QueryRep overhead (frame walks).
    SlotPrefix,
    /// MIC's per-frame indicator vector.
    IndicatorVector,
    /// An eCPP Select command masking a shared ID prefix.
    Select,
    /// A C1G2 Query opening an inventory frame.
    Query,
    /// A C1G2 QueryAdjust resizing the frame.
    QueryAdjust,
    /// An ACK in the RN16 → EPC handshake.
    Ack,
    /// A NAK triggering a retransmission.
    Nak,
    /// An estimation frame announcement (no inventory round starts).
    FrameInit,
    /// A presence probe addressed past the population (missing-tag scans) —
    /// counted in neither the vector nor the QueryRep overhead.
    Probe,
}

impl BroadcastKind {
    /// Human-readable label used by [`Event`]'s `Display`.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            BroadcastKind::RoundInit => "round init",
            BroadcastKind::CircleCommand => "circle command",
            BroadcastKind::PollingVector => "polling vector",
            BroadcastKind::QueryRep => "QueryRep",
            BroadcastKind::SlotPrefix => "slot prefix",
            BroadcastKind::IndicatorVector => "indicator vector",
            BroadcastKind::Select => "Select",
            BroadcastKind::Query => "Query",
            BroadcastKind::QueryAdjust => "QueryAdjust",
            BroadcastKind::Ack => "ACK",
            BroadcastKind::Nak => "NAK",
            BroadcastKind::FrameInit => "frame init",
            BroadcastKind::Probe => "probe",
        }
    }

    /// Whether this broadcast's bits are charged to
    /// [`crate::Counters::query_rep_bits`].
    #[inline]
    pub(crate) fn counts_as_query_rep(&self) -> bool {
        matches!(self, BroadcastKind::QueryRep | BroadcastKind::SlotPrefix)
    }

    /// Whether this broadcast's bits are charged to
    /// [`crate::Counters::vector_bits`] at transmission time.
    #[inline]
    pub(crate) fn counts_as_vector(&self) -> bool {
        matches!(self, BroadcastKind::PollingVector)
    }
}

impl fmt::Display for BroadcastKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One recorded protocol action.
///
/// The variant set mirrors the counter set: [`crate::Counters`] are a
/// function of the events (`crate::Counters::apply`), so replaying a
/// complete trace reproduces the end-of-run counters exactly. The one
/// exception is `tag_listen_us`, a continuous time integral documented in
/// DESIGN.md §9.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A new inventory round began (HPP/TPP round or ALOHA frame).
    RoundStarted {
        /// 1-based round number.
        round: usize,
        /// Index length `h` (or frame size exponent, protocol-specific).
        h: u32,
        /// Number of tags still unread at the start of the round.
        unread: usize,
    },
    /// An EHPP circle began.
    CircleStarted {
        /// 1-based circle number.
        circle: usize,
        /// Number of tags selected into the circle.
        selected: usize,
    },
    /// The reader broadcast `bits` payload bits.
    ReaderBroadcast {
        /// Payload kind (no allocation — see [`BroadcastKind`]).
        what: BroadcastKind,
        /// Number of bits.
        bits: u64,
    },
    /// A tag was polled successfully.
    TagPolled {
        /// Tag handle.
        tag: usize,
        /// Polling-vector bits charged for this tag.
        vector_bits: u64,
    },
    /// A tag's reply occupied the air (decoded or later found corrupted).
    TagReply {
        /// Tag handle.
        tag: usize,
        /// Backscattered bits.
        bits: u64,
    },
    /// Bits reclassified as polling-vector payload after the fact (Query
    /// Tree and alien-interference polling charge `w` only on success).
    VectorCharged {
        /// Vector bits charged.
        bits: u64,
    },
    /// A slot passed with no decodable reply.
    SlotEmpty,
    /// A slot collided.
    SlotCollision {
        /// Number of concurrent repliers.
        count: usize,
    },
    /// A reply was transmitted but lost on the uplink.
    ReplyLost {
        /// Tag handle (for multi-replier slots: a representative replier).
        tag: usize,
    },
    /// A tag missed a downlink command.
    DownlinkLost {
        /// Tag handle.
        tag: usize,
    },
    /// A tag's reply arrived but failed its CRC-16 check.
    ReplyCorrupted {
        /// Tag handle.
        tag: usize,
    },
    /// A NAK-triggered retransmission after a corrupted reply.
    Retransmission {
        /// Tag handle.
        tag: usize,
        /// 1-based retry attempt (the retransmission depth).
        attempt: u32,
    },
    /// A desynchronized tag re-joined on a broadcast it heard.
    DesyncRecovered {
        /// Tag handle.
        tag: usize,
    },
    /// A round boundary passed with zero successful polls (stall guard).
    StallTick {
        /// Consecutive no-progress rounds so far.
        streak: u64,
    },
    /// A recovery re-polling pass began over the uncollected remainder.
    RecoveryPassStarted {
        /// 1-based pass number (pass 1 is the initial attempt).
        pass: u64,
        /// Tags still uncollected when the pass started.
        uncollected: usize,
    },
    /// The recovery layer idled on the C1G2 clock between passes.
    BackoffWaited {
        /// The pass that just stalled.
        pass: u64,
        /// Microseconds of backoff charged to the sim clock.
        us: u64,
    },
    /// The recovery circuit breaker opened: the run ends degraded.
    CircuitOpened {
        /// Passes attempted before giving up.
        passes: u64,
        /// Tags left uncollected.
        uncollected: usize,
    },
    /// The session's sim-time deadline passed: the run ends degraded.
    DeadlineReached {
        /// Passes attempted before the deadline.
        passes: u64,
        /// Tags left uncollected.
        uncollected: usize,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::RoundStarted { round, h, unread } => {
                write!(f, "round {round}: h={h}, {unread} unread")
            }
            Event::CircleStarted { circle, selected } => {
                write!(f, "circle {circle}: {selected} tags selected")
            }
            Event::ReaderBroadcast { what, bits } => write!(f, "reader → {what} ({bits} bits)"),
            Event::TagPolled { tag, vector_bits } => {
                write!(f, "tag {tag} polled ({vector_bits}-bit vector)")
            }
            Event::TagReply { tag, bits } => write!(f, "tag {tag} replied ({bits} bits)"),
            Event::VectorCharged { bits } => write!(f, "{bits} vector bits charged"),
            Event::SlotEmpty => write!(f, "empty slot"),
            Event::SlotCollision { count } => write!(f, "collision ({count} tags)"),
            Event::ReplyLost { tag } => write!(f, "tag {tag} reply lost"),
            Event::DownlinkLost { tag } => write!(f, "tag {tag} missed a downlink command"),
            Event::ReplyCorrupted { tag } => write!(f, "tag {tag} reply failed CRC"),
            Event::Retransmission { tag, attempt } => {
                write!(f, "tag {tag} retransmission #{attempt}")
            }
            Event::DesyncRecovered { tag } => write!(f, "tag {tag} re-joined after desync"),
            Event::StallTick { streak } => write!(f, "no-progress round (streak {streak})"),
            Event::RecoveryPassStarted { pass, uncollected } => {
                write!(f, "recovery pass {pass}: {uncollected} uncollected")
            }
            Event::BackoffWaited { pass, us } => {
                write!(f, "backoff after pass {pass} ({us} µs)")
            }
            Event::CircuitOpened {
                passes,
                uncollected,
            } => {
                write!(
                    f,
                    "circuit opened after {passes} passes ({uncollected} uncollected)"
                )
            }
            Event::DeadlineReached {
                passes,
                uncollected,
            } => {
                write!(
                    f,
                    "deadline reached after {passes} passes ({uncollected} uncollected)"
                )
            }
        }
    }
}

crate::impl_json_enum!(BroadcastKind {
    RoundInit,
    CircleCommand,
    PollingVector,
    QueryRep,
    SlotPrefix,
    IndicatorVector,
    Select,
    Query,
    QueryAdjust,
    Ack,
    Nak,
    FrameInit,
    Probe,
});

crate::impl_json_enum!(Event {
    RoundStarted { round, h, unread },
    CircleStarted { circle, selected },
    ReaderBroadcast { what, bits },
    TagPolled { tag, vector_bits },
    TagReply { tag, bits },
    VectorCharged { bits },
    SlotEmpty,
    SlotCollision { count },
    ReplyLost { tag },
    DownlinkLost { tag },
    ReplyCorrupted { tag },
    Retransmission { tag, attempt },
    DesyncRecovered { tag },
    StallTick { streak },
    RecoveryPassStarted { pass, uncollected },
    BackoffWaited { pass, us },
    CircuitOpened { passes, uncollected },
    DeadlineReached { passes, uncollected },
});

/// An event plus the C1G2 clock's reading at the moment it was recorded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEvent {
    /// Simulation time (total elapsed microseconds) of the record.
    pub at: Micros,
    /// The recorded action.
    pub event: Event,
}

impl fmt::Display for TimedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>12}] {}", self.at.to_string(), self.event)
    }
}

crate::impl_json_struct!(TimedEvent { at, event });

/// An optional event log. Disabled by default: large Monte-Carlo sweeps must
/// not pay for tracing. An enabled log keeps every event, oldest first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    enabled: bool,
    events: Vec<TimedEvent>,
}

impl EventLog {
    /// A disabled log (records nothing).
    pub fn disabled() -> Self {
        EventLog::default()
    }

    /// An enabled log.
    pub fn enabled() -> Self {
        EventLog {
            enabled: true,
            events: Vec::new(),
        }
    }

    /// An enabled log that already holds `events`: a restored trace.
    pub(crate) fn resumed(events: Vec<TimedEvent>) -> Self {
        EventLog {
            enabled: true,
            events,
        }
    }

    /// Whether recording is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event at sim-time `at` (no-op when disabled).
    #[inline]
    pub fn record(&mut self, at: Micros, event: Event) {
        if self.enabled {
            self.events.push(TimedEvent { at, event });
        }
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the trace as JSON Lines: one compact [`TimedEvent`]
    /// object per line — streamable, greppable, `from_jsonl`-round-trippable.
    /// A first pass measures the text, so it is allocated once.
    pub fn to_jsonl(&self) -> String {
        let mut len = 0;
        self.for_each_line(|line| len += line.len());
        let mut out = String::with_capacity(len);
        self.for_each_line(|line| out.push_str(line));
        out
    }

    /// The trace digest every bit-identity gate compares: FNV-1a
    /// ([`rfid_hash::fnv64`]) of [`EventLog::to_jsonl`]. It streams each
    /// line into [`rfid_hash::Fnv64`], so the JSONL text is never built.
    pub fn digest(&self) -> u64 {
        let mut hash = rfid_hash::Fnv64::new();
        self.for_each_line(|line| hash.write(line.as_bytes()));
        hash.finish()
    }

    /// Calls `f` with each event's JSONL line, newline included, built in
    /// one reused buffer.
    fn for_each_line(&self, mut f: impl FnMut(&str)) {
        let mut line = String::new();
        for e in &self.events {
            line.clear();
            e.write_json(&mut line);
            line.push('\n');
            f(&line);
        }
    }

    /// Parses a JSON-Lines trace back into timed events (blank lines are
    /// skipped).
    pub fn from_jsonl(text: &str) -> Result<Vec<TimedEvent>, crate::json::JsonError> {
        text.lines()
            .filter(|line| !line.trim().is_empty())
            .map(crate::json::from_json_str)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(us: f64) -> Micros {
        Micros::from_us(us)
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = EventLog::disabled();
        log.record(at(1.0), Event::SlotEmpty);
        assert!(log.is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn enabled_log_records_in_order_with_timestamps() {
        let mut log = EventLog::enabled();
        log.record(
            at(0.0),
            Event::RoundStarted {
                round: 1,
                h: 2,
                unread: 4,
            },
        );
        log.record(
            at(37.45),
            Event::TagPolled {
                tag: 2,
                vector_bits: 2,
            },
        );
        assert_eq!(log.len(), 2);
        assert!(matches!(
            log.events()[0].event,
            Event::RoundStarted { round: 1, .. }
        ));
        assert!(log.events()[1].at > log.events()[0].at);
    }

    #[test]
    fn render_is_line_per_event() {
        let mut log = EventLog::enabled();
        log.record(at(1.5), Event::SlotEmpty);
        log.record(at(2.5), Event::SlotCollision { count: 3 });
        let lines: Vec<String> = log.events().iter().map(|e| e.to_string()).collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|line| !line.contains('\n')));
        assert!(lines[1].contains("collision (3 tags)"));
    }

    #[test]
    fn jsonl_round_trips() {
        let mut log = EventLog::enabled();
        log.record(
            at(0.0),
            Event::ReaderBroadcast {
                what: BroadcastKind::PollingVector,
                bits: 7,
            },
        );
        log.record(at(262.15), Event::TagReply { tag: 3, bits: 1 });
        log.record(at(300.0), Event::StallTick { streak: 2 });
        log.record(
            at(301.0),
            Event::RecoveryPassStarted {
                pass: 2,
                uncollected: 5,
            },
        );
        log.record(at(302.0), Event::BackoffWaited { pass: 1, us: 1500 });
        log.record(
            at(303.0),
            Event::CircuitOpened {
                passes: 3,
                uncollected: 4,
            },
        );
        log.record(
            at(304.0),
            Event::DeadlineReached {
                passes: 2,
                uncollected: 6,
            },
        );
        let text = log.to_jsonl();
        assert_eq!(text.lines().count(), 7);
        assert_eq!(text.capacity(), text.len(), "allocated at its exact length");
        let back = EventLog::from_jsonl(&text).expect("parses");
        assert_eq!(back.len(), 7);
        for (a, b) in back.iter().zip(log.events()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn digest_is_fnv64_of_the_jsonl_trace() {
        let every_event = [
            Event::RoundStarted {
                round: 1,
                h: 3,
                unread: 100,
            },
            Event::CircleStarted {
                circle: 2,
                selected: 40,
            },
            Event::ReaderBroadcast {
                what: BroadcastKind::Nak,
                bits: 8,
            },
            Event::TagPolled {
                tag: 5,
                vector_bits: 3,
            },
            Event::TagReply { tag: 5, bits: 16 },
            Event::VectorCharged { bits: 7 },
            Event::SlotEmpty,
            Event::SlotCollision { count: 4 },
            Event::ReplyLost { tag: 3 },
            Event::DownlinkLost { tag: 9 },
            Event::ReplyCorrupted { tag: 12 },
            Event::Retransmission {
                tag: 12,
                attempt: 2,
            },
            Event::DesyncRecovered { tag: 9 },
            Event::StallTick { streak: 5 },
            Event::RecoveryPassStarted {
                pass: 2,
                uncollected: 5,
            },
            Event::BackoffWaited { pass: 1, us: 1500 },
            Event::CircuitOpened {
                passes: 3,
                uncollected: 4,
            },
            Event::DeadlineReached {
                passes: 2,
                uncollected: 6,
            },
        ];
        let mut enabled = EventLog::enabled();
        let mut disabled = EventLog::disabled();
        for log in [&mut enabled, &mut disabled] {
            for (i, &event) in every_event.iter().enumerate() {
                log.record(at(i as f64 * 37.45 + 0.1 + 0.2), event);
            }
        }
        let restored = EventLog::resumed(EventLog::from_jsonl(&enabled.to_jsonl()).unwrap());
        for log in [&enabled, &disabled, &restored] {
            assert_eq!(log.digest(), rfid_hash::fnv64(&log.to_jsonl()));
            // The tree encoding hashes to the same digest.
            let tree: String = log
                .events()
                .iter()
                .map(|e| e.to_json().to_string() + "\n")
                .collect();
            assert_eq!(log.digest(), rfid_hash::fnv64(&tree));
        }
        assert_eq!(restored.digest(), enabled.digest());
        assert_eq!(disabled.digest(), rfid_hash::fnv64(""));
    }

    #[test]
    fn display_formats() {
        let e = Event::ReaderBroadcast {
            what: BroadcastKind::PollingVector,
            bits: 2,
        };
        assert_eq!(e.to_string(), "reader → polling vector (2 bits)");
        let t = Event::Retransmission { tag: 4, attempt: 2 };
        assert_eq!(t.to_string(), "tag 4 retransmission #2");
    }

    #[test]
    fn broadcast_kind_counter_attribution() {
        assert!(BroadcastKind::QueryRep.counts_as_query_rep());
        assert!(BroadcastKind::SlotPrefix.counts_as_query_rep());
        assert!(!BroadcastKind::PollingVector.counts_as_query_rep());
        assert!(BroadcastKind::PollingVector.counts_as_vector());
        assert!(!BroadcastKind::Probe.counts_as_vector());
        assert!(!BroadcastKind::Probe.counts_as_query_rep());
    }
}
