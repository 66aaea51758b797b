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
//! ([`TimedEvent`]). The log itself has three modes: disabled (the default —
//! Monte-Carlo sweeps must not pay for tracing), unbounded, and a bounded
//! ring buffer that keeps the newest events and counts what it dropped.

use std::collections::VecDeque;
use std::fmt;

use rfid_c1g2::Micros;

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
    pub fn label(&self) -> &'static str {
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
    pub fn counts_as_query_rep(&self) -> bool {
        matches!(self, BroadcastKind::QueryRep | BroadcastKind::SlotPrefix)
    }

    /// Whether this broadcast's bits are charged to
    /// [`crate::Counters::vector_bits`] at transmission time.
    #[inline]
    pub fn counts_as_vector(&self) -> bool {
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
/// function of the events ([`crate::Counters::apply`]), so replaying a
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
        }
    }
}

crate::impl_json_enum_units!(BroadcastKind {
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

impl crate::json::ToJson for Event {
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        fn tagged(tag: &str, fields: Vec<(String, Json)>) -> Json {
            Json::Obj(vec![(tag.to_string(), Json::Obj(fields))])
        }
        match self {
            Event::RoundStarted { round, h, unread } => tagged(
                "RoundStarted",
                vec![
                    ("round".to_string(), round.to_json()),
                    ("h".to_string(), h.to_json()),
                    ("unread".to_string(), unread.to_json()),
                ],
            ),
            Event::CircleStarted { circle, selected } => tagged(
                "CircleStarted",
                vec![
                    ("circle".to_string(), circle.to_json()),
                    ("selected".to_string(), selected.to_json()),
                ],
            ),
            Event::ReaderBroadcast { what, bits } => tagged(
                "ReaderBroadcast",
                vec![
                    ("what".to_string(), what.to_json()),
                    ("bits".to_string(), bits.to_json()),
                ],
            ),
            Event::TagPolled { tag, vector_bits } => tagged(
                "TagPolled",
                vec![
                    ("tag".to_string(), tag.to_json()),
                    ("vector_bits".to_string(), vector_bits.to_json()),
                ],
            ),
            Event::TagReply { tag, bits } => tagged(
                "TagReply",
                vec![
                    ("tag".to_string(), tag.to_json()),
                    ("bits".to_string(), bits.to_json()),
                ],
            ),
            Event::VectorCharged { bits } => {
                tagged("VectorCharged", vec![("bits".to_string(), bits.to_json())])
            }
            Event::SlotEmpty => Json::str("SlotEmpty"),
            Event::SlotCollision { count } => tagged(
                "SlotCollision",
                vec![("count".to_string(), count.to_json())],
            ),
            Event::ReplyLost { tag } => {
                tagged("ReplyLost", vec![("tag".to_string(), tag.to_json())])
            }
            Event::DownlinkLost { tag } => {
                tagged("DownlinkLost", vec![("tag".to_string(), tag.to_json())])
            }
            Event::ReplyCorrupted { tag } => {
                tagged("ReplyCorrupted", vec![("tag".to_string(), tag.to_json())])
            }
            Event::Retransmission { tag, attempt } => tagged(
                "Retransmission",
                vec![
                    ("tag".to_string(), tag.to_json()),
                    ("attempt".to_string(), attempt.to_json()),
                ],
            ),
            Event::DesyncRecovered { tag } => {
                tagged("DesyncRecovered", vec![("tag".to_string(), tag.to_json())])
            }
            Event::StallTick { streak } => {
                tagged("StallTick", vec![("streak".to_string(), streak.to_json())])
            }
            Event::RecoveryPassStarted { pass, uncollected } => tagged(
                "RecoveryPassStarted",
                vec![
                    ("pass".to_string(), pass.to_json()),
                    ("uncollected".to_string(), uncollected.to_json()),
                ],
            ),
            Event::BackoffWaited { pass, us } => tagged(
                "BackoffWaited",
                vec![
                    ("pass".to_string(), pass.to_json()),
                    ("us".to_string(), us.to_json()),
                ],
            ),
            Event::CircuitOpened {
                passes,
                uncollected,
            } => tagged(
                "CircuitOpened",
                vec![
                    ("passes".to_string(), passes.to_json()),
                    ("uncollected".to_string(), uncollected.to_json()),
                ],
            ),
        }
    }
}

impl crate::json::FromJson for Event {
    fn from_json(json: &crate::json::Json) -> Result<Self, crate::json::JsonError> {
        use crate::json::{Json, JsonError};
        if let Json::Str(tag) = json {
            return match tag.as_str() {
                "SlotEmpty" => Ok(Event::SlotEmpty),
                other => Err(JsonError(format!("unknown Event variant '{other}'"))),
            };
        }
        let fields = match json {
            Json::Obj(fields) if fields.len() == 1 => fields,
            other => return Err(JsonError(format!("malformed Event: {other}"))),
        };
        let (tag, body) = &fields[0];
        match tag.as_str() {
            "RoundStarted" => Ok(Event::RoundStarted {
                round: body.field("round")?,
                h: body.field("h")?,
                unread: body.field("unread")?,
            }),
            "CircleStarted" => Ok(Event::CircleStarted {
                circle: body.field("circle")?,
                selected: body.field("selected")?,
            }),
            "ReaderBroadcast" => Ok(Event::ReaderBroadcast {
                what: body.field("what")?,
                bits: body.field("bits")?,
            }),
            "TagPolled" => Ok(Event::TagPolled {
                tag: body.field("tag")?,
                vector_bits: body.field("vector_bits")?,
            }),
            "TagReply" => Ok(Event::TagReply {
                tag: body.field("tag")?,
                bits: body.field("bits")?,
            }),
            "VectorCharged" => Ok(Event::VectorCharged {
                bits: body.field("bits")?,
            }),
            "SlotCollision" => Ok(Event::SlotCollision {
                count: body.field("count")?,
            }),
            "ReplyLost" => Ok(Event::ReplyLost {
                tag: body.field("tag")?,
            }),
            "DownlinkLost" => Ok(Event::DownlinkLost {
                tag: body.field("tag")?,
            }),
            "ReplyCorrupted" => Ok(Event::ReplyCorrupted {
                tag: body.field("tag")?,
            }),
            "Retransmission" => Ok(Event::Retransmission {
                tag: body.field("tag")?,
                attempt: body.field("attempt")?,
            }),
            "DesyncRecovered" => Ok(Event::DesyncRecovered {
                tag: body.field("tag")?,
            }),
            "StallTick" => Ok(Event::StallTick {
                streak: body.field("streak")?,
            }),
            "RecoveryPassStarted" => Ok(Event::RecoveryPassStarted {
                pass: body.field("pass")?,
                uncollected: body.field("uncollected")?,
            }),
            "BackoffWaited" => Ok(Event::BackoffWaited {
                pass: body.field("pass")?,
                us: body.field("us")?,
            }),
            "CircuitOpened" => Ok(Event::CircuitOpened {
                passes: body.field("passes")?,
                uncollected: body.field("uncollected")?,
            }),
            other => Err(JsonError(format!("unknown Event variant '{other}'"))),
        }
    }
}

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
/// not pay for tracing. The bounded ring mode keeps the newest `capacity`
/// events for long runs where only the tail matters (and remembers how many
/// it dropped, so reconciliation can refuse a truncated trace).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    enabled: bool,
    /// Ring capacity; `0` means unbounded.
    capacity: usize,
    events: VecDeque<TimedEvent>,
    dropped: u64,
}

impl EventLog {
    /// A disabled log (records nothing).
    pub fn disabled() -> Self {
        EventLog::default()
    }

    /// An enabled, unbounded log.
    pub fn enabled() -> Self {
        EventLog {
            enabled: true,
            ..EventLog::default()
        }
    }

    /// An enabled bounded log keeping only the newest `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity` is zero (use [`EventLog::disabled`] instead).
    pub fn ring(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        EventLog {
            enabled: true,
            capacity,
            events: VecDeque::with_capacity(capacity),
            dropped: 0,
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
        if !self.enabled {
            return;
        }
        if self.capacity != 0 && self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TimedEvent { at, event });
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> &VecDeque<TimedEvent> {
        &self.events
    }

    /// Number of events evicted by the ring buffer (0 when unbounded).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the trace one timestamped event per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }

    /// Serializes the trace as JSON Lines: one compact [`TimedEvent`]
    /// object per line — streamable, greppable, `from_jsonl`-round-trippable.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&crate::json::to_json_string(e));
            out.push('\n');
        }
        out
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

impl crate::json::ToJson for EventLog {
    fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let events: Vec<TimedEvent> = self.events.iter().copied().collect();
        Json::Obj(vec![
            ("enabled".to_string(), self.enabled.to_json()),
            ("capacity".to_string(), self.capacity.to_json()),
            ("dropped".to_string(), self.dropped.to_json()),
            ("events".to_string(), events.to_json()),
        ])
    }
}

impl crate::json::FromJson for EventLog {
    fn from_json(json: &crate::json::Json) -> Result<Self, crate::json::JsonError> {
        let events: Vec<TimedEvent> = json.field("events")?;
        let log = EventLog {
            enabled: json.field("enabled")?,
            capacity: json.field("capacity")?,
            dropped: json.field("dropped")?,
            events: events.into(),
        };
        // `record` evicts only at `len == capacity`: a ring restored over
        // capacity would never evict again.
        if log.capacity > 0 && log.events.len() > log.capacity {
            return Err(crate::json::JsonError(format!(
                "ring event log holds {} events over its capacity of {}",
                log.events.len(),
                log.capacity
            )));
        }
        if !log.enabled && (!log.events.is_empty() || log.dropped > 0) {
            return Err(crate::json::JsonError(format!(
                "disabled event log carries {} events and {} drops",
                log.events.len(),
                log.dropped
            )));
        }
        Ok(log)
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
    fn ring_mode_keeps_the_newest_events() {
        let mut log = EventLog::ring(3);
        for i in 0..10usize {
            log.record(
                at(i as f64),
                Event::TagPolled {
                    tag: i,
                    vector_bits: 1,
                },
            );
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 7);
        assert!(matches!(
            log.events()[0].event,
            Event::TagPolled { tag: 7, .. }
        ));
        assert!(matches!(
            log.events()[2].event,
            Event::TagPolled { tag: 9, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "ring capacity")]
    fn zero_capacity_ring_is_rejected() {
        let _ = EventLog::ring(0);
    }

    #[test]
    fn render_is_line_per_event() {
        let mut log = EventLog::enabled();
        log.record(at(1.5), Event::SlotEmpty);
        log.record(at(2.5), Event::SlotCollision { count: 3 });
        let text = log.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("collision (3 tags)"));
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
        let text = log.to_jsonl();
        assert_eq!(text.lines().count(), 6);
        let back = EventLog::from_jsonl(&text).expect("parses");
        assert_eq!(back.len(), 6);
        for (a, b) in back.iter().zip(log.events()) {
            assert_eq!(a, b);
        }
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
