//! The command/response vocabulary carried inside [`Frame`]s.
//!
//! Every message is one frame: the frame kind selects the variant
//! (commands `< 0x80`, responses `>= 0x80`) and the payload is a JSON
//! object of the variant's fields, serialized with the workspace's
//! zero-dependency [`rfid_system::json`] codec. Schemas are additive
//! within a wire version: decoders ignore unknown object keys, so new
//! optional fields never break an older peer; removing or re-typing a
//! field bumps [`WIRE_VERSION`](crate::WIRE_VERSION).
//!
//! The verbs mirror what a warehouse controller asks of a reader fleet:
//! open an inventory session (protocol + [`SimConfig`]), run it (with
//! optional step budgets and streamed progress), checkpoint/resume it
//! across process lives, inject a [`FaultModel`] mid-flight, and fetch
//! metrics as Prometheus text and the postmortem bundle of a session that
//! ended `stalled` or `degraded`.

use rfid_c1g2::Micros;
use rfid_protocols::RecoveryPolicy;
use rfid_system::{FaultModel, FromJson, Json, JsonError, SimConfig, ToJson};

use crate::frame::{Frame, FrameError};

/// Parameters of a new inventory session.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenRequest {
    /// Protocol display name (`"HPP"`, `"TPP"`, … — the daemon's registry).
    pub protocol: String,
    /// Population size.
    pub n: u64,
    /// Information bits each tag reports.
    pub info_bits: u64,
    /// Scenario seed (population IDs and the derived protocol seed).
    pub seed: u64,
    /// Full simulator config. `None` lets the server derive the paper
    /// config from the scenario seed; `Some` is used verbatim (trace,
    /// profiling, fault model, channel all caller-controlled).
    pub config: Option<SimConfig>,
    /// Recovery policy: stalls become backoff-separated passes.
    pub policy: Option<RecoveryPolicy>,
    /// Sim-time deadline on the C1G2 clock, written in µs.
    pub deadline_us: Option<Micros>,
    /// Emit a [`Response::Progress`] frame every this many driver steps
    /// while running (deterministic: counted in steps, not host time).
    pub progress_every: Option<u64>,
}

impl OpenRequest {
    /// An open request for `protocol` over the standard uniform scenario.
    pub fn new(protocol: impl Into<String>, n: u64, info_bits: u64, seed: u64) -> OpenRequest {
        OpenRequest {
            protocol: protocol.into(),
            n,
            info_bits,
            seed,
            config: None,
            policy: None,
            deadline_us: None,
            progress_every: None,
        }
    }
}

rfid_system::impl_json_struct!(OpenRequest {
    protocol,
    n,
    info_bits,
    seed,
    config,
    policy,
    deadline_us,
    progress_every,
});

/// How a wire-driven session ended — the serializable mirror of
/// [`rfid_protocols::SessionEnd`], carried by [`Response::Done`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// `"complete"`, `"stalled"`, or `"degraded"`.
    pub status: String,
    /// The (possibly partial) report as JSON.
    pub report: Json,
    /// Passes attempted (1 = no recovery needed).
    pub passes: u64,
    /// Fraction of the population collected, in `[0, 1]`.
    pub coverage: f64,
    /// Stall/degrade cause label (`None` when complete).
    pub cause: Option<String>,
    /// FNV-1a digest of the serialized event trace (`None` when tracing
    /// was off) — the bit-identity witness for loopback-vs-TCP gates.
    pub trace_digest: Option<u64>,
}

rfid_system::impl_json_struct!(SessionOutcome {
    status,
    report,
    passes,
    coverage,
    cause,
    trace_digest,
});

/// Typed error categories a server can return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame failed integrity checks (CRC, framing, version).
    BadFrame,
    /// The payload parsed as JSON but not as the command's schema, or a
    /// command kind this server does not know.
    BadPayload,
    /// No protocol of that name in the server's registry.
    UnknownProtocol,
    /// No session with that id on this connection.
    UnknownSession,
    /// The command is valid but not in this session state (e.g. `Run`
    /// after the session already ended).
    BadState,
    /// The server refused the request (validation failed).
    Rejected,
    /// The decoder discarded garbage at the very start of the stream
    /// before finding the first frame — a resynchronization diagnostic
    /// (chaos soaks assert on it), distinct from a broken frame on an
    /// established stream.
    Resync,
}

rfid_system::impl_json_enum!(ErrorCode {
    BadFrame,
    BadPayload,
    UnknownProtocol,
    UnknownSession,
    BadState,
    Rejected,
    Resync,
});

/// Declares a message enum together with its frame codec, so each
/// variant's kind byte sits once next to its payload fields.
///
/// A variant is a unit (`Hello = 0x01`, payload `{}`), a newtype
/// (`Open(req: OpenRequest) = 0x02`, payload = the inner value's object)
/// or a struct (`Run = 0x03 { session: u64, … }`, payload = the fields as
/// an object in the listed order). Decoding parses the payload as JSON
/// before matching the kind, so every kind rejects a non-JSON body, and
/// an unlisted kind is [`FrameError::UnknownKind`].
macro_rules! wire_messages {
    (@payload) => {
        Json::Obj(Vec::new())
    };
    (@payload ($inner:ident)) => {
        $inner.to_json()
    };
    (@payload { $($field:ident),* }) => {
        Json::Obj(vec![$((stringify!($field).to_string(), $field.to_json())),*])
    };
    (@decode $doc:ident, $variant:ident) => {
        Self::$variant
    };
    (@decode $doc:ident, $variant:ident ($inner:ident)) => {
        Self::$variant(FromJson::from_json(&$doc).map_err(FrameError::Payload)?)
    };
    (@decode $doc:ident, $variant:ident { $($field:ident),* }) => {
        Self::$variant {
            $($field: $doc.field(stringify!($field)).map_err(FrameError::Payload)?),*
        }
    };
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident $(($inner:ident: $inner_ty:ty))? = $kind:literal
                $({ $($(#[$fmeta:meta])* $field:ident: $fty:ty),* $(,)? })?
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant $(($inner_ty))? $({ $($(#[$fmeta])* $field: $fty),* })?
            ),+
        }

        impl $name {
            /// Serializes the message into a frame.
            pub fn to_frame(&self) -> Frame {
                let (kind, payload) = match self {
                    $(Self::$variant $(($inner))? $({ $($field),* })? => (
                        $kind,
                        wire_messages!(@payload $(($inner))? $({ $($field),* })?),
                    )),+
                };
                Frame::new(kind, payload.to_string().into_bytes())
            }

            /// Decodes a message from a frame. Unknown kinds and malformed
            /// payloads produce typed [`FrameError`]s.
            pub fn from_frame(frame: &Frame) -> Result<$name, FrameError> {
                let text = std::str::from_utf8(&frame.payload).map_err(|_| {
                    FrameError::Payload(JsonError("payload is not UTF-8".to_string()))
                })?;
                let doc = Json::parse(text).map_err(FrameError::Payload)?;
                Ok(match frame.kind {
                    $($kind => wire_messages!(
                        @decode doc, $variant $(($inner))? $({ $($field),* })?
                    ),)+
                    other => return Err(FrameError::UnknownKind(other)),
                })
            }
        }
    };
}

wire_messages! {
    /// Client → server messages. Kinds are `< 0x80`.
    #[derive(Debug, Clone, PartialEq)]
    // `Open` carries its request inline: one command per frame, moved
    // straight into the dispatcher, so the size gap never multiplies.
    #[allow(clippy::large_enum_variant)]
    pub enum Command {
        /// Version/identity handshake.
        Hello = 0x01,
        /// Open an inventory session.
        Open(req: OpenRequest) = 0x02,
        /// Drive a session forward; `max_steps: None` runs to the end.
        Run = 0x03 {
            /// Session id from [`Response::Opened`].
            session: u64,
            /// Driver-step budget for this call (`None` = unbounded).
            max_steps: Option<u64>,
        },
        /// Serialize the session at its current step boundary.
        Checkpoint = 0x04 {
            /// Session id.
            session: u64,
        },
        /// Rebuild a session from a [`Response::Snapshot`] document.
        Resume = 0x05 {
            /// The snapshot JSON.
            snapshot: Json,
        },
        /// Swap the session's fault model mid-flight.
        Inject = 0x06 {
            /// Session id.
            session: u64,
            /// The replacement fault model.
            fault: FaultModel,
        },
        /// Fetch the session's metrics as Prometheus text.
        Metrics = 0x07 {
            /// Session id.
            session: u64,
        },
        /// Fetch the session's most recent postmortem flight bundle.
        Flight = 0x08 {
            /// Session id.
            session: u64,
        },
        /// Discard a session.
        Close = 0x09 {
            /// Session id.
            session: u64,
        },
        /// Ask the daemon to stop accepting and drain.
        Shutdown = 0x0A,
    }
}

wire_messages! {
    /// Server → client messages. Kinds are `>= 0x80`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// Handshake reply.
        HelloOk = 0x81 {
            /// The wire version the server speaks.
            version: u8,
            /// Server identity string.
            server: String,
        },
        /// A session was opened (or resumed).
        Opened = 0x82 {
            /// The new session id (unique per connection).
            session: u64,
        },
        /// Streamed progress during [`Command::Run`].
        Progress = 0x83 {
            /// Session id.
            session: u64,
            /// Driver steps taken in the current pass.
            steps: u64,
            /// Tags polled so far.
            polls: u64,
            /// Rounds completed so far.
            rounds: u64,
            /// Elapsed sim time (µs on the C1G2 clock).
            clock_us: f64,
        },
        /// The session ended.
        Done = 0x84 {
            /// Session id.
            session: u64,
            /// How it ended.
            outcome: SessionOutcome,
        },
        /// The step budget of [`Command::Run`] ran out with the session still
        /// live (checkpointable).
        Paused = 0x85 {
            /// Session id.
            session: u64,
            /// Driver steps taken in the current pass so far.
            steps: u64,
        },
        /// A checkpoint document.
        Snapshot = 0x86 {
            /// Session id.
            session: u64,
            /// The [`rfid_protocols::Session::snapshot`] JSON.
            snapshot: Json,
        },
        /// Prometheus text exposition of the session's metrics.
        MetricsText = 0x87 {
            /// Session id.
            session: u64,
            /// The exposition body.
            text: String,
        },
        /// The session's most recent flight bundle.
        FlightInfo = 0x89 {
            /// Session id.
            session: u64,
            /// The parsed bundle; `None` if none was dumped.
            bundle: Option<Json>,
        },
        /// The session was discarded.
        Closed = 0x8A {
            /// Session id.
            session: u64,
        },
        /// The daemon acknowledged [`Command::Shutdown`].
        ShuttingDown = 0x8B,
        /// The fleet is at its admission or in-flight budget; the command was
        /// shed, not failed — retry after the suggested delay.
        Busy = 0x8C {
            /// Suggested client backoff before retrying, in microseconds.
            retry_after_us: u64,
        },
        /// The previous command failed.
        Error = 0x8F {
            /// Machine-readable category.
            code: ErrorCode,
            /// Human-readable detail.
            message: String,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variant with its exact kind byte and payload text. These are
    /// the wire: a codec change that moves one byte fails here.
    fn command_rows() -> Vec<(Command, u8, &'static str)> {
        let mut open = OpenRequest::new("HPP", 500, 4, 31);
        open.config = Some(SimConfig::paper(9));
        open.policy = Some(RecoveryPolicy::unbounded().with_max_passes(3));
        open.deadline_us = Some(Micros::from_secs(1.5));
        open.progress_every = Some(16);
        vec![
            (Command::Hello, 0x01, r#"{}"#),
            (
                Command::Open(open),
                0x02,
                concat!(
                    r#"{"protocol":"HPP","n":500,"info_bits":4,"seed":31,"#,
                    r#""config":{"channel":{"reply_loss_rate":0,"#,
                    r#""capture_prob":0},"fault":{"downlink_loss_rate":0,"#,
                    r#""corruption_rate":0,"max_poll_retries":3,"burst":null,"#,
                    r#""plan":{"drop_downlink_rounds":[],"drop_uplink_rounds":[],"#,
                    r#""kill_after_replies":[]}},"seed":9,"trace":false,"#,
                    r#""profile":false},"policy":{"max_passes":3,"base_backoff_us":1000,"#,
                    r#""max_backoff_us":64000},"deadline_us":1500000,"#,
                    r#""progress_every":16}"#,
                ),
            ),
            (
                Command::Open(OpenRequest::new("TPP", 64, 1, 7)),
                0x02,
                concat!(
                    r#"{"protocol":"TPP","n":64,"info_bits":1,"seed":7,"config":null,"#,
                    r#""policy":null,"deadline_us":null,"progress_every":null}"#,
                ),
            ),
            (
                Command::Run {
                    session: 3,
                    max_steps: Some(40),
                },
                0x03,
                r#"{"session":3,"max_steps":40}"#,
            ),
            (
                Command::Run {
                    session: 3,
                    max_steps: None,
                },
                0x03,
                r#"{"session":3,"max_steps":null}"#,
            ),
            (Command::Checkpoint { session: 4 }, 0x04, r#"{"session":4}"#),
            (
                Command::Resume {
                    snapshot: Json::parse(r#"{"v":1,"steps":[2,3]}"#).unwrap(),
                },
                0x05,
                r#"{"snapshot":{"v":1,"steps":[2,3]}}"#,
            ),
            (
                Command::Inject {
                    session: 5,
                    fault: FaultModel::perfect().with_downlink_loss(0.25),
                },
                0x06,
                concat!(
                    r#"{"session":5,"fault":{"downlink_loss_rate":0.25,"corruption_rate":0,"#,
                    r#""max_poll_retries":3,"burst":null,"plan":{"drop_downlink_rounds":[],"#,
                    r#""drop_uplink_rounds":[],"kill_after_replies":[]}}}"#,
                ),
            ),
            (Command::Metrics { session: 6 }, 0x07, r#"{"session":6}"#),
            (Command::Flight { session: 7 }, 0x08, r#"{"session":7}"#),
            (Command::Close { session: 8 }, 0x09, r#"{"session":8}"#),
            (Command::Shutdown, 0x0A, r#"{}"#),
        ]
    }

    fn response_rows() -> Vec<(Response, u8, &'static str)> {
        vec![
            (
                Response::HelloOk {
                    version: 2,
                    server: "rfid-daemon/0.1".to_string(),
                },
                0x81,
                r#"{"version":2,"server":"rfid-daemon/0.1"}"#,
            ),
            (Response::Opened { session: 1 }, 0x82, r#"{"session":1}"#),
            (
                Response::Progress {
                    session: 1,
                    steps: 16,
                    polls: 12,
                    rounds: 2,
                    clock_us: 1234.5,
                },
                0x83,
                r#"{"session":1,"steps":16,"polls":12,"rounds":2,"clock_us":1234.5}"#,
            ),
            (
                Response::Done {
                    session: 1,
                    outcome: SessionOutcome {
                        status: "stalled".to_string(),
                        report: Json::parse(r#"{"polled":3}"#).unwrap(),
                        passes: 2,
                        coverage: 0.75,
                        cause: Some("deadline".to_string()),
                        trace_digest: Some(0xDEAD_BEEF),
                    },
                },
                0x84,
                concat!(
                    r#"{"session":1,"outcome":{"status":"stalled","report":{"polled":3},"#,
                    r#""passes":2,"coverage":0.75,"cause":"deadline","trace_digest":3735928559}}"#,
                ),
            ),
            (
                Response::Paused {
                    session: 1,
                    steps: 40,
                },
                0x85,
                r#"{"session":1,"steps":40}"#,
            ),
            (
                Response::Snapshot {
                    session: 1,
                    snapshot: Json::parse(r#"{"v":1}"#).unwrap(),
                },
                0x86,
                r#"{"session":1,"snapshot":{"v":1}}"#,
            ),
            (
                Response::MetricsText {
                    session: 1,
                    text: "rfid_polls_total 3\n".to_string(),
                },
                0x87,
                r#"{"session":1,"text":"rfid_polls_total 3\n"}"#,
            ),
            (
                Response::FlightInfo {
                    session: 1,
                    bundle: Some(Json::parse(r#"{"why":"stall"}"#).unwrap()),
                },
                0x89,
                r#"{"session":1,"bundle":{"why":"stall"}}"#,
            ),
            (Response::Closed { session: 1 }, 0x8A, r#"{"session":1}"#),
            (Response::ShuttingDown, 0x8B, r#"{}"#),
            (
                Response::Busy {
                    retry_after_us: 50_000,
                },
                0x8C,
                r#"{"retry_after_us":50000}"#,
            ),
            (
                Response::Error {
                    code: ErrorCode::Resync,
                    message: "skipped 12 byte(s) before the first frame".to_string(),
                },
                0x8F,
                r#"{"code":"Resync","message":"skipped 12 byte(s) before the first frame"}"#,
            ),
            (
                Response::Error {
                    code: ErrorCode::UnknownSession,
                    message: "no session 7".to_string(),
                },
                0x8F,
                r#"{"code":"UnknownSession","message":"no session 7"}"#,
            ),
        ]
    }

    #[test]
    fn every_variant_pins_its_kind_and_payload() {
        fn check<T: PartialEq + std::fmt::Debug>(
            rows: Vec<(T, u8, &str)>,
            to_frame: fn(&T) -> Frame,
            from_frame: fn(&Frame) -> Result<T, FrameError>,
        ) -> usize {
            let mut variants = Vec::new();
            for (value, kind, payload) in rows {
                let frame = to_frame(&value);
                assert_eq!(frame.kind, kind, "kind of {value:?}");
                assert_eq!(
                    std::str::from_utf8(&frame.payload).unwrap(),
                    payload,
                    "payload of {value:?}"
                );
                assert_eq!(from_frame(&frame).unwrap(), value);
                if !variants.contains(&kind) {
                    variants.push(kind);
                }
            }
            variants.len()
        }
        assert_eq!(
            check(command_rows(), Command::to_frame, Command::from_frame),
            10,
            "one row per Command variant"
        );
        assert_eq!(
            check(response_rows(), Response::to_frame, Response::from_frame),
            12,
            "one row per Response variant"
        );
    }

    #[test]
    fn hello_round_trips() {
        let cmd = Command::Hello;
        assert_eq!(Command::from_frame(&cmd.to_frame()).unwrap(), cmd);
    }

    #[test]
    fn busy_response_round_trips() {
        let r = Response::Busy {
            retry_after_us: 50_000,
        };
        assert_eq!(Response::from_frame(&r.to_frame()).unwrap(), r);
        assert!(r.to_frame().kind >= 0x80);
    }

    #[test]
    fn resync_error_code_round_trips() {
        let r = Response::Error {
            code: ErrorCode::Resync,
            message: "skipped 12 byte(s) before the first frame".to_string(),
        };
        assert_eq!(Response::from_frame(&r.to_frame()).unwrap(), r);
    }

    #[test]
    fn error_response_round_trips() {
        let r = Response::Error {
            code: ErrorCode::UnknownSession,
            message: "no session 7".to_string(),
        };
        assert_eq!(Response::from_frame(&r.to_frame()).unwrap(), r);
    }

    #[test]
    fn open_round_trips_with_config() {
        let mut req = OpenRequest::new("HPP", 500, 4, 31);
        req.config = Some(SimConfig::paper(9).with_trace());
        req.policy = Some(RecoveryPolicy::unbounded().with_max_passes(3));
        req.deadline_us = Some(Micros::from_secs(1.5));
        req.progress_every = Some(16);
        let cmd = Command::Open(req);
        assert_eq!(Command::from_frame(&cmd.to_frame()).unwrap(), cmd);
    }

    #[test]
    fn command_kinds_stay_disjoint_from_response_kinds() {
        for (cmd, kind, _) in command_rows() {
            assert!(kind < 0x80, "{cmd:?} kind {kind:#04x} must be < 0x80");
        }
        for (resp, kind, _) in response_rows() {
            assert!(kind >= 0x80, "{resp:?} kind {kind:#04x} must be >= 0x80");
        }
    }

    #[test]
    fn unknown_kind_is_a_typed_error() {
        let frame = Frame::new(0x55, b"{}".to_vec());
        assert!(matches!(
            Command::from_frame(&frame),
            Err(FrameError::UnknownKind(0x55))
        ));
        let frame = Frame::new(0xF0, b"{}".to_vec());
        assert!(matches!(
            Response::from_frame(&frame),
            Err(FrameError::UnknownKind(0xF0))
        ));
    }

    #[test]
    fn non_json_payload_is_a_typed_error() {
        let frame = Frame::new(0x03, b"not json".to_vec());
        assert!(matches!(
            Command::from_frame(&frame),
            Err(FrameError::Payload(_))
        ));
        let frame = Frame::new(0x03, vec![0xFF, 0xFE]);
        assert!(matches!(
            Command::from_frame(&frame),
            Err(FrameError::Payload(_))
        ));
    }

    #[test]
    fn open_deadline_is_whole_nanoseconds() {
        let open = |deadline: &str| {
            let text = Command::Open(OpenRequest::new("HPP", 8, 1, 1))
                .to_frame()
                .payload;
            let text = String::from_utf8(text).unwrap().replace(
                r#""deadline_us":null"#,
                &format!(r#""deadline_us":{deadline}"#),
            );
            Command::from_frame(&Frame::new(0x02, text.into_bytes()))
        };
        match open("1500000.125") {
            Ok(Command::Open(req)) => {
                assert_eq!(req.deadline_us, Some(Micros::from_ns(1_500_000_125)));
            }
            other => panic!("expected Open, got {other:?}"),
        }
        for (deadline, why) in [
            ("-1", "negative"),
            ("-0.5", "negative"),
            ("1.2345", "more than three fraction digits"),
        ] {
            match open(deadline) {
                Err(FrameError::Payload(e)) => assert!(e.0.contains(why), "{deadline}: {e}"),
                other => panic!("{deadline}: expected a payload error, got {other:?}"),
            }
        }
    }
}
