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
//! metrics (Prometheus text or delta-JSONL) and postmortem flight
//! bundles.

use rfid_protocols::RecoveryPolicy;
use rfid_system::{FaultModel, FromJson, Json, SimConfig, ToJson};

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
    /// Sim-time deadline in µs on the C1G2 clock.
    pub deadline_us: Option<f64>,
    /// Emit a [`Response::Progress`] frame every this many driver steps
    /// while running (deterministic: counted in steps, not host time).
    pub progress_every: Option<u64>,
    /// Record postmortem flight bundles for non-complete ends.
    pub flight: bool,
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
            flight: false,
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
    flight,
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

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Version/identity handshake.
    Hello,
    /// Open an inventory session.
    Open(OpenRequest),
    /// Drive a session forward; `max_steps: None` runs to the end.
    Run {
        /// Session id from [`Response::Opened`].
        session: u64,
        /// Driver-step budget for this call (`None` = unbounded).
        max_steps: Option<u64>,
    },
    /// Serialize the session at its current step boundary.
    Checkpoint {
        /// Session id.
        session: u64,
    },
    /// Rebuild a session from a [`Response::Snapshot`] document.
    Resume {
        /// The snapshot JSON.
        snapshot: Json,
    },
    /// Swap the session's fault model mid-flight.
    Inject {
        /// Session id.
        session: u64,
        /// The replacement fault model.
        fault: FaultModel,
    },
    /// Fetch session metrics.
    Metrics {
        /// Session id.
        session: u64,
        /// `false` = full Prometheus text, `true` = delta-JSONL since the
        /// session's last delta fetch.
        delta: bool,
    },
    /// Fetch the session's most recent postmortem flight bundle.
    Flight {
        /// Session id.
        session: u64,
    },
    /// Discard a session.
    Close {
        /// Session id.
        session: u64,
    },
    /// Ask the daemon to stop accepting and drain.
    Shutdown,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake reply.
    HelloOk {
        /// The wire version the server speaks.
        version: u8,
        /// Server identity string.
        server: String,
    },
    /// A session was opened (or resumed).
    Opened {
        /// The new session id (unique per connection).
        session: u64,
    },
    /// Streamed progress during [`Command::Run`].
    Progress {
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
    Done {
        /// Session id.
        session: u64,
        /// How it ended.
        outcome: SessionOutcome,
    },
    /// The step budget of [`Command::Run`] ran out with the session still
    /// live (checkpointable).
    Paused {
        /// Session id.
        session: u64,
        /// Driver steps taken in the current pass so far.
        steps: u64,
    },
    /// A checkpoint document.
    Snapshot {
        /// Session id.
        session: u64,
        /// The [`rfid_protocols::Session::snapshot`] JSON.
        snapshot: Json,
    },
    /// Prometheus text exposition of the session's metrics.
    MetricsText {
        /// Session id.
        session: u64,
        /// The exposition body.
        text: String,
    },
    /// Delta-JSONL of metrics changed since the last delta fetch.
    MetricsDelta {
        /// Session id.
        session: u64,
        /// The delta lines; `None` when nothing changed.
        jsonl: Option<String>,
    },
    /// The session's most recent flight bundle.
    FlightInfo {
        /// Session id.
        session: u64,
        /// The parsed bundle; `None` if none was dumped.
        bundle: Option<Json>,
    },
    /// The session was discarded.
    Closed {
        /// Session id.
        session: u64,
    },
    /// The daemon acknowledged [`Command::Shutdown`].
    ShuttingDown,
    /// The fleet is at its admission or in-flight budget; the command was
    /// shed, not failed — retry after the suggested delay.
    Busy {
        /// Suggested client backoff before retrying, in microseconds.
        retry_after_us: u64,
    },
    /// The previous command failed.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// Frame kind bytes. Commands < 0x80, responses >= 0x80.
const K_HELLO: u8 = 0x01;
const K_OPEN: u8 = 0x02;
const K_RUN: u8 = 0x03;
const K_CHECKPOINT: u8 = 0x04;
const K_RESUME: u8 = 0x05;
const K_INJECT: u8 = 0x06;
const K_METRICS: u8 = 0x07;
const K_FLIGHT: u8 = 0x08;
const K_CLOSE: u8 = 0x09;
const K_SHUTDOWN: u8 = 0x0A;

const K_HELLO_OK: u8 = 0x81;
const K_OPENED: u8 = 0x82;
const K_PROGRESS: u8 = 0x83;
const K_DONE: u8 = 0x84;
const K_PAUSED: u8 = 0x85;
const K_SNAPSHOT: u8 = 0x86;
const K_METRICS_TEXT: u8 = 0x87;
const K_METRICS_DELTA: u8 = 0x88;
const K_FLIGHT_INFO: u8 = 0x89;
const K_CLOSED: u8 = 0x8A;
const K_SHUTTING_DOWN: u8 = 0x8B;
const K_BUSY: u8 = 0x8C;
const K_ERROR: u8 = 0x8F;

fn obj(fields: Vec<(&str, Json)>) -> Vec<u8> {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
    .to_string()
    .into_bytes()
}

fn parse_payload(frame: &Frame) -> Result<Json, FrameError> {
    let text = std::str::from_utf8(&frame.payload).map_err(|_| {
        FrameError::Payload(rfid_system::JsonError("payload is not UTF-8".to_string()))
    })?;
    Json::parse(text).map_err(FrameError::Payload)
}

fn field<T: rfid_system::json::FromJson>(doc: &Json, key: &str) -> Result<T, FrameError> {
    doc.field(key).map_err(FrameError::Payload)
}

impl Command {
    /// Serializes the command into a frame.
    pub fn to_frame(&self) -> Frame {
        match self {
            Command::Hello => Frame::new(K_HELLO, obj(vec![])),
            Command::Open(req) => Frame::new(K_OPEN, req.to_json().to_string().into_bytes()),
            Command::Run { session, max_steps } => Frame::new(
                K_RUN,
                obj(vec![
                    ("session", session.to_json()),
                    ("max_steps", max_steps.to_json()),
                ]),
            ),
            Command::Checkpoint { session } => {
                Frame::new(K_CHECKPOINT, obj(vec![("session", session.to_json())]))
            }
            Command::Resume { snapshot } => {
                Frame::new(K_RESUME, obj(vec![("snapshot", snapshot.clone())]))
            }
            Command::Inject { session, fault } => Frame::new(
                K_INJECT,
                obj(vec![
                    ("session", session.to_json()),
                    ("fault", fault.to_json()),
                ]),
            ),
            Command::Metrics { session, delta } => Frame::new(
                K_METRICS,
                obj(vec![
                    ("session", session.to_json()),
                    ("delta", delta.to_json()),
                ]),
            ),
            Command::Flight { session } => {
                Frame::new(K_FLIGHT, obj(vec![("session", session.to_json())]))
            }
            Command::Close { session } => {
                Frame::new(K_CLOSE, obj(vec![("session", session.to_json())]))
            }
            Command::Shutdown => Frame::new(K_SHUTDOWN, obj(vec![])),
        }
    }

    /// Decodes a command from a frame. Unknown kinds and malformed
    /// payloads produce typed [`FrameError`]s.
    pub fn from_frame(frame: &Frame) -> Result<Command, FrameError> {
        let doc = parse_payload(frame)?;
        match frame.kind {
            K_HELLO => Ok(Command::Hello),
            K_OPEN => Ok(Command::Open(
                OpenRequest::from_json(&doc).map_err(FrameError::Payload)?,
            )),
            K_RUN => Ok(Command::Run {
                session: field(&doc, "session")?,
                max_steps: field(&doc, "max_steps")?,
            }),
            K_CHECKPOINT => Ok(Command::Checkpoint {
                session: field(&doc, "session")?,
            }),
            K_RESUME => Ok(Command::Resume {
                snapshot: field(&doc, "snapshot")?,
            }),
            K_INJECT => Ok(Command::Inject {
                session: field(&doc, "session")?,
                fault: field(&doc, "fault")?,
            }),
            K_METRICS => Ok(Command::Metrics {
                session: field(&doc, "session")?,
                delta: field(&doc, "delta")?,
            }),
            K_FLIGHT => Ok(Command::Flight {
                session: field(&doc, "session")?,
            }),
            K_CLOSE => Ok(Command::Close {
                session: field(&doc, "session")?,
            }),
            K_SHUTDOWN => Ok(Command::Shutdown),
            other => Err(FrameError::UnknownKind(other)),
        }
    }
}

impl Response {
    /// Serializes the response into a frame.
    pub fn to_frame(&self) -> Frame {
        match self {
            Response::HelloOk { version, server } => Frame::new(
                K_HELLO_OK,
                obj(vec![
                    ("version", version.to_json()),
                    ("server", server.to_json()),
                ]),
            ),
            Response::Opened { session } => {
                Frame::new(K_OPENED, obj(vec![("session", session.to_json())]))
            }
            Response::Progress {
                session,
                steps,
                polls,
                rounds,
                clock_us,
            } => Frame::new(
                K_PROGRESS,
                obj(vec![
                    ("session", session.to_json()),
                    ("steps", steps.to_json()),
                    ("polls", polls.to_json()),
                    ("rounds", rounds.to_json()),
                    ("clock_us", clock_us.to_json()),
                ]),
            ),
            Response::Done { session, outcome } => Frame::new(
                K_DONE,
                obj(vec![
                    ("session", session.to_json()),
                    ("outcome", outcome.to_json()),
                ]),
            ),
            Response::Paused { session, steps } => Frame::new(
                K_PAUSED,
                obj(vec![
                    ("session", session.to_json()),
                    ("steps", steps.to_json()),
                ]),
            ),
            Response::Snapshot { session, snapshot } => Frame::new(
                K_SNAPSHOT,
                obj(vec![
                    ("session", session.to_json()),
                    ("snapshot", snapshot.clone()),
                ]),
            ),
            Response::MetricsText { session, text } => Frame::new(
                K_METRICS_TEXT,
                obj(vec![
                    ("session", session.to_json()),
                    ("text", text.to_json()),
                ]),
            ),
            Response::MetricsDelta { session, jsonl } => Frame::new(
                K_METRICS_DELTA,
                obj(vec![
                    ("session", session.to_json()),
                    ("jsonl", jsonl.to_json()),
                ]),
            ),
            Response::FlightInfo { session, bundle } => Frame::new(
                K_FLIGHT_INFO,
                obj(vec![
                    ("session", session.to_json()),
                    ("bundle", bundle.to_json()),
                ]),
            ),
            Response::Closed { session } => {
                Frame::new(K_CLOSED, obj(vec![("session", session.to_json())]))
            }
            Response::ShuttingDown => Frame::new(K_SHUTTING_DOWN, obj(vec![])),
            Response::Busy { retry_after_us } => Frame::new(
                K_BUSY,
                obj(vec![("retry_after_us", retry_after_us.to_json())]),
            ),
            Response::Error { code, message } => Frame::new(
                K_ERROR,
                obj(vec![
                    ("code", code.to_json()),
                    ("message", message.to_json()),
                ]),
            ),
        }
    }

    /// Decodes a response from a frame.
    pub fn from_frame(frame: &Frame) -> Result<Response, FrameError> {
        let doc = parse_payload(frame)?;
        match frame.kind {
            K_HELLO_OK => Ok(Response::HelloOk {
                version: field(&doc, "version")?,
                server: field(&doc, "server")?,
            }),
            K_OPENED => Ok(Response::Opened {
                session: field(&doc, "session")?,
            }),
            K_PROGRESS => Ok(Response::Progress {
                session: field(&doc, "session")?,
                steps: field(&doc, "steps")?,
                polls: field(&doc, "polls")?,
                rounds: field(&doc, "rounds")?,
                clock_us: field(&doc, "clock_us")?,
            }),
            K_DONE => Ok(Response::Done {
                session: field(&doc, "session")?,
                outcome: field(&doc, "outcome")?,
            }),
            K_PAUSED => Ok(Response::Paused {
                session: field(&doc, "session")?,
                steps: field(&doc, "steps")?,
            }),
            K_SNAPSHOT => Ok(Response::Snapshot {
                session: field(&doc, "session")?,
                snapshot: field(&doc, "snapshot")?,
            }),
            K_METRICS_TEXT => Ok(Response::MetricsText {
                session: field(&doc, "session")?,
                text: field(&doc, "text")?,
            }),
            K_METRICS_DELTA => Ok(Response::MetricsDelta {
                session: field(&doc, "session")?,
                jsonl: field(&doc, "jsonl")?,
            }),
            K_FLIGHT_INFO => Ok(Response::FlightInfo {
                session: field(&doc, "session")?,
                bundle: field(&doc, "bundle")?,
            }),
            K_CLOSED => Ok(Response::Closed {
                session: field(&doc, "session")?,
            }),
            K_SHUTTING_DOWN => Ok(Response::ShuttingDown),
            K_BUSY => Ok(Response::Busy {
                retry_after_us: field(&doc, "retry_after_us")?,
            }),
            K_ERROR => Ok(Response::Error {
                code: field(&doc, "code")?,
                message: field(&doc, "message")?,
            }),
            other => Err(FrameError::UnknownKind(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_round_trips() {
        let cmd = Command::Hello;
        assert_eq!(Command::from_frame(&cmd.to_frame()).unwrap(), cmd);
    }

    #[test]
    fn open_round_trips_with_config() {
        let mut req = OpenRequest::new("HPP", 500, 4, 31);
        req.config = Some(SimConfig::paper(9).with_trace());
        req.policy = Some(RecoveryPolicy::unbounded().with_max_passes(3));
        req.deadline_us = Some(1.5e6);
        req.progress_every = Some(16);
        req.flight = true;
        let cmd = Command::Open(req);
        assert_eq!(Command::from_frame(&cmd.to_frame()).unwrap(), cmd);
    }

    #[test]
    fn command_kinds_stay_disjoint_from_response_kinds() {
        let cmds = [
            Command::Hello.to_frame().kind,
            Command::Shutdown.to_frame().kind,
            Command::Run {
                session: 1,
                max_steps: None,
            }
            .to_frame()
            .kind,
        ];
        for k in cmds {
            assert!(k < 0x80, "command kind {k:#04x} must be < 0x80");
        }
        assert!(Response::ShuttingDown.to_frame().kind >= 0x80);
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
}
