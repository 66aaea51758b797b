//! A typed client over any [`Transport`].
//!
//! [`DaemonClient`] wraps the request/response choreography — send one
//! command, read frames until the terminal response, surface server-side
//! [`ErrorCode`]s as typed errors — so callers (the CLI, the bench
//! harness, the bit-identity gates) never touch raw frames. The same
//! client drives a TCP socket or a loopback pipe; which one is a
//! constructor choice, nothing more.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use rfid_system::Json;
use rfid_wire::{
    Command, ErrorCode, OpenRequest, Response, SessionOutcome, StreamTransport, Transport,
    WireError,
};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// The transport or codec failed.
    Wire(WireError),
    /// The server answered with a typed error.
    Server {
        /// The server's error category.
        code: ErrorCode,
        /// The server's human-readable detail.
        message: String,
    },
    /// The server shed the request under admission control.
    Busy {
        /// Backoff the server suggested, in microseconds.
        retry_after_us: u64,
    },
    /// No response arrived within the configured verb timeout.
    TimedOut,
    /// The server sent a response that does not fit the pending command.
    Unexpected(String),
    /// The server closed the connection mid-exchange.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code:?}: {message}")
            }
            ClientError::Busy { retry_after_us } => {
                write!(f, "server busy; retry after {retry_after_us}µs")
            }
            ClientError::TimedOut => write!(f, "no response within the verb timeout"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
            ClientError::Closed => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

/// How a [`DaemonClient::run`] call ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunEnd {
    /// The session finished; the outcome carries report and digest.
    Done(SessionOutcome),
    /// The step budget ran out with the session still live.
    Paused {
        /// Driver steps taken in the current pass so far.
        steps: u64,
    },
}

/// How often a timeout-armed TCP client wakes from a blocked read to
/// check its verb deadline.
const READ_TICK: Duration = Duration::from_millis(10);

/// A typed connection to a daemon.
pub struct DaemonClient<T> {
    transport: T,
    /// Give up on an exchange after this much response silence. Needs a
    /// transport whose blocked reads tick (`WouldBlock`/`TimedOut`), as
    /// [`DaemonClient::connect_with_timeout`] arranges for TCP; a
    /// loopback pipe blocks indefinitely and never observes it.
    verb_timeout: Option<Duration>,
}

impl DaemonClient<StreamTransport<TcpStream>> {
    /// Connects over TCP.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(DaemonClient::new(StreamTransport::new(stream)))
    }

    /// Connects over TCP with a per-exchange response timeout: any verb
    /// waiting longer than `verb_timeout` for the next response frame
    /// fails with [`ClientError::TimedOut`] instead of hanging. A `Run`
    /// streaming progress frames stays alive as long as frames keep
    /// arriving — the clock measures silence, not total verb duration.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        verb_timeout: Duration,
    ) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(
            verb_timeout.clamp(Duration::from_millis(1), READ_TICK),
        ))?;
        Ok(DaemonClient::new(StreamTransport::new(stream)).with_verb_timeout(verb_timeout))
    }
}

impl<T: Transport> DaemonClient<T> {
    /// Wraps an already-connected transport.
    pub fn new(transport: T) -> Self {
        DaemonClient {
            transport,
            verb_timeout: None,
        }
    }

    /// Arms the per-exchange response timeout. The transport's blocked
    /// reads must return `WouldBlock`/`TimedOut` ticks for the deadline
    /// to be observed.
    pub fn with_verb_timeout(mut self, verb_timeout: Duration) -> Self {
        self.verb_timeout = Some(verb_timeout);
        self
    }

    /// The underlying transport (tests use this to inject raw bytes).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    fn request(&mut self, cmd: &Command) -> Result<Response, ClientError> {
        self.transport.send(&cmd.to_frame())?;
        self.next_response()
    }

    fn next_response(&mut self) -> Result<Response, ClientError> {
        let waiting_since = Instant::now();
        loop {
            match self.transport.recv() {
                Ok(None) => return Err(ClientError::Closed),
                Ok(Some(frame)) => {
                    let response =
                        Response::from_frame(&frame).map_err(|e| ClientError::Wire(e.into()))?;
                    return match response {
                        Response::Error { code, message } => {
                            Err(ClientError::Server { code, message })
                        }
                        Response::Busy { retry_after_us } => {
                            Err(ClientError::Busy { retry_after_us })
                        }
                        other => Ok(other),
                    };
                }
                Err(WireError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    match self.verb_timeout {
                        Some(limit) if waiting_since.elapsed() >= limit => {
                            return Err(ClientError::TimedOut)
                        }
                        _ => {}
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Handshake: returns the server's wire version and identity.
    pub fn hello(&mut self) -> Result<(u8, String), ClientError> {
        match self.request(&Command::Hello)? {
            Response::HelloOk { version, server } => Ok((version, server)),
            other => Err(unexpected(&other)),
        }
    }

    /// Opens a session, returning its id.
    pub fn open(&mut self, req: OpenRequest) -> Result<u64, ClientError> {
        match self.request(&Command::Open(req))? {
            Response::Opened { session } => Ok(session),
            other => Err(unexpected(&other)),
        }
    }

    /// Runs a session, streaming progress frames into `on_progress`
    /// (steps, polls, rounds, sim-clock µs) until `Done` or `Paused`.
    pub fn run(
        &mut self,
        session: u64,
        max_steps: Option<u64>,
        mut on_progress: impl FnMut(u64, u64, u64, f64),
    ) -> Result<RunEnd, ClientError> {
        self.transport
            .send(&Command::Run { session, max_steps }.to_frame())?;
        loop {
            match self.next_response()? {
                Response::Progress {
                    steps,
                    polls,
                    rounds,
                    clock_us,
                    ..
                } => on_progress(steps, polls, rounds, clock_us),
                Response::Done { outcome, .. } => return Ok(RunEnd::Done(outcome)),
                Response::Paused { steps, .. } => return Ok(RunEnd::Paused { steps }),
                other => return Err(unexpected(&other)),
            }
        }
    }

    /// Checkpoints a live session into a snapshot document.
    pub fn checkpoint(&mut self, session: u64) -> Result<Json, ClientError> {
        match self.request(&Command::Checkpoint { session })? {
            Response::Snapshot { snapshot, .. } => Ok(snapshot),
            other => Err(unexpected(&other)),
        }
    }

    /// Resumes a snapshot into a fresh session, returning the new id.
    pub fn resume(&mut self, snapshot: Json) -> Result<u64, ClientError> {
        match self.request(&Command::Resume { snapshot })? {
            Response::Opened { session } => Ok(session),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the session's metrics as Prometheus text.
    pub fn metrics_text(&mut self, session: u64) -> Result<String, ClientError> {
        match self.request(&Command::Metrics { session })? {
            Response::MetricsText { text, .. } => Ok(text),
            other => Err(unexpected(&other)),
        }
    }

    /// Discards a session.
    pub fn close(&mut self, session: u64) -> Result<(), ClientError> {
        match self.request(&Command::Close { session })? {
            Response::Closed { .. } => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the daemon to stop accepting and drain.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Command::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(response: &Response) -> ClientError {
    ClientError::Unexpected(format!("{response:?}"))
}
