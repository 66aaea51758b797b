//! Checkpoint-based client-side resilience.
//!
//! [`ResilientClient`] wraps a [`DaemonClient`] factory and turns a
//! faulty link into a reliable one: verbs that fail with transient
//! errors are retried with capped exponential backoff and seeded jitter,
//! a dead or silent connection is transparently re-dialed, and a `Run`
//! is driven as a sequence of small *transactions* — run a chunk,
//! checkpoint, hold the snapshot client-side — so that after any mid-run
//! failure the client resumes from its last good checkpoint on a fresh
//! connection. Deterministic replay makes the recovery exact: the final
//! [`SessionOutcome`] (report JSON and FNV-1a trace digest) is
//! bit-identical to an unfaulted run, which the resilience gate pins.
//!
//! Error classification is the heart of it:
//!
//! * `Busy{retry_after_us}` — the server shed us under admission
//!   control; sleep the suggested backoff (plus jitter) and retry on the
//!   *same* connection.
//! * Typed `BadFrame`/`BadPayload`/`Resync` server errors — our command
//!   was corrupted in flight but framing recovered; re-send on the same
//!   connection.
//! * Transport errors, `TimedOut`, `Closed` — the connection is
//!   poisoned or gone; reconnect and resume from the last checkpoint.
//! * `UnknownProtocol`/`Rejected` and friends — permanent; surfaced
//!   immediately.
//!
//! Every retry and reconnect is counted in a [`MetricsRegistry`] under
//! the canonical [`wire_counters`] names so the fleet-wide exposition
//! can fold client-side effort into the resilience picture.

use std::net::SocketAddr;
use std::time::Duration;

use rfid_hash::Xoshiro256;
use rfid_obs::{wire_counters, MetricsRegistry};
use rfid_system::Json;
use rfid_wire::{ErrorCode, OpenRequest, SessionOutcome, StreamTransport};

use crate::client::{ClientError, DaemonClient, RunEnd};

/// Knobs for retry, backoff and checkpoint cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Per-exchange response timeout handed to the connection factory's
    /// clients (silence longer than this is a transient failure).
    pub verb_timeout: Duration,
    /// Consecutive failed recovery attempts before giving up. Progress
    /// (a completed chunk transaction) resets the count.
    pub(crate) max_attempts: u32,
    /// First backoff sleep, in microseconds; doubles per attempt.
    pub(crate) backoff_base_us: u64,
    /// Backoff ceiling, in microseconds.
    pub(crate) backoff_cap_us: u64,
    /// Driver steps per run-chunk transaction: after each chunk the
    /// client checkpoints and holds the snapshot as its recovery point.
    pub(crate) checkpoint_every: u64,
    /// Seed for backoff jitter (determinism of the *schedule*; results
    /// are bit-identical regardless).
    pub(crate) seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            verb_timeout: Duration::from_secs(2),
            max_attempts: 10,
            backoff_base_us: 500,
            backoff_cap_us: 100_000,
            checkpoint_every: 8,
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// Overrides the per-exchange response timeout.
    pub fn with_verb_timeout(mut self, verb_timeout: Duration) -> RetryPolicy {
        self.verb_timeout = verb_timeout;
        self
    }

    /// Overrides the checkpoint cadence (clamped to ≥ 1).
    pub fn with_checkpoint_every(mut self, steps: u64) -> RetryPolicy {
        self.checkpoint_every = steps.max(1);
        self
    }

    /// Overrides the backoff curve.
    pub fn with_backoff_us(mut self, base: u64, cap: u64) -> RetryPolicy {
        self.backoff_base_us = base;
        self.backoff_cap_us = cap.max(base);
        self
    }

    /// Overrides the give-up threshold.
    pub fn with_max_attempts(mut self, attempts: u32) -> RetryPolicy {
        self.max_attempts = attempts.max(1);
        self
    }
}

/// What `recover` decided to do about a failure.
enum Recovery {
    /// Retry on the existing connection after an optional sleep.
    SameConnection { sleep_us: u64 },
    /// Drop the connection, re-dial, resume from the last checkpoint.
    Reconnect,
}

/// A self-healing client: retries, reconnects, resumes from checkpoints.
pub struct ResilientClient<T, F> {
    factory: F,
    client: Option<DaemonClient<T>>,
    policy: RetryPolicy,
    rng: Xoshiro256,
    metrics: MetricsRegistry,
}

impl
    ResilientClient<
        StreamTransport<std::net::TcpStream>,
        Box<dyn FnMut() -> std::io::Result<DaemonClient<StreamTransport<std::net::TcpStream>>>>,
    >
{
    /// A resilient TCP client for `addr`, dialing fresh timeout-armed
    /// connections as needed.
    pub fn tcp(addr: SocketAddr, policy: RetryPolicy) -> Self {
        let verb_timeout = policy.verb_timeout;
        ResilientClient::new(
            Box::new(move || DaemonClient::connect_with_timeout(addr, verb_timeout)),
            policy,
        )
    }
}

impl<T, F> ResilientClient<T, F>
where
    T: rfid_wire::Transport,
    F: FnMut() -> std::io::Result<DaemonClient<T>>,
{
    /// Wraps a connection factory. The factory is invoked lazily on
    /// first use and again after every poisoned connection.
    pub fn new(factory: F, policy: RetryPolicy) -> Self {
        ResilientClient {
            factory,
            client: None,
            policy,
            rng: Xoshiro256::seed_from_u64(policy.seed),
            metrics: MetricsRegistry::default(),
        }
    }

    /// Total transient-failure retries so far.
    pub fn retries(&self) -> u64 {
        self.metrics.counter(wire_counters::WIRE_RETRIES)
    }

    /// Total re-dials so far.
    pub fn reconnects(&self) -> u64 {
        self.metrics.counter(wire_counters::WIRE_RECONNECTS)
    }

    /// Runs one session to completion, surviving transient chaos: opens
    /// (or re-opens from the last client-held checkpoint), drives the
    /// session in checkpointed chunk transactions, and returns the final
    /// outcome — bit-identical to an unfaulted run.
    pub fn run_to_done(&mut self, req: &OpenRequest) -> Result<SessionOutcome, ClientError> {
        let every = self.policy.checkpoint_every.max(1);
        let mut snapshot: Option<Json> = None;
        let mut session: Option<u64> = None;
        let mut attempt: u32 = 0;
        loop {
            match self.advance(req, every, &mut snapshot, &mut session, &mut attempt) {
                Ok(outcome) => return Ok(outcome),
                Err(e) => {
                    // Shedding is server-directed backpressure, not a
                    // link failure: it never counts toward giving up.
                    if !matches!(e, ClientError::Busy { .. }) {
                        attempt += 1;
                        if attempt >= self.policy.max_attempts {
                            return Err(e);
                        }
                    }
                    match self.recover(e)? {
                        Recovery::SameConnection { sleep_us } => {
                            // The server never started what it didn't
                            // ack; the session (if any) is untouched and
                            // the exchange can simply be re-sent.
                            self.metrics.inc(wire_counters::WIRE_RETRIES, 1);
                            sleep_us_with_jitter(sleep_us, self.jitter_us());
                        }
                        Recovery::Reconnect => {
                            // The connection state is unknowable; its
                            // sessions are orphaned (the supervisor will
                            // resurrect them server-side) and we resume
                            // our own thread of work from the last
                            // client-held checkpoint on a fresh dial.
                            self.client = None;
                            session = None;
                            self.metrics.inc(wire_counters::WIRE_RECONNECTS, 1);
                            sleep_us_with_jitter(self.backoff_us(attempt), self.jitter_us());
                        }
                    }
                }
            }
        }
    }

    /// One recovery-scoped slice of forward progress: ensure a
    /// connection and a session, then run chunk transactions until the
    /// session ends or something fails.
    fn advance(
        &mut self,
        req: &OpenRequest,
        every: u64,
        snapshot: &mut Option<Json>,
        session: &mut Option<u64>,
        attempt: &mut u32,
    ) -> Result<SessionOutcome, ClientError> {
        self.ensure_connected()?;
        let client = self.client.as_mut().expect("just connected");
        let sid = match *session {
            Some(sid) => sid,
            None => {
                let sid = match snapshot {
                    None => client.open(req.clone())?,
                    Some(snap) => client.resume(snap.clone())?,
                };
                *session = Some(sid);
                sid
            }
        };
        loop {
            match client.run(sid, Some(every), |_, _, _, _| {})? {
                RunEnd::Done(outcome) => return Ok(outcome),
                RunEnd::Paused { .. } => {
                    *snapshot = Some(client.checkpoint(sid)?);
                    // A full chunk transaction landed: the link works,
                    // so the give-up counter starts over.
                    *attempt = 0;
                }
            }
        }
    }

    fn ensure_connected(&mut self) -> Result<(), ClientError> {
        if self.client.is_none() {
            let client =
                (self.factory)().map_err(|e| ClientError::Wire(rfid_wire::WireError::Io(e)))?;
            self.client = Some(client);
        }
        Ok(())
    }

    /// Classifies a failure: sleep-and-resend, reconnect-and-resume, or
    /// permanent (handed back as `Err`).
    fn recover(&mut self, e: ClientError) -> Result<Recovery, ClientError> {
        match e {
            ClientError::Busy { retry_after_us } => Ok(Recovery::SameConnection {
                sleep_us: retry_after_us,
            }),
            ClientError::Server { code, .. } => match code {
                // Our command was corrupted in flight; the stream
                // resynchronized and the server is waiting.
                ErrorCode::BadFrame | ErrorCode::BadPayload | ErrorCode::Resync => {
                    Ok(Recovery::SameConnection { sleep_us: 0 })
                }
                // After a daemon-side crash the old ids are gone even if
                // the socket survived: start over from the checkpoint.
                ErrorCode::UnknownSession | ErrorCode::BadState => Ok(Recovery::Reconnect),
                ErrorCode::UnknownProtocol | ErrorCode::Rejected => Err(e),
            },
            // An out-of-phase response (e.g. a stale reply to a verb the
            // client gave up on, surfacing mid-conversation) means the
            // request/response stream is desynchronized: the connection
            // is poisoned, so drop it and resume from the checkpoint.
            ClientError::Wire(_)
            | ClientError::TimedOut
            | ClientError::Closed
            | ClientError::Unexpected(_) => Ok(Recovery::Reconnect),
        }
    }

    fn backoff_us(&self, attempt: u32) -> u64 {
        let doubled = self
            .policy
            .backoff_base_us
            .saturating_mul(1u64 << attempt.min(20));
        doubled.min(self.policy.backoff_cap_us)
    }

    fn jitter_us(&mut self) -> u64 {
        self.rng.below(self.policy.backoff_base_us.max(1))
    }
}

fn sleep_us_with_jitter(sleep_us: u64, jitter_us: u64) {
    let total = sleep_us.saturating_add(jitter_us);
    if total > 0 {
        std::thread::sleep(Duration::from_micros(total));
    }
}
