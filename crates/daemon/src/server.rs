//! The TCP daemon: hundreds of virtual readers over `std::net`.
//!
//! [`Daemon`] binds a `TcpListener`, runs one accept loop over it, and
//! gives every accepted connection its own scoped handler thread running
//! [`serve_connection`] over a fresh [`Service`]. Everything lives inside
//! one `std::thread::scope`, so [`Daemon::run`] returns only after every
//! handler has drained — no detached threads, no leaked sessions.
//!
//! Every connection's sessions are admitted through one shared
//! [`Supervisor`] (DESIGN.md §16): admission budgets shed load with
//! typed `Busy` responses; a connection that dies — handler panic,
//! poisoned byte stream, vanished client — has its unfinished sessions
//! resurrected from their supervisor recovery points; and shutdown is a
//! *drain*, depositing one final checkpoint per live session before the
//! listener closes. Handler panics are caught per-connection
//! (`catch_unwind`), so a crashing session never takes the fleet down.
//!
//! Shutdown is cooperative: the listener is non-blocking and every
//! connection wears a short read timeout, so all threads observe the
//! shared stop flag within one tick. The flag is raised by a wire
//! `Shutdown` command, or externally through [`Daemon::stop_handle`].

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rfid_wire::StreamTransport;

use crate::service::{serve_connection, Service};
use crate::supervisor::{FleetLimits, KillPoint, KillSwitch, Supervisor};

/// How long the accept loop sleeps when idle, and how long connection reads
/// block before re-checking the stop flag.
const TICK: Duration = Duration::from_millis(25);

/// A TCP server for the wire protocol.
pub struct Daemon {
    listener: TcpListener,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    supervisor: Arc<Supervisor>,
    supervise_every: u64,
    kill_switch: Option<Arc<KillSwitch>>,
}

impl Daemon {
    /// Binds `addr` (use port 0 for an OS-assigned port) with an
    /// unlimited (never-shedding) supervisor.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        Ok(Daemon {
            listener,
            local_addr,
            stop: Arc::new(AtomicBool::new(false)),
            supervisor: Arc::new(Supervisor::unlimited()),
            supervise_every: 0,
            kill_switch: None,
        })
    }

    /// Replaces the supervisor with one enforcing `limits` (admission
    /// control / shedding).
    pub fn with_limits(mut self, limits: FleetLimits) -> Daemon {
        self.supervisor = Arc::new(Supervisor::new(limits));
        self
    }

    /// Deposits a supervisor checkpoint every `steps` driver steps
    /// during served runs.
    pub fn with_supervise_every(mut self, steps: u64) -> Daemon {
        self.supervise_every = steps;
        self
    }

    /// Arms a fire-once chaos kill point: the first served run to pass
    /// `after_steps` steps panics its handler thread mid-inventory.
    pub fn with_kill_after(mut self, after_steps: u64) -> Daemon {
        self.kill_switch = Some(Arc::new(KillSwitch::new(after_steps)));
        self
    }

    /// The shared fleet supervisor (counters, resurrection records,
    /// drained checkpoints).
    pub fn supervisor(&self) -> Arc<Supervisor> {
        Arc::clone(&self.supervisor)
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that stops the daemon when set to `true` — from a ctrl-c
    /// handler, a test, or another thread.
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Serves until the stop flag rises (wire `Shutdown` or
    /// [`Daemon::stop_handle`]), then drains every live connection and
    /// returns. Connection-level failures are contained: a handler that
    /// hits a hard I/O error or panics drops its connection — and hands
    /// its orphaned sessions to the supervisor — never the daemon.
    pub fn run(&self) -> std::io::Result<()> {
        std::thread::scope(|scope| {
            while !self.stop.load(Ordering::Relaxed) {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        scope.spawn(move || self.handle(stream));
                    }
                    Err(_) => std::thread::sleep(TICK),
                }
            }
        });
        Ok(())
    }

    fn handle(&self, stream: TcpStream) {
        // The read timeout is what lets this thread notice `stop` while
        // the peer is idle; serve_connection treats WouldBlock/TimedOut
        // as ticks.
        let _ = stream.set_read_timeout(Some(TICK));
        let _ = stream.set_nodelay(true);
        let stop = &self.stop;
        let mut transport = StreamTransport::new(stream);
        let mut service = Service::new()
            .with_supervisor(Arc::clone(&self.supervisor))
            .with_supervise_every(self.supervise_every);
        if let Some(switch) = &self.kill_switch {
            service = service.with_kill_switch(Arc::clone(switch));
        }
        // Contain handler panics to this connection: the session table
        // survives the unwind, which is exactly what lets the supervisor
        // learn which sessions were orphaned.
        let result = catch_unwind(AssertUnwindSafe(|| {
            serve_connection(&mut transport, &mut service, stop)
        }));
        if service.shutdown_requested() {
            stop.store(true, Ordering::Relaxed);
        }
        match result {
            Ok(Ok(())) if stop.load(Ordering::Relaxed) => {
                // Clean stop: drain — checkpoint every live session into
                // the supervisor before the listener closes.
                service.drain();
            }
            ended => {
                if let Err(payload) = &ended {
                    self.supervisor.note_panic(payload.is::<KillPoint>());
                }
                // The peer hung up, a poisoned byte stream tore the
                // connection down, or the handler panicked: the open
                // sessions are orphans now, and the supervisor finishes
                // their work.
                self.supervisor.connection_lost(&service.orphan_gids());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daemon_binds_port_zero_and_stops() {
        let daemon = Daemon::bind("127.0.0.1:0").unwrap();
        assert_ne!(daemon.local_addr().port(), 0);
        let stop = daemon.stop_handle();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            stop.store(true, Ordering::Relaxed);
        });
        daemon.run().unwrap();
        t.join().unwrap();
    }
}
