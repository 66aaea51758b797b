//! An in-memory duplex byte pipe.
//!
//! [`loopback`] returns two connected [`StreamTransport`]s whose bytes
//! never leave the process — the reference
//! [`Transport`](crate::Transport) implementation the TCP path is gated
//! against for bit-identity, and the fast substrate for codec fuzzing.
//! Semantics mirror a socket: reads block until data or EOF, dropping one
//! end EOFs the peer's reads and breaks its writes.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::{Arc, Condvar, Mutex};

use crate::transport::StreamTransport;

#[derive(Debug, Default)]
struct Channel {
    buf: VecDeque<u8>,
    closed: bool,
}

#[derive(Debug, Default)]
struct Shared {
    chan: Mutex<Channel>,
    ready: Condvar,
}

impl Shared {
    fn push(&self, bytes: &[u8]) -> std::io::Result<usize> {
        let mut chan = self.chan.lock().expect("loopback lock");
        if chan.closed {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "loopback peer closed",
            ));
        }
        chan.buf.extend(bytes);
        self.ready.notify_all();
        Ok(bytes.len())
    }

    fn pull(&self, out: &mut [u8]) -> std::io::Result<usize> {
        let mut chan = self.chan.lock().expect("loopback lock");
        loop {
            if !chan.buf.is_empty() {
                let n = out.len().min(chan.buf.len());
                for slot in out.iter_mut().take(n) {
                    *slot = chan.buf.pop_front().expect("non-empty");
                }
                return Ok(n);
            }
            if chan.closed {
                return Ok(0);
            }
            chan = self.ready.wait(chan).expect("loopback wait");
        }
    }

    fn close(&self) {
        let mut chan = self.chan.lock().expect("loopback lock");
        chan.closed = true;
        self.ready.notify_all();
    }
}

/// One end of an in-memory duplex byte pipe.
#[derive(Debug)]
pub struct Pipe {
    /// Bytes this end reads (the peer writes here).
    rx: Arc<Shared>,
    /// Bytes this end writes (the peer reads here).
    tx: Arc<Shared>,
}

impl Read for Pipe {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.rx.pull(buf)
    }
}

impl Write for Pipe {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.tx.push(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Drop for Pipe {
    fn drop(&mut self) {
        // EOF the peer's reads and fail its future writes.
        self.tx.close();
        self.rx.close();
    }
}

/// Two connected raw byte pipes — for wrappers (like the chaos stream)
/// that need the bare `Read + Write` ends without framing on top.
pub(crate) fn loopback_streams() -> (Pipe, Pipe) {
    let ab = Arc::new(Shared::default());
    let ba = Arc::new(Shared::default());
    let a = Pipe {
        rx: Arc::clone(&ba),
        tx: Arc::clone(&ab),
    };
    let b = Pipe { rx: ab, tx: ba };
    (a, b)
}

/// Two connected in-memory transports: what one end sends, the other
/// receives.
pub fn loopback() -> (StreamTransport<Pipe>, StreamTransport<Pipe>) {
    let (a, b) = loopback_streams();
    (StreamTransport::new(a), StreamTransport::new(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_cross_the_pipe_in_order() {
        let (mut a, mut b) = loopback();
        a.get_mut().write_all(b"hello").unwrap();
        a.get_mut().write_all(b" world").unwrap();
        let mut buf = [0u8; 16];
        let n = b.get_mut().read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello world");
    }

    #[test]
    fn drop_eofs_reader_and_breaks_writer() {
        let (a, mut b) = loopback();
        drop(a);
        let mut buf = [0u8; 4];
        assert_eq!(b.get_mut().read(&mut buf).unwrap(), 0);
        let err = b.get_mut().write_all(b"x").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn blocking_read_wakes_on_cross_thread_write() {
        let (mut a, mut b) = loopback();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 4];
            let n = b.get_mut().read(&mut buf).unwrap();
            buf[..n].to_vec()
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        a.get_mut().write_all(b"ping").unwrap();
        assert_eq!(t.join().unwrap(), b"ping");
    }
}
