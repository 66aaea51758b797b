//! Byte-stream transports carrying [`Frame`]s.
//!
//! [`Transport`] is the narrow seam between the codec and the world: the
//! daemon's connection loop, the client, and every test drive the same
//! trait whether the bytes cross a real [`std::net::TcpStream`] or the
//! in-memory [`loopback`](crate::loopback::loopback) pipe — which is what
//! makes the loopback-vs-TCP bit-identity gate meaningful.

use std::io::{Read, Write};

use crate::frame::{Decoder, Frame, FrameError};

/// Errors crossing a transport: I/O failures or codec violations.
#[derive(Debug)]
pub enum WireError {
    /// The underlying byte stream failed.
    Io(std::io::Error),
    /// The peer sent bytes that do not decode as a frame.
    Frame(FrameError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport i/o error: {e}"),
            WireError::Frame(e) => write!(f, "wire frame error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> WireError {
        WireError::Frame(e)
    }
}

/// A bidirectional frame pipe.
pub trait Transport {
    /// Sends one frame, flushing it onto the stream.
    fn send(&mut self, frame: &Frame) -> Result<(), WireError>;

    /// Receives the next frame. `Ok(None)` means the peer closed the
    /// stream cleanly (no partial frame buffered). Codec violations
    /// surface as [`WireError::Frame`] without tearing the stream down:
    /// the decoder resynchronizes and later frames are still delivered.
    fn recv(&mut self) -> Result<Option<Frame>, WireError>;
}

/// [`Transport`] over any `Read + Write` byte stream (TCP sockets, the
/// loopback [`Pipe`](crate::loopback::Pipe), unix sockets…).
#[derive(Debug)]
pub struct StreamTransport<S> {
    stream: S,
    decoder: Decoder,
    scratch: [u8; 4096],
    eof: bool,
}

impl<S: Read + Write> StreamTransport<S> {
    /// Wraps a byte stream.
    pub fn new(stream: S) -> StreamTransport<S> {
        StreamTransport {
            stream,
            decoder: Decoder::new(),
            scratch: [0u8; 4096],
            eof: false,
        }
    }

    /// The underlying stream — lets tests inject raw (hostile) bytes and
    /// the daemon set socket timeouts.
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.stream
    }
}

impl<S: Read + Write> Transport for StreamTransport<S> {
    fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        self.stream.write_all(&frame.encode())?;
        self.stream.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Option<Frame>, WireError> {
        loop {
            // Drain buffered bytes first so a read that delivered several
            // frames at once yields them all before touching the stream.
            match self.decoder.next() {
                Ok(Some(frame)) => return Ok(Some(frame)),
                Ok(None) => {}
                Err(e) => return Err(WireError::Frame(e)),
            }
            if self.eof {
                return if self.decoder.pending() == 0 {
                    Ok(None)
                } else {
                    // Bytes arrived but the frame never completed: the
                    // peer died mid-frame. Surface it as truncation once,
                    // then report clean EOF.
                    let have = self.decoder.pending();
                    self.decoder = Decoder::new();
                    Err(WireError::Frame(FrameError::Truncated { have }))
                };
            }
            match self.stream.read(&mut self.scratch) {
                Ok(0) => self.eof = true,
                Ok(n) => self.decoder.push(&self.scratch[..n]),
                Err(e) => return Err(WireError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::loopback;

    #[test]
    fn send_recv_round_trips_over_loopback() {
        let (mut a, mut b) = loopback();
        let frame = Frame::new(0x42, b"{\"x\":1}".to_vec());
        a.send(&frame).unwrap();
        let got = b.recv().unwrap().expect("frame");
        assert_eq!(got, frame);
    }

    #[test]
    fn clean_close_yields_none() {
        let (a, mut b) = loopback();
        drop(a);
        assert!(b.recv().unwrap().is_none());
    }

    #[test]
    fn mid_frame_close_is_truncation_then_eof() {
        let (mut a, mut b) = loopback();
        let bytes = Frame::new(0x01, vec![7; 32]).encode();
        use std::io::Write as _;
        a.get_mut().write_all(&bytes[..bytes.len() - 3]).unwrap();
        drop(a);
        match b.recv() {
            Err(WireError::Frame(FrameError::Truncated { have })) => assert!(have > 0),
            other => panic!("expected truncation, got {other:?}"),
        }
        assert!(b.recv().unwrap().is_none());
    }

    #[test]
    fn garbage_between_frames_errors_then_recovers() {
        let (mut a, mut b) = loopback();
        let f1 = Frame::new(0x01, b"{}".to_vec());
        let f2 = Frame::new(0x02, b"{}".to_vec());
        use std::io::Write as _;
        a.get_mut().write_all(&f1.encode()).unwrap();
        a.get_mut().write_all(&[0x00, 0x11, 0x22]).unwrap();
        a.get_mut().write_all(&f2.encode()).unwrap();
        drop(a);
        assert_eq!(b.recv().unwrap().unwrap(), f1);
        assert!(matches!(
            b.recv(),
            Err(WireError::Frame(FrameError::Garbage { .. }))
        ));
        assert_eq!(b.recv().unwrap().unwrap(), f2);
        assert!(b.recv().unwrap().is_none());
    }
}
