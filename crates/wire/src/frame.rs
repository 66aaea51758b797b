//! Byte framing: `0xBB … 0x7E` frames with a CRC-16 integrity check.
//!
//! The layout follows the commercial UHF reader stacks the serving layer
//! is modelled on (a start byte, a type byte, an explicit length, a
//! checksum, an end byte), with two upgrades: a version byte so the
//! protocol can evolve, and the C1G2 CRC-16/CCITT from
//! [`rfid_c1g2::crc`] — the same generator that protects EPC backscatter
//! on air — instead of a bytewise checksum:
//!
//! ```text
//! frame := SOF(0xBB) ver(0x04) kind(1B) len(4B BE) payload(len B)
//!          crc16(2B BE)  EOF(0x7E)
//! ```
//!
//! The CRC covers `ver … payload` (everything between the delimiters and
//! the CRC itself). [`Decoder`] is an incremental, self-resynchronizing
//! parser: hostile bytes — garbage prefixes, truncations, flipped bits,
//! lying length fields — produce typed [`FrameError`]s, never panics, and
//! the decoder always makes progress (every error consumes at least one
//! byte), so a valid frame following any amount of damage is still
//! delivered.

use rfid_c1g2::crc::crc16;

/// Start-of-frame delimiter (matches the UHF reader convention).
pub(crate) const SOF: u8 = 0xBB;
/// End-of-frame delimiter.
pub(crate) const EOF: u8 = 0x7E;
/// The wire-protocol version this build speaks. Payload schemas may gain
/// fields within a version (unknown JSON keys are ignored); any change
/// that re-frames bytes or repurposes a kind bumps it.
pub const WIRE_VERSION: u8 = 4;
/// Upper bound on a frame payload (64 MiB): large enough for a checkpoint
/// snapshot of a million-tag session, small enough that a corrupt length
/// field cannot ask the decoder to buffer unbounded memory.
pub(crate) const MAX_PAYLOAD: usize = 64 << 20;

/// Fixed overhead around a payload: SOF + ver + kind + len + crc + EOF.
const OVERHEAD: usize = 10;
/// Bytes before the payload starts: SOF + ver + kind + len.
const HEADER: usize = 7;

/// One framed message: a kind byte and an opaque payload (the message
/// layer interprets it as JSON).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message kind (command kinds are `< 0x80`, responses `>= 0x80`).
    pub(crate) kind: u8,
    /// Payload bytes (UTF-8 JSON at the message layer).
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a frame.
    pub fn new(kind: u8, payload: Vec<u8>) -> Frame {
        Frame { kind, payload }
    }

    /// Serializes the frame to its on-wire bytes.
    ///
    /// # Panics
    /// Panics if the payload exceeds `MAX_PAYLOAD` — an encoder-side
    /// programming error, not a wire condition.
    pub fn encode(&self) -> Vec<u8> {
        assert!(
            self.payload.len() <= MAX_PAYLOAD,
            "frame payload of {} bytes exceeds MAX_PAYLOAD",
            self.payload.len()
        );
        let mut out = Vec::with_capacity(self.payload.len() + OVERHEAD);
        out.push(SOF);
        out.push(WIRE_VERSION);
        out.push(self.kind);
        out.extend_from_slice(&(self.payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.payload);
        let crc = crc16(&out[1..]);
        out.extend_from_slice(&crc.to_be_bytes());
        out.push(EOF);
        out
    }
}

/// Why a byte sequence failed to decode as a frame.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameError {
    /// Bytes before the next start-of-frame delimiter were discarded.
    Garbage {
        /// How many bytes were skipped.
        skipped: usize,
    },
    /// The version byte names a protocol this build does not speak.
    Version(u8),
    /// The length field exceeds `MAX_PAYLOAD`.
    Oversize(usize),
    /// The CRC-16 over `ver … payload` did not match.
    BadCrc {
        /// CRC computed over the received bytes.
        expected: u16,
        /// CRC carried by the frame.
        found: u16,
    },
    /// The byte after the CRC was not the end-of-frame delimiter.
    BadTerminator(u8),
    /// The stream ended mid-frame (`have` buffered bytes of an incomplete
    /// frame). Raised by transports at EOF, not by [`Decoder::next`].
    Truncated {
        /// Bytes of the incomplete frame that had arrived.
        have: usize,
    },
    /// The kind byte maps to no known command or response.
    UnknownKind(u8),
    /// The payload was not the JSON document the kind requires.
    Payload(rfid_system::JsonError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Garbage { skipped } => {
                write!(f, "skipped {skipped} byte(s) of garbage before a frame")
            }
            FrameError::Version(v) => write!(f, "unsupported wire version {v}"),
            FrameError::Oversize(len) => {
                write!(f, "length field claims {len} bytes (max {MAX_PAYLOAD})")
            }
            FrameError::BadCrc { expected, found } => {
                write!(
                    f,
                    "crc mismatch: computed {expected:#06x}, frame carries {found:#06x}"
                )
            }
            FrameError::BadTerminator(b) => {
                write!(f, "frame ends with {b:#04x}, not the 0x7E terminator")
            }
            FrameError::Truncated { have } => {
                write!(f, "stream ended mid-frame ({have} byte(s) buffered)")
            }
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            FrameError::Payload(e) => write!(f, "bad frame payload: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Incremental frame parser over an append-only byte stream.
///
/// Feed bytes with [`Decoder::push`] and drain frames with
/// [`Decoder::next`]. `Ok(None)` means "need more bytes"; errors are
/// per-call and recoverable — the decoder consumes the offending bytes
/// (at least one) and the next call resumes scanning for `SOF`. A
/// corrupt length field can therefore never skip past a later valid
/// frame: on any integrity failure only the candidate start byte is
/// consumed, and scanning rediscovers whatever follows.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    pos: usize,
}

impl Decoder {
    /// A decoder with an empty buffer.
    pub fn new() -> Decoder {
        Decoder::default()
    }

    /// Appends raw stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed (a nonzero value at stream EOF
    /// means the final frame was truncated).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Attempts to decode the next frame. `Ok(None)` = need more bytes.
    // Fallible and resumable, so not an `Iterator`; the name is the
    // decoder's public API.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Frame>, FrameError> {
        // Resynchronize: discard everything up to the next SOF, reporting
        // the skip as a typed error so callers can count/log it.
        let scan_from = self.pos;
        while self.pos < self.buf.len() && self.buf[self.pos] != SOF {
            self.pos += 1;
        }
        if self.pos > scan_from {
            let skipped = self.pos - scan_from;
            self.compact();
            return Err(FrameError::Garbage { skipped });
        }
        if self.pending() < HEADER {
            self.compact();
            return Ok(None);
        }
        let at = self.pos;
        let ver = self.buf[at + 1];
        let kind = self.buf[at + 2];
        let len = u32::from_be_bytes([
            self.buf[at + 3],
            self.buf[at + 4],
            self.buf[at + 5],
            self.buf[at + 6],
        ]) as usize;
        if ver != WIRE_VERSION {
            self.pos += 1;
            return Err(FrameError::Version(ver));
        }
        if len > MAX_PAYLOAD {
            self.pos += 1;
            return Err(FrameError::Oversize(len));
        }
        let total = len + OVERHEAD;
        if self.pending() < total {
            self.compact();
            return Ok(None);
        }
        let expected = crc16(&self.buf[at + 1..at + HEADER + len]);
        let found =
            u16::from_be_bytes([self.buf[at + HEADER + len], self.buf[at + HEADER + len + 1]]);
        if found != expected {
            self.pos += 1;
            return Err(FrameError::BadCrc { expected, found });
        }
        let term = self.buf[at + total - 1];
        if term != EOF {
            self.pos += 1;
            return Err(FrameError::BadTerminator(term));
        }
        let payload = self.buf[at + HEADER..at + HEADER + len].to_vec();
        self.pos = at + total;
        self.compact();
        Ok(Some(Frame { kind, payload }))
    }

    /// Drops consumed bytes once they dominate the buffer, keeping the
    /// decoder's memory proportional to the unconsumed tail.
    fn compact(&mut self) {
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let frame = Frame::new(0x42, b"{\"x\":1}".to_vec());
        let mut dec = Decoder::new();
        dec.push(&frame.encode());
        assert_eq!(dec.next().unwrap(), Some(frame));
        assert_eq!(dec.next().unwrap(), None);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn empty_payload_round_trips() {
        let frame = Frame::new(0x01, Vec::new());
        let bytes = frame.encode();
        assert_eq!(bytes.len(), 10);
        let mut dec = Decoder::new();
        dec.push(&bytes);
        assert_eq!(dec.next().unwrap(), Some(frame));
    }

    #[test]
    fn byte_at_a_time_feeding_works() {
        let frame = Frame::new(7, b"stream me".to_vec());
        let mut dec = Decoder::new();
        for &b in &frame.encode() {
            dec.push(&[b]);
        }
        assert_eq!(dec.next().unwrap(), Some(frame));
    }

    #[test]
    fn garbage_prefix_is_a_typed_error_then_recovered() {
        let frame = Frame::new(9, b"after the noise".to_vec());
        let mut dec = Decoder::new();
        dec.push(&[0x00, 0x11, 0x22]);
        dec.push(&frame.encode());
        assert_eq!(dec.next(), Err(FrameError::Garbage { skipped: 3 }));
        assert_eq!(dec.next().unwrap(), Some(frame));
    }

    #[test]
    fn crc_flip_is_caught_and_the_next_frame_survives() {
        let bad = Frame::new(1, b"corrupt me".to_vec());
        let good = Frame::new(2, b"intact".to_vec());
        let mut bytes = bad.encode();
        bytes[8] ^= 0x40; // flip a payload bit
        bytes.extend_from_slice(&good.encode());
        let mut dec = Decoder::new();
        dec.push(&bytes);
        let mut errors = 0;
        loop {
            match dec.next() {
                Ok(Some(frame)) => {
                    assert_eq!(frame, good);
                    break;
                }
                Ok(None) => panic!("good frame lost after corruption"),
                Err(_) => errors += 1,
            }
        }
        assert!(errors >= 1, "corruption must surface as typed errors");
    }

    #[test]
    fn lying_length_field_cannot_swallow_later_frames() {
        let bad = Frame::new(1, vec![0xAA; 4]);
        let good = Frame::new(2, b"still here".to_vec());
        let filler = Frame::new(3, vec![0x55; 24]);
        let mut bytes = bad.encode();
        // Inflate the length field so the corrupt frame claims the good
        // frame's bytes as its own payload. Until the stream delivers the
        // claimed extent the decoder must wait (`Ok(None)`), and once it
        // has, the CRC exposes the lie and scanning recovers both of the
        // swallowed frames.
        bytes[6] = 40;
        bytes.extend_from_slice(&good.encode());
        let mut dec = Decoder::new();
        dec.push(&bytes);
        assert_eq!(dec.next().unwrap(), None, "claimed extent not yet here");
        dec.push(&filler.encode());
        let mut recovered = Vec::new();
        for _ in 0..bytes.len() * 2 {
            match dec.next() {
                Ok(Some(frame)) => recovered.push(frame),
                Ok(None) => break,
                Err(_) => {}
            }
        }
        assert_eq!(
            recovered,
            vec![good, filler],
            "length-field lie must not eat the later frames"
        );
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = Frame::new(3, b"v1?".to_vec()).encode();
        bytes[1] = 3;
        let mut dec = Decoder::new();
        dec.push(&bytes);
        assert_eq!(dec.next(), Err(FrameError::Version(3)));
    }

    #[test]
    fn oversize_length_is_rejected_without_buffering() {
        let mut bytes = Frame::new(3, b"x".to_vec()).encode();
        bytes[3] = 0xFF; // len high byte -> ~4 GiB claim
        let mut dec = Decoder::new();
        dec.push(&bytes);
        assert!(matches!(dec.next(), Err(FrameError::Oversize(_))));
    }

    #[test]
    fn truncated_frame_reports_need_more() {
        let bytes = Frame::new(3, b"cut short".to_vec()).encode();
        let mut dec = Decoder::new();
        dec.push(&bytes[..bytes.len() - 3]);
        assert_eq!(dec.next().unwrap(), None);
        assert!(dec.pending() > 0);
        dec.push(&bytes[bytes.len() - 3..]);
        assert!(dec.next().unwrap().is_some());
    }
}
