//! Deterministic fault injection for byte streams: the chaos transport.
//!
//! A [`ChaosDirector`] owns a seeded fault plan ([`ChaosPlan`]) and wraps
//! any `Read + Write` stream in a [`ChaosStream`] that injects byte
//! flips and mid-write disconnects on the way through.
//! Fault decisions are drawn per *byte* from a [`Xoshiro256`] stream, so
//! the same plan applied to the same byte sequence injects the same
//! faults regardless of how the transport chunks its reads and writes.
//!
//! Bursts reuse the workspace's [`GilbertElliott`] two-state model (the
//! PR 2 uplink burst channel): while the chaos channel sits in the *bad*
//! state each byte is corrupted with `loss_bad` probability, clustering
//! corruption the way real interference does, instead of the memoryless
//! smear an i.i.d. flip rate produces.
//!
//! Every plan carries a finite `max_faults` budget shared across every
//! stream the director wraps — reconnects included, because resilience
//! soaks re-dial through the same director. Once the budget is spent the
//! wrapper is a pure pass-through, which is what makes "the link is
//! eventually usable" a theorem rather than a hope: a client that keeps
//! retrying is guaranteed a clean connection after at most `max_faults`
//! injected faults.
//!
//! Corruption is always *detected* corruption: every flipped byte lands
//! inside a CRC-16-protected frame, so the peer sees a typed
//! [`FrameError`](crate::FrameError), never silently wrong data.

use std::io::{Read, Write};
use std::sync::{Arc, Mutex};

use rfid_hash::Xoshiro256;
use rfid_system::GilbertElliott;

use crate::transport::StreamTransport;

/// A seeded chaos plan: which faults, how often, and the global budget.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Seed for the fault-decision RNG.
    pub(crate) seed: u64,
    /// Per-byte probability of flipping one bit (both directions).
    /// Ignored while a [`ChaosPlan::burst`] model is driving corruption.
    pub(crate) flip_rate: f64,
    /// Per-byte probability of cutting the connection mid-write: the
    /// bytes before the cut are delivered, the rest are lost, and every
    /// later operation on the stream fails with `BrokenPipe`.
    pub cut_rate: f64,
    /// Optional Gilbert–Elliott burst model: per byte the channel walks
    /// good↔bad and corrupts with the state's loss rate, replacing the
    /// flat [`ChaosPlan::flip_rate`].
    pub(crate) burst: Option<GilbertElliott>,
    /// Total faults (flips + cuts) the director may inject
    /// across every stream it wraps. Exhausted budget = clean link.
    pub(crate) max_faults: u64,
}

impl ChaosPlan {
    /// A quiet plan: no faults at all (every rate zero, zero budget).
    pub(crate) fn quiet(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            flip_rate: 0.0,
            cut_rate: 0.0,
            burst: None,
            max_faults: 0,
        }
    }

    /// A flip-only plan: corrupt roughly one byte in `1/rate`.
    pub fn flips(seed: u64, rate: f64, max_faults: u64) -> ChaosPlan {
        ChaosPlan {
            flip_rate: rate,
            max_faults,
            ..ChaosPlan::quiet(seed)
        }
    }

    /// A cut-only plan: sever connections mid-write.
    pub fn cuts(seed: u64, rate: f64, max_faults: u64) -> ChaosPlan {
        ChaosPlan {
            cut_rate: rate,
            max_faults,
            ..ChaosPlan::quiet(seed)
        }
    }

    /// Drives corruption from a Gilbert–Elliott burst model instead of
    /// the flat flip rate.
    pub fn with_burst(mut self, burst: GilbertElliott) -> ChaosPlan {
        self.burst = Some(burst);
        self
    }

    /// Validates every probability in the plan.
    pub(crate) fn try_validate(&self) -> Result<(), String> {
        for (rate, what) in [
            (self.flip_rate, "chaos flip_rate"),
            (self.cut_rate, "chaos cut_rate"),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{what} = {rate} is not a probability"));
            }
        }
        if let Some(burst) = &self.burst {
            burst.try_validate()?;
        }
        Ok(())
    }
}

/// What the director decided to do to one byte.
enum ByteFault {
    /// Deliver untouched.
    Pass,
    /// Flip the given bit.
    Flip(u8),
    /// Sever the connection before this byte.
    Cut,
}

/// The shared fault state: one RNG, one burst walk, one budget.
#[derive(Debug)]
struct ChaosCore {
    plan: ChaosPlan,
    rng: Xoshiro256,
    burst_bad: bool,
    injected: u64,
}

impl ChaosCore {
    fn budget_left(&self) -> bool {
        self.injected < self.plan.max_faults
    }

    /// One fault decision per byte. Advances the burst walk (when
    /// configured) even for untouched bytes so burst geometry does not
    /// depend on which bytes happened to be corrupted.
    fn byte_fault(&mut self, allow_cut: bool) -> ByteFault {
        if !self.budget_left() {
            return ByteFault::Pass;
        }
        if allow_cut && self.plan.cut_rate > 0.0 && self.rng.chance(self.plan.cut_rate) {
            self.injected += 1;
            return ByteFault::Cut;
        }
        let corrupt = match &self.plan.burst {
            Some(ge) => ge.attempt_lost(&mut self.burst_bad, &mut self.rng),
            None => self.plan.flip_rate > 0.0 && self.rng.chance(self.plan.flip_rate),
        };
        if corrupt {
            self.injected += 1;
            return ByteFault::Flip(1u8 << self.rng.below(8));
        }
        ByteFault::Pass
    }
}

/// Hands out fault-injecting stream wrappers that share one seeded fault
/// budget — reconnect through the same director and the chaos continues
/// where it left off (and eventually stops).
#[derive(Debug, Clone)]
pub struct ChaosDirector {
    core: Arc<Mutex<ChaosCore>>,
}

/// A [`StreamTransport`] whose underlying stream injects seeded faults —
/// the drop-in chaotic implementation of [`Transport`](crate::Transport).
pub(crate) type ChaosTransport<S> = StreamTransport<ChaosStream<S>>;

impl ChaosDirector {
    /// A director for `plan`.
    ///
    /// # Panics
    /// Panics if the plan fails `ChaosPlan::try_validate`.
    pub fn new(plan: ChaosPlan) -> ChaosDirector {
        if let Err(msg) = plan.try_validate() {
            panic!("{msg}");
        }
        let rng = Xoshiro256::seed_from_u64(plan.seed);
        ChaosDirector {
            core: Arc::new(Mutex::new(ChaosCore {
                plan,
                rng,
                burst_bad: false,
                injected: 0,
            })),
        }
    }

    /// Wraps a byte stream in the director's fault injector.
    pub(crate) fn wrap<S: Read + Write>(&self, stream: S) -> ChaosStream<S> {
        ChaosStream {
            inner: stream,
            core: Arc::clone(&self.core),
            dead: false,
        }
    }

    /// Wraps a byte stream directly into a framed `ChaosTransport`.
    pub fn transport<S: Read + Write>(&self, stream: S) -> ChaosTransport<S> {
        StreamTransport::new(self.wrap(stream))
    }

    /// Faults injected so far, across every wrapped stream.
    pub fn faults_injected(&self) -> u64 {
        self.core.lock().expect("chaos core lock").injected
    }
}

/// A `Read + Write` wrapper that injects the director's faults.
///
/// Write-path faults (flips, cuts) corrupt client→server bytes;
/// read-path faults corrupt server→client bytes. A cut delivers the
/// bytes preceding it, then fails this and every later operation with
/// `BrokenPipe` — the stream is dead, exactly like a socket whose peer
/// vanished mid-frame.
#[derive(Debug)]
pub struct ChaosStream<S> {
    inner: S,
    core: Arc<Mutex<ChaosCore>>,
    dead: bool,
}

impl<S> ChaosStream<S> {
    fn broken() -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::BrokenPipe, "chaos cut the connection")
    }
}

impl<S: Read> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(Self::broken());
        }
        let n = self.inner.read(buf)?;
        let mut core = self.core.lock().expect("chaos core lock");
        for (i, byte) in buf[..n].iter_mut().enumerate() {
            match core.byte_fault(true) {
                ByteFault::Pass => {}
                ByteFault::Flip(bit) => *byte ^= bit,
                ByteFault::Cut => {
                    // Deliver the prefix; the stream dies afterwards. A
                    // zero-byte prefix would read as clean EOF, so fail
                    // immediately instead.
                    self.dead = true;
                    if i == 0 {
                        return Err(Self::broken());
                    }
                    return Ok(i);
                }
            }
        }
        Ok(n)
    }
}

impl<S: Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(Self::broken());
        }
        let mut staged = Vec::with_capacity(buf.len());
        let mut cut = false;
        {
            let mut core = self.core.lock().expect("chaos core lock");
            for &byte in buf {
                match core.byte_fault(true) {
                    ByteFault::Pass => staged.push(byte),
                    ByteFault::Flip(bit) => staged.push(byte ^ bit),
                    ByteFault::Cut => {
                        cut = true;
                        break;
                    }
                }
            }
        }
        if !staged.is_empty() {
            self.inner.write_all(&staged)?;
        }
        if cut {
            self.dead = true;
            let _ = self.inner.flush();
            return Err(Self::broken());
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.dead {
            return Err(Self::broken());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::loopback::loopback_streams;
    use crate::transport::{Transport, WireError};

    /// An in-memory sink that records everything written to it.
    #[derive(Default)]
    struct Sink(Vec<u8>);
    impl Read for Sink {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            Ok(0)
        }
    }
    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn faulted_bytes(plan: ChaosPlan, payload: &[u8]) -> std::io::Result<Vec<u8>> {
        let director = ChaosDirector::new(plan);
        let mut stream = director.wrap(Sink::default());
        let result = stream.write_all(payload);
        result.map(|()| stream.inner.0)
    }

    #[test]
    fn same_seed_same_faults() {
        let payload: Vec<u8> = (0..=255).cycle().take(4096).collect();
        let a = faulted_bytes(ChaosPlan::flips(7, 0.01, 1_000), &payload).unwrap();
        let b = faulted_bytes(ChaosPlan::flips(7, 0.01, 1_000), &payload).unwrap();
        assert_eq!(a, b, "seeded chaos must be reproducible");
        assert_ne!(a, payload, "a 1% flip rate over 4 KiB must corrupt");
        let c = faulted_bytes(ChaosPlan::flips(8, 0.01, 1_000), &payload).unwrap();
        assert_ne!(a, c, "different seeds should fault differently");
    }

    #[test]
    fn chunking_does_not_change_the_fault_pattern() {
        let payload: Vec<u8> = (0..=255).cycle().take(2048).collect();
        let whole = faulted_bytes(ChaosPlan::flips(3, 0.02, 1_000), &payload).unwrap();
        let director = ChaosDirector::new(ChaosPlan::flips(3, 0.02, 1_000));
        let mut stream = director.wrap(Sink::default());
        for chunk in payload.chunks(17) {
            stream.write_all(chunk).unwrap();
        }
        assert_eq!(
            whole, stream.inner.0,
            "faults must be per byte, not per call"
        );
    }

    #[test]
    fn budget_exhaustion_means_clean_passthrough() {
        let payload = vec![0u8; 100_000];
        let director = ChaosDirector::new(ChaosPlan::flips(5, 0.05, 10));
        let mut stream = director.wrap(Sink::default());
        stream.write_all(&payload).unwrap();
        assert_eq!(director.faults_injected(), 10, "the budget is spent");
        let flipped = stream.inner.0.iter().filter(|&&b| b != 0).count();
        assert_eq!(flipped, 10, "exactly the budget, then clean forever");
    }

    #[test]
    fn cut_kills_the_stream_permanently() {
        let director = ChaosDirector::new(ChaosPlan::cuts(11, 0.01, 100));
        let mut stream = director.wrap(Sink::default());
        let big = vec![0xAB; 10_000];
        let err = stream.write_all(&big).expect_err("a 1% cut rate must fire");
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        assert!(
            stream.inner.0.len() < big.len(),
            "the cut must lose the tail"
        );
        let err = stream.write_all(b"after").expect_err("dead stays dead");
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        let mut buf = [0u8; 4];
        let err = stream.read(&mut buf).expect_err("reads die too");
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn burst_model_clusters_corruption() {
        // A harsh burst channel: long bad dwells at loss 0.9, clean good
        // state. Corrupted byte positions should be clustered: the mean
        // gap between corruptions is far below what an i.i.d. channel of
        // the same overall corruption count would produce.
        let payload = vec![0u8; 50_000];
        let burst = GilbertElliott::new(0.002, 0.05, 0.0, 0.9);
        let plan = ChaosPlan::quiet(13).with_burst(burst);
        let bytes = faulted_bytes(
            ChaosPlan {
                max_faults: u64::MAX,
                ..plan
            },
            &payload,
        )
        .unwrap();
        let hits: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b != 0)
            .map(|(i, _)| i)
            .collect();
        assert!(hits.len() > 50, "burst channel should corrupt plenty");
        let small_gaps = hits.windows(2).filter(|w| w[1] - w[0] <= 3).count();
        assert!(
            small_gaps * 2 > hits.len(),
            "corruption should arrive in bursts, not spread uniformly \
             ({small_gaps} adjacent of {})",
            hits.len()
        );
    }

    #[test]
    fn corrupted_frames_are_detected_then_later_frames_decode() {
        // Pump frames through a chaotic half-duplex pipe until the fault
        // budget runs out; every corruption must surface as a typed frame
        // error on the receiver, never as silently wrong data, and once
        // the budget is spent frames pass untouched. The sender lives on
        // its own thread: a flip in a length field makes the decoder wait
        // for bytes a lock-step peer would never send.
        let (a, b) = loopback_streams();
        let director = ChaosDirector::new(ChaosPlan::flips(21, 0.01, 25));
        let chaos_a = director.wrap(a);
        let frame = Frame::new(0x42, vec![0x5A; 64]);
        let sent = frame.clone();
        let sender = std::thread::spawn(move || {
            let mut tx = StreamTransport::new(chaos_a);
            for _ in 0..200 {
                tx.send(&sent).expect("flips never kill the stream");
            }
            // Dropping tx closes the pipe: the receiver drains to EOF.
        });
        let mut rx = StreamTransport::new(b);
        let mut delivered = 0u32;
        let mut detected = 0u32;
        loop {
            match rx.recv() {
                Ok(Some(got)) => {
                    assert_eq!(got, frame, "CRC must catch every flip");
                    delivered += 1;
                }
                Ok(None) => break,
                Err(WireError::Frame(_)) => detected += 1,
                Err(WireError::Io(e)) => panic!("unexpected i/o error: {e}"),
            }
        }
        sender.join().expect("sender thread");
        assert_eq!(
            director.faults_injected(),
            25,
            "200 frames must spend 25 faults"
        );
        assert!(detected >= 1, "corruption must be detected, not silent");
        // 25 single-byte faults can each lose a frame, and a corrupted
        // length field can swallow intact frames behind it until the CRC
        // (or EOF) exposes the lie — but the clean majority must land.
        assert!(
            delivered >= 150,
            "only {delivered}/200 frames survived 25 byte faults"
        );
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let payload: Vec<u8> = (0..=255).collect();
        let bytes = faulted_bytes(ChaosPlan::quiet(1), &payload).unwrap();
        assert_eq!(bytes, payload);
    }

    #[test]
    fn invalid_rates_are_rejected() {
        assert!(ChaosPlan::flips(1, 1.5, 10).try_validate().is_err());
        assert!(ChaosPlan::cuts(1, -0.1, 10).try_validate().is_err());
    }
}
