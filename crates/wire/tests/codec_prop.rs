//! Property tests for the wire codec: every command/response round-trips
//! through frame bytes under seeded random payloads, and any single-byte
//! corruption of an encoded frame is *detected* — the first decode is a
//! typed [`FrameError`] or a clean "need more bytes", never the original
//! frame, and never a panic.

use rfid_c1g2::Micros;
use rfid_hash::prop::{self, Gen};
use rfid_hash::{prop_assert, prop_assert_eq};
use rfid_protocols::RecoveryPolicy;
use rfid_system::{FaultModel, GilbertElliott, Json, SimConfig};
use rfid_wire::{Command, Decoder, Frame, FrameError, OpenRequest, Response, SessionOutcome};

fn arb_json(g: &mut Gen, depth: usize) -> Json {
    match if depth == 0 {
        g.u64_below(4)
    } else {
        g.u64_below(6)
    } {
        0 => Json::Null,
        1 => Json::Bool(g.bool()),
        2 => Json::UInt(g.u64()),
        3 => Json::str(format!("s{}", g.u64_below(1000))),
        4 => Json::Arr(g.vec(0, 3, |g| arb_json(g, depth - 1))),
        _ => Json::Obj(
            (0..g.len_in(0, 3))
                .map(|i| (format!("k{i}"), arb_json(g, depth - 1)))
                .collect(),
        ),
    }
}

fn arb_fault(g: &mut Gen) -> FaultModel {
    let mut fault = FaultModel::perfect();
    if g.bool() {
        fault = fault.with_downlink_loss(g.f64_unit() * 0.9);
    }
    if g.bool() {
        fault = fault.with_corruption(g.f64_unit() * 0.9);
    }
    if g.bool() {
        fault = fault.with_burst(GilbertElliott::new(
            g.f64_unit(),
            g.f64_unit(),
            g.f64_unit() * 0.5,
            g.f64_unit(),
        ));
    }
    fault
}

fn arb_open(g: &mut Gen) -> OpenRequest {
    let mut req = OpenRequest::new(
        ["HPP", "EHPP", "TPP", "MIC"][g.u64_below(4) as usize],
        1 + g.u64_below(500),
        1 + g.u64_below(16),
        g.u64(),
    );
    if g.bool() {
        let mut config = SimConfig::paper(g.u64());
        if g.bool() {
            config = config.with_trace();
        }
        req.config = Some(config.with_fault(arb_fault(g)));
    }
    if g.bool() {
        req.policy = Some(RecoveryPolicy::unbounded().with_max_passes(1 + g.u64_below(8)));
    }
    if g.bool() {
        req.deadline_us = Some(Micros::from_ns(g.u64_in(1_000_000, 1_000_000_000_000)));
    }
    if g.bool() {
        req.progress_every = Some(1 + g.u64_below(64));
    }
    req
}

fn arb_command(g: &mut Gen) -> Command {
    match g.u64_below(10) {
        0 => Command::Hello,
        1 => Command::Open(arb_open(g)),
        2 => Command::Run {
            session: g.u64(),
            max_steps: g.bool().then(|| g.u64_below(10_000)),
        },
        3 => Command::Checkpoint { session: g.u64() },
        4 => Command::Resume {
            snapshot: arb_json(g, 3),
        },
        5 => Command::Inject {
            session: g.u64(),
            fault: arb_fault(g),
        },
        6 => Command::Metrics { session: g.u64() },
        7 => Command::Flight { session: g.u64() },
        8 => Command::Close { session: g.u64() },
        _ => Command::Shutdown,
    }
}

fn arb_outcome(g: &mut Gen) -> SessionOutcome {
    SessionOutcome {
        status: ["complete", "stalled", "degraded"][g.u64_below(3) as usize].to_string(),
        report: arb_json(g, 2),
        passes: 1 + g.u64_below(9),
        coverage: g.f64_unit(),
        cause: g.bool().then(|| "circuit-open".to_string()),
        trace_digest: g.bool().then(|| g.u64()),
    }
}

fn arb_response(g: &mut Gen) -> Response {
    match g.u64_below(11) {
        0 => Response::HelloOk {
            version: g.u8(),
            server: format!("srv-{}", g.u64_below(100)),
        },
        1 => Response::Opened { session: g.u64() },
        2 => Response::Progress {
            session: g.u64(),
            steps: g.u64(),
            polls: g.u64(),
            rounds: g.u64(),
            clock_us: g.f64_in(0.0, 1e12),
        },
        3 => Response::Done {
            session: g.u64(),
            outcome: arb_outcome(g),
        },
        4 => Response::Paused {
            session: g.u64(),
            steps: g.u64(),
        },
        5 => Response::Snapshot {
            session: g.u64(),
            snapshot: arb_json(g, 3),
        },
        6 => Response::MetricsText {
            session: g.u64(),
            text: format!("# TYPE x counter\nx {}\n", g.u64()),
        },
        7 => Response::FlightInfo {
            session: g.u64(),
            // A real bundle is always a JSON object; `Some(Null)` would be
            // wire-ambiguous with `None` (both serialize as `null`).
            bundle: g
                .bool()
                .then(|| Json::Obj(vec![("bundle".to_string(), arb_json(g, 2))])),
        },
        8 => Response::Closed { session: g.u64() },
        9 => Response::ShuttingDown,
        _ => Response::Error {
            code: rfid_wire::ErrorCode::BadState,
            message: format!("err {}", g.u64_below(100)),
        },
    }
}

#[test]
fn every_command_round_trips_through_frame_bytes() {
    prop::check("wire_command_round_trip", 300, |g| {
        let cmd = arb_command(g);
        let mut dec = Decoder::new();
        dec.push(&cmd.to_frame().encode());
        let frame = match dec.next() {
            Ok(Some(frame)) => frame,
            other => return Err(format!("decode failed: {other:?}")),
        };
        let back = Command::from_frame(&frame).map_err(|e| format!("parse failed: {e}"))?;
        prop_assert_eq!(back, cmd);
        prop_assert!(dec.pending() == 0, "decoder left {} bytes", dec.pending());
        Ok(())
    });
}

#[test]
fn every_response_round_trips_through_frame_bytes() {
    prop::check("wire_response_round_trip", 300, |g| {
        let response = arb_response(g);
        let mut dec = Decoder::new();
        dec.push(&response.to_frame().encode());
        let frame = match dec.next() {
            Ok(Some(frame)) => frame,
            other => return Err(format!("decode failed: {other:?}")),
        };
        let back = Response::from_frame(&frame).map_err(|e| format!("parse failed: {e}"))?;
        prop_assert_eq!(back, response);
        Ok(())
    });
}

#[test]
fn round_trip_survives_arbitrary_chunking() {
    prop::check("wire_chunked_feed", 150, |g| {
        let frames: Vec<Frame> = (0..g.len_in(1, 5))
            .map(|_| arb_command(g).to_frame())
            .collect();
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&f.encode());
        }
        let mut dec = Decoder::new();
        let mut fed = 0;
        let mut got = Vec::new();
        while fed < bytes.len() {
            let take = (1 + g.u64_below(64) as usize).min(bytes.len() - fed);
            dec.push(&bytes[fed..fed + take]);
            fed += take;
            while let Ok(Some(frame)) = dec.next() {
                got.push(frame);
            }
        }
        prop_assert_eq!(got, frames);
        Ok(())
    });
}

/// Flipping any single byte of an encoded frame must be detected: the
/// first decode attempt never yields the original frame. (It may yield
/// `Ok(None)` — e.g. a corrupted length field that now claims more bytes
/// — but that is "waiting", not "accepted".)
#[test]
fn any_single_byte_flip_is_detected() {
    prop::check("wire_byte_flip_detected", 300, |g| {
        let cmd = arb_command(g);
        let frame = cmd.to_frame();
        let mut bytes = frame.encode();
        let at = g.u64_below(bytes.len() as u64) as usize;
        let bit = 1u8 << g.u64_below(8);
        bytes[at] ^= bit;

        let mut dec = Decoder::new();
        dec.push(&bytes);
        match dec.next() {
            Ok(Some(decoded)) => {
                // A flip in the payload or kind can never slip through the
                // CRC (it detects all single-bit errors); this arm is
                // reachable only by flips that cancel out semantically,
                // which a single bit flip cannot do.
                prop_assert!(
                    decoded != frame,
                    "corrupted frame decoded as the original (flip at {at})"
                );
                // Even then the message layer must not panic.
                let _ = Command::from_frame(&decoded);
                Ok(())
            }
            Ok(None) => Ok(()),
            Err(FrameError::Garbage { .. })
            | Err(FrameError::Version(_))
            | Err(FrameError::Oversize(_))
            | Err(FrameError::BadCrc { .. })
            | Err(FrameError::BadTerminator(_)) => Ok(()),
            Err(e) => Err(format!("unexpected error class: {e}")),
        }
    });
}

/// After corruption, a following pristine frame is still delivered once
/// the decoder has enough bytes to see through the damage.
///
/// The flip avoids the length field and never fabricates a start byte:
/// a lying length can make the decoder *wait* for bytes that a finite
/// stream never delivers, which is a stall, not a wedge — that class is
/// exercised (and accepted as `Ok(None)`) by the detection property.
#[test]
fn corruption_never_wedges_the_stream() {
    prop::check("wire_corruption_resync", 200, |g| {
        let victim = arb_command(g).to_frame();
        let survivor = arb_command(g).to_frame();
        let mut bytes = victim.encode();
        let mut at = g.u64_below((bytes.len() - 4) as u64) as usize;
        if at >= 3 {
            at += 4; // skip the 4-byte length field
        }
        let bit = 1u8 << g.u64_below(8);
        if bytes[at] ^ bit == 0xBB {
            return Ok(()); // would fabricate an SOF — detection-only class
        }
        bytes[at] ^= bit;
        bytes.extend_from_slice(&survivor.encode());

        let mut dec = Decoder::new();
        dec.push(&bytes);
        let mut survivors = 0;
        for _ in 0..bytes.len() + 8 {
            match dec.next() {
                Ok(Some(frame)) => {
                    if frame == survivor {
                        survivors += 1;
                    }
                }
                Ok(None) => break,
                Err(_) => {}
            }
        }
        prop_assert!(
            survivors >= 1,
            "survivor frame lost after corruption at byte {at}"
        );
        Ok(())
    });
}
