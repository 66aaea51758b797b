//! Hostile-byte fuzz against the daemon's dispatch loop: raw garbage,
//! corrupted frames and well-framed-but-malformed payloads are written
//! straight into a live loopback connection. The server must answer each
//! offence with a typed `Error` response — never panic, never close the
//! connection, never corrupt a live session — and a valid command sent
//! *after* the abuse must still work against the same session table.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use rfid_hash::prop::{self, Gen};
use rfid_hash::prop_assert;
use rfid_wire::{
    loopback, Command, ErrorCode, Frame, OpenRequest, Response, Transport, WIRE_VERSION,
};

use rfid_daemon::{serve_connection, DaemonClient, RunEnd, Service};

/// Runs `abuse` against a served loopback connection: opens a session,
/// fires the hostile bytes, then checks the session still runs to
/// completion. Returns the error-class responses the server sent back.
fn survives_abuse(
    g: &mut Gen,
    abuse: impl FnOnce(&mut Gen, &mut Vec<u8>),
) -> Result<Vec<ErrorCode>, String> {
    let (server_end, client_end) = loopback();
    let stop = Arc::new(AtomicBool::new(false));
    let server_stop = Arc::clone(&stop);
    let server = std::thread::spawn(move || {
        let mut transport = server_end;
        let mut service = Service::new();
        let _ = serve_connection(&mut transport, &mut service, &server_stop);
        service.session_count()
    });

    let mut client = DaemonClient::new(client_end);
    let session = client
        .open(OpenRequest::new("TPP", 32 + g.u64_below(64), 4, g.u64()))
        .map_err(|e| format!("open failed: {e}"))?;

    // Fire the hostile bytes, then a Hello as a synchronization barrier:
    // once HelloOk comes back, every abuse byte has been dispatched.
    let mut bytes = Vec::new();
    abuse(g, &mut bytes);
    use std::io::Write as _;
    client
        .transport_mut()
        .get_mut()
        .write_all(&bytes)
        .map_err(|e| format!("write failed: {e}"))?;
    client
        .transport_mut()
        .send(&Command::Hello.to_frame())
        .map_err(|e| format!("hello send failed: {e}"))?;

    let mut errors = Vec::new();
    loop {
        match client.transport_mut().recv() {
            Ok(Some(frame)) => match Response::from_frame(&frame) {
                Ok(Response::Error { code, .. }) => errors.push(code),
                Ok(Response::HelloOk { .. }) => break,
                Ok(other) => return Err(format!("unsolicited response: {other:?}")),
                Err(e) => return Err(format!("server sent undecodable frame: {e}")),
            },
            Ok(None) => return Err("server closed the connection".to_string()),
            Err(e) => return Err(format!("recv failed: {e}")),
        }
    }

    // The session opened before the abuse must be unharmed.
    match client
        .run(session, None, |_, _, _, _| {})
        .map_err(|e| format!("post-abuse run failed: {e}"))?
    {
        RunEnd::Done(outcome) => {
            if outcome.status != "complete" {
                return Err(format!("session degraded to {}", outcome.status));
            }
        }
        RunEnd::Paused { .. } => return Err("unbounded run paused".to_string()),
    }
    client
        .shutdown()
        .map_err(|e| format!("shutdown failed: {e}"))?;
    drop(client);
    let live_sessions = server.join().map_err(|_| "server thread panicked")?;
    if live_sessions == 0 {
        return Err("session table was wiped by the abuse".to_string());
    }
    Ok(errors)
}

#[test]
fn raw_garbage_yields_typed_errors_and_leaves_sessions_alive() {
    prop::check("daemon_garbage_bytes", 40, |g| {
        let errors = survives_abuse(g, |g, bytes| {
            for _ in 0..g.len_in(1, 128) {
                bytes.push(g.u8());
            }
            // Cap any fabricated header's length claim: random garbage can
            // contain SOF+version by chance, and an unbounded length field
            // would make the server wait for megabytes that never come —
            // stalling the test, not the protocol. Zero the claim's high
            // bytes and append a flushing pad larger than any capped claim.
            for i in 0..bytes.len().saturating_sub(4) {
                if bytes[i] == 0xBB && bytes[i + 1] == WIRE_VERSION {
                    bytes[i + 3] = 0;
                    bytes[i + 4] = 0;
                }
            }
            bytes.extend(std::iter::repeat(0u8).take((1 << 16) + 16));
        })?;
        // Garbage may be silently absorbed into the next frame scan (it
        // only errors once a SOF-shaped lie fails a check), so no floor
        // on the error count — only the typed-ness of what came back.
        for code in errors {
            prop_assert!(
                matches!(code, ErrorCode::BadFrame | ErrorCode::BadPayload),
                "garbage produced non-codec error {code:?}"
            );
        }
        Ok(())
    });
}

#[test]
fn pre_hello_garbage_is_a_resync_diagnostic() {
    // Garbage *before the first decoded frame* (a peer speaking some
    // other protocol at our port) is answered with the distinct
    // `Resync` code, not the mid-stream `BadFrame` — and the connection
    // still serves normally once real frames arrive.
    prop::check("daemon_pre_hello_garbage", 30, |g| {
        let (server_end, client_end) = loopback();
        let stop = Arc::new(AtomicBool::new(false));
        let server_stop = Arc::clone(&stop);
        let server = std::thread::spawn(move || {
            let mut transport = server_end;
            let mut service = Service::new();
            let _ = serve_connection(&mut transport, &mut service, &server_stop);
        });

        let mut client = DaemonClient::new(client_end);
        // No byte may be the start-of-frame delimiter, so the whole
        // prefix is skipped in one resynchronization scan.
        let mut bytes = Vec::new();
        for _ in 0..g.len_in(1, 64) {
            let b = g.u8();
            bytes.push(if b == 0xBB { 0xBA } else { b });
        }
        use std::io::Write as _;
        client
            .transport_mut()
            .get_mut()
            .write_all(&bytes)
            .map_err(|e| format!("write failed: {e}"))?;
        client
            .transport_mut()
            .send(&Command::Hello.to_frame())
            .map_err(|e| format!("hello send failed: {e}"))?;

        let mut saw_resync = false;
        loop {
            match client.transport_mut().recv() {
                Ok(Some(frame)) => match Response::from_frame(&frame) {
                    Ok(Response::Error { code, .. }) => {
                        prop_assert!(
                            matches!(code, ErrorCode::Resync),
                            "pre-hello garbage produced {code:?}, not Resync"
                        );
                        saw_resync = true;
                    }
                    Ok(Response::HelloOk { .. }) => break,
                    Ok(other) => return Err(format!("unsolicited response: {other:?}")),
                    Err(e) => return Err(format!("server sent undecodable frame: {e}")),
                },
                Ok(None) => return Err("server closed the connection".to_string()),
                Err(e) => return Err(format!("recv failed: {e}")),
            }
        }
        prop_assert!(
            saw_resync,
            "garbage before the first frame went undiagnosed"
        );

        client
            .shutdown()
            .map_err(|e| format!("shutdown failed: {e}"))?;
        drop(client);
        server.join().map_err(|_| "server thread panicked")?;
        Ok(())
    });
}

#[test]
fn corrupted_frames_yield_bad_frame_errors() {
    prop::check("daemon_corrupt_frame", 40, |g| {
        let errors = survives_abuse(g, |g, bytes| {
            let mut f = Command::Checkpoint { session: g.u64() }.to_frame().encode();
            // Flip a byte past the length field so the frame shape stays
            // plausible but the CRC (or terminator) breaks.
            let at = 7 + g.u64_below((f.len() - 7) as u64) as usize;
            f[at] ^= 1u8 << g.u64_below(8);
            bytes.extend_from_slice(&f);
        })?;
        prop_assert!(!errors.is_empty(), "corruption went unanswered");
        Ok(())
    });
}

#[test]
fn malformed_payloads_yield_bad_payload_errors() {
    prop::check("daemon_malformed_payload", 40, |g| {
        let errors = survives_abuse(g, |g, bytes| {
            match g.u64_below(3) {
                // Unknown command kind, valid JSON.
                0 => bytes.extend_from_slice(&Frame::new(0x7F, b"{}".to_vec()).encode()),
                // Known kind, non-JSON payload.
                1 => bytes.extend_from_slice(&Frame::new(0x03, g.vec(1, 32, |g| g.u8())).encode()),
                // Known kind, JSON of the wrong shape.
                _ => bytes
                    .extend_from_slice(&Frame::new(0x02, b"{\"protocol\":42}".to_vec()).encode()),
            }
        })?;
        prop_assert!(!errors.is_empty(), "malformed payload went unanswered");
        for code in errors {
            prop_assert!(
                matches!(code, ErrorCode::BadPayload | ErrorCode::BadFrame),
                "expected codec error, got {code:?}"
            );
        }
        Ok(())
    });
}

#[test]
fn commands_for_bogus_sessions_never_kill_the_connection() {
    prop::check("daemon_bogus_sessions", 30, |g| {
        let errors = survives_abuse(g, |g, bytes| {
            let bogus = 1_000 + g.u64();
            bytes.extend_from_slice(
                &Command::Run {
                    session: bogus,
                    max_steps: None,
                }
                .to_frame()
                .encode(),
            );
            bytes.extend_from_slice(&Command::Close { session: bogus }.to_frame().encode());
        })?;
        prop_assert!(errors.len() >= 2, "expected two UnknownSession errors");
        for code in errors {
            prop_assert!(
                matches!(code, ErrorCode::UnknownSession),
                "expected UnknownSession, got {code:?}"
            );
        }
        Ok(())
    });
}

#[test]
fn a_run_budget_past_the_step_counter_runs_to_the_end() {
    // `steps_taken() + u64::MAX` overflows once a session has stepped: the
    // budget's end must saturate instead of panicking the handler.
    let mut service = Service::new();
    let session = match service.handle(Command::Open(OpenRequest::new("TPP", 64, 4, 1)))[..] {
        [Response::Opened { session }] => session,
        ref other => panic!("open failed: {other:?}"),
    };
    let run = |service: &mut Service, budget| {
        service
            .handle(Command::Run {
                session,
                max_steps: Some(budget),
            })
            .pop()
            .expect("a run answers")
    };
    assert!(matches!(
        run(&mut service, 1),
        Response::Paused { steps: 1, .. }
    ));
    match run(&mut service, u64::MAX) {
        Response::Done { outcome, .. } => assert_eq!(outcome.status, "complete"),
        other => panic!("expected Done, got {other:?}"),
    }
}
