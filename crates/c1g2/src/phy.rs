//! Baseband physical layer: waveform synthesis and decoding.
//!
//! Below the timing model sits the actual air interface. This module
//! synthesizes and decodes the C1G2 baseband signals:
//!
//! * **Reader→tag PIE** — every symbol is a high interval followed by a
//!   fixed low pulse; a tag classifies symbols by comparing their total
//!   duration against the pivot `RTcal/2` that the frame preamble
//!   calibrates. [`pie_modulate`] emits symbol durations, [`pie_demodulate`]
//!   recovers bits, [`reader_preamble`] builds the
//!   delimiter/data-0/RTcal/TRcal header of a Query frame.
//! * **Tag→reader FM0** — biphase-space coding: the level always inverts at
//!   a bit boundary, and a data-0 inverts mid-bit as well. [`fm0_encode`]
//!   produces half-bit levels (including the standard's terminating
//!   "dummy 1"), [`fm0_decode`] validates the boundary-inversion invariant
//!   and recovers the bits — corrupt waveforms are rejected rather than
//!   misread.
//! * **Miller subcarrier** — the baseband Miller code (invert mid-bit on 1,
//!   invert at the boundary between consecutive 0s) multiplied by `M`
//!   square subcarrier cycles per bit.
//!
//! Everything round-trips exactly, which the property tests exercise; a
//! flipped half-bit level breaks an FM0 invariant and is caught without any
//! CRC (the CRC in [`crate::crc`] then covers the errors coding cannot).

use crate::encoding::ReaderEncoding;
use crate::time::Micros;

/// A PIE symbol stream: per-symbol total durations in µs.
pub type PieSymbols = Vec<f64>;

/// Modulates reader bits into PIE symbol durations.
pub fn pie_modulate(bits: &[bool], tari: Micros, encoding: &ReaderEncoding) -> PieSymbols {
    bits.iter()
        .map(|&b| {
            if b {
                encoding.data1(tari).as_f64()
            } else {
                encoding.data0(tari).as_f64()
            }
        })
        .collect()
}

/// Demodulates PIE symbol durations given the calibration symbol `RTcal`
/// (the preamble's data-0 + data-1): anything longer than `RTcal/2` is a 1.
///
/// Returns `None` if a symbol exceeds `RTcal` (no valid data symbol can —
/// that duration region is reserved for calibration/delimiters).
pub fn pie_demodulate(symbols: &[f64], rtcal: Micros) -> Option<Vec<bool>> {
    let pivot = rtcal.as_f64() / 2.0;
    let mut bits = Vec::with_capacity(symbols.len());
    for &s in symbols {
        if s <= 0.0 || s > rtcal.as_f64() + 1e-9 {
            return None;
        }
        bits.push(s > pivot);
    }
    Some(bits)
}

/// The reader frame preamble: delimiter (fixed 12.5 µs), a data-0, `RTcal`,
/// and (for Query frames) `TRcal`. Returned as raw durations.
pub fn reader_preamble(tari: Micros, encoding: &ReaderEncoding, trcal: Option<Micros>) -> Vec<f64> {
    let mut p = vec![
        12.5,
        encoding.data0(tari).as_f64(),
        encoding.rtcal(tari).as_f64(),
    ];
    if let Some(tr) = trcal {
        p.push(tr.as_f64());
    }
    p
}

/// FM0-encodes tag bits into half-bit levels, starting from `true` and
/// appending the standard's terminating dummy-1 bit. Each bit contributes
/// two half-bit levels.
pub fn fm0_encode(bits: &[bool]) -> Vec<bool> {
    let mut levels = Vec::with_capacity(2 * (bits.len() + 1));
    let mut level = true;
    let mut push_bit = |levels: &mut Vec<bool>, bit: bool| {
        // Invert at the bit boundary.
        level = !level;
        levels.push(level);
        // Data-0 inverts again mid-bit; data-1 holds.
        if !bit {
            level = !level;
        }
        levels.push(level);
    };
    for &b in bits {
        push_bit(&mut levels, b);
    }
    // Terminating dummy 1.
    push_bit(&mut levels, true);
    levels
}

/// Decodes FM0 half-bit levels back to bits, checking the biphase
/// invariants (boundary inversion; initial reference level `true`) and
/// stripping the dummy-1 terminator. Returns `None` for any violated
/// invariant — a corrupted waveform is detected, not misread.
pub fn fm0_decode(levels: &[bool]) -> Option<Vec<bool>> {
    if levels.len() < 2 || levels.len() % 2 != 0 {
        return None;
    }
    let mut bits = Vec::with_capacity(levels.len() / 2);
    let mut prev = true; // reference level before the first boundary
    for pair in levels.chunks(2) {
        let (first, second) = (pair[0], pair[1]);
        // The boundary must invert.
        if first == prev {
            return None;
        }
        bits.push(first == second); // mid-bit hold = 1, mid-bit flip = 0
        prev = second;
    }
    // Strip and verify the dummy terminator.
    match bits.pop() {
        Some(true) => Some(bits),
        _ => None,
    }
}

/// Baseband Miller encoding (before subcarrier multiplication): the level
/// inverts mid-bit for a data-1, and at the boundary between two
/// consecutive data-0s; otherwise it holds. Two half-bit levels per bit.
pub fn miller_baseband(bits: &[bool]) -> Vec<bool> {
    let mut levels = Vec::with_capacity(2 * bits.len());
    let mut level = true;
    let mut prev_bit: Option<bool> = None;
    for &b in bits {
        if prev_bit == Some(false) && !b {
            level = !level; // boundary inversion between consecutive zeros
        }
        levels.push(level);
        if b {
            level = !level; // mid-bit inversion for a one
        }
        levels.push(level);
        prev_bit = Some(b);
    }
    levels
}

/// Decodes baseband Miller half-bit levels.
///
/// Returns `None` on a waveform that no Miller encoding produces (e.g. a
/// boundary inversion after a 1).
pub fn miller_baseband_decode(levels: &[bool]) -> Option<Vec<bool>> {
    if levels.len() % 2 != 0 {
        return None;
    }
    let mut bits = Vec::with_capacity(levels.len() / 2);
    let mut prev_second: Option<bool> = None;
    let mut prev_bit: Option<bool> = None;
    for pair in levels.chunks(2) {
        let (first, second) = (pair[0], pair[1]);
        let bit = first != second; // mid-bit inversion = 1
        if let (Some(ps), Some(pb)) = (prev_second, prev_bit) {
            let boundary_inverted = first != ps;
            // Inversion at a boundary is legal only between two zeros.
            let expected = !pb && !bit;
            if boundary_inverted != expected {
                return None;
            }
        }
        bits.push(bit);
        prev_second = Some(second);
        prev_bit = Some(bit);
    }
    Some(bits)
}

/// Expands baseband half-bit levels into `m` subcarrier cycles per half
/// bit (each cycle = high, low — XORed with the baseband level).
pub fn subcarrier_expand(baseband: &[bool], m: u32) -> Vec<bool> {
    assert!(m >= 1);
    let mut out = Vec::with_capacity(baseband.len() * 2 * m as usize);
    for &level in baseband {
        for _ in 0..m {
            out.push(level);
            out.push(!level);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_hash::prop::check;
    use rfid_hash::{prop_assert_eq, prop_assert_ne};

    fn tari() -> Micros {
        Micros::from_us(25.0)
    }

    fn enc() -> ReaderEncoding {
        ReaderEncoding::pie(2.0)
    }

    #[test]
    fn pie_round_trip() {
        let bits = [true, false, false, true, true, false];
        let symbols = pie_modulate(&bits, tari(), &enc());
        let rtcal = enc().rtcal(tari());
        assert_eq!(pie_demodulate(&symbols, rtcal), Some(bits.to_vec()));
    }

    #[test]
    fn pie_rejects_calibration_length_symbols() {
        let rtcal = enc().rtcal(tari());
        // A symbol as long as RTcal itself cannot be data.
        assert_eq!(pie_demodulate(&[rtcal.as_f64() * 1.5], rtcal), None);
        assert_eq!(pie_demodulate(&[0.0], rtcal), None);
    }

    #[test]
    fn preamble_shape() {
        let p = reader_preamble(tari(), &enc(), Some(Micros::from_us(200.0)));
        assert_eq!(p.len(), 4);
        assert!((p[0] - 12.5).abs() < 1e-9); // delimiter
        assert!((p[1] - 25.0).abs() < 1e-9); // data-0
        assert!((p[2] - 75.0).abs() < 1e-9); // RTcal = 25 + 50
        assert!((p[3] - 200.0).abs() < 1e-9); // TRcal
                                              // Frame-sync (non-Query) omits TRcal.
        assert_eq!(reader_preamble(tari(), &enc(), None).len(), 3);
    }

    #[test]
    fn fm0_known_waveform() {
        // One data-1: boundary inversion only → levels [false, false] then
        // dummy-1 [true, true].
        assert_eq!(fm0_encode(&[true]), vec![false, false, true, true]);
        // One data-0: boundary + mid inversions → [false, true] + dummy.
        assert_eq!(fm0_encode(&[false]), vec![false, true, false, false]);
    }

    #[test]
    fn fm0_rejects_missing_boundary_inversion() {
        let mut levels = fm0_encode(&[true, false, true]);
        // Break one boundary by duplicating a level.
        levels[2] = levels[1];
        assert_eq!(fm0_decode(&levels), None);
    }

    #[test]
    fn fm0_rejects_odd_lengths_and_bad_terminators() {
        assert_eq!(fm0_decode(&[true]), None);
        assert_eq!(fm0_decode(&[]), None);
        // A waveform whose final bit is a 0 cannot be a valid frame — the
        // standard's terminator is always a 1. [false, true] is the lone
        // encoding of a 0 and must be rejected when it lands last.
        assert_eq!(fm0_decode(&[false, true]), None);
        // Whereas a lone dummy-1 ([false, false]) is the empty frame.
        assert_eq!(fm0_decode(&[false, false]), Some(vec![]));
    }

    #[test]
    fn miller_known_waveform() {
        // 1: mid-bit inversion. 0 after 1: no inversions. 0 after 0:
        // boundary inversion.
        let levels = miller_baseband(&[true, false, false]);
        assert_eq!(levels, vec![true, false, false, false, true, true]);
    }

    #[test]
    fn miller_rejects_illegal_boundary() {
        let mut levels = miller_baseband(&[true, true, false]);
        // Force a boundary inversion after a 1 (illegal).
        levels[2] = !levels[2];
        assert_eq!(miller_baseband_decode(&levels), None);
    }

    #[test]
    fn subcarrier_expansion_length() {
        let base = miller_baseband(&[true, false]);
        for m in [1u32, 2, 4, 8] {
            let wave = subcarrier_expand(&base, m);
            assert_eq!(wave.len(), base.len() * 2 * m as usize);
            // First cycle starts at the baseband level.
            assert_eq!(wave[0], base[0]);
            assert_eq!(wave[1], !base[0]);
        }
    }

    #[test]
    fn query_image_survives_the_full_phy_path() {
        // Command assembly → PIE modulation → demodulation → validation.
        use crate::params::DivideRatio;
        use crate::query::{QueryCommand, SelField, Session, Target};
        let cmd = QueryCommand {
            dr: DivideRatio::Dr8,
            m: crate::encoding::TagEncoding::Miller4,
            trext: false,
            sel: SelField::All,
            session: Session::S1,
            target: Target::A,
            q: 9,
        };
        let bits = cmd.to_bits();
        let symbols = pie_modulate(&bits, tari(), &enc());
        let rtcal = enc().rtcal(tari());
        let received = pie_demodulate(&symbols, rtcal).expect("clean channel");
        assert_eq!(QueryCommand::validate(&received), Some(9));
    }

    #[test]
    fn prop_pie_round_trips() {
        check("pie round-trips", 256, |g| {
            let bits = g.vec_bool(0, 200);
            let symbols = pie_modulate(&bits, tari(), &enc());
            let rtcal = enc().rtcal(tari());
            prop_assert_eq!(pie_demodulate(&symbols, rtcal), Some(bits));
            Ok(())
        });
    }

    #[test]
    fn prop_fm0_round_trips() {
        check("fm0 round-trips", 256, |g| {
            let bits = g.vec_bool(0, 200);
            let levels = fm0_encode(&bits);
            prop_assert_eq!(fm0_decode(&levels), Some(bits));
            Ok(())
        });
    }

    #[test]
    fn prop_miller_round_trips() {
        check("miller round-trips", 256, |g| {
            let bits = g.vec_bool(0, 200);
            let levels = miller_baseband(&bits);
            prop_assert_eq!(miller_baseband_decode(&levels), Some(bits));
            Ok(())
        });
    }

    #[test]
    fn prop_fm0_detects_any_single_level_flip() {
        check("fm0 detects any single level flip", 256, |g| {
            let bits = g.vec_bool(1, 100);
            let flip_frac = g.f64_unit();
            let levels = fm0_encode(&bits);
            let flip = ((levels.len() - 1) as f64 * flip_frac) as usize;
            let mut bad = levels.clone();
            bad[flip] = !bad[flip];
            // A single flipped half-bit either breaks an invariant (None)
            // or alters the decoded bits — it must never decode silently to
            // the original.
            let decoded = fm0_decode(&bad);
            prop_assert_ne!(decoded, Some(bits));
            Ok(())
        });
    }
}
