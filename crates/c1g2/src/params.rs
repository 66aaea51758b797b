//! Link-budget parameters of the C1G2 air interface.
//!
//! The C1G2 standard derives all its timing from a small set of symbols the
//! reader announces in each frame preamble:
//!
//! * `Tari` — the duration of a reader data-0 symbol (6.25–25 µs);
//! * `RTcal` (reader→tag calibration) — `data-0 + data-1` duration; a tag
//!   classifies every subsequent reader symbol as 0 or 1 by comparing it to
//!   `RTcal / 2`;
//! * `TRcal` (tag→reader calibration) — together with the divide ratio `DR`
//!   it fixes the backscatter link frequency `BLF = DR / TRcal` and hence the
//!   pulse-repetition interval `Tpri = 1 / BLF`;
//! * `T1 = max(RTcal, 10·Tpri)` — how long a tag waits after the reader stops
//!   talking before it replies;
//! * `T2 ∈ [3·Tpri, 20·Tpri]` — how long the reader waits after a tag reply
//!   before issuing the next command.
//!
//! The evaluation in *Fast RFID Polling Protocols* fixes the derived
//! quantities directly (Section V-A): `T1 = 100 µs`, `T2 = 50 µs`, reader→tag
//! 26.7 kbps, tag→reader 40 kbps. [`LinkParams::paper`] reproduces exactly
//! those numbers, and the simulator charges them. (The tests keep a
//! symbol-level derivation that checks how the standard's symbols map to
//! these quantities.)

use crate::time::Micros;

/// The complete reader↔tag link budget used by the simulator.
///
/// Data rates are stored as per-bit durations, which is what every cost
/// computation actually needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Duration of one reader→tag bit.
    pub reader_bit: Micros,
    /// Duration of one tag→reader bit.
    pub tag_bit: Micros,
    /// Transmit-to-receive turnaround: tag waits `T1` before replying.
    pub t1: Micros,
    /// Receive-to-transmit turnaround: reader waits `T2` before next command.
    pub t2: Micros,
    /// Time a reader waits for a reply before declaring the slot empty.
    ///
    /// Polling protocols never pay this (they only address singletons), but
    /// ALOHA baselines observe empty slots and must time them.
    pub t3: Micros,
}

impl LinkParams {
    /// The exact parameter set of the paper's evaluation (Section V-A):
    /// `T1 = 100 µs`, `T2 = 50 µs`, reader→tag 26.7 kbps (37.45 µs/bit,
    /// the constant used throughout the paper's formulas), tag→reader
    /// 40 kbps (25 µs/bit).
    pub fn paper() -> Self {
        LinkParams {
            reader_bit: Micros::from_us(37.45),
            tag_bit: Micros::from_us(25.0),
            t1: Micros::from_us(100.0),
            t2: Micros::from_us(50.0),
            // The paper never times an empty slot (polling has none). For the
            // ALOHA baselines we follow common practice and charge T1 plus a
            // short detection window.
            t3: Micros::from_us(50.0),
        }
    }

    /// Time for the reader to transmit `bits` bits.
    #[inline]
    pub fn reader_tx(&self, bits: u64) -> Micros {
        self.reader_bit * bits
    }

    /// Time for a tag to transmit `bits` bits.
    #[inline]
    pub fn tag_tx(&self, bits: u64) -> Micros {
        self.tag_bit * bits
    }
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{ReaderEncoding, TagEncoding};

    /// Divide ratio announced in the `Query` command (`DR` field).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum DivideRatio {
        /// DR = 8.
        Dr8,
        /// DR = 64/3.
        Dr64Over3,
    }

    impl DivideRatio {
        /// The numeric divide ratio.
        fn value(self) -> f64 {
            match self {
                DivideRatio::Dr8 => 8.0,
                DivideRatio::Dr64Over3 => 64.0 / 3.0,
            }
        }
    }

    impl LinkParams {
        /// Derives a parameter set from the primitive C1G2 symbols.
        ///
        /// * `tari` — reader data-0 duration (6.25–25 µs per the standard),
        /// * `dr` — divide ratio from the Query command,
        /// * `trcal` — tag→reader calibration symbol (µs),
        /// * `tag_encoding` — FM0 or one of the Miller subcarrier modes,
        /// * `reader_encoding` — PIE data-1 length as a multiple of Tari.
        ///
        /// A bit time that is not a whole nanosecond (most BLFs give one) is
        /// rounded to the nearest nanosecond once, here.
        ///
        /// # Panics
        /// Panics if `tari` is outside the standard's 6.25–25 µs range or if
        /// `trcal` is not in `[1.1·RTcal, 3·RTcal]` as the standard requires.
        fn from_symbols(
            tari: Micros,
            dr: DivideRatio,
            trcal: Micros,
            tag_encoding: TagEncoding,
            reader_encoding: ReaderEncoding,
        ) -> Self {
            assert!(
                (6.25..=25.0).contains(&tari.as_f64()),
                "Tari {} outside the C1G2 range of 6.25-25 µs",
                tari
            );
            let rtcal = reader_encoding.rtcal(tari);
            assert!(
                trcal.as_f64() >= 1.1 * rtcal.as_f64() && trcal.as_f64() <= 3.0 * rtcal.as_f64(),
                "TRcal {} outside [1.1 RTcal, 3 RTcal] = [{}, {}]",
                trcal,
                rtcal * 1.1,
                rtcal * 3.0
            );
            // Tpri = 1 / BLF = TRcal / DR, rounded to the nanosecond once here;
            // every tag-side time below is a whole multiple of it.
            let tpri = Micros::from_us(trcal.as_f64() / dr.value());
            let t1 = rtcal.max(tpri * 10u64);
            let t2 = tpri * 10u64; // mid-range of the permitted [3, 20]·Tpri
            LinkParams {
                reader_bit: reader_encoding.mean_bit(tari),
                tag_bit: tag_encoding.bit_duration(tpri),
                t1,
                t2,
                t3: tpri * 3u64,
            }
        }
    }

    #[test]
    fn paper_constants() {
        let p = LinkParams::paper();
        assert_eq!(p.reader_bit, Micros::from_us(37.45));
        assert_eq!(p.tag_bit, Micros::from_us(25.0));
        assert_eq!(p.t1, Micros::from_us(100.0));
        assert_eq!(p.t2, Micros::from_us(50.0));
    }

    #[test]
    fn paper_poll_exchange_matches_section_v_formula() {
        let p = LinkParams::paper();
        // Collecting l=1 bit with a w=3 bit polling vector behind a 4-bit
        // QueryRep: 37.45*(4+3) + 100 + 25 + 50.
        let t = p.reader_tx(4 + 3) + p.t1 + p.tag_tx(1) + p.t2;
        assert_eq!(t, Micros::from_ns(37_450 * 7 + 100_000 + 25_000 + 50_000));
    }

    #[test]
    fn symbol_derivation_produces_sane_rates() {
        // Tari = 12.5 µs, PIE data-1 = 2 Tari, DR = 64/3, TRcal = 66.7 µs
        // gives BLF = 320 kHz: a fast FM0 link.
        let p = LinkParams::from_symbols(
            Micros::from_us(12.5),
            DivideRatio::Dr64Over3,
            Micros::from_us(66.7),
            TagEncoding::Fm0,
            ReaderEncoding::pie(2.0),
        );
        // Tpri = 66.7 µs / (64/3) = 3.1265625 µs, rounded once to 3127 ns;
        // an FM0 bit is one Tpri and T3 is three.
        assert_eq!(p.tag_bit, Micros::from_ns(3_127));
        assert_eq!(p.t3, Micros::from_ns(3 * 3_127));
        // Mean PIE bit = (Tari + 2 Tari)/2 = 18.75 µs.
        assert_eq!(p.reader_bit, Micros::from_us(18.75));
        // T1 = max(RTcal, 10 Tpri); RTcal = 37.5 µs, 10 Tpri ≈ 31.3 µs.
        assert_eq!(p.t1, Micros::from_us(37.5));
    }

    #[test]
    fn divide_ratio_values() {
        assert_eq!(DivideRatio::Dr8.value(), 8.0);
        assert!((DivideRatio::Dr64Over3.value() - 21.333_333).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "outside the C1G2 range")]
    fn tari_out_of_range_rejected() {
        let _ = LinkParams::from_symbols(
            Micros::from_us(5.0),
            DivideRatio::Dr8,
            Micros::from_us(50.0),
            TagEncoding::Fm0,
            ReaderEncoding::pie(1.5),
        );
    }

    #[test]
    #[should_panic(expected = "TRcal")]
    fn trcal_out_of_range_rejected() {
        let _ = LinkParams::from_symbols(
            Micros::from_us(12.5),
            DivideRatio::Dr8,
            Micros::from_us(500.0),
            TagEncoding::Fm0,
            ReaderEncoding::pie(1.5),
        );
    }
}
