//! Symbol encodings of the C1G2 physical layer.
//!
//! **Reader→tag** uses PIE (pulse-interval encoding): a data-0 lasts one
//! `Tari`, a data-1 lasts between 1.5 and 2 `Tari`. The effective reader data
//! rate therefore depends on the bit mix; as is conventional we charge the
//! *mean* symbol length for rate computations and expose exact per-pattern
//! costs for callers that have the actual bits.
//!
//! **Tag→reader** uses FM0 baseband or Miller-modulated subcarrier with
//! `M ∈ {2, 4, 8}` subcarrier cycles per bit: one bit takes `M · Tpri`
//! (with FM0 counted as `M = 1`). Higher `M` trades data rate for robustness.

use crate::time::Micros;

/// Reader→tag PIE encoding, parameterized by the data-1 length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ReaderEncoding {
    /// Length of a data-1 symbol as a multiple of Tari (1.5 ..= 2.0).
    data1_tari: f64,
}

impl ReaderEncoding {
    /// Creates a PIE encoding with the given data-1 length in Tari units.
    ///
    /// # Panics
    /// Panics if `data1_tari` is outside the standard's `[1.5, 2.0]` range.
    pub(crate) fn pie(data1_tari: f64) -> Self {
        assert!(
            (1.5..=2.0).contains(&data1_tari),
            "PIE data-1 must be 1.5-2.0 Tari, got {data1_tari}"
        );
        ReaderEncoding { data1_tari }
    }

    /// Duration of a data-0 symbol.
    #[inline]
    pub(crate) fn data0(&self, tari: Micros) -> Micros {
        tari
    }

    /// Duration of a data-1 symbol.
    #[inline]
    pub(crate) fn data1(&self, tari: Micros) -> Micros {
        tari * self.data1_tari
    }

    /// The reader→tag calibration symbol: `RTcal = data-0 + data-1`.
    #[inline]
    pub(crate) fn rtcal(&self, tari: Micros) -> Micros {
        self.data0(tari) + self.data1(tari)
    }

    /// Mean bit duration assuming a balanced bit mix, rounded to the
    /// nanosecond once.
    #[inline]
    pub(crate) fn mean_bit(&self, tari: Micros) -> Micros {
        tari * ((1.0 + self.data1_tari) / 2.0)
    }

    /// Exact duration of transmitting `bits`, costing each 0 and 1 at its
    /// true PIE length. `ones` must not exceed `bits`.
    pub(crate) fn exact(&self, tari: Micros, bits: u64, ones: u64) -> Micros {
        assert!(ones <= bits, "ones ({ones}) exceeds bits ({bits})");
        self.data0(tari) * (bits - ones) + self.data1(tari) * ones
    }
}

/// Tag→reader backscatter encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TagEncoding {
    /// FM0 baseband: one pulse-repetition interval per bit.
    Fm0,
    /// Miller subcarrier with M = 2 cycles per bit.
    Miller2,
    /// Miller subcarrier with M = 4 cycles per bit.
    Miller4,
    /// Miller subcarrier with M = 8 cycles per bit.
    Miller8,
}

impl TagEncoding {
    /// Subcarrier cycles per bit (FM0 counted as 1).
    pub(crate) fn cycles_per_bit(self) -> u64 {
        match self {
            TagEncoding::Fm0 => 1,
            TagEncoding::Miller2 => 2,
            TagEncoding::Miller4 => 4,
            TagEncoding::Miller8 => 8,
        }
    }

    /// Duration of one tag bit given the pulse-repetition interval `Tpri`.
    #[inline]
    pub(crate) fn bit_duration(self, tpri: Micros) -> Micros {
        tpri * self.cycles_per_bit()
    }

    /// The tag data rate in bit/s for a given backscatter link frequency
    /// (`BLF`, in Hz).
    pub(crate) fn data_rate(self, blf_hz: f64) -> f64 {
        blf_hz / self.cycles_per_bit() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pie_symbol_lengths() {
        let tari = Micros::from_us(25.0);
        let enc = ReaderEncoding::pie(2.0);
        assert_eq!(enc.data0(tari), Micros::from_us(25.0));
        assert_eq!(enc.data1(tari), Micros::from_us(50.0));
        assert_eq!(enc.rtcal(tari), Micros::from_us(75.0));
        assert_eq!(enc.mean_bit(tari), Micros::from_us(37.5));
    }

    #[test]
    fn pie_mean_matches_paper_rate_ballpark() {
        // The paper's 26.7 kbps lower-bound reader rate corresponds to the
        // slowest PIE configuration: Tari = 25 µs, data-1 = 2 Tari gives a
        // mean bit of 37.5 µs ≈ 26.7 kbps.
        let enc = ReaderEncoding::pie(2.0);
        let mean = enc.mean_bit(Micros::from_us(25.0));
        let kbps = 1e3 / mean.as_f64() * 1e3 / 1e3;
        assert!((kbps - 26.67).abs() < 0.1, "got {kbps} kbps");
    }

    #[test]
    fn pie_exact_cost() {
        let tari = Micros::from_us(10.0);
        let enc = ReaderEncoding::pie(1.5);
        // 8 bits, 3 ones: 5*10 + 3*15 = 95 µs.
        assert_eq!(enc.exact(tari, 8, 3), Micros::from_us(95.0));
        // All zeros and all ones bracket the mean.
        let lo = enc.exact(tari, 8, 0);
        let hi = enc.exact(tari, 8, 8);
        let mean = enc.mean_bit(tari) * 8u64;
        assert!(lo < mean && mean < hi);
    }

    #[test]
    #[should_panic(expected = "exceeds bits")]
    fn pie_exact_rejects_bad_popcount() {
        let _ = ReaderEncoding::pie(2.0).exact(Micros::from_us(10.0), 4, 5);
    }

    #[test]
    #[should_panic(expected = "PIE data-1")]
    fn pie_rejects_out_of_range_data1() {
        let _ = ReaderEncoding::pie(2.5);
    }

    #[test]
    fn tag_encodings_scale_with_m() {
        let tpri = Micros::from_us(3.125); // BLF = 320 kHz
        assert_eq!(TagEncoding::Fm0.bit_duration(tpri), tpri);
        assert_eq!(TagEncoding::Miller2.bit_duration(tpri), tpri * 2.0);
        assert_eq!(TagEncoding::Miller8.bit_duration(tpri), tpri * 8.0);
        // FM0 at 40 kHz BLF = 40 kbps → the paper's 25 µs/bit.
        assert!((TagEncoding::Fm0.data_rate(40_000.0) - 40_000.0).abs() < 1e-9);
        assert!((TagEncoding::Miller4.data_rate(320_000.0) - 80_000.0).abs() < 1e-9);
    }
}
