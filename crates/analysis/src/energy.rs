//! Tag-side energy model.
//!
//! The closest prior work (Qiao et al., *Energy-efficient polling protocols
//! in RFID systems*, MobiHoc 2011 — the paper's reference \[19\]) evaluates
//! polling by the energy battery-powered (active/semi-passive) tags spend
//! listening to reader transmissions and backscattering replies. Shrinking
//! the polling vector helps twice: tags listen to fewer reader bits *and*
//! go to sleep sooner.
//!
//! The model integrates exactly what the simulator measured:
//!
//! * `E_rx = P_rx · Σ (interval × active tags)` — every still-active tag's
//!   receiver is on for the whole inventory until it is read
//!   (`tag_listen_us` in the counters),
//! * `E_tx = P_tx · (tag bits × bit time)` — transmission energy of the
//!   actual replies,
//! * the per-tag average divides by the population.

use rfid_c1g2::Micros;

/// Power draw of a battery-assisted tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Receiver/listen power in milliwatts.
    pub rx_mw: f64,
    /// Backscatter-transmit power in milliwatts.
    pub tx_mw: f64,
}

impl EnergyParams {
    /// Representative semi-passive (battery-assisted backscatter) tag:
    /// 0.6 mW listen, 1.0 mW while modulating the backscatter switch.
    pub fn semi_passive() -> Self {
        EnergyParams {
            rx_mw: 0.6,
            tx_mw: 1.0,
        }
    }

    /// Representative active tag radio: 12 mW receive, 25 mW transmit.
    pub fn active_tag() -> Self {
        EnergyParams {
            rx_mw: 12.0,
            tx_mw: 25.0,
        }
    }
}

/// Energy totals of one protocol run (millijoules).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Total listen energy across all tags.
    pub rx_mj: f64,
    /// Total transmit energy across all tags.
    pub tx_mj: f64,
    /// Tags in the run.
    pub tags: usize,
}

impl EnergyReport {
    /// Total energy (mJ).
    pub fn total_mj(&self) -> f64 {
        self.rx_mj + self.tx_mj
    }

    /// Mean energy per tag (µJ).
    pub fn per_tag_uj(&self) -> f64 {
        if self.tags == 0 {
            0.0
        } else {
            self.total_mj() * 1_000.0 / self.tags as f64
        }
    }
}

/// Computes the energy report from run measurements.
///
/// * `tag_listen_us` — tag·µs of listening (from `Counters::tag_listen_us`),
/// * `tag_bits` — total bits tags transmitted,
/// * `tag_bit_time` — duration of one tag bit (from `LinkParams`),
/// * `tags` — population size.
pub fn energy_of_run(
    params: &EnergyParams,
    tag_listen_us: f64,
    tag_bits: u64,
    tag_bit_time: Micros,
    tags: usize,
) -> EnergyReport {
    // mW × µs = nJ; divide by 1e6 for mJ.
    let rx_mj = params.rx_mw * tag_listen_us / 1e6;
    let tx_us = tag_bits as f64 * tag_bit_time.as_f64();
    let tx_mj = params.tx_mw * tx_us / 1e6;
    EnergyReport { rx_mj, tx_mj, tags }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        // 1 mW for 1 second over 1 tag = 1 mJ.
        let p = EnergyParams {
            rx_mw: 1.0,
            tx_mw: 1.0,
        };
        let r = energy_of_run(&p, 1_000_000.0, 0, Micros::from_us(25.0), 1);
        assert!((r.rx_mj - 1.0).abs() < 1e-12);
        assert_eq!(r.tx_mj, 0.0);
        assert!((r.per_tag_uj() - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn tx_energy_scales_with_bits() {
        let p = EnergyParams::semi_passive();
        let a = energy_of_run(&p, 0.0, 100, Micros::from_us(25.0), 10);
        let b = energy_of_run(&p, 0.0, 200, Micros::from_us(25.0), 10);
        assert!((b.tx_mj / a.tx_mj - 2.0).abs() < 1e-12);
    }

    #[test]
    fn presets_are_ordered() {
        let sp = EnergyParams::semi_passive();
        let at = EnergyParams::active_tag();
        assert!(at.rx_mw > sp.rx_mw);
        assert!(at.tx_mw > sp.tx_mw);
    }

    #[test]
    fn empty_population_yields_zero_per_tag() {
        let r = EnergyReport {
            rx_mj: 0.0,
            tx_mj: 0.0,
            tags: 0,
        };
        assert_eq!(r.per_tag_uj(), 0.0);
    }
}
