//! Protocol run reports.

use std::fmt;

use rfid_c1g2::{Micros, TimeBreakdown};
use rfid_system::{Counters, SimContext};

/// What one protocol run cost — the metrics of the paper's evaluation.
#[derive(Debug, Clone)]
pub struct Report {
    /// Protocol display name.
    pub protocol: String,
    /// Population size at the start of the run.
    pub(crate) tags: usize,
    /// Total execution time.
    pub total_time: Micros,
    /// Where the time went.
    pub breakdown: TimeBreakdown,
    /// Raw counters (bits, polls, rounds, …).
    pub counters: Counters,
}

impl Report {
    /// Snapshots a finished run.
    pub fn from_context(protocol: &str, ctx: &SimContext) -> Self {
        Report {
            protocol: protocol.to_string(),
            tags: ctx.population.len(),
            total_time: ctx.clock.total(),
            breakdown: *ctx.clock.breakdown(),
            counters: ctx.counters,
        }
    }

    /// Average polling-vector length `w` in bits (the paper's headline
    /// metric; excludes QueryRep prefixes and bulk broadcasts).
    pub fn mean_vector_bits(&self) -> f64 {
        self.counters.mean_vector_bits()
    }

    /// Average polling-vector length *including* amortized round/circle
    /// initiation and indicator overhead — every reader bit divided by the
    /// number of polls minus the fixed QueryRep prefixes. This is the `w`
    /// the Section-V simulation reports (it explicitly "counts this
    /// overhead").
    pub fn mean_vector_bits_with_overhead(&self) -> f64 {
        if self.counters.polls == 0 {
            return 0.0;
        }
        let payload = self
            .counters
            .reader_bits
            .saturating_sub(self.counters.query_rep_bits);
        payload as f64 / self.counters.polls as f64
    }

    /// Mean time per interrogated tag.
    pub fn time_per_tag(&self) -> Micros {
        if self.counters.polls == 0 {
            Micros::ZERO
        } else {
            self.total_time / self.counters.polls as f64
        }
    }

    /// Ratio of this run's time to another's (e.g. vs the lower bound).
    pub fn time_ratio(&self, other: &Report) -> f64 {
        self.total_time / other.total_time
    }

    /// Tag-side energy of this run under the given power model and link
    /// (tag bit time). See `rfid_analysis::energy` for the model.
    pub fn tag_energy(
        &self,
        params: &rfid_analysis::energy::EnergyParams,
        link: &rfid_c1g2::LinkParams,
    ) -> rfid_analysis::energy::EnergyReport {
        rfid_analysis::energy::energy_of_run(
            params,
            self.counters.tag_listen_us,
            self.counters.tag_bits,
            link.tag_bit,
            self.tags,
        )
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} tags in {} ({} per tag)",
            self.protocol,
            self.tags,
            self.total_time,
            self.time_per_tag()
        )?;
        writeln!(
            f,
            "  polls {}  rounds {}  circles {}  mean vector {:.2} bits ({:.2} incl. overhead)",
            self.counters.polls,
            self.counters.rounds,
            self.counters.circles,
            self.mean_vector_bits(),
            self.mean_vector_bits_with_overhead()
        )?;
        let c = &self.counters;
        if c.lost_replies
            + c.downlink_losses
            + c.corrupted_replies
            + c.retransmissions
            + c.desync_recoveries
            > 0
        {
            writeln!(
                f,
                "  faults: {} lost replies  {} downlink losses  {} corrupted  {} retransmissions  {} desync recoveries",
                c.lost_replies,
                c.downlink_losses,
                c.corrupted_replies,
                c.retransmissions,
                c.desync_recoveries
            )?;
        }
        write!(f, "{}", self.breakdown)
    }
}

rfid_system::impl_json_struct!(Report {
    protocol,
    tags,
    total_time,
    breakdown,
    counters
});

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_system::{BitVec, SimConfig, TagPopulation};

    fn finished_ctx() -> SimContext {
        let pop = TagPopulation::sequential(2, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(1));
        ctx.poll_tag(3, true, 0);
        ctx.poll_tag(5, true, 1);
        ctx
    }

    #[test]
    fn report_snapshots_counters() {
        let ctx = finished_ctx();
        let r = Report::from_context("test", &ctx);
        assert_eq!(r.tags, 2);
        assert_eq!(r.counters.polls, 2);
        assert_eq!(r.mean_vector_bits(), 4.0);
        assert_eq!(r.total_time, ctx.clock.total());
    }

    #[test]
    fn overhead_variant_strips_query_reps() {
        let mut ctx = finished_ctx();
        // Simulate a 32-bit round-init broadcast on top.
        ctx.begin_round(3);
        let r = Report::from_context("test", &ctx);
        // reader bits = 4+3 + 4+5 + 32 = 48; minus 8 QueryRep = 40; /2 = 20.
        assert_eq!(r.mean_vector_bits_with_overhead(), 20.0);
        // The plain metric ignores the broadcast.
        assert_eq!(r.mean_vector_bits(), 4.0);
    }

    #[test]
    fn time_per_tag_and_ratio() {
        let ctx = finished_ctx();
        let r = Report::from_context("a", &ctx);
        // Two tags: halving the total is exact to the nanosecond.
        assert_eq!(r.time_per_tag() * 2u64, r.total_time);
        assert!((r.time_ratio(&r) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_key_metrics() {
        let r = Report::from_context("HPP", &finished_ctx());
        let s = r.to_string();
        assert!(s.contains("HPP"));
        assert!(s.contains("polls 2"));
    }

    #[test]
    fn tag_energy_integrates_listen_and_tx() {
        use rfid_analysis::energy::EnergyParams;
        use rfid_c1g2::LinkParams;
        let ctx = finished_ctx();
        let r = Report::from_context("x", &ctx);
        let e = r.tag_energy(&EnergyParams::semi_passive(), &LinkParams::paper());
        assert!(e.rx_mj > 0.0);
        // 2 bits transmitted at 25 µs/bit, 1.0 mW → 50 nJ = 5e-5 mJ.
        assert!((e.tx_mj - 5.0e-5).abs() < 1e-12);
        assert!(e.per_tag_uj() > 0.0);
    }
}
