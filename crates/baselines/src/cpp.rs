//! The Conventional Polling Protocol (Section II-B).
//!
//! The reader broadcasts a 96-bit tag ID; all tags listen and only the tag
//! whose ID matches replies. One tag per exchange, no collisions ever — but
//! the 96-bit polling vector makes every poll expensive. CPP is the paper's
//! baseline: 37.70 s to collect one bit from 10⁴ tags.

use rfid_protocols::{PollingProtocol, ProtocolStepper, StepDiscipline, StepOutcome};
use rfid_system::{id::EPC_BITS, SimContext};

/// The Conventional Polling Protocol, as its configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CppConfig {
    /// Safety cap on retry sweeps over a lossy channel.
    pub max_sweeps: u64,
}

impl Default for CppConfig {
    fn default() -> Self {
        CppConfig {
            max_sweeps: 1_000_000,
        }
    }
}

impl PollingProtocol for CppConfig {
    fn name(&self) -> &'static str {
        "CPP"
    }

    fn open_stepper(&self, _ctx: &SimContext) -> Box<dyn ProtocolStepper> {
        Box::new(*self)
    }
}

/// One step = one full sweep over the still-active ID list; the config
/// itself is the stepper. The ID broadcast carries no QueryRep: the paper's
/// CPP accounting treats the bare ID as the command (Table I's 37.70 s =
/// 37.45·96 + T1 + 25 + T2 per tag).
impl ProtocolStepper for CppConfig {
    fn discipline(&self) -> StepDiscipline {
        StepDiscipline::budgeted(self.max_sweeps)
    }

    fn step(&mut self, ctx: &mut SimContext) -> StepOutcome {
        // The reader walks its known ID list; active tags are the ones
        // not yet read (or whose reply was lost last sweep).
        let mut handles = ctx.take_scratch();
        ctx.population.collect_active_into(&mut handles);
        for &handle in &handles {
            ctx.poll_tag(EPC_BITS as u64, false, handle);
        }
        ctx.recycle_scratch(handles);
        StepOutcome::Progressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_protocols::Report;
    use rfid_system::{BitVec, Channel, SimConfig, TagPopulation};

    fn run(n: usize, info_bits: usize, seed: u64) -> (Report, SimContext) {
        let pop = TagPopulation::sequential(n, |_| BitVec::from_value(1, info_bits));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(seed));
        let report = CppConfig::default().run(&mut ctx);
        (report, ctx)
    }

    #[test]
    fn reads_every_tag_once() {
        let (report, ctx) = run(100, 1, 1);
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 100);
        assert_eq!(report.mean_vector_bits(), 96.0);
    }

    #[test]
    fn table1_anchor_time() {
        // Table I: 37.70 s for n = 10⁴, l = 1 — scaled down 100× here.
        let (report, _) = run(100, 1, 2);
        let expect_per_tag: f64 = 37.45 * 96.0 + 100.0 + 25.0 + 50.0;
        assert_eq!(report.total_time.as_ns(), 100 * (37_450 * 96 + 175_000));
        // Per-tag: 3770.2 µs → ×10⁴ = 37.70 s.
        assert!((expect_per_tag * 1e4 / 1e6 - 37.70).abs() < 0.01);
    }

    #[test]
    fn single_round_no_rounds_counter() {
        let (report, _) = run(10, 1, 3);
        assert_eq!(report.counters.rounds, 0);
        assert_eq!(report.counters.reader_bits, 10 * 96);
    }

    #[test]
    fn lossy_channel_retries_until_done() {
        let pop = TagPopulation::sequential(50, |_| BitVec::from_value(1, 1));
        let cfg = SimConfig::paper(4).with_channel(Channel::lossy(0.4));
        let mut ctx = SimContext::new(pop, &cfg);
        let report = CppConfig::default().run(&mut ctx);
        ctx.assert_complete();
        assert!(report.counters.lost_replies > 0);
        assert_eq!(report.counters.polls, 50);
    }

    #[test]
    fn payload_length_only_affects_tag_side() {
        let (r1, _) = run(20, 1, 5);
        let (r32, _) = run(20, 32, 5);
        let diff = r32.total_time - r1.total_time;
        assert_eq!(diff.as_ns(), 20 * 25_000 * 31);
    }
}
