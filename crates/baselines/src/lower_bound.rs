//! The C1G2 information-collection lower bound (Section V-C).
//!
//! No protocol under the standard can beat the mandatory parts of one
//! exchange per tag: a minimal 4-bit command, the `T1` turnaround, the
//! `l`-bit payload at the tag rate, and `T2` — i.e.
//! `(37.45·4 + T1 + 25·l + T2)·n` µs. Implemented as a pseudo-protocol so
//! table generation treats it uniformly.

use rfid_protocols::{PollingProtocol, ProtocolStepper, StepDiscipline, StepOutcome};
use rfid_system::SimContext;

/// The lower-bound pseudo-protocol: polls each tag with an empty (0-bit)
/// polling vector behind the minimal 4-bit command. It has no parameters.
#[derive(Debug, Clone, Copy, Default)]
pub struct LowerBound;

impl PollingProtocol for LowerBound {
    fn name(&self) -> &'static str {
        "LowerBound"
    }

    fn open_stepper(&self, _ctx: &SimContext) -> Box<dyn ProtocolStepper> {
        Box::new(LowerBound)
    }
}

/// One step = one zero-vector sweep; the protocol itself is the stepper.
/// No sweep cap (the bound is a closed form, not a real protocol); the
/// driver's stall guard still applies.
impl ProtocolStepper for LowerBound {
    fn discipline(&self) -> StepDiscipline {
        StepDiscipline::guarded_unbounded()
    }

    fn step(&mut self, ctx: &mut SimContext) -> StepOutcome {
        let mut handles = ctx.take_scratch();
        ctx.population.collect_active_into(&mut handles);
        for &handle in &handles {
            ctx.poll_tag(0, true, handle);
        }
        ctx.recycle_scratch(handles);
        StepOutcome::Progressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_analysis::timing::lower_bound;
    use rfid_c1g2::LinkParams;
    use rfid_system::{BitVec, SimConfig, TagPopulation};

    #[test]
    fn matches_the_closed_form() {
        for l in [1usize, 16, 32] {
            let pop = TagPopulation::sequential(100, |_| BitVec::from_value(1, l));
            let mut ctx = SimContext::new(pop, &SimConfig::paper(1));
            let report = LowerBound.run(&mut ctx);
            ctx.assert_complete();
            let expect = lower_bound(&LinkParams::paper(), 100, l as u64);
            assert_eq!(
                report.total_time, expect,
                "l = {l}: {} vs {}",
                report.total_time, expect
            );
        }
    }

    #[test]
    fn table1_anchor() {
        // ≈ 3.25 s at n = 10⁴, l = 1.
        let pop = TagPopulation::sequential(10_000, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(2));
        let report = LowerBound.run(&mut ctx);
        assert!((report.total_time.as_secs() - 3.248).abs() < 0.001);
    }
}
