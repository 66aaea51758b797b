//! The Enhanced Hash Polling Protocol (Section III-D).
//!
//! HPP's polling vector grows as `⌈log₂ n⌉`; EHPP keeps it flat by splitting
//! the population into *circles* of `n*` tags and running HPP inside each:
//!
//! 1. The reader broadcasts an `l_c`-bit circle command `(f, F, r)`. Each
//!    active tag computes `H(r, id) mod F` and joins the circle only if its
//!    value is below the threshold — the probabilistic variant of Select
//!    that works under any ID distribution (a bit mask cannot carve out an
//!    exact count of tags from arbitrary IDs).
//! 2. With `F` = number of remaining tags and threshold `n*`, the expected
//!    circle size is `n*` — the Theorem-1 optimum `n* ∈ [l_c·ln2, e·l_c·ln2]`
//!    (shifted upward when per-round initiations are charged).
//! 3. HPP runs to exhaustion inside the circle; deselected tags then rejoin
//!    and the next circle starts.
//!
//! When the whole remaining population fits in one circle EHPP "just
//! executes HPP as-is" (the paper's `n = 100` observation), charging no
//! circle command.

use rfid_analysis::ehpp::optimal_subset_size_with_overhead;
use rfid_c1g2::commands::{CIRCLE_COMMAND_BITS, ROUND_INIT_BITS};
use rfid_hash::TagHash;
use rfid_system::{Json, JsonError, SimContext, TagPopulation, ToJson};

use crate::error::{StallCause, StallGuard};
use crate::hpp::hpp_round;
use crate::session::{ProtocolStepper, StepDiscipline, StepOutcome};
use crate::PollingProtocol;

/// The Enhanced Hash Polling Protocol, as its configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EhppConfig {
    /// Fixed subset size; `None` uses the Theorem-1 numeric optimum for the
    /// paper's `l_c` = 128-bit circle command and 32-bit round initiation.
    pub subset_size: Option<u64>,
    /// Safety cap on circles.
    pub max_circles: u64,
}

impl Default for EhppConfig {
    fn default() -> Self {
        EhppConfig {
            subset_size: None,
            max_circles: 1_000_000,
        }
    }
}

impl EhppConfig {
    /// The subset size the protocol will target.
    pub fn effective_subset_size(&self) -> u64 {
        self.subset_size
            .unwrap_or_else(|| {
                optimal_subset_size_with_overhead(CIRCLE_COMMAND_BITS, ROUND_INIT_BITS)
            })
            .max(1)
    }
}

impl PollingProtocol for EhppConfig {
    fn name(&self) -> &'static str {
        "EHPP"
    }

    fn open_stepper(&self, _ctx: &SimContext) -> Box<dyn ProtocolStepper> {
        Box::new(EhppStepper::open(self))
    }

    /// A tag is deselected only inside a selected circle, so a restored
    /// population with deselected tags in any other state is refused: a
    /// forged `final_drain` would otherwise end `complete` with those tags
    /// never read.
    fn resume_stepper(
        &self,
        ctx: &SimContext,
        state: &Json,
    ) -> Result<Box<dyn ProtocolStepper>, JsonError> {
        let mut stepper = EhppStepper::open(self);
        stepper.circles = state.field("circles")?;
        let mode: String = state.field("mode")?;
        stepper.inner = match mode.as_str() {
            "select" => None,
            "inner" => Some(InnerCircle {
                final_drain: state.field("final_drain")?,
                rounds: state.field("rounds")?,
                guard: state.field("guard")?,
            }),
            other => return Err(JsonError(format!("unknown EHPP stepper mode '{other}'"))),
        };
        // Everyone not yet read listens; the active ones are the rest.
        let deselected = ctx.population.listening_count() - ctx.population.active_count();
        let selected_circle = matches!(
            stepper.inner,
            Some(InnerCircle {
                final_drain: false,
                ..
            })
        );
        if deselected > 0 && !selected_circle {
            return Err(JsonError(format!(
                "{deselected} tags are deselected outside a selected circle \
                 (EHPP deselects only in mode \"inner\" with final_drain false)"
            )));
        }
        Ok(Box::new(stepper))
    }
}

/// Safety cap on HPP rounds inside one circle (each circle gets a fresh
/// budget).
const CIRCLE_MAX_ROUNDS: u64 = 1_000_000;

/// The HPP run inside the current circle.
struct InnerCircle {
    /// The final circle runs over *everyone* (no selection happened), so
    /// there is nothing to reselect when it drains or stalls.
    final_drain: bool,
    /// Rounds spent inside this circle (each circle gets a fresh budget).
    rounds: u64,
    /// Per-circle stall guard (the legacy inner loop's).
    guard: StallGuard,
}

/// One step = one circle selection *or* one HPP round inside the current
/// circle. Self-limited: the circle cap and the per-circle round budget and
/// guard live here, below the driver's step granularity.
struct EhppStepper {
    cfg: EhppConfig,
    n_star: u64,
    circles: u64,
    /// `None` between circles (next step selects), `Some` inside one.
    inner: Option<InnerCircle>,
    /// The last selection's keep-masks, one word per 64 handles, reused
    /// across circles.
    keep: Vec<u64>,
}

/// Fills `keep` with one mask per word of the population's active set: bit
/// `i` is set iff tag `i` is active and `H(r, id) mod F < n*`. Returns how
/// many tags it selects.
fn selection_masks(
    population: &TagPopulation,
    selector: TagHash,
    f_range: u64,
    n_star: u64,
    keep: &mut Vec<u64>,
) -> usize {
    let (ids_hi, ids_lo) = population.id_words();
    keep.clear();
    let mut selected = 0;
    for ((&word, hi), lo) in population
        .active_words()
        .iter()
        .zip(ids_hi.chunks(64))
        .zip(ids_lo.chunks(64))
    {
        let mut mask = 0u64;
        let mut bits = word;
        while bits != 0 {
            let bit = bits.trailing_zeros() as usize;
            mask |= u64::from(selector.modulo(hi[bit], lo[bit], f_range) < n_star) << bit;
            bits &= bits - 1;
        }
        selected += mask.count_ones() as usize;
        keep.push(mask);
    }
    selected
}

impl EhppStepper {
    fn open(cfg: &EhppConfig) -> Self {
        EhppStepper {
            cfg: *cfg,
            n_star: cfg.effective_subset_size(),
            circles: 0,
            inner: None,
            keep: Vec::new(),
        }
    }

    /// Opens the next circle: probabilistic selection, or the final drain
    /// when everyone left fits into one circle.
    fn select_step(&mut self, ctx: &mut SimContext) -> StepOutcome {
        self.circles = self.circles.wrapping_add(1);
        if self.circles > self.cfg.max_circles {
            return StepOutcome::Stalled(StallCause::RoundCap);
        }
        let remaining = ctx.population.active_count() as u64;
        if remaining <= self.n_star {
            // Final (or only) circle: run HPP over everyone, no circle
            // command — EHPP degenerates to HPP on small populations.
            self.inner = Some(InnerCircle {
                final_drain: true,
                rounds: 0,
                guard: StallGuard::default(),
            });
            return StepOutcome::Progressed;
        }
        // Probabilistic selection: tag joins iff H(r, id) mod F < n*. The
        // keep-masks are computed first, the circle command goes out over
        // the pre-selection active set (its downlink draws walk it), and
        // only then are the unselected tags deselected.
        let selector = TagHash::new(ctx.draw_round_seed());
        let selected = selection_masks(
            &ctx.population,
            selector,
            remaining,
            self.n_star,
            &mut self.keep,
        );
        ctx.begin_circle(selected);
        if selected == 0 {
            // Nobody joined (rare); re-draw a selection seed next step. The
            // circle command was still spent on the air.
            return StepOutcome::Progressed;
        }
        ctx.population.retain_selected(&self.keep);
        self.inner = Some(InnerCircle {
            final_drain: false,
            rounds: 0,
            guard: StallGuard::default(),
        });
        StepOutcome::Progressed
    }

    /// One HPP round inside the current circle (or the circle-drained
    /// transition back to selection).
    fn inner_step(&mut self, ctx: &mut SimContext) -> StepOutcome {
        let final_drain = self
            .inner
            .as_ref()
            .expect("inner_step requires an open circle")
            .final_drain;
        if ctx.population.active_count() == 0 {
            // Circle drained: deselected tags rejoin, next step selects.
            if !final_drain {
                ctx.population.reselect_all();
            }
            self.inner = None;
            return StepOutcome::Progressed;
        }
        let circle = self.inner.as_mut().expect("checked above");
        circle.rounds = circle.rounds.wrapping_add(1);
        if circle.rounds > CIRCLE_MAX_ROUNDS {
            // Reselect first so the partial report sees the true
            // uncollected set, then surface the stall.
            if !final_drain {
                ctx.population.reselect_all();
            }
            return StepOutcome::Stalled(StallCause::RoundCap);
        }
        hpp_round(ctx);
        let stalled = self
            .inner
            .as_mut()
            .expect("checked above")
            .guard
            .no_progress(ctx);
        if stalled {
            if !final_drain {
                ctx.population.reselect_all();
            }
            return StepOutcome::Stalled(StallCause::NoProgress);
        }
        StepOutcome::Progressed
    }
}

impl ProtocolStepper for EhppStepper {
    fn discipline(&self) -> StepDiscipline {
        StepDiscipline::self_limited()
    }

    fn done(&self, ctx: &SimContext) -> bool {
        // Zero active tags mid-circle means the *circle* drained, not the
        // protocol: the deselected tags still have to rejoin.
        ctx.population.active_count() == 0
            && !matches!(
                self.inner,
                Some(InnerCircle {
                    final_drain: false,
                    ..
                })
            )
    }

    fn step(&mut self, ctx: &mut SimContext) -> StepOutcome {
        if self.inner.is_some() {
            self.inner_step(ctx)
        } else {
            self.select_step(ctx)
        }
    }

    fn state(&self) -> Json {
        let mut fields = vec![("circles".to_string(), self.circles.to_json())];
        match &self.inner {
            None => fields.push(("mode".to_string(), Json::str("select"))),
            Some(circle) => {
                fields.push(("mode".to_string(), Json::str("inner")));
                fields.push(("final_drain".to_string(), circle.final_drain.to_json()));
                fields.push(("rounds".to_string(), circle.rounds.to_json()));
                fields.push(("guard".to_string(), circle.guard.to_json()));
            }
        }
        Json::Obj(fields)
    }

    fn reset(&mut self, _ctx: &SimContext) {
        self.circles = 0;
        self.inner = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpp::HppConfig;
    use crate::report::Report;
    use rfid_hash::prop::{check, Gen};
    use rfid_hash::{prop_assert, prop_assert_eq};
    use rfid_system::{BitVec, Channel, SimConfig, TagId};

    fn run(n: usize, seed: u64, cfg: EhppConfig) -> (Report, SimContext) {
        let pop = TagPopulation::sequential(n, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(seed));
        let report = cfg.run(&mut ctx);
        (report, ctx)
    }

    #[test]
    fn reads_every_tag_exactly_once() {
        let (report, ctx) = run(2_000, 1, EhppConfig::default());
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 2_000);
        assert_eq!(report.counters.empty_slots, 0);
    }

    #[test]
    fn uses_multiple_circles_at_scale() {
        let (report, _) = run(5_000, 2, EhppConfig::default());
        assert!(
            report.counters.circles >= 5,
            "only {} circles for 5000 tags",
            report.counters.circles
        );
    }

    #[test]
    fn small_population_matches_hpp_cost() {
        // Tables I–III note: EHPP == HPP at n = 100 because a single circle
        // executes HPP as-is.
        let n = 100;
        let (ehpp, _) = run(n, 3, EhppConfig::default());
        let pop = TagPopulation::sequential(n, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(3));
        let hpp = HppConfig::default().run(&mut ctx);
        assert_eq!(ehpp.total_time, hpp.total_time);
        assert_eq!(ehpp.counters.reader_bits, hpp.counters.reader_bits);
    }

    #[test]
    fn vector_length_is_flat_in_population_size() {
        // Fig. 10: EHPP stays ≈ 9 bits from 10⁴ to 10⁵ tags. Use the
        // overhead-inclusive metric the paper plots.
        let (small, _) = run(5_000, 4, EhppConfig::default());
        let (large, _) = run(20_000, 5, EhppConfig::default());
        let ws = small.mean_vector_bits_with_overhead();
        let wl = large.mean_vector_bits_with_overhead();
        assert!((ws - wl).abs() < 1.0, "w(5k) = {ws}, w(20k) = {wl}");
    }

    #[test]
    fn fig10_anchor_about_nine_bits() {
        let (report, _) = run(20_000, 6, EhppConfig::default());
        let w = report.mean_vector_bits_with_overhead();
        assert!((w - 9.0).abs() < 1.0, "w = {w}");
    }

    #[test]
    fn beats_hpp_at_scale() {
        let n = 20_000;
        let (ehpp, _) = run(n, 7, EhppConfig::default());
        let pop = TagPopulation::sequential(n, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(7));
        let hpp = HppConfig::default().run(&mut ctx);
        assert!(
            ehpp.total_time < hpp.total_time,
            "EHPP {} not faster than HPP {}",
            ehpp.total_time,
            hpp.total_time
        );
    }

    #[test]
    fn fixed_subset_size_is_respected() {
        let cfg = EhppConfig {
            subset_size: Some(100),
            ..EhppConfig::default()
        };
        assert_eq!(cfg.effective_subset_size(), 100);
        let (report, ctx) = run(1_000, 8, cfg);
        ctx.assert_complete();
        // ~10 circles of ~100 tags (probabilistic selection wobbles).
        assert!(
            (5..=25).contains(&report.counters.circles),
            "{} circles",
            report.counters.circles
        );
    }

    #[test]
    fn completes_on_a_lossy_channel() {
        let pop = TagPopulation::sequential(500, |_| BitVec::from_value(1, 1));
        let cfg = SimConfig::paper(9).with_channel(Channel::lossy(0.2));
        let mut ctx = SimContext::new(pop, &cfg);
        let report = EhppConfig::default().run(&mut ctx);
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 500);
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, _) = run(800, 10, EhppConfig::default());
        let (b, _) = run(800, 10, EhppConfig::default());
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.counters.circles, b.counters.circles);
    }

    /// The per-tag selection this protocol ran before it selected a word
    /// at a time: collect every active tag that fails the predicate, then
    /// deselect them one by one unless nobody was selected.
    fn per_tag_selection(
        population: &mut TagPopulation,
        selector: TagHash,
        f_range: u64,
        n_star: u64,
    ) -> usize {
        let mut dropped = Vec::new();
        let (ids_hi, ids_lo) = population.id_words();
        population.for_each_active(|handle| {
            if selector.modulo(ids_hi[handle], ids_lo[handle], f_range) >= n_star {
                dropped.push(handle);
            }
        });
        let selected = population.active_count() - dropped.len();
        if selected > 0 {
            for handle in dropped {
                population.deselect(handle);
            }
        }
        selected
    }

    /// Word-wise selection leaves every tag in the state the per-tag loop
    /// leaves it in, over random active/asleep/deselected patterns,
    /// population sizes that are not multiples of 64, `F = 1` and
    /// `n* ≥ F`; reselection then restores the same population too.
    #[test]
    fn prop_word_selection_matches_per_tag_loop() {
        check("word-wise selection matches per-tag", 256, |g: &mut Gen| {
            let n = g.len_in(1, 300);
            let ids: Vec<TagId> = (0..n)
                .map(|i| TagId::from_raw(g.u32(), (i as u64) << 32 | u64::from(g.u32())))
                .collect();
            let mut oracle = TagPopulation::new(ids.iter().map(|&id| (id, BitVec::new())));
            for handle in 0..n {
                match g.u64_below(3) {
                    0 => oracle.sleep(handle),
                    1 => oracle.deselect(handle),
                    _ => {}
                }
            }
            let mut words = oracle.clone();
            let f_range = match g.u64_below(3) {
                0 => 1,
                1 => (oracle.active_count() as u64).max(1),
                _ => g.u64_in(1, 2 * n as u64),
            };
            let n_star = g.u64_in(1, f_range + 2);
            let selector = TagHash::new(g.u64());

            let want = per_tag_selection(&mut oracle, selector, f_range, n_star);
            let mut keep = vec![u64::MAX; 3];
            let got = selection_masks(&words, selector, f_range, n_star, &mut keep);
            prop_assert_eq!(got, want);
            prop_assert_eq!(keep.len(), n.div_ceil(64));
            if got > 0 {
                words.retain_selected(&keep);
            }
            prop_assert_eq!(words.active_count(), oracle.active_count());
            for handle in 0..n {
                prop_assert_eq!(words.state(handle), oracle.state(handle));
            }
            prop_assert!(words == oracle, "bitsets differ");
            words.reselect_all();
            oracle.reselect_all();
            prop_assert!(words == oracle, "bitsets differ after reselection");
            prop_assert_eq!(words.active_count(), oracle.active_count());
            Ok(())
        });
    }

    #[test]
    fn selection_is_unbiased_in_expectation() {
        // Average first-circle size over seeds tracks n*.
        let n = 4_000usize;
        let n_star = EhppConfig::default().effective_subset_size();
        let selector_sizes: Vec<usize> = (0..20)
            .map(|s| {
                let pop = TagPopulation::sequential(n, |_| BitVec::from_value(1, 1));
                let ctx = SimContext::new(pop, &SimConfig::paper(s));
                let selector = TagHash::new(s * 31 + 1);
                ctx.population
                    .ids()
                    .filter(|id| selector.modulo(id.hi(), id.lo(), n as u64) < n_star)
                    .count()
            })
            .collect();
        let mean = selector_sizes.iter().sum::<usize>() as f64 / selector_sizes.len() as f64;
        assert!(
            (mean - n_star as f64).abs() < n_star as f64 * 0.15,
            "mean circle size {mean} vs target {n_star}"
        );
    }
}
