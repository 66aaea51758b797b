//! Polling under unknown-tag interference — a robustness extension.
//!
//! The paper assumes the interrogation zone contains exactly the tags the
//! reader knows. In practice *alien* tags drift in (mis-shelved stock,
//! neighbouring pallets). An alien hears the round initiation `(h, r)` and
//! picks an index like everyone else; if it happens to pick an index the
//! reader broadcasts as a singleton, the alien's reply collides with the
//! legitimate tag's and the poll fails. Fresh per-round seeds make repeat
//! collisions with the *same* alien vanishingly unlikely — but when aliens
//! *outnumber* the remaining unread tags a fixed index length livelocks
//! (every index is swamped), so the reader adapts: whenever a round's
//! success rate collapses it widens the index space by one bit until polls
//! get through again. With that backoff, hashed polling degrades
//! gracefully: every known tag is still read, at an extra cost that grows
//! with the alien fraction. This module measures exactly that.

use std::collections::HashMap;

use rfid_analysis::hpp::index_length;
use rfid_hash::TagHash;
use rfid_protocols::{PollingError, Report, StallCause, StallGuard};
use rfid_system::{SimContext, SlotOutcome};

/// Result of an interference run.
#[derive(Debug, Clone)]
pub struct InterferenceReport {
    /// The protocol cost report.
    pub report: Report,
    /// Polls that collided with an alien reply.
    pub alien_collisions: u64,
    /// Rounds executed.
    pub rounds: u64,
}

/// HPP-style polling of the `known` handles while the remaining active tags
/// in the population are aliens that interfere but are never addressed.
///
/// Returns `Err(PollingError::Stalled)` (with the partial report) if
/// convergence needs more than `max_rounds` rounds or progress stops — a
/// jammed channel or kill rule, not mere interference.
pub fn run_hpp_with_aliens(
    ctx: &mut SimContext,
    known: &[usize],
    max_rounds: u64,
) -> Result<InterferenceReport, PollingError> {
    let known_set: std::collections::HashSet<usize> = known.iter().copied().collect();
    let mut unread: Vec<usize> = known.to_vec();
    let mut alien_collisions = 0u64;
    let mut rounds = 0u64;
    let mut guard = StallGuard::default();
    // Collision backoff: extra index bits added when polls keep colliding
    // with aliens the reader cannot see.
    let mut h_extra = 0u32;

    while !unread.is_empty() {
        rounds += 1;
        if rounds > max_rounds {
            return Err(PollingError::stalled_with(
                "HPP+aliens",
                ctx,
                StallCause::RoundCap,
            ));
        }
        if guard.no_progress(ctx) {
            return Err(PollingError::stalled("HPP+aliens", ctx));
        }
        let h = (index_length(unread.len() as u64) + h_extra).min(30);
        let seed = ctx.draw_round_seed();
        ctx.begin_round(h, 32);

        // Reader side: sift singletons over the *known* unread tags only.
        let hash = TagHash::new(seed);
        let index_of = |ctx: &SimContext, handle: usize| {
            let id = ctx.population.get(handle).id;
            hash.index(id.hi(), id.lo(), h)
        };
        let mut by_index: HashMap<u64, Vec<usize>> = HashMap::new();
        for &handle in &unread {
            by_index
                .entry(index_of(ctx, handle))
                .or_default()
                .push(handle);
        }
        // Tag side: every *active* tag — alien or not — picks an index too.
        let mut repliers_of: HashMap<u64, Vec<usize>> = HashMap::new();
        {
            let pop = &ctx.population;
            let (ids_hi, ids_lo) = pop.id_words();
            pop.for_each_active(|handle| {
                repliers_of
                    .entry(hash.index(ids_hi[handle], ids_lo[handle], h))
                    .or_default()
                    .push(handle);
            });
        }

        let mut singles: Vec<(u64, usize)> = by_index
            .iter()
            .filter(|(_, v)| v.len() == 1)
            .map(|(&idx, v)| (idx, v[0]))
            .collect();
        singles.sort_unstable();

        let mut read_now = Vec::new();
        for &(idx, target) in &singles {
            let repliers = repliers_of.get(&idx).cloned().unwrap_or_default();
            match ctx.slot(&repliers, 4 + h as u64) {
                SlotOutcome::Singleton(tag) if tag == target => {
                    ctx.emit(rfid_system::Event::VectorCharged { bits: h as u64 });
                    ctx.mark_read(tag);
                    read_now.push(target);
                }
                SlotOutcome::Singleton(_) => {
                    // The expected replier was silenced (lost downlink,
                    // desync) and an alien's lone reply got through; the
                    // reader's payload sanity check rejects it and the
                    // known tag is retried next round.
                    alien_collisions += 1;
                }
                SlotOutcome::Collision(_) => {
                    // An alien (or a lost-reply survivor) stepped on the
                    // poll; the known tag retries next round.
                    debug_assert!(repliers.iter().any(|r| !known_set.contains(r)));
                    alien_collisions += 1;
                }
                SlotOutcome::Empty => {
                    // Reply lost on a lossy channel; retry next round.
                }
                SlotOutcome::Corrupted(_) => {
                    // Reply mangled in flight; the tag stays active and the
                    // reader re-polls it next round.
                }
            }
        }
        // Adapt the index width to the observed interference: widen when
        // polls mostly collide, anneal back when the air is clear again.
        if !singles.is_empty() {
            let success = read_now.len() as f64 / singles.len() as f64;
            if success < 0.5 {
                h_extra += 1;
            } else if success > 0.9 && h_extra > 0 {
                h_extra -= 1;
            }
        }
        let read_set: std::collections::HashSet<usize> = read_now.into_iter().collect();
        unread.retain(|handle| !read_set.contains(handle));
    }

    Ok(InterferenceReport {
        report: Report::from_context("HPP+aliens", ctx),
        alien_collisions,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_system::{BitVec, SimConfig, TagPopulation};

    /// Builds a population of `known + aliens` tags; returns the known
    /// handles (the first `known` of them).
    fn setup(known: usize, aliens: usize, seed: u64) -> (SimContext, Vec<usize>) {
        let pop = TagPopulation::sequential(known + aliens, |_| BitVec::from_value(1, 1));
        let ctx = SimContext::new(pop, &SimConfig::paper(seed));
        (ctx, (0..known).collect())
    }

    #[test]
    fn all_known_tags_read_despite_aliens() {
        let (mut ctx, known) = setup(500, 100, 1);
        let r = run_hpp_with_aliens(&mut ctx, &known, 10_000).expect("converges");
        assert_eq!(r.report.counters.polls, 500);
        // Aliens remain active and unread.
        assert_eq!(ctx.population.active_count(), 100);
        for &k in &known {
            assert!(!ctx.population.get(k).is_active(), "known tag {k} unread");
        }
    }

    #[test]
    fn aliens_cause_some_collisions() {
        // With 50 % aliens at matched index space, collisions are expected.
        let (mut ctx, known) = setup(1_000, 1_000, 2);
        let r = run_hpp_with_aliens(&mut ctx, &known, 10_000).expect("converges");
        assert!(r.alien_collisions > 0, "expected alien interference");
        assert_eq!(r.report.counters.polls, 1_000);
    }

    #[test]
    fn no_aliens_means_no_collisions() {
        let (mut ctx, known) = setup(800, 0, 3);
        let r = run_hpp_with_aliens(&mut ctx, &known, 10_000).expect("converges");
        assert_eq!(r.alien_collisions, 0);
        assert_eq!(r.report.counters.collision_slots, 0);
    }

    #[test]
    fn cost_grows_with_alien_fraction() {
        let time_with = |aliens: usize| {
            let (mut ctx, known) = setup(1_000, aliens, 4);
            run_hpp_with_aliens(&mut ctx, &known, 10_000)
                .expect("converges")
                .report
                .total_time
        };
        let clean = time_with(0);
        let half = time_with(1_000);
        assert!(half > clean, "aliens did not slow the inventory");
        // Graceful: even an alien-per-known ratio of 1 only roughly doubles
        // the run (collision retries + widened indices), never livelocks.
        assert!(half / clean < 3.0, "degradation {}", half / clean);
    }
}
