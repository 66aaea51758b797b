//! MIC — the Multi-hash Information Collection protocol (Chen et al.,
//! INFOCOM 2011), the state-of-the-art comparator of Section V-C.
//!
//! MIC is ALOHA-based: the reader announces a frame of `f` slots and each
//! tag owns `k` candidate slots `H_1(id) … H_k(id)`. Knowing all IDs, the
//! reader resolves tags to slots with a cascade of passes:
//!
//! * pass `j` considers the tags still unresolved after pass `j-1`; any
//!   *unmarked* slot whose pass-`j` candidate set is exactly one tag gets
//!   marked `j` and that tag is resolved;
//! * the reader then broadcasts an **indicator vector** of
//!   `⌈log₂(k+1)⌉` bits per slot (0 = wasted slot, `j` = serviced by `H_j`);
//! * each tag scans its hash functions in order and backscatters in the
//!   first slot `s_j = H_j(id)` with `indicator[s_j] = j`; the cascade
//!   construction makes this rule collision-free;
//! * tags unresolved after `k` passes are collected in the next round.
//!
//! With `k = 7` the wasted-slot fraction drops from basic ALOHA's 63.2 % to
//! ~14 % — but the indicator vector grows with `k` and every tag must
//! implement `k` hash functions (the storage cost Section V-C holds against
//! MIC, vs. the single hash of HPP/EHPP/TPP).

use rfid_c1g2::TimeCategory;
use rfid_hash::HashFamily;
use rfid_protocols::{PollingProtocol, ProtocolStepper, StepDiscipline, StepOutcome};
use rfid_system::{SimContext, SlotOutcome};

/// The Multi-hash Information Collection protocol, as its configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicConfig {
    /// Number of hash functions per tag (the paper compares against k = 7).
    pub k: usize,
    /// Safety cap on rounds.
    pub max_rounds: u64,
}

impl Default for MicConfig {
    fn default() -> Self {
        MicConfig {
            k: 7,
            max_rounds: 1_000_000,
        }
    }
}

impl MicConfig {
    /// Indicator bits per slot: `⌈log₂(k+1)⌉`.
    pub(crate) fn indicator_bits_per_slot(&self) -> u64 {
        (usize::BITS - self.k.leading_zeros()) as u64
    }
}

/// One resolved slot: which tag answers and under which hash index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotAssignment {
    /// Tag handle.
    pub(crate) tag: usize,
    /// 1-based hash-function index that routed the tag here.
    pub(crate) hash_index: usize,
}

/// Reusable cascade state: epoch-stamped per-slot counters plus the
/// unresolved worklist, carried across rounds so the cascade allocates
/// nothing once warm.
#[derive(Debug, Clone, Default)]
struct CascadeScratch {
    unresolved: Vec<usize>,
    stamp: Vec<u32>,
    count: Vec<u32>,
    epoch: u32,
}

impl MicConfig {
    /// Flat-buffer cascade used by the run loop: `cand_flat` holds `k`
    /// candidate slots per entry of `handles`, and the per-slot assignment
    /// is written into `slots` (resized to `frame`). Pass counting uses the
    /// epoch-stamped arrays in `scratch`, so steady-state rounds perform no
    /// heap allocation. Produces exactly the result of the tests' reference
    /// cascade.
    fn assign_flat(
        scratch: &mut CascadeScratch,
        handles: &[usize],
        cand_flat: &[u64],
        k: usize,
        frame: u64,
        slots: &mut Vec<Option<SlotAssignment>>,
    ) {
        slots.clear();
        slots.resize(frame as usize, None);
        let CascadeScratch {
            unresolved,
            stamp,
            count,
            epoch,
        } = scratch;
        if stamp.len() < frame as usize {
            stamp.resize(frame as usize, 0);
            count.resize(frame as usize, 0);
        }
        unresolved.clear();
        unresolved.extend(0..handles.len());
        for j in 0..k {
            if unresolved.is_empty() {
                break;
            }
            *epoch = match epoch.checked_add(1) {
                Some(e) => e,
                None => {
                    stamp.fill(0);
                    1
                }
            };
            let pass = *epoch;
            // Count pass-j candidates per *unmarked* slot.
            for &ci in unresolved.iter() {
                let s = cand_flat[ci * k + j] as usize;
                if slots[s].is_none() {
                    if stamp[s] != pass {
                        stamp[s] = pass;
                        count[s] = 1;
                    } else {
                        count[s] += 1;
                    }
                }
            }
            // A tag contributes one candidate per pass, so count-1 slots
            // each belong to a distinct unresolved tag: mark and resolve.
            unresolved.retain(|&ci| {
                let s = cand_flat[ci * k + j] as usize;
                let resolved = stamp[s] == pass && count[s] == 1;
                if resolved {
                    slots[s] = Some(SlotAssignment {
                        tag: handles[ci],
                        hash_index: j + 1,
                    });
                }
                !resolved
            });
        }
    }
}

impl PollingProtocol for MicConfig {
    fn name(&self) -> &'static str {
        "MIC"
    }

    // All serialized state is the context's; the frame buffers are per-step
    // transients.
    fn open_stepper(&self, _ctx: &SimContext) -> Box<dyn ProtocolStepper> {
        assert!(self.k >= 1, "MIC needs at least one hash function");
        Box::new(MicStepper {
            cfg: *self,
            bits_per_slot: self.indicator_bits_per_slot(),
            handles: Vec::new(),
            cand_flat: Vec::new(),
            assignment: Vec::new(),
            scratch: CascadeScratch::default(),
        })
    }
}

/// One step = one MIC frame (cascade + indicator broadcast + slot walk),
/// announced by a 32-bit round initiation. The frame holds one slot per
/// unresolved tag: MIC leaves its frame size free, and this load-1 frame
/// reproduces the paper's MIC anchors — ≈1.57× the lower bound at `l = 1`
/// (paper: 1.586×), ≈1.29× at `l = 32` (paper: 1.28×), and losing to HPP
/// at `n = 100, l = 32` (see EXPERIMENTS.md).
struct MicStepper {
    cfg: MicConfig,
    bits_per_slot: u64,
    // Frame buffers reused across rounds: active handles, their flat
    // k-candidate lists, the per-slot assignment, and cascade scratch.
    handles: Vec<usize>,
    cand_flat: Vec<u64>,
    assignment: Vec<Option<SlotAssignment>>,
    scratch: CascadeScratch,
}

impl ProtocolStepper for MicStepper {
    fn discipline(&self) -> StepDiscipline {
        StepDiscipline::budgeted(self.cfg.max_rounds)
    }

    fn step(&mut self, ctx: &mut SimContext) -> StepOutcome {
        let unresolved = ctx.population.active_count() as u64;
        let frame = unresolved.max(1);
        let seed = ctx.draw_round_seed();
        let family = HashFamily::new(seed, self.cfg.k);
        ctx.begin_round(0);

        // Both sides compute candidate slots from the same hashes.
        self.handles.clear();
        self.cand_flat.clear();
        {
            let pop = &ctx.population;
            let (ids_hi, ids_lo) = pop.id_words();
            let handles = &mut self.handles;
            let cand_flat = &mut self.cand_flat;
            pop.for_each_active(|handle| {
                handles.push(handle);
                family.slots_into(ids_hi[handle], ids_lo[handle], frame, cand_flat);
            });
        }
        MicConfig::assign_flat(
            &mut self.scratch,
            &self.handles,
            &self.cand_flat,
            self.cfg.k,
            frame,
            &mut self.assignment,
        );

        // Broadcast the indicator vector.
        ctx.reader_tx(
            rfid_system::BroadcastKind::IndicatorVector,
            frame * self.bits_per_slot,
            TimeCategory::IndicatorVector,
        );

        // Walk the frame: marked slots carry one reply, unmarked slots
        // are the (short) wasted slots MIC could not eliminate.
        for slot in &self.assignment {
            match slot {
                Some(a) => {
                    if let SlotOutcome::Singleton(tag) =
                        ctx.slot(&[a.tag], rfid_c1g2::QUERY_REP_BITS, None)
                    {
                        ctx.mark_read(tag);
                    }
                }
                None => {
                    ctx.slot(&[], rfid_c1g2::QUERY_REP_BITS, None);
                    // Pad the empty slot to the full reply window: framed
                    // slots are fixed-duration, the timing model under
                    // which the paper's Table III shape holds (HPP beats
                    // MIC at n = 100, l = 32).
                    let pad = ctx.link.tag_tx(ctx.population.info_bits() as u64);
                    ctx.wait(TimeCategory::WastedSlot, pad);
                }
            }
        }
        StepOutcome::Progressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_protocols::Report;
    use rfid_system::{BitVec, Channel, SimConfig, TagId, TagPopulation};

    /// A tag's `k` candidate slots, as a list of its own.
    fn slots(family: &HashFamily, id: TagId, frame: u64) -> Vec<u64> {
        let mut out = Vec::new();
        family.slots_into(id.hi(), id.lo(), frame, &mut out);
        out
    }

    /// Reader-side cascade: resolves active tags into frame slots.
    ///
    /// Returns the per-slot assignment (`None` = wasted slot): the reference
    /// that the run loop's flat cascade must match.
    fn assign(
        family: &HashFamily,
        candidates: &[(usize, Vec<u64>)],
        frame: u64,
    ) -> Vec<Option<SlotAssignment>> {
        let _ = family; // candidate lists are precomputed from it
        let mut slots: Vec<Option<SlotAssignment>> = vec![None; frame as usize];
        let mut unresolved: Vec<usize> = (0..candidates.len()).collect();
        let k = candidates.first().map_or(0, |(_, c)| c.len());
        for j in 0..k {
            if unresolved.is_empty() {
                break;
            }
            // Count pass-j candidates per *unmarked* slot.
            let mut count: std::collections::HashMap<u64, (usize, usize)> =
                std::collections::HashMap::new();
            for &ci in &unresolved {
                let slot = candidates[ci].1[j];
                if slots[slot as usize].is_none() {
                    count
                        .entry(slot)
                        .and_modify(|e| e.1 += 1)
                        .or_insert((ci, 1));
                }
            }
            let mut resolved_now = std::collections::HashSet::new();
            for (&slot, &(ci, c)) in &count {
                if c == 1 {
                    slots[slot as usize] = Some(SlotAssignment {
                        tag: candidates[ci].0,
                        hash_index: j + 1,
                    });
                    resolved_now.insert(ci);
                }
            }
            unresolved.retain(|ci| !resolved_now.contains(ci));
        }
        slots
    }

    /// Tag-side rule: the slot a tag replies in given the indicator vector,
    /// or `None` if it stays silent this frame: the cascade and the tag rule
    /// must agree.
    fn tag_reply_slot(indicator: &[u8], slots_of_tag: &[u64]) -> Option<(usize, u64)> {
        for (j, &slot) in slots_of_tag.iter().enumerate() {
            if indicator[slot as usize] as usize == j + 1 {
                return Some((j + 1, slot));
            }
        }
        None
    }

    fn run(n: usize, seed: u64, cfg: MicConfig) -> (Report, SimContext) {
        let pop = TagPopulation::sequential(n, |_| BitVec::from_value(1, 1));
        let mut ctx = SimContext::new(pop, &SimConfig::paper(seed));
        let report = cfg.run(&mut ctx);
        (report, ctx)
    }

    #[test]
    fn collects_from_every_tag() {
        let (report, ctx) = run(1_000, 1, MicConfig::default());
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 1_000);
    }

    #[test]
    fn indicator_width_is_3_bits_for_k7() {
        assert_eq!(MicConfig::default().indicator_bits_per_slot(), 3);
        assert_eq!(
            MicConfig {
                k: 1,
                ..MicConfig::default()
            }
            .indicator_bits_per_slot(),
            1
        );
        assert_eq!(
            MicConfig {
                k: 3,
                ..MicConfig::default()
            }
            .indicator_bits_per_slot(),
            2
        );
    }

    #[test]
    fn k7_wastes_far_fewer_slots_than_k1() {
        let (r7, _) = run(2_000, 2, MicConfig::default());
        let (r1, _) = run(
            2_000,
            2,
            MicConfig {
                k: 1,
                ..MicConfig::default()
            },
        );
        let waste7 =
            r7.counters.empty_slots as f64 / (r7.counters.empty_slots + r7.counters.polls) as f64;
        let waste1 =
            r1.counters.empty_slots as f64 / (r1.counters.empty_slots + r1.counters.polls) as f64;
        assert!(
            waste7 < waste1 / 2.0,
            "waste k=7: {waste7:.3}, k=1: {waste1:.3}"
        );
        // The paper quotes ~13.9 % wasted slots for k = 7 at load ~1.
        assert!(waste7 < 0.25, "waste {waste7}");
    }

    #[test]
    fn flat_cascade_matches_reference_assign() {
        // The run loop's flat-buffer cascade must resolve exactly the same
        // slots as the reference `assign`, including on partially-read
        // populations and across reused scratch.
        let mut pop = TagPopulation::sequential(400, |_| BitVec::from_value(1, 1));
        for i in (0..400).step_by(5) {
            pop.sleep(i);
        }
        let mut scratch = CascadeScratch::default();
        let mut flat_out = Vec::new();
        for seed in 0..6u64 {
            let frame = 450u64;
            let k = 7;
            let family = HashFamily::new(seed, k);
            let candidates: Vec<(usize, Vec<u64>)> = pop
                .ids()
                .enumerate()
                .filter(|&(h, _)| pop.is_active(h))
                .map(|(h, id)| (h, slots(&family, id, frame)))
                .collect();
            let want = assign(&family, &candidates, frame);
            let handles: Vec<usize> = candidates.iter().map(|&(h, _)| h).collect();
            let cand_flat: Vec<u64> = candidates.iter().flat_map(|(_, s)| s.clone()).collect();
            MicConfig::assign_flat(&mut scratch, &handles, &cand_flat, k, frame, &mut flat_out);
            assert_eq!(flat_out, want, "seed {seed}");
        }
    }

    #[test]
    fn cascade_and_tag_rule_agree() {
        // Build one frame by hand and replay the tag-side rule against the
        // broadcast indicator: exactly the assigned tags answer, each alone
        // in its slot.
        let pop = TagPopulation::sequential(500, |_| BitVec::from_value(1, 1));
        let ctx = SimContext::new(pop, &SimConfig::paper(3));
        let frame = 600u64;
        let family = HashFamily::new(42, 7);
        let candidates: Vec<(usize, Vec<u64>)> = ctx
            .population
            .ids()
            .enumerate()
            .map(|(h, id)| (h, slots(&family, id, frame)))
            .collect();
        let assignment = assign(&family, &candidates, frame);
        let indicator: Vec<u8> = assignment
            .iter()
            .map(|s| s.map_or(0, |a| a.hash_index as u8))
            .collect();
        let mut replies: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        for (handle, slots) in &candidates {
            if let Some((_, slot)) = tag_reply_slot(&indicator, slots) {
                replies.entry(slot).or_default().push(*handle);
            }
        }
        for (slot, who) in &replies {
            assert_eq!(who.len(), 1, "collision in slot {slot}: {who:?}");
            let assigned = assignment[*slot as usize].expect("reply in unmarked slot");
            assert_eq!(assigned.tag, who[0]);
        }
        // Every assigned slot gets its reply.
        let assigned_count = assignment.iter().flatten().count();
        assert_eq!(replies.len(), assigned_count);
        // k = 7 resolves the lion's share in one frame.
        assert!(
            assigned_count > 450,
            "only {assigned_count} of 500 resolved"
        );
    }

    #[test]
    fn needs_k_hashes_tag_side() {
        // The storage argument of Section V-C: MIC's tag computes k hashes;
        // the family really exposes k distinct members.
        let family = HashFamily::new(7, 7);
        assert_eq!(family.len(), 7);
    }

    #[test]
    fn completes_on_lossy_channel() {
        let pop = TagPopulation::sequential(300, |_| BitVec::from_value(1, 1));
        let cfg = SimConfig::paper(4).with_channel(Channel::lossy(0.2));
        let mut ctx = SimContext::new(pop, &cfg);
        let report = MicConfig::default().run(&mut ctx);
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 300);
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, _) = run(400, 5, MicConfig::default());
        let (b, _) = run(400, 5, MicConfig::default());
        assert_eq!(a.total_time, b.total_time);
    }

    #[test]
    fn single_tag_single_slot() {
        let (report, ctx) = run(1, 6, MicConfig::default());
        ctx.assert_complete();
        assert_eq!(report.counters.polls, 1);
    }
}
