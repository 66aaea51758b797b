//! Tag population bookkeeping.
//!
//! The reader-side protocols iterate over "unread tags" constantly; the
//! population keeps tags in a dense `Vec` (index = stable handle) and tracks
//! how many are still active so protocols can terminate without scanning.
//!
//! Each tag's inventory state lives in two bitsets, one bit per handle: the
//! *active set* and the *deselected set* (EHPP's circle filter); a tag in
//! neither is asleep. The bits are the only record of state, so per-round
//! work such as the singleton sift costs O(active) instead of
//! O(population), and a circle's selection deselects and reselects tags a
//! 64-bit word at a time. A structure-of-arrays cache of the raw ID words
//! lets batch hashing stream the ID blocks without touching the `Tag`
//! structs.

#[cfg(debug_assertions)]
use std::cell::Cell;

use crate::bitvec::BitVec;
use crate::id::TagId;
use crate::tag::{Tag, TagState};

/// The set of tags in the interrogation zone.
#[derive(Debug, Clone)]
pub struct TagPopulation {
    tags: Vec<Tag>,
    active: usize,
    asleep: usize,
    /// Bit `i` of `active_words[i / 64]` (LSB-first) is set iff tag `i` is
    /// active — the O(active/64) iteration substrate.
    active_words: Vec<u64>,
    /// Bit `i` of `deselected_words[i / 64]` is set iff tag `i` sits out
    /// the current EHPP circle. Disjoint from `active_words`.
    deselected_words: Vec<u64>,
    /// SoA cache of the raw EPC words, aligned with `tags` — lets the
    /// round index batch-hash ID blocks without chasing `Tag` structs.
    ids_hi: Vec<u32>,
    ids_lo: Vec<u64>,
    /// Debug-only full-population scan counter; slot handlers assert it
    /// stays unchanged across a slot (no handler may rescan the population).
    #[cfg(debug_assertions)]
    scans: Cell<u64>,
}

impl PartialEq for TagPopulation {
    /// Populations compare by their tags' IDs and payloads and by the state
    /// bitsets; the counts and the SoA cache are derived from those.
    fn eq(&self, other: &Self) -> bool {
        self.tags == other.tags
            && self.active_words == other.active_words
            && self.deselected_words == other.deselected_words
    }
}

impl TagPopulation {
    /// Builds a population from `(id, info)` pairs.
    ///
    /// # Panics
    /// Panics if two tags share an ID — EPCs are unique by definition and
    /// every protocol in the paper relies on it.
    pub fn new(tags: impl IntoIterator<Item = (TagId, BitVec)>) -> Self {
        TagPopulation::try_new(tags).unwrap_or_else(|id| panic!("duplicate tag ID {id}"))
    }

    /// [`TagPopulation::new`] for untrusted input: a shared ID is returned
    /// instead of panicking.
    pub(crate) fn try_new(tags: impl IntoIterator<Item = (TagId, BitVec)>) -> Result<Self, TagId> {
        let tags: Vec<Tag> = tags
            .into_iter()
            .map(|(id, info)| Tag::new(id, info))
            .collect();
        let mut seen = std::collections::HashSet::with_capacity(tags.len());
        if let Some(t) = tags.iter().find(|t| !seen.insert(t.id)) {
            return Err(t.id);
        }
        let active = tags.len();
        let mut active_words = vec![u64::MAX; tags.len().div_ceil(64)];
        if let Some(last) = active_words.last_mut() {
            let tail = tags.len() % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        let deselected_words = vec![0; active_words.len()];
        let ids_hi: Vec<u32> = tags.iter().map(|t| t.id.hi()).collect();
        let ids_lo: Vec<u64> = tags.iter().map(|t| t.id.lo()).collect();
        Ok(TagPopulation {
            tags,
            active,
            asleep: 0,
            active_words,
            deselected_words,
            ids_hi,
            ids_lo,
            #[cfg(debug_assertions)]
            scans: Cell::new(0),
        })
    }

    /// Convenience: `n` tags with sequential raw IDs and the given payload
    /// generator (mostly for tests).
    pub fn sequential(n: usize, info: impl Fn(usize) -> BitVec) -> Self {
        TagPopulation::new((0..n).map(|i| (TagId::from_raw(0, i as u64), info(i))))
    }

    /// Total number of tags.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// `true` if the population has no tags.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Number of tags still active (unread and not deselected).
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// Immutable access to a tag by handle.
    pub fn get(&self, idx: usize) -> &Tag {
        &self.tags[idx]
    }

    /// Whether tag `idx` currently listens and replies.
    #[inline]
    pub fn is_active(&self, idx: usize) -> bool {
        self.active_words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Tag `idx`'s inventory state, read from the bitsets.
    pub fn state(&self, idx: usize) -> TagState {
        if self.is_active(idx) {
            TagState::Active
        } else if self.deselected_words[idx / 64] & (1u64 << (idx % 64)) != 0 {
            TagState::Deselected
        } else {
            TagState::Asleep
        }
    }

    /// All tags (any state), with handles. Counts as a full-population scan
    /// for the debug slot-handler assertion.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Tag)> {
        self.note_scan();
        self.tags.iter().enumerate()
    }

    /// Calls `f` for every active handle in ascending order, by iterating
    /// the active-set bitset (O(len/64 + active), no allocation).
    #[inline]
    pub fn for_each_active(&self, mut f: impl FnMut(usize)) {
        self.note_scan();
        for (w, &word) in self.active_words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let idx = w * 64 + bits.trailing_zeros() as usize;
                f(idx);
                bits &= bits - 1;
            }
        }
    }

    /// Clears `out` and fills it with the active handles in ascending order.
    pub fn collect_active_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.reserve(self.active);
        self.for_each_active(|idx| out.push(idx));
    }

    /// The lowest active handle, if any (O(len/64), no allocation).
    pub fn first_active(&self) -> Option<usize> {
        self.active_words
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| i * 64 + w.trailing_zeros() as usize)
    }

    /// The active-set bitset words (bit `i%64` of word `i/64` = handle `i`).
    pub fn active_words(&self) -> &[u64] {
        &self.active_words
    }

    /// The SoA cache of raw EPC words, aligned with handles: `(hi, lo)`.
    pub fn id_words(&self) -> (&[u32], &[u64]) {
        (&self.ids_hi, &self.ids_lo)
    }

    /// Puts tag `idx` to sleep (after a successful interrogation).
    pub fn sleep(&mut self, idx: usize) {
        assert!(self.is_active(idx), "tag {idx} slept twice");
        self.active_words[idx / 64] &= !(1u64 << (idx % 64));
        self.active -= 1;
        self.asleep += 1;
    }

    /// Deselects tag `idx` for the current circle; a tag that is not
    /// active is left as it is.
    pub fn deselect(&mut self, idx: usize) {
        if self.is_active(idx) {
            let bit = 1u64 << (idx % 64);
            self.active_words[idx / 64] &= !bit;
            self.deselected_words[idx / 64] |= bit;
            self.active -= 1;
        }
    }

    /// Deselects every active tag whose bit in `keep` (one word per
    /// 64 handles, like [`TagPopulation::active_words`]) is clear: an EHPP
    /// circle's selection, a word at a time.
    ///
    /// # Panics
    /// Panics if `keep` does not hold exactly one word per 64 handles.
    pub fn retain_selected(&mut self, keep: &[u64]) {
        assert_eq!(
            keep.len(),
            self.active_words.len(),
            "one keep word per 64 tags"
        );
        for ((active, deselected), &keep) in self
            .active_words
            .iter_mut()
            .zip(&mut self.deselected_words)
            .zip(keep)
        {
            let dropped = *active & !keep;
            *deselected |= dropped;
            *active &= keep;
            self.active -= dropped.count_ones() as usize;
        }
    }

    /// Re-activates every deselected tag (start of the next circle): an OR
    /// over the words.
    pub fn reselect_all(&mut self) {
        for (active, deselected) in self.active_words.iter_mut().zip(&mut self.deselected_words) {
            *active |= *deselected;
            self.active += deselected.count_ones() as usize;
            *deselected = 0;
        }
    }

    /// Number of tags asleep (successfully read).
    pub fn asleep_count(&self) -> usize {
        debug_assert_eq!(
            self.asleep,
            (0..self.len())
                .filter(|&idx| self.state(idx) == TagState::Asleep)
                .count()
        );
        self.asleep
    }

    /// Number of tags whose receivers are on: everyone not yet read —
    /// deselected tags still listen (they must hear the next circle
    /// command). Drives the energy model's listen integral.
    pub fn listening_count(&self) -> usize {
        self.tags.len() - self.asleep
    }

    /// `true` once every tag has been read.
    pub fn all_asleep(&self) -> bool {
        self.asleep_count() == self.tags.len()
    }

    #[cfg(debug_assertions)]
    #[inline]
    fn note_scan(&self) {
        self.scans.set(self.scans.get() + 1);
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn note_scan(&self) {}

    /// Replays persisted inventory states onto a freshly built (all
    /// active) population, one per handle in order, through
    /// [`TagPopulation::sleep`] and [`TagPopulation::deselect`] so the
    /// words and the derived counts stay consistent.
    ///
    /// # Panics
    /// Panics if there are more states than tags.
    pub(crate) fn restore_states(&mut self, states: impl IntoIterator<Item = TagState>) {
        for (idx, state) in states.into_iter().enumerate() {
            match state {
                TagState::Active => {}
                TagState::Asleep => self.sleep(idx),
                TagState::Deselected => self.deselect(idx),
            }
        }
    }

    /// The population's identity — each tag's ID and payload, without its
    /// inventory state — as a JSON array of `{"id", "info"}` objects: the
    /// `tags` of a library session snapshot.
    pub fn identity_json(&self) -> crate::json::Json {
        crate::json::Json::Arr(
            self.tags
                .iter()
                .map(|t| {
                    crate::json::Json::Obj(vec![
                        ("id".to_string(), crate::json::ToJson::to_json(&t.id)),
                        ("info".to_string(), crate::json::ToJson::to_json(&t.info)),
                    ])
                })
                .collect(),
        )
    }

    /// Each tag's inventory state as a 2-bit code in handle order, packed
    /// as hex ([`crate::packed`]): the `state` of a context snapshot.
    pub fn packed_states(&self) -> String {
        crate::packed::pack_codes((0..self.len()).map(|idx| self.state(idx).code()), 2)
    }

    /// Rebuilds a fresh (all-active) population from
    /// [`TagPopulation::identity_json`], rejecting a shared ID.
    pub fn from_identity_json(json: &crate::json::Json) -> Result<Self, crate::json::JsonError> {
        let tags = json
            .as_arr()?
            .iter()
            .map(|t| Ok((t.field("id")?, t.field("info")?)))
            .collect::<Result<Vec<(TagId, BitVec)>, crate::json::JsonError>>()?;
        TagPopulation::try_new(tags)
            .map_err(|id| crate::json::JsonError(format!("duplicate tag ID {id}")))
    }

    /// Debug builds only: how many full-population scans have been taken.
    /// Slot handlers assert this is unchanged across a slot.
    #[cfg(debug_assertions)]
    pub(crate) fn scan_epoch(&self) -> u64 {
        self.scans.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop(n: usize) -> TagPopulation {
        TagPopulation::sequential(n, |_| BitVec::from_str_bits("1"))
    }

    #[test]
    fn counts_track_state_changes() {
        let mut p = pop(5);
        assert_eq!(p.len(), 5);
        assert_eq!(p.active_count(), 5);
        p.sleep(2);
        assert_eq!(p.active_count(), 4);
        assert_eq!(p.asleep_count(), 1);
        p.deselect(0);
        p.deselect(1);
        assert_eq!(p.active_count(), 2);
        p.reselect_all();
        assert_eq!(p.active_count(), 4);
        assert!(!p.all_asleep());
    }

    #[test]
    fn active_handles_excludes_slept_and_deselected() {
        let mut p = pop(4);
        p.sleep(1);
        p.deselect(3);
        let mut active = Vec::new();
        p.collect_active_into(&mut active);
        assert_eq!(active, vec![0, 2]);
    }

    #[test]
    fn bitset_mirrors_state_across_transitions() {
        let mut p = pop(130);
        p.sleep(0);
        p.sleep(64);
        p.deselect(65);
        p.deselect(129);
        let naive: Vec<usize> = (0..p.len())
            .filter(|&i| p.state(i) == TagState::Active)
            .collect();
        let mut via_bits = Vec::new();
        p.collect_active_into(&mut via_bits);
        assert_eq!(via_bits, naive);
        assert_eq!(p.first_active(), Some(1));
        p.reselect_all();
        let mut after = Vec::new();
        p.collect_active_into(&mut after);
        assert_eq!(after.len(), 128);
        assert!(after.contains(&65) && after.contains(&129));
    }

    #[test]
    fn first_active_none_when_everyone_slept() {
        let mut p = pop(3);
        for i in 0..3 {
            p.sleep(i);
        }
        assert_eq!(p.first_active(), None);
    }

    #[test]
    fn id_words_align_with_handles() {
        let p = pop(70);
        let (hi, lo) = p.id_words();
        for (i, t) in p.iter() {
            assert_eq!(hi[i], t.id.hi());
            assert_eq!(lo[i], t.id.lo());
        }
    }

    #[test]
    fn all_asleep_after_sleeping_everyone() {
        let mut p = pop(3);
        for i in 0..3 {
            p.sleep(i);
        }
        assert!(p.all_asleep());
        assert_eq!(p.active_count(), 0);
    }

    #[test]
    #[should_panic(expected = "slept twice")]
    fn double_sleep_panics() {
        let mut p = pop(2);
        p.sleep(0);
        p.sleep(0);
    }

    #[test]
    #[should_panic(expected = "duplicate tag ID")]
    fn duplicate_ids_rejected() {
        let id = TagId::from_raw(0, 7);
        let _ = TagPopulation::new(vec![(id, BitVec::new()), (id, BitVec::new())]);
    }

    #[test]
    fn fresh_tag_is_active() {
        let p = pop(70);
        assert!((0..70).all(|i| p.is_active(i) && p.state(i) == TagState::Active));
    }

    #[test]
    fn sleep_is_terminal_for_the_inventory() {
        let mut p = pop(1);
        p.sleep(0);
        assert_eq!(p.state(0), TagState::Asleep);
        assert!(!p.is_active(0));
        // Reselect must not wake a slept tag.
        p.reselect_all();
        assert_eq!(p.state(0), TagState::Asleep);
    }

    #[test]
    fn deselect_reselect_cycle() {
        let mut p = pop(1);
        p.deselect(0);
        assert_eq!(p.state(0), TagState::Deselected);
        assert!(!p.is_active(0));
        p.reselect_all();
        assert!(p.is_active(0));
    }

    #[test]
    fn deselect_ignores_sleeping_tags() {
        let mut p = pop(1);
        p.sleep(0);
        p.deselect(0);
        assert_eq!(p.state(0), TagState::Asleep);
    }

    #[test]
    fn retain_selected_deselects_a_word_at_a_time() {
        let mut p = pop(130);
        p.sleep(1);
        p.deselect(2);
        let keep = [0b1011, 1 << 63, 0b10];
        p.retain_selected(&keep);
        let active: Vec<usize> = (0..130).filter(|&i| p.is_active(i)).collect();
        assert_eq!(active, vec![0, 3, 127, 129]);
        assert_eq!(p.active_count(), 4);
        assert_eq!(p.state(1), TagState::Asleep);
        assert_eq!(p.state(4), TagState::Deselected);
        p.reselect_all();
        assert_eq!(p.active_count(), 129);
        assert_eq!(p.asleep_count(), 1);
    }

    #[test]
    fn reselect_does_not_wake_sleepers() {
        let mut p = pop(2);
        p.sleep(0);
        p.reselect_all();
        assert_eq!(p.active_count(), 1);
    }
}
