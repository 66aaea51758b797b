//! Tag population bookkeeping.
//!
//! The reader "knows all tag IDs": a population is that ID list plus each
//! tag's information payload, stored as columns by handle (index = stable
//! handle). The raw EPC words `ids_hi`/`ids_lo` are the only ID store, so
//! batch hashing streams them directly; the `m`-bit payloads are one bit
//! column. IDs are distinct and widths equal: building decides both.
//!
//! Each tag's inventory state lives in two bitsets, one bit per handle: the
//! *active set* and the *deselected set* (EHPP's circle filter); a tag in
//! neither is asleep. The bits are the only record of state, so per-round
//! work such as the singleton sift costs O(active) instead of
//! O(population), and a circle's selection deselects and reselects tags a
//! 64-bit word at a time.

#[cfg(debug_assertions)]
use std::cell::Cell;
use std::collections::HashSet;

use crate::bitvec::BitVec;
use crate::id::TagId;
use crate::json::{Json, JsonError, ToJson};

/// Inventory state of a tag; its discriminant is the 2-bit code a
/// snapshot packs it as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagState {
    /// Listening and willing to reply.
    Active = 0,
    /// Already interrogated ("goes to sleep in the following protocol
    /// execution"); ignores all further commands this inventory.
    Asleep = 1,
    /// Deselected for the current EHPP circle (will re-activate next circle).
    Deselected = 2,
}

impl TagState {
    /// The state a packed code names; `None` for the unused code 3.
    pub(crate) fn from_code(code: u8) -> Option<TagState> {
        [TagState::Active, TagState::Asleep, TagState::Deselected]
            .get(code as usize)
            .copied()
    }
}

/// The set of tags in the interrogation zone.
#[derive(Debug, Clone)]
pub struct TagPopulation {
    /// Each tag's raw EPC words, by handle.
    ids_hi: Vec<u32>,
    ids_lo: Vec<u64>,
    /// Every payload, by handle: tag `h`'s is bits `h·m .. (h+1)·m`.
    info: BitVec,
    info_bits: usize,
    active: usize,
    asleep: usize,
    /// Bit `i` of `active_words[i / 64]` (LSB-first) is set iff tag `i` is
    /// active — the O(active/64) iteration substrate.
    active_words: Vec<u64>,
    /// Bit `i` of `deselected_words[i / 64]` is set iff tag `i` sits out
    /// the current EHPP circle. Disjoint from `active_words`.
    deselected_words: Vec<u64>,
    /// Debug-only full-population scan counter; slot handlers assert it
    /// stays unchanged across a slot (no handler may rescan the population).
    #[cfg(debug_assertions)]
    scans: Cell<u64>,
}

impl PartialEq for TagPopulation {
    /// Populations compare by their IDs and payloads and by the state
    /// bitsets; the counts are derived from those.
    fn eq(&self, other: &Self) -> bool {
        self.ids_hi == other.ids_hi
            && self.ids_lo == other.ids_lo
            && self.info == other.info
            && self.active_words == other.active_words
            && self.deselected_words == other.deselected_words
    }
}

impl TagPopulation {
    /// Builds a population from `(id, info)` pairs.
    ///
    /// # Panics
    /// Panics if two tags share an ID — EPCs are unique by definition and
    /// every protocol in the paper relies on it — or if payload widths differ.
    pub fn new(tags: impl IntoIterator<Item = (TagId, BitVec)>) -> Self {
        TagPopulation::try_new(tags).unwrap_or_else(|id| panic!("duplicate tag ID {id}"))
    }

    /// [`TagPopulation::new`] for untrusted input: the first repeated ID is
    /// returned instead of panicking.
    pub(crate) fn try_new(tags: impl IntoIterator<Item = (TagId, BitVec)>) -> Result<Self, TagId> {
        let mut tags = tags.into_iter().peekable();
        let n = tags.size_hint().0;
        let info_bits = tags.peek().map_or(0, |(_, info)| info.len());
        let mut seen = HashSet::with_capacity(n);
        let mut repeat = None;
        let population = TagPopulation::from_columns(
            n,
            info_bits,
            tags.map_while(|(id, info)| {
                repeat = (!seen.insert(id)).then_some(id);
                repeat.is_none().then_some((id, info))
            }),
            |info: BitVec, column| info.iter().for_each(|bit| column.push(bit)),
        );
        repeat.map_or(Ok(population), Err)
    }

    /// Draws `n` tags with distinct IDs: IDs come from `next_id`, which is
    /// called again for a repeated one, and `fill` appends each accepted
    /// ID's `info_bits`-bit payload, in order (a repeat draws no payload).
    pub fn draw(
        n: usize,
        info_bits: usize,
        next_id: impl FnMut() -> TagId,
        mut fill: impl FnMut(&mut BitVec),
    ) -> Self {
        let mut seen = HashSet::with_capacity(n);
        let ids = std::iter::repeat_with(next_id).filter(|&id| seen.insert(id));
        let tags = ids.take(n).map(|id| (id, ()));
        TagPopulation::from_columns(n, info_bits, tags, |(), column| fill(column))
    }

    /// The all-active population of `tags`, whose IDs are distinct: `fill`
    /// appends each tag's payload, which must be `info_bits` wide.
    fn from_columns<P>(
        capacity: usize,
        info_bits: usize,
        tags: impl Iterator<Item = (TagId, P)>,
        mut fill: impl FnMut(P, &mut BitVec),
    ) -> Self {
        let mut ids_hi = Vec::with_capacity(capacity);
        let mut ids_lo = Vec::with_capacity(capacity);
        let mut info = BitVec::with_capacity(capacity * info_bits);
        for (id, payload) in tags {
            fill(payload, &mut info);
            let width = info.len() - ids_lo.len() * info_bits;
            assert!(width == info_bits, "{}", width_error(id, width, info_bits));
            ids_hi.push(id.hi());
            ids_lo.push(id.lo());
        }
        let n = ids_lo.len();
        let mut active_words = vec![u64::MAX; n.div_ceil(64)];
        if let (Some(last), tail @ 1..) = (active_words.last_mut(), n % 64) {
            *last = (1u64 << tail) - 1;
        }
        TagPopulation {
            ids_hi,
            ids_lo,
            info,
            info_bits,
            active: n,
            asleep: 0,
            deselected_words: vec![0; active_words.len()],
            active_words,
            #[cfg(debug_assertions)]
            scans: Cell::new(0),
        }
    }

    /// Convenience: `n` tags with sequential raw IDs and the given payload
    /// generator (mostly for tests).
    pub fn sequential(n: usize, info: impl Fn(usize) -> BitVec) -> Self {
        TagPopulation::new((0..n).map(|i| (TagId::from_raw(0, i as u64), info(i))))
    }

    /// Total number of tags.
    pub fn len(&self) -> usize {
        self.ids_lo.len()
    }

    /// `true` if the population has no tags.
    pub fn is_empty(&self) -> bool {
        self.ids_lo.is_empty()
    }

    /// Every tag's payload width `m` in bits (0 for an empty population).
    #[inline]
    pub fn info_bits(&self) -> usize {
        self.info_bits
    }

    /// Number of tags still active (unread and not deselected).
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// Tag `idx`'s EPC.
    #[inline]
    pub fn id(&self, idx: usize) -> TagId {
        TagId::from_raw(self.ids_hi[idx], self.ids_lo[idx])
    }

    /// A copy of tag `idx`'s information payload.
    pub fn info(&self, idx: usize) -> BitVec {
        assert!(idx < self.len(), "tag {idx} out of range");
        let start = idx * self.info_bits;
        BitVec::from_bits((start..start + self.info_bits).map(|i| self.info.get(i)))
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

    /// Every tag's EPC (any state), in handle order. Counts as a
    /// full-population scan for the debug slot-handler assertion.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = TagId> + '_ {
        self.note_scan();
        (0..self.len()).map(|idx| self.id(idx))
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

    /// The raw EPC words, by handle: `(hi, lo)`.
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
        self.len() - self.asleep
    }

    /// `true` once every tag has been read.
    pub fn all_asleep(&self) -> bool {
        self.asleep_count() == self.len()
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
    pub fn identity_json(&self) -> Json {
        Json::Arr(
            (0..self.len())
                .map(|idx| {
                    Json::Obj(vec![
                        ("id".to_string(), self.id(idx).to_json()),
                        ("info".to_string(), self.info(idx).to_json()),
                    ])
                })
                .collect(),
        )
    }

    /// Each tag's inventory state as a 2-bit code in handle order, packed
    /// as hex ([`crate::packed`]): the `state` of a context snapshot.
    pub fn packed_states(&self) -> String {
        crate::packed::pack_codes((0..self.len()).map(|idx| self.state(idx) as u8), 2)
    }

    /// Rebuilds a fresh (all-active) population from
    /// [`TagPopulation::identity_json`], rejecting a shared ID or width.
    pub fn from_identity_json(json: &Json) -> Result<Self, JsonError> {
        let tags = json
            .as_arr()?
            .iter()
            .map(|t| Ok((t.field("id")?, t.field("info")?)))
            .collect::<Result<Vec<(TagId, BitVec)>, JsonError>>()?;
        let info_bits = tags.first().map_or(0, |(_, info)| info.len());
        if let Some((id, info)) = tags.iter().find(|(_, info)| info.len() != info_bits) {
            return Err(JsonError(width_error(*id, info.len(), info_bits)));
        }
        TagPopulation::try_new(tags).map_err(|id| JsonError(format!("duplicate tag ID {id}")))
    }

    /// Debug builds only: how many full-population scans have been taken.
    /// Slot handlers assert this is unchanged across a slot.
    #[cfg(debug_assertions)]
    pub(crate) fn scan_epoch(&self) -> u64 {
        self.scans.get()
    }
}

/// Why tag `id`'s payload does not fit the population.
fn width_error(id: TagId, width: usize, info_bits: usize) -> String {
    format!("tag {id} has a {width}-bit payload in a population of {info_bits}-bit payloads")
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
        for (i, id) in p.ids().enumerate() {
            assert_eq!((hi[i], lo[i]), (id.hi(), id.lo()));
            assert_eq!(id, TagId::from_raw(0, i as u64));
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
    #[should_panic(expected = "has a 3-bit payload in a population of 2-bit payloads")]
    fn mixed_payload_widths_rejected() {
        let _ = TagPopulation::new([
            (TagId::from_raw(0, 1), BitVec::from_str_bits("10")),
            (TagId::from_raw(0, 2), BitVec::from_str_bits("101")),
        ]);
    }

    #[test]
    fn prop_info_returns_each_payload_as_given() {
        use rfid_hash::prop::check;
        use rfid_hash::prop_assert_eq;
        check("population info(h) is the payload it was given", 64, |g| {
            let m = [1, 63, 64, 65, 100, 130][g.len_in(0, 6)];
            let payloads: Vec<BitVec> = (0..g.len_in(0, 301))
                .map(|_| BitVec::from_bits(g.vec_bool(m, m + 1)))
                .collect();
            let p = TagPopulation::sequential(payloads.len(), |h| payloads[h].clone());
            prop_assert_eq!(p.info_bits(), if payloads.is_empty() { 0 } else { m });
            for (h, payload) in payloads.iter().enumerate() {
                prop_assert_eq!(&p.info(h), payload);
            }
            Ok(())
        });
    }

    #[test]
    fn state_codes_round_trip_and_code_3_is_unused() {
        for state in [TagState::Active, TagState::Asleep, TagState::Deselected] {
            assert_eq!(TagState::from_code(state as u8), Some(state));
        }
        assert_eq!(TagState::from_code(3), None);
    }

    #[test]
    fn try_new_returns_the_first_repeat() {
        let (a, b) = (TagId::from_raw(0, 1), TagId::from_raw(0, 2));
        let tags = [a, b, b, a].map(|id| (id, BitVec::new()));
        assert_eq!(TagPopulation::try_new(tags).unwrap_err(), b);
        let tags = [a, b, a, b].map(|id| (id, BitVec::new()));
        assert_eq!(TagPopulation::try_new(tags).unwrap_err(), a);
    }

    #[test]
    fn draw_redraws_a_repeat_and_gives_it_no_payload() {
        let mut ids = [1, 1, 2, 1, 3, 4]
            .into_iter()
            .map(|lo| TagId::from_raw(0, lo));
        let mut payloads = 0..;
        let p = TagPopulation::draw(
            3,
            2,
            || ids.next().unwrap(),
            |info| info.push_value(payloads.next().unwrap(), 2),
        );
        assert!(p.ids().eq([1, 2, 3].map(|lo| TagId::from_raw(0, lo))));
        assert!((0..3).all(|h| p.info(h) == BitVec::from_value(h as u64, 2)));
        assert_eq!(ids.next(), Some(TagId::from_raw(0, 4)));
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
