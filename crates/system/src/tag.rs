//! The tag model.
//!
//! A C1G2 tag is passive state: a 96-bit EPC, an information payload (the
//! `m` bits the polling task collects — a presence bit, a battery level, a
//! temperature word, …) and an inventory state. Per the paper, a tag that
//! has been interrogated "goes to sleep in the following protocol
//! execution"; tags that picked collision indices stay active for the next
//! round.

use crate::bitvec::BitVec;
use crate::id::TagId;

/// Inventory state of a tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagState {
    /// Listening and willing to reply.
    Active,
    /// Already interrogated; ignores all further commands this inventory.
    Asleep,
    /// Deselected for the current EHPP circle (will re-activate next circle).
    Deselected,
}

impl TagState {
    /// The 2-bit code a snapshot packs this state as.
    pub(crate) fn code(self) -> u8 {
        match self {
            TagState::Active => 0,
            TagState::Asleep => 1,
            TagState::Deselected => 2,
        }
    }

    /// The state a packed code names; `None` for the unused code 3.
    pub(crate) fn from_code(code: u8) -> Option<TagState> {
        match code {
            0 => Some(TagState::Active),
            1 => Some(TagState::Asleep),
            2 => Some(TagState::Deselected),
            _ => None,
        }
    }
}

/// One RFID tag.
#[derive(Debug, Clone, PartialEq)]
pub struct Tag {
    /// The 96-bit EPC.
    pub id: TagId,
    /// The information payload the reader wants (length = `m` bits).
    pub info: BitVec,
    /// Current inventory state.
    pub state: TagState,
}

impl Tag {
    /// A fresh, active tag.
    pub fn new(id: TagId, info: BitVec) -> Self {
        Tag {
            id,
            info,
            state: TagState::Active,
        }
    }

    /// Whether the tag currently listens and replies.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.state == TagState::Active
    }

    /// Puts the tag to sleep after a successful interrogation.
    #[inline]
    pub fn sleep(&mut self) {
        debug_assert_eq!(self.state, TagState::Active, "sleeping a non-active tag");
        self.state = TagState::Asleep;
    }

    /// Temporarily deselects the tag (EHPP circle filtering).
    #[inline]
    pub(crate) fn deselect(&mut self) {
        if self.state == TagState::Active {
            self.state = TagState::Deselected;
        }
    }

    /// Re-activates a deselected tag for the next circle.
    #[inline]
    pub(crate) fn reselect(&mut self) {
        if self.state == TagState::Deselected {
            self.state = TagState::Active;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag() -> Tag {
        Tag::new(TagId::from_raw(1, 2), BitVec::from_str_bits("1"))
    }

    #[test]
    fn fresh_tag_is_active() {
        assert!(tag().is_active());
    }

    #[test]
    fn sleep_is_terminal_for_the_inventory() {
        let mut t = tag();
        t.sleep();
        assert_eq!(t.state, TagState::Asleep);
        assert!(!t.is_active());
        // Reselect must not wake a slept tag.
        t.reselect();
        assert_eq!(t.state, TagState::Asleep);
    }

    #[test]
    fn deselect_reselect_cycle() {
        let mut t = tag();
        t.deselect();
        assert_eq!(t.state, TagState::Deselected);
        assert!(!t.is_active());
        t.reselect();
        assert!(t.is_active());
    }

    #[test]
    fn state_codes_round_trip_and_code_3_is_unused() {
        for state in [TagState::Active, TagState::Asleep, TagState::Deselected] {
            assert_eq!(TagState::from_code(state.code()), Some(state));
        }
        assert_eq!(TagState::from_code(3), None);
    }

    #[test]
    fn deselect_ignores_sleeping_tags() {
        let mut t = tag();
        t.sleep();
        t.deselect();
        assert_eq!(t.state, TagState::Asleep);
    }
}
