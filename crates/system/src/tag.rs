//! The tag model.
//!
//! A C1G2 tag is passive state: a 96-bit EPC, an information payload (the
//! `m` bits the polling task collects — a presence bit, a battery level, a
//! temperature word, …) and an inventory state, which the population keeps
//! in its bitsets. Per the paper, a tag that has been interrogated "goes to
//! sleep in the following protocol execution"; tags that picked collision
//! indices stay active for the next round.

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

/// One RFID tag: its identity and payload. Its inventory state is kept
/// by the [`crate::TagPopulation`] it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Tag {
    /// The 96-bit EPC.
    pub id: TagId,
    /// The information payload the reader wants (length = `m` bits).
    pub info: BitVec,
}

impl Tag {
    /// A tag with the given EPC and payload.
    pub fn new(id: TagId, info: BitVec) -> Self {
        Tag { id, info }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_codes_round_trip_and_code_3_is_unused() {
        for state in [TagState::Active, TagState::Asleep, TagState::Deselected] {
            assert_eq!(TagState::from_code(state.code()), Some(state));
        }
        assert_eq!(TagState::from_code(3), None);
    }
}
