//! The tag-side state machine.
//!
//! A C1G2 tag is a passive automaton: it hears reader broadcasts and
//! decides — from its own ID and local state only — whether to backscatter.
//! [`TagMachine`] implements that automaton for the paper's protocols:
//!
//! * on a round initiation `(h, r)` an unread tag computes its index
//!   `H(r, id) mod 2^h` and clears its array `A`,
//! * on an HPP polling vector it replies iff the vector equals its index,
//! * on a TPP tree segment it overwrites the last `k` bits of `A` and
//!   replies iff `A` now equals its index,
//! * once read it sleeps and ignores everything.
//!
//! The reader-side implementations (`hpp`, `tpp`) simulate large
//! populations without instantiating one machine per tag — the singleton
//! sift *is* the aggregate of all tag computations. The machines exist so
//! the test-suite can prove that equivalence by replay: drive a full
//! protocol run twice, once through the fast reader-side path and once
//! broadcast-by-broadcast through `n` independent machines, and require
//! identical replies throughout (see `tests::*` and
//! `tests/tagside_replay.rs`).

use rfid_hash::TagHash;
use rfid_system::{BitVec, TagId};

/// A reader broadcast as heard by tags.
#[derive(Debug, Clone, PartialEq)]
pub enum Broadcast {
    /// Round initiation carrying the index length and the seed.
    RoundInit {
        /// Index length `h`.
        h: u32,
        /// Random seed `r`.
        seed: u64,
    },
    /// A full singleton index (HPP-style poll).
    PollIndex(BitVec),
    /// A TPP pre-order tree segment (differential suffix).
    TreeSegment(BitVec),
}

/// One tag's protocol automaton.
#[derive(Debug, Clone, PartialEq)]
pub struct TagMachine {
    id: TagId,
    read: bool,
    h: u32,
    my_index: BitVec,
    a: BitVec,
    in_round: bool,
}

impl TagMachine {
    /// A fresh (unread) tag automaton.
    pub fn new(id: TagId) -> Self {
        TagMachine {
            id,
            read: false,
            h: 0,
            my_index: BitVec::new(),
            a: BitVec::new(),
            in_round: false,
        }
    }

    /// Whether the tag has been interrogated (and sleeps).
    pub fn is_read(&self) -> bool {
        self.read
    }

    /// The index the tag picked this round (empty outside a round).
    pub fn current_index(&self) -> &BitVec {
        &self.my_index
    }

    /// The reader NAK'd this tag's (corrupted) reply: the tag stays unread
    /// and keeps its round state so the retransmission can be addressed
    /// again within the same exchange.
    pub fn nak(&mut self) {
        self.read = false;
    }

    /// Processes one broadcast; returns `true` iff the tag backscatters its
    /// payload *now*. A replying tag marks itself read (the reader's
    /// acknowledgement is implicit in the paper's exchange).
    pub fn receive(&mut self, broadcast: &Broadcast) -> bool {
        if self.read {
            return false;
        }
        match broadcast {
            Broadcast::RoundInit { h, seed } => {
                self.h = *h;
                self.my_index = BitVec::from_value(
                    TagHash::new(*seed).index(self.id.hi(), self.id.lo(), *h),
                    *h as usize,
                );
                self.a = BitVec::zeros(*h as usize);
                self.in_round = true;
                false
            }
            Broadcast::PollIndex(vector) => {
                if !self.in_round {
                    // Desynchronized (or never initialized): fail-safe
                    // silence, the reader will time out and retry later.
                    return false;
                }
                if *vector == self.my_index {
                    self.read = true;
                    true
                } else {
                    false
                }
            }
            Broadcast::TreeSegment(segment) => {
                if !self.in_round {
                    return false;
                }
                if segment.len() > self.a.len() {
                    // Malformed broadcast for this round; a real tag would
                    // simply not match. Ignore defensively.
                    return false;
                }
                self.a.overwrite_suffix(segment);
                if self.a == self.my_index {
                    self.read = true;
                    true
                } else {
                    false
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::PollingTree;

    fn ids(n: u64) -> Vec<TagId> {
        (0..n).map(|i| TagId::from_raw(0, i)).collect()
    }

    /// Drives one full HPP-style inventory through machines only.
    #[test]
    fn machines_complete_an_hpp_inventory() {
        let mut machines: Vec<TagMachine> = ids(64).into_iter().map(TagMachine::new).collect();
        for seed in 1000u64..1200 {
            let unread = machines.iter().filter(|m| !m.is_read()).count() as u64;
            if unread == 0 {
                break;
            }
            let h = rfid_analysis::hpp::index_length(unread);
            let init = Broadcast::RoundInit { h, seed };
            for m in &mut machines {
                assert!(!m.receive(&init), "round init must never trigger a reply");
            }
            // The reader's sift: group unread machines by their index.
            let mut groups: std::collections::HashMap<u64, Vec<usize>> =
                std::collections::HashMap::new();
            for (i, m) in machines.iter().enumerate() {
                if !m.is_read() {
                    groups
                        .entry(m.current_index().to_value())
                        .or_default()
                        .push(i);
                }
            }
            let mut singles: Vec<u64> = groups
                .iter()
                .filter(|(_, v)| v.len() == 1)
                .map(|(&idx, _)| idx)
                .collect();
            singles.sort_unstable();
            for idx in singles {
                let poll = Broadcast::PollIndex(BitVec::from_value(idx, h as usize));
                let repliers: Vec<usize> = machines
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(i, m)| m.receive(&poll).then_some(i))
                    .collect();
                assert_eq!(repliers.len(), 1, "poll {idx} drew {repliers:?}");
            }
        }
        assert!(machines.iter().all(|m| m.is_read()), "inventory incomplete");
    }

    /// Drives one TPP round through machines and checks tree equivalence.
    #[test]
    fn machines_decode_a_polling_tree_round() {
        let mut machines: Vec<TagMachine> = ids(128).into_iter().map(TagMachine::new).collect();
        let h = 8u32;
        let seed = 42u64;
        let init = Broadcast::RoundInit { h, seed };
        for m in &mut machines {
            m.receive(&init);
        }
        let mut groups: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, m) in machines.iter().enumerate() {
            groups
                .entry(m.current_index().to_value())
                .or_default()
                .push(i);
        }
        let mut singles: Vec<(u64, usize)> = groups
            .iter()
            .filter(|(_, v)| v.len() == 1)
            .map(|(&idx, v)| (idx, v[0]))
            .collect();
        singles.sort_unstable();
        assert!(!singles.is_empty());
        let tree =
            PollingTree::from_indices(h, &singles.iter().map(|&(i, _)| i).collect::<Vec<_>>());
        for (segment, &(_, expected)) in tree.preorder_segments().iter().zip(&singles) {
            let b = Broadcast::TreeSegment(segment.clone());
            let repliers: Vec<usize> = machines
                .iter_mut()
                .enumerate()
                .filter_map(|(i, m)| m.receive(&b).then_some(i))
                .collect();
            assert_eq!(repliers, vec![expected], "segment {segment} misdelivered");
        }
    }

    #[test]
    fn read_tags_sleep_through_everything() {
        let mut m = TagMachine::new(TagId::from_raw(0, 7));
        m.receive(&Broadcast::RoundInit { h: 2, seed: 5 });
        let my = m.current_index().clone();
        assert!(m.receive(&Broadcast::PollIndex(my.clone())));
        assert!(m.is_read());
        // Asleep: ignores new rounds and matching polls alike.
        assert!(!m.receive(&Broadcast::RoundInit { h: 2, seed: 6 }));
        assert!(!m.receive(&Broadcast::PollIndex(my)));
    }

    #[test]
    fn non_matching_poll_is_ignored() {
        let mut m = TagMachine::new(TagId::from_raw(0, 9));
        m.receive(&Broadcast::RoundInit { h: 4, seed: 3 });
        let mut other = m.current_index().clone();
        other.set(0, !other.get(0));
        assert!(!m.receive(&Broadcast::PollIndex(other)));
        assert!(!m.is_read());
    }

    #[test]
    fn oversized_segment_is_ignored_defensively() {
        let mut m = TagMachine::new(TagId::from_raw(0, 3));
        m.receive(&Broadcast::RoundInit { h: 2, seed: 1 });
        assert!(!m.receive(&Broadcast::TreeSegment(BitVec::from_str_bits("10101"))));
    }

    #[test]
    fn nak_keeps_the_tag_pollable_in_place() {
        let mut m = TagMachine::new(TagId::from_raw(0, 11));
        m.receive(&Broadcast::RoundInit { h: 3, seed: 2 });
        let my = m.current_index().clone();
        assert!(m.receive(&Broadcast::PollIndex(my.clone())));
        // The reply was corrupted; the reader NAKs and re-addresses.
        m.nak();
        assert!(!m.is_read());
        assert!(m.in_round, "NAK must not cost the round state");
        assert!(m.receive(&Broadcast::PollIndex(my)));
        assert!(m.is_read());
    }

    #[test]
    fn poll_before_any_round_is_ignored() {
        let mut m = TagMachine::new(TagId::from_raw(0, 2));
        assert!(!m.receive(&Broadcast::PollIndex(BitVec::from_str_bits("00"))));
        assert!(!m.is_read());
    }
}
