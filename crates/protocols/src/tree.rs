//! The binary polling tree (Section IV-C).
//!
//! TPP inserts every singleton index into a binary tree rooted at a virtual
//! node: a `0` bit descends left, a `1` bit descends right, shared prefixes
//! share nodes. Broadcasting the *pre-order traversal* — one bit per node —
//! transmits every singleton index while sending each common prefix exactly
//! once. The traversal is split at leaf boundaries into segments
//! `Seq[1] … Seq[n']`; a tag overlays segment `j` onto the tail of its
//! `h`-bit array `A`, after which `A` equals the `j`-th singleton index (in
//! ascending order, since left precedes right).

use rfid_system::BitVec;

/// Arena-allocated binary polling tree.
///
/// The paper's Fig. 6/7 example — five 3-bit singleton indices become an
/// 11-bit broadcast instead of 15:
///
/// ```
/// use rfid_protocols::PollingTree;
/// use rfid_system::BitVec;
///
/// let tree = PollingTree::from_indices(3, &[0b000, 0b010, 0b011, 0b101, 0b111]);
/// let segments = tree.preorder_segments();
/// let text: Vec<String> = segments.iter().map(|s| s.to_string()).collect();
/// assert_eq!(text, ["000", "10", "1", "101", "11"]);
/// assert_eq!(segments.iter().map(BitVec::len).sum::<usize>(), 11);
/// // Tag-side replay: each segment overwrites the tail of the tag's
/// // array `A`, which then reads the next index, in ascending order.
/// let mut a = BitVec::zeros(3);
/// let decoded: Vec<u64> = segments
///     .iter()
///     .map(|seg| {
///         a.overwrite_suffix(seg);
///         a.to_value()
///     })
///     .collect();
/// assert_eq!(decoded, [0b000, 0b010, 0b011, 0b101, 0b111]);
/// ```
#[derive(Debug, Clone)]
pub struct PollingTree {
    /// `nodes[0]` is the virtual root; children index into the arena.
    nodes: Vec<Node>,
    height: u32,
    leaves: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct Node {
    /// `children[0]` = 0-bit (left), `children[1]` = 1-bit (right).
    children: [Option<u32>; 2],
}

impl PollingTree {
    /// An empty tree for `h`-bit indices.
    pub(crate) fn new(height: u32) -> Self {
        PollingTree {
            nodes: vec![Node::default()],
            height,
            leaves: 0,
        }
    }

    /// Builds a tree from `h`-bit index values (duplicates rejected).
    ///
    /// # Panics
    /// Panics if an index does not fit in `height` bits or appears twice —
    /// singleton indices are unique by construction, so either is a protocol
    /// bug.
    pub fn from_indices(height: u32, indices: &[u64]) -> Self {
        let mut tree = PollingTree::new(height);
        for &idx in indices {
            tree.insert_value(idx);
        }
        tree
    }

    /// Inserts the `height`-bit big-endian representation of `value`.
    pub(crate) fn insert_value(&mut self, value: u64) {
        assert!(
            self.height == 64 || value < (1u64 << self.height),
            "index {value} does not fit {} bits",
            self.height
        );
        self.descend((0..self.height).rev().map(|i| (value >> i) & 1 == 1));
    }

    /// Walks `height` bits from the root, creating nodes along the way.
    fn descend(&mut self, bits: impl Iterator<Item = bool>) {
        let mut at = 0u32;
        let mut created_leaf = false;
        let len = self.height as usize;
        for (depth, bit) in bits.enumerate() {
            let slot = bit as usize;
            at = match self.nodes[at as usize].children[slot] {
                Some(child) => child,
                None => {
                    let child = self.nodes.len() as u32;
                    self.nodes.push(Node::default());
                    self.nodes[at as usize].children[slot] = Some(child);
                    if depth + 1 == len {
                        created_leaf = true;
                    }
                    child
                }
            };
        }
        assert!(
            created_leaf || self.height == 0,
            "duplicate singleton index inserted"
        );
        if created_leaf {
            self.leaves += 1;
        }
    }

    /// Number of leaves = singleton indices stored.
    pub(crate) fn leaf_count(&self) -> usize {
        self.leaves
    }

    /// The pre-order traversal split at leaf boundaries: segment `j`
    /// contains the node bits strictly after leaf `j-1` up to and including
    /// leaf `j` (the paper's `Seq[j]`). Segments concatenated reproduce the
    /// full traversal; their total length is `L`, the node count below the
    /// virtual root (Eq. (6)).
    pub fn preorder_segments(&self) -> Vec<BitVec> {
        let mut segments = Vec::with_capacity(self.leaves);
        let mut current = BitVec::new();
        // Iterative pre-order: visit 0-child before 1-child. The stack holds
        // (node, bit-that-led-here); the root contributes no bit.
        let mut stack: Vec<(u32, Option<bool>)> = vec![(0, None)];
        while let Some((at, via)) = stack.pop() {
            if let Some(bit) = via {
                current.push(bit);
            }
            let node = &self.nodes[at as usize];
            let is_leaf = node.children[0].is_none() && node.children[1].is_none();
            if is_leaf && via.is_some() {
                segments.push(std::mem::take(&mut current));
            }
            // Push right first so left pops first (pre-order, 0 before 1).
            if let Some(right) = node.children[1] {
                stack.push((right, Some(true)));
            }
            if let Some(left) = node.children[0] {
                stack.push((left, Some(false)));
            }
        }
        segments
    }

    /// The bit length of each pre-order segment, written into `out`
    /// (cleared first) — the reader's timing model charges segments by
    /// length alone, so the hot path never materializes the `BitVec`s that
    /// [`PollingTree::preorder_segments`] returns. Recursion depth is
    /// bounded by the tree height (≤ 64).
    pub(crate) fn preorder_segment_lengths_into(&self, out: &mut Vec<usize>) {
        out.clear();
        let mut current = 0usize;
        self.walk_lengths(0, false, &mut current, out);
    }

    fn walk_lengths(&self, at: u32, via_edge: bool, current: &mut usize, out: &mut Vec<usize>) {
        if via_edge {
            *current += 1;
        }
        let node = self.nodes[at as usize];
        if via_edge && node.children[0].is_none() && node.children[1].is_none() {
            out.push(*current);
            *current = 0;
        }
        if let Some(left) = node.children[0] {
            self.walk_lengths(left, true, current, out);
        }
        if let Some(right) = node.children[1] {
            self.walk_lengths(right, true, current, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_hash::prop::check;
    use rfid_hash::{prop_assert, prop_assert_eq};

    /// `L`: the nodes below the virtual root, one broadcast bit each.
    fn node_count(t: &PollingTree) -> usize {
        t.nodes.len() - 1
    }

    /// Tag-side decode: replays the broadcast segments against an `h`-bit
    /// array `A` and returns each reconstructed singleton index in
    /// broadcast order, by the per-tag update rule.
    fn decode(h: u32, segments: &[BitVec]) -> Vec<u64> {
        let mut a = BitVec::zeros(h as usize);
        segments
            .iter()
            .map(|seg| {
                a.overwrite_suffix(seg);
                a.to_value()
            })
            .collect()
    }

    /// The Fig. 6/7 worked example: indices 000, 010, 011, 101, 111.
    fn paper_tree() -> PollingTree {
        PollingTree::from_indices(3, &[0b000, 0b010, 0b011, 0b101, 0b111])
    }

    #[test]
    fn fig6_tree_shape() {
        let t = paper_tree();
        assert_eq!(t.leaf_count(), 5);
        // Nodes a…k = 11 (excluding the virtual root).
        assert_eq!(node_count(&t), 11);
        assert_eq!(t.height, 3);
    }

    #[test]
    fn fig7_segments() {
        // Seq[1..5] = 000, 10, 1, 101, 11 — 11 bits instead of 15.
        let segs = paper_tree().preorder_segments();
        let strings: Vec<String> = segs.iter().map(|s| s.to_string()).collect();
        assert_eq!(strings, vec!["000", "10", "1", "101", "11"]);
        let total: usize = segs.iter().map(|s| s.len()).sum();
        assert_eq!(total, 11);
    }

    #[test]
    fn fig7_tag_side_decode() {
        let segs = paper_tree().preorder_segments();
        let decoded = decode(3, &segs);
        assert_eq!(decoded, vec![0b000, 0b010, 0b011, 0b101, 0b111]);
    }

    #[test]
    fn single_index_is_a_full_path() {
        let t = PollingTree::from_indices(5, &[0b10110]);
        assert_eq!(node_count(&t), 5);
        let segs = t.preorder_segments();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].to_string(), "10110");
    }

    #[test]
    fn full_tree_has_2h_plus1_minus_2_nodes() {
        let t = PollingTree::from_indices(3, &(0..8).collect::<Vec<_>>());
        assert_eq!(node_count(&t), 14);
        assert_eq!(t.leaf_count(), 8);
        // Every segment after the first is the differential suffix.
        let segs = t.preorder_segments();
        assert_eq!(segs[0].to_string(), "000");
        assert_eq!(segs[1].to_string(), "1");
        assert_eq!(segs[2].to_string(), "10");
    }

    #[test]
    fn leaves_decode_in_ascending_order() {
        let t = PollingTree::from_indices(4, &[9, 3, 14, 0, 7]);
        let decoded = decode(4, &t.preorder_segments());
        assert_eq!(decoded, vec![0, 3, 7, 9, 14]);
    }

    #[test]
    fn node_count_respects_eq7_bound() {
        // L ≤ L⁺ = 2^{k+1} - 2 + (h-k)·m for any index set.
        let cases: Vec<(u32, Vec<u64>)> = vec![
            (4, vec![1, 2, 3]),
            (6, vec![0, 63, 31, 32]),
            (8, (0..50).map(|i| i * 5).collect()),
            (10, vec![512]),
        ];
        for (h, idxs) in cases {
            let t = PollingTree::from_indices(h, &idxs);
            let bound = rfid_analysis::tpp::l_plus(idxs.len() as u64, h);
            assert!(
                node_count(&t) as f64 <= bound + 1e-9,
                "h={h}, m={}: L={} > L⁺={bound}",
                idxs.len(),
                node_count(&t)
            );
        }
    }

    #[test]
    #[should_panic(expected = "duplicate singleton")]
    fn duplicate_insert_rejected() {
        let mut t = PollingTree::new(3);
        t.insert_value(5);
        t.insert_value(5);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_index_rejected() {
        let mut t = PollingTree::new(3);
        t.insert_value(8);
    }

    /// Draws a sorted, distinct index set that fits an `h`-bit tree.
    fn index_set(g: &mut rfid_hash::prop::Gen, h: u32, max_len: usize) -> Vec<u64> {
        g.distinct_below(1u64 << h, 1, max_len)
    }

    #[test]
    fn prop_roundtrip_any_index_set() {
        check("polling tree round-trips any index set", 256, |g| {
            let h = g.u64_in(1, 13) as u32;
            let indices = index_set(g, h, 80);
            let t = PollingTree::from_indices(h, &indices);
            prop_assert_eq!(t.leaf_count(), indices.len());
            let decoded = decode(h, &t.preorder_segments());
            // Broadcast order is ascending-index order.
            prop_assert_eq!(decoded, indices.clone());
            // Tree never transmits more than the naive h·m bits and never
            // exceeds the Eq. (7) bound.
            let naive = h as usize * indices.len();
            prop_assert!(node_count(&t) <= naive);
            let bound = rfid_analysis::tpp::l_plus(indices.len() as u64, h);
            prop_assert!(node_count(&t) as f64 <= bound + 1e-9);
            Ok(())
        });
    }

    #[test]
    fn prop_segment_lengths_sum_to_node_count() {
        check("tree segment lengths sum to node count", 256, |g| {
            let h = g.u64_in(1, 11) as u32;
            let indices = index_set(g, h, 60);
            let t = PollingTree::from_indices(h, &indices);
            let segs = t.preorder_segments();
            prop_assert_eq!(segs.len(), indices.len());
            let total: usize = segs.iter().map(|s| s.len()).sum();
            prop_assert_eq!(total, node_count(&t));
            // The first segment is always a full h-bit index.
            prop_assert_eq!(segs[0].len(), h as usize);
            // The alloc-free length walk agrees with the materialized
            // segments bit for bit.
            let mut lens = Vec::new();
            t.preorder_segment_lengths_into(&mut lens);
            let want: Vec<usize> = segs.iter().map(|s| s.len()).collect();
            prop_assert_eq!(lens, want);
            Ok(())
        });
    }
}
