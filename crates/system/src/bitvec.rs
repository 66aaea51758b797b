//! A compact, MSB-first bit vector.
//!
//! Polling vectors are *bit strings*, not numbers: HPP pads indices with
//! leading zeros to exactly `h` bits, TPP transmits differential suffixes of
//! varying length, and tags compare prefixes. [`BitVec`] therefore stores
//! bits in transmission order (index 0 = first bit on the air = MSB of an
//! index) and provides the prefix/suffix operations the protocols need.

use std::fmt;
use std::hash::{Hash, Hasher};

/// A growable bit vector with MSB-first indexing.
///
/// ```
/// use rfid_system::BitVec;
///
/// // HPP pads the index 5 to h = 4 bits: "0101".
/// let index = BitVec::from_value(5, 4);
/// assert_eq!(index.to_string(), "0101");
///
/// // TPP's tag-side rule: overwrite the tail of A with a tree segment.
/// let mut a = BitVec::zeros(4);
/// a.overwrite_suffix(&BitVec::from_str_bits("11"));
/// assert_eq!(a.to_string(), "0011");
/// assert_eq!(a.to_value(), 3);
/// ```
#[derive(Clone, Default)]
pub struct BitVec {
    /// Bit `i` of the vector lives at `blocks[i / 64]`, bit `63 - i % 64`
    /// (so block bits are also in transmission order).
    blocks: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// An empty vector.
    pub fn new() -> Self {
        BitVec::default()
    }

    /// An empty vector with room for `bits` bits.
    pub(crate) fn with_capacity(bits: usize) -> Self {
        BitVec {
            blocks: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// A vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            blocks: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The `n`-bit big-endian representation of `value` — e.g.
    /// `from_value(0b101, 5)` is `00101`, matching the paper's "pad zeros in
    /// front" rule for indices shorter than `h` bits.
    ///
    /// # Panics
    /// Panics if `n > 64` or `value` does not fit in `n` bits.
    pub fn from_value(value: u64, n: usize) -> Self {
        let mut v = BitVec::with_capacity(n);
        v.push_value(value, n);
        v
    }

    /// Appends the `n`-bit big-endian representation of `value`, as
    /// [`BitVec::from_value`] builds it.
    ///
    /// # Panics
    /// Panics if `n > 64` or `value` does not fit in `n` bits.
    pub fn push_value(&mut self, value: u64, n: usize) {
        assert!(n <= 64, "from_value supports at most 64 bits");
        assert!(
            n == 64 || value < (1u64 << n),
            "value {value} does not fit in {n} bits"
        );
        for i in (0..n).rev() {
            self.push((value >> i) & 1 == 1);
        }
    }

    /// Builds a vector from a bool iterator, first bit first.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut v = BitVec::new();
        for b in bits {
            v.push(b);
        }
        v
    }

    /// Parses a `0`/`1` string (other characters rejected).
    ///
    /// # Panics
    /// Panics on characters other than `0` or `1`.
    pub fn from_str_bits(s: &str) -> Self {
        BitVec::from_bits(s.chars().map(|c| match c {
            '0' => false,
            '1' => true,
            other => panic!("invalid bit character {other:?}"),
        }))
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the vector has no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        let block = self.len / 64;
        let offset = 63 - (self.len % 64);
        if block == self.blocks.len() {
            self.blocks.push(0);
        }
        if bit {
            self.blocks[block] |= 1 << offset;
        } else {
            self.blocks[block] &= !(1 << offset);
        }
        self.len += 1;
    }

    /// The bit at position `i` (0 = first transmitted).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        (self.blocks[i / 64] >> (63 - i % 64)) & 1 == 1
    }

    /// Sets the bit at position `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, bit: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        let mask = 1u64 << (63 - i % 64);
        if bit {
            self.blocks[i / 64] |= mask;
        } else {
            self.blocks[i / 64] &= !mask;
        }
    }

    /// Iterates the bits in transmission order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Interprets the whole vector as a big-endian integer.
    ///
    /// # Panics
    /// Panics if the vector is longer than 64 bits.
    pub fn to_value(&self) -> u64 {
        assert!(self.len <= 64, "vector of {} bits exceeds u64", self.len);
        self.iter().fold(0u64, |acc, b| (acc << 1) | b as u64)
    }

    /// Overwrites the *last* `k` bits with the bits of `patch` — exactly the
    /// tag-side update rule of TPP's array `A` ("update the last k bits of A
    /// with `Seq[j]`").
    ///
    /// # Panics
    /// Panics if `patch.len() > self.len()`.
    pub fn overwrite_suffix(&mut self, patch: &BitVec) {
        let k = patch.len();
        assert!(
            k <= self.len,
            "patch of {k} bits exceeds vector of {}",
            self.len
        );
        let start = self.len - k;
        for (j, b) in patch.iter().enumerate() {
            self.set(start + j, b);
        }
    }
}

impl PartialEq for BitVec {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for BitVec {}

impl Hash for BitVec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        for (i, block) in self.blocks.iter().enumerate() {
            // Mask the trailing partial block so equal vectors hash equally
            // even if a set(false) left stale bits (it cannot, but cheap
            // defence keeps the Hash/Eq contract locally checkable).
            let bits_here = (self.len - i * 64).min(64);
            let mask = if bits_here == 64 {
                u64::MAX
            } else {
                !(u64::MAX >> bits_here)
            };
            (block & mask).hash(state);
        }
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            f.write_str(if b { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec({self})")
    }
}

impl crate::json::ToJson for BitVec {
    /// A bit vector serializes as its `"0101"` string — compact, readable,
    /// and unambiguous about length (leading zeros survive).
    fn to_json(&self) -> crate::json::Json {
        crate::json::Json::Str(self.to_string())
    }
}

impl crate::json::FromJson for BitVec {
    fn from_json(json: &crate::json::Json) -> Result<Self, crate::json::JsonError> {
        let s = json.as_str()?;
        if let Some(bad) = s.chars().find(|c| *c != '0' && *c != '1') {
            return Err(crate::json::JsonError(format!(
                "invalid bit character {bad:?} in bit string"
            )));
        }
        Ok(BitVec::from_str_bits(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_hash::prop::check;
    use rfid_hash::{prop_assert, prop_assert_eq};

    impl BitVec {
        /// Appends all bits of `other`.
        fn extend_from(&mut self, other: &BitVec) {
            for b in other.iter() {
                self.push(b);
            }
        }
        /// The first `n` bits as a new vector.
        ///
        /// # Panics
        /// Panics if `n > len`.
        fn prefix(&self, n: usize) -> BitVec {
            assert!(n <= self.len);
            BitVec::from_bits((0..n).map(|i| self.get(i)))
        }

        /// The last `n` bits as a new vector.
        ///
        /// # Panics
        /// Panics if `n > len`.
        fn suffix(&self, n: usize) -> BitVec {
            assert!(n <= self.len);
            BitVec::from_bits((self.len - n..self.len).map(|i| self.get(i)))
        }

        /// Length of the longest common prefix with `other`.
        ///
        /// Compares 64 bits at a time (blocks are stored in transmission order,
        /// so the first differing bit is the leading set bit of the XOR).
        fn common_prefix_len(&self, other: &BitVec) -> usize {
            let max = self.len.min(other.len);
            let full_blocks = max / 64;
            for i in 0..full_blocks {
                let diff = self.blocks[i] ^ other.blocks[i];
                if diff != 0 {
                    return i * 64 + diff.leading_zeros() as usize;
                }
            }
            let mut at = full_blocks * 64;
            if at < max {
                let diff = self.blocks[full_blocks] ^ other.blocks[full_blocks];
                at += (diff.leading_zeros() as usize).min(max - at);
            }
            at
        }

        /// `true` if `self` is a prefix of `other`.
        fn is_prefix_of(&self, other: &BitVec) -> bool {
            self.len <= other.len && self.common_prefix_len(other) == self.len
        }
        /// Number of one-bits.
        fn count_ones(&self) -> u64 {
            // Unused high bits of the last block are kept zero by `push`/`set`.
            self.blocks.iter().map(|b| b.count_ones() as u64).sum()
        }
    }

    #[test]
    fn push_get_roundtrip() {
        let mut v = BitVec::new();
        let pattern = [true, false, false, true, true, false, true];
        for &b in &pattern {
            v.push(b);
        }
        assert_eq!(v.len(), 7);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(v.get(i), b);
        }
    }

    #[test]
    fn from_value_pads_leading_zeros() {
        let v = BitVec::from_value(0b101, 5);
        assert_eq!(v.to_string(), "00101");
        assert_eq!(v.to_value(), 5);
        assert_eq!(BitVec::from_value(0, 3).to_string(), "000");
    }

    #[test]
    fn to_value_roundtrip_64_bits() {
        let x = 0xDEAD_BEEF_0123_4567u64;
        assert_eq!(BitVec::from_value(x, 64).to_value(), x);
    }

    #[test]
    fn prefix_suffix() {
        let v = BitVec::from_str_bits("1100101");
        assert_eq!(v.prefix(3).to_string(), "110");
        assert_eq!(v.suffix(4).to_string(), "0101");
        assert_eq!(v.prefix(0).len(), 0);
        assert_eq!(v.suffix(7), v);
    }

    #[test]
    fn common_prefix_and_is_prefix() {
        let a = BitVec::from_str_bits("110010");
        let b = BitVec::from_str_bits("110111");
        assert_eq!(a.common_prefix_len(&b), 3);
        assert!(a.prefix(3).is_prefix_of(&b));
        assert!(!a.is_prefix_of(&b));
        assert!(BitVec::new().is_prefix_of(&a));
    }

    #[test]
    fn overwrite_suffix_matches_tpp_rule() {
        // Fig. 7 example: A = 000, broadcast "10" → A becomes 010... wait:
        // updating the last 2 bits of 000 with 10 gives 0|10 = 010? The
        // paper's B picks 010 after A=000 and Seq[2]="10": indeed 0·10 = 010.
        let mut a = BitVec::from_str_bits("000");
        a.overwrite_suffix(&BitVec::from_str_bits("10"));
        assert_eq!(a.to_string(), "010");
        // Next: Seq[3] = "1" → 011.
        a.overwrite_suffix(&BitVec::from_str_bits("1"));
        assert_eq!(a.to_string(), "011");
        // Seq[4] = "101" replaces everything → 101.
        a.overwrite_suffix(&BitVec::from_str_bits("101"));
        assert_eq!(a.to_string(), "101");
        // Seq[5] = "11" → 111.
        a.overwrite_suffix(&BitVec::from_str_bits("11"));
        assert_eq!(a.to_string(), "111");
    }

    #[test]
    fn equality_ignores_capacity_paths() {
        let mut a = BitVec::with_capacity(128);
        a.push(true);
        a.push(false);
        let b = BitVec::from_str_bits("10");
        assert_eq!(a, b);
        assert_ne!(b, BitVec::from_str_bits("100"));
    }

    #[test]
    fn hash_consistent_with_eq() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &BitVec) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        let a = BitVec::from_str_bits("1010011");
        let b = BitVec::from_bits(a.iter());
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn count_ones_across_blocks() {
        let mut v = BitVec::zeros(130);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    fn extend_concatenates() {
        let mut v = BitVec::from_str_bits("11");
        v.extend_from(&BitVec::from_str_bits("001"));
        assert_eq!(v.to_string(), "11001");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::from_str_bits("1").get(1);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn from_value_checks_width() {
        let _ = BitVec::from_value(8, 3);
    }

    #[test]
    fn prop_roundtrip_value() {
        check("bitvec value round-trips", 256, |g| {
            let v = g.u64();
            let n = g.len_in(1, 65);
            let masked = if n == 64 { v } else { v & ((1u64 << n) - 1) };
            let bv = BitVec::from_value(masked, n);
            prop_assert_eq!(bv.len(), n);
            prop_assert_eq!(bv.to_value(), masked);
            Ok(())
        });
    }

    #[test]
    fn prop_push_then_iter_identity() {
        check("bitvec push/iter is identity", 256, |g| {
            let bits = g.vec_bool(0, 300);
            let bv = BitVec::from_bits(bits.iter().copied());
            prop_assert_eq!(bv.len(), bits.len());
            let back: Vec<bool> = bv.iter().collect();
            prop_assert_eq!(back, bits);
            Ok(())
        });
    }

    #[test]
    fn prop_prefix_plus_suffix_reassembles() {
        check("bitvec prefix+suffix reassembles", 256, |g| {
            let bits = g.vec_bool(1, 200);
            let cut_frac = g.f64_unit();
            let bv = BitVec::from_bits(bits.iter().copied());
            let cut = ((bits.len() as f64) * cut_frac) as usize;
            let mut rebuilt = bv.prefix(cut);
            rebuilt.extend_from(&bv.suffix(bits.len() - cut));
            prop_assert_eq!(rebuilt, bv);
            Ok(())
        });
    }

    #[test]
    fn prop_overwrite_suffix_preserves_prefix() {
        check("bitvec overwrite_suffix keeps prefix", 256, |g| {
            let bits = g.vec_bool(1, 120);
            let patch = g.vec_bool(0, 120);
            let mut v = BitVec::from_bits(bits.iter().copied());
            let patch = &patch[..patch.len().min(bits.len())];
            let pv = BitVec::from_bits(patch.iter().copied());
            v.overwrite_suffix(&pv);
            let keep = bits.len() - patch.len();
            // Prefix untouched, suffix replaced.
            prop_assert!(v.prefix(keep).iter().eq(bits[..keep].iter().copied()));
            prop_assert_eq!(v.suffix(patch.len()), pv);
            Ok(())
        });
    }

    #[test]
    fn prop_common_prefix_symmetric() {
        check("bitvec common_prefix_len is symmetric", 256, |g| {
            let a = g.vec_bool(0, 100);
            let b = g.vec_bool(0, 100);
            let va = BitVec::from_bits(a.iter().copied());
            let vb = BitVec::from_bits(b.iter().copied());
            prop_assert_eq!(va.common_prefix_len(&vb), vb.common_prefix_len(&va));
            Ok(())
        });
    }
}
