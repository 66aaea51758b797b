//! 96-bit EPC tag identifiers.
//!
//! C1G2 tags carry a 96-bit EPC. Its common SGTIN-96-style layout is an
//! 8-bit header, a 28-bit manager number (the company), a 24-bit object
//! class (the product category) and a 36-bit serial. The enhanced-CPP
//! baseline exploits exactly this structure — tags of the same product share
//! the 60-bit header+manager+class prefix — while the paper's own protocols
//! are distribution-free.

use std::fmt;

use crate::bitvec::BitVec;

/// Total EPC bits.
pub const EPC_BITS: usize = 96;
/// Header field width.
pub(crate) const HEADER_BITS: usize = 8;
/// EPC manager (company) field width.
pub const MANAGER_BITS: usize = 28;
/// Object-class (product) field width.
pub const CLASS_BITS: usize = 24;
/// Serial field width.
pub const SERIAL_BITS: usize = 36;
/// Width of the category prefix (everything but the serial).
pub const CATEGORY_BITS: usize = HEADER_BITS + MANAGER_BITS + CLASS_BITS;

/// A 96-bit EPC tag ID, stored as the high 32 bits and low 64 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TagId {
    hi: u32,
    lo: u64,
}

impl TagId {
    /// Builds an ID from its raw halves.
    #[inline]
    pub fn from_raw(hi: u32, lo: u64) -> Self {
        TagId { hi, lo }
    }

    /// Builds an ID from its structured fields.
    ///
    /// # Panics
    /// Panics if a field exceeds its width.
    pub fn from_fields(header: u8, manager: u32, class: u32, serial: u64) -> Self {
        assert!(manager < (1 << MANAGER_BITS), "manager {manager} too wide");
        assert!(class < (1 << CLASS_BITS), "class {class} too wide");
        assert!(serial < (1u64 << SERIAL_BITS), "serial {serial} too wide");
        // Layout, MSB first: header(8) | manager(28) | class(24) | serial(36)
        let total: u128 = ((header as u128) << (MANAGER_BITS + CLASS_BITS + SERIAL_BITS))
            | ((manager as u128) << (CLASS_BITS + SERIAL_BITS))
            | ((class as u128) << SERIAL_BITS)
            | serial as u128;
        TagId {
            hi: (total >> 64) as u32,
            lo: total as u64,
        }
    }

    /// The high 32 bits.
    #[inline]
    pub fn hi(&self) -> u32 {
        self.hi
    }

    /// The low 64 bits.
    #[inline]
    pub fn lo(&self) -> u64 {
        self.lo
    }

    /// The whole ID as a `u128` (top 32 bits zero).
    #[inline]
    pub fn as_u128(&self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }

    /// The 36-bit serial field.
    pub fn serial(&self) -> u64 {
        (self.as_u128() & ((1u128 << SERIAL_BITS) - 1)) as u64
    }

    /// The 60-bit category prefix (header + manager + class) as a value.
    pub fn category(&self) -> u64 {
        (self.as_u128() >> SERIAL_BITS) as u64
    }

    /// Bit `i` of the ID, MSB first (`i = 0` is the first bit transmitted).
    ///
    /// # Panics
    /// Panics if `i >= 96`.
    #[inline]
    pub(crate) fn bit(&self, i: usize) -> bool {
        assert!(i < EPC_BITS, "bit index {i} out of EPC range");
        (self.as_u128() >> (EPC_BITS - 1 - i)) & 1 == 1
    }

    /// The first `n` bits of the ID as a [`BitVec`].
    pub fn prefix_bits(&self, n: usize) -> BitVec {
        assert!(n <= EPC_BITS);
        BitVec::from_bits((0..n).map(|i| self.bit(i)))
    }

    /// The ID as 12 big-endian bytes (the EPC memory-bank image).
    pub fn to_bytes(&self) -> [u8; 12] {
        let v = self.as_u128();
        let mut out = [0u8; 12];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = (v >> (88 - 8 * i)) as u8;
        }
        out
    }
}

impl fmt::Display for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "urn:epc:{:08x}.{:016x}", self.hi, self.lo)
    }
}

impl crate::json::ToJson for TagId {
    /// An ID serializes as its `urn:epc:hhhhhhhh.llllllllllllllll` display
    /// form, keeping traces and persisted scenarios grep-able.
    fn to_json(&self) -> crate::json::Json {
        crate::json::Json::Str(self.to_string())
    }
}

impl crate::json::FromJson for TagId {
    fn from_json(json: &crate::json::Json) -> Result<Self, crate::json::JsonError> {
        let s = json.as_str()?;
        let bad = || crate::json::JsonError(format!("malformed tag ID '{s}'"));
        let rest = s.strip_prefix("urn:epc:").ok_or_else(bad)?;
        let (hi, lo) = rest.split_once('.').ok_or_else(bad)?;
        if hi.len() != 8 || lo.len() != 16 {
            return Err(bad());
        }
        Ok(TagId::from_raw(
            u32::from_str_radix(hi, 16).map_err(|_| bad())?,
            u64::from_str_radix(lo, 16).map_err(|_| bad())?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_hash::prop::check;
    use rfid_hash::prop_assert_eq;

    /// The header, manager and class fields packed as in the category.
    fn category_of(header: u8, manager: u32, class: u32) -> u64 {
        ((header as u64) << (MANAGER_BITS + CLASS_BITS))
            | ((manager as u64) << CLASS_BITS)
            | class as u64
    }

    /// The ID a 12-byte EPC image encodes.
    fn from_bytes(bytes: &[u8; 12]) -> u128 {
        let mut wide = [0u8; 16];
        wide[4..].copy_from_slice(bytes);
        u128::from_be_bytes(wide)
    }

    #[test]
    fn field_roundtrip() {
        let id = TagId::from_fields(0x30, 0x0ABCDEF, 0x123456, 0x9_8765_4321);
        assert_eq!(id.category(), category_of(0x30, 0x0ABCDEF, 0x123456));
        assert_eq!(id.serial(), 0x9_8765_4321);
    }

    #[test]
    fn category_is_header_manager_class() {
        let id = TagId::from_fields(0x30, 7, 9, 1234);
        let expected = ((0x30u64) << (MANAGER_BITS + CLASS_BITS)) | (7 << CLASS_BITS) | 9;
        assert_eq!(id.category(), expected);
        // Two tags of the same product share the category but not the ID.
        let sib = TagId::from_fields(0x30, 7, 9, 9999);
        assert_eq!(sib.category(), id.category());
        assert_ne!(sib, id);
    }

    #[test]
    fn bits_msb_first() {
        let id = TagId::from_raw(0x8000_0000, 0); // only the very first bit set
        assert!(id.bit(0));
        assert!(!id.bit(1));
        assert!(!id.bit(95));
        let last = TagId::from_raw(0, 1); // only the very last bit set
        assert!(last.bit(95));
        assert!(!last.bit(0));
    }

    #[test]
    fn to_bits_matches_bit() {
        let id = TagId::from_fields(0xAB, 0x0FF00FF, 0x00AA55, 0x5_5555_AAAA);
        let bits = id.prefix_bits(EPC_BITS);
        assert_eq!(bits.len(), 96);
        for i in 0..96 {
            assert_eq!(bits.get(i), id.bit(i), "bit {i}");
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let id = TagId::from_raw(0x0102_0304, 0x1122_3344_5566_7788);
        let bytes = id.to_bytes();
        assert_eq!(bytes[0], 0x01);
        assert_eq!(bytes[11], 0x88);
        assert_eq!(from_bytes(&bytes), id.as_u128());
    }

    #[test]
    fn prefix_bits_is_id_prefix() {
        let id = TagId::from_fields(0xFF, 0, 0, 0);
        let p = id.prefix_bits(8);
        assert_eq!(p.to_string(), "11111111");
    }

    #[test]
    fn display_is_stable() {
        let id = TagId::from_raw(0xDEADBEEF, 0x0123456789ABCDEF);
        assert_eq!(id.to_string(), "urn:epc:deadbeef.0123456789abcdef");
    }

    #[test]
    #[should_panic(expected = "too wide")]
    fn oversized_serial_rejected() {
        let _ = TagId::from_fields(0, 0, 0, 1u64 << 36);
    }

    #[test]
    fn prop_fields_roundtrip() {
        check("tag-id fields round-trip", 256, |g| {
            let header = g.u8();
            let manager = g.u64_below(1 << 28) as u32;
            let class = g.u64_below(1 << 24) as u32;
            let serial = g.u64_below(1u64 << 36);
            let id = TagId::from_fields(header, manager, class, serial);
            prop_assert_eq!(id.category(), category_of(header, manager, class));
            prop_assert_eq!(id.serial(), serial);
            Ok(())
        });
    }

    #[test]
    fn prop_bytes_roundtrip() {
        check("tag-id bytes round-trip", 256, |g| {
            let id = TagId::from_raw(g.u32(), g.u64());
            prop_assert_eq!(from_bytes(&id.to_bytes()), id.as_u128());
            Ok(())
        });
    }

    #[test]
    fn prop_bitvec_value_matches_u128() {
        check("tag-id bits match u128 value", 256, |g| {
            let id = TagId::from_raw(g.u32(), g.u64());
            // Reassemble through two 48-bit halves to stay within u64.
            let hi48 = id.prefix_bits(48).to_value() as u128;
            let lo48 = BitVec::from_bits((48..EPC_BITS).map(|i| id.bit(i))).to_value() as u128;
            prop_assert_eq!((hi48 << 48) | lo48, id.as_u128());
            Ok(())
        });
    }
}
