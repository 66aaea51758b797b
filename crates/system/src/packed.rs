//! Hex-packed per-tag vectors: the compact encoding of a snapshot's tag
//! progress.
//!
//! A session snapshot carries one small value per tag (its inventory
//! state, its downlink sync bit, its kill-rule reply count). As JSON
//! arrays those cost several bytes per tag; packed, they cost a few bits.
//! Two shapes exist, both written as lowercase hex strings:
//!
//! * **fixed-width codes** (`pack_codes`/[`unpack_codes`]): code `i`
//!   occupies bits `i·w .. i·w + w` of a little-endian bit stream, and
//!   each hex digit carries four stream bits, its least significant bit
//!   first. `n` codes take `⌈n·w / 4⌉` digits; the padding bits past
//!   `n·w` are zero.
//! * **varints** (`pack_varints`/`unpack_varints`): unsigned LEB128,
//!   two hex digits per byte, in the shortest form.
//!
//! Decoders are written for hostile input. They check the digit count
//! against the expected `n` *before* allocating anything of size `n`, and
//! they reject non-hex digits, nonzero padding, overlong varints and
//! trailing bytes with a typed [`JsonError`].

use crate::json::JsonError;

/// Packs `width`-bit codes (`width` ∈ {1, 2}) into a hex string.
///
/// # Panics
/// Debug builds panic if a code does not fit in `width` bits.
pub(crate) fn pack_codes(codes: impl Iterator<Item = u8>, width: u32) -> String {
    debug_assert!(matches!(width, 1 | 2), "unsupported code width {width}");
    let per_digit = 4 / width;
    let mut out = String::new();
    let (mut digit, mut filled) = (0u8, 0);
    for code in codes {
        debug_assert!(code >> width == 0, "code {code} exceeds {width} bits");
        digit |= code << (filled * width);
        filled += 1;
        if filled == per_digit {
            out.push(hex_digit(digit));
            (digit, filled) = (0, 0);
        }
    }
    if filled > 0 {
        out.push(hex_digit(digit));
    }
    out
}

/// Unpacks exactly `n` `width`-bit codes from a `pack_codes` string.
/// `what` names the vector in error messages.
pub fn unpack_codes(hex: &str, n: usize, width: u32, what: &str) -> Result<Vec<u8>, JsonError> {
    debug_assert!(matches!(width, 1 | 2), "unsupported code width {width}");
    let bits = n
        .checked_mul(width as usize)
        .ok_or_else(|| JsonError(format!("{what}: {n} codes overflow the bit count")))?;
    let digits = bits.div_ceil(4);
    if hex.len() != digits {
        return Err(JsonError(format!(
            "{what} has {} hex digits, expected {digits} for {n} tags",
            hex.len()
        )));
    }
    let per_digit = (4 / width) as usize;
    let mask = (1u8 << width) - 1;
    let mut codes = Vec::with_capacity(n);
    for (at, byte) in hex.bytes().enumerate() {
        let digit = digit_value(byte, at, what)?;
        let take = per_digit.min(n - at * per_digit);
        if digit >> (take * width as usize) != 0 {
            return Err(JsonError(format!(
                "{what} has nonzero padding bits past tag {n}"
            )));
        }
        codes.extend((0..take).map(|k| (digit >> (k * width as usize)) & mask));
    }
    Ok(codes)
}

/// Packs `values` as shortest-form LEB128 varints into a hex string.
pub(crate) fn pack_varints(values: &[u64]) -> String {
    let mut out = String::with_capacity(2 * values.len());
    for &value in values {
        let mut rest = value;
        loop {
            let low = (rest & 0x7f) as u8;
            rest >>= 7;
            let byte = if rest == 0 { low } else { low | 0x80 };
            out.push(hex_digit(byte >> 4));
            out.push(hex_digit(byte & 0xf));
            if rest == 0 {
                break;
            }
        }
    }
    out
}

/// The most bytes a `u64` takes as LEB128.
const MAX_VARINT_BYTES: usize = 10;

/// Unpacks exactly `n` varints from a [`pack_varints`] string. `what`
/// names the vector in error messages.
pub(crate) fn unpack_varints(hex: &str, n: usize, what: &str) -> Result<Vec<u64>, JsonError> {
    // Every varint takes 1..=10 bytes of 2 digits each: bound the length
    // against `n` before allocating for it.
    let (min, max) = (n.saturating_mul(2), n.saturating_mul(2 * MAX_VARINT_BYTES));
    if hex.len() % 2 != 0 || hex.len() < min || hex.len() > max {
        return Err(JsonError(format!(
            "{what} has {} hex digits, which cannot hold {n} varints",
            hex.len()
        )));
    }
    let digits = hex.as_bytes();
    let mut bytes = (0..digits.len() / 2).map(|i| -> Result<u8, JsonError> {
        let hi = digit_value(digits[2 * i], 2 * i, what)?;
        let lo = digit_value(digits[2 * i + 1], 2 * i + 1, what)?;
        Ok(hi << 4 | lo)
    });
    let mut values = Vec::with_capacity(n);
    for index in 0..n {
        let mut value = 0u64;
        for len in 1..=MAX_VARINT_BYTES {
            let byte = bytes
                .next()
                .ok_or_else(|| JsonError(format!("{what} ends inside varint {index}")))??;
            let low = u64::from(byte & 0x7f);
            let shift = 7 * (len as u32 - 1);
            if (low << shift) >> shift != low {
                return Err(JsonError(format!("{what}: varint {index} overflows u64")));
            }
            value |= low << shift;
            if byte & 0x80 == 0 {
                if len > 1 && byte == 0 {
                    return Err(JsonError(format!(
                        "{what}: varint {index} is not in shortest form"
                    )));
                }
                break;
            }
            if len == MAX_VARINT_BYTES {
                return Err(JsonError(format!("{what}: varint {index} overflows u64")));
            }
        }
        values.push(value);
    }
    if bytes.next().is_some() {
        return Err(JsonError(format!("{what} has bytes past its {n} varints")));
    }
    Ok(values)
}

fn hex_digit(value: u8) -> char {
    char::from_digit(u32::from(value), 16).expect("a hex digit value")
}

fn digit_value(byte: u8, at: usize, what: &str) -> Result<u8, JsonError> {
    match byte {
        b'0'..=b'9' => Ok(byte - b'0'),
        b'a'..=b'f' => Ok(byte - b'a' + 10),
        _ => Err(JsonError(format!(
            "{what} has {:?} at digit {at}, not a lowercase hex digit",
            char::from(byte)
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_hash::prop::check;
    use rfid_hash::prop_assert_eq;

    #[test]
    fn codes_round_trip_at_both_widths() {
        check("codes_round_trip_at_both_widths", 200, |g| {
            let width = 1 + g.u64_below(2) as u32;
            let n = g.len_in(0, 70);
            let codes: Vec<u8> = (0..n).map(|_| g.u64_below(1 << width) as u8).collect();
            let hex = pack_codes(codes.iter().copied(), width);
            prop_assert_eq!(hex.len(), (n * width as usize).div_ceil(4));
            prop_assert_eq!(unpack_codes(&hex, n, width, "v").unwrap(), codes);
            Ok(())
        });
    }

    #[test]
    fn code_layout_is_lsb_first_within_a_digit() {
        assert_eq!(pack_codes([1, 0, 0, 0, 1].into_iter(), 1), "11");
        assert_eq!(pack_codes([1, 2, 3].into_iter(), 2), "93");
        assert_eq!(pack_codes(std::iter::empty(), 2), "");
    }

    #[test]
    fn unpack_codes_rejects_malformed_vectors() {
        let err = |hex: &str, n: usize, width: u32| unpack_codes(hex, n, width, "v").unwrap_err().0;
        assert!(err("93", 2, 2).contains("expected 1"), "length");
        assert!(err("9g", 4, 2).contains("'g'"), "digit");
        assert!(err("9A", 4, 2).contains("'A'"), "uppercase");
        // Three 2-bit codes leave the top two bits of the second digit.
        assert!(err("97", 3, 2).contains("padding"), "padding");
        // A huge `n` against a short string fails on length, allocating
        // nothing of size `n`.
        assert!(err("00", 1 << 40, 2).contains("expected"), "huge n");
        assert!(err("00", usize::MAX, 2).contains("overflow"), "overflow");
    }

    #[test]
    fn varints_round_trip() {
        check("varints_round_trip", 200, |g| {
            let n = g.len_in(0, 20);
            let values: Vec<u64> = (0..n)
                .map(|_| match g.u64_below(3) {
                    0 => g.u64_below(128),
                    1 => g.u64_below(1 << 20),
                    _ => g.u64(),
                })
                .collect();
            let hex = pack_varints(&values);
            prop_assert_eq!(unpack_varints(&hex, n, "r").unwrap(), values);
            Ok(())
        });
        assert_eq!(pack_varints(&[0, 1, 300]), "0001ac02");
        assert_eq!(pack_varints(&[u64::MAX]).len(), 20);
    }

    #[test]
    fn unpack_varints_rejects_malformed_vectors() {
        let err = |hex: &str, n: usize| unpack_varints(hex, n, "r").unwrap_err().0;
        assert!(err("000", 1).contains("cannot hold"), "odd length");
        assert!(err("00", 2).contains("cannot hold"), "too short");
        assert!(err("00", 1 << 40).contains("cannot hold"), "huge n");
        assert!(
            err("0000", 1).contains("past its 1 varints"),
            "trailing byte"
        );
        assert!(err("0080", 2).contains("ends inside"), "cut varint");
        assert!(err("8000", 1).contains("shortest form"), "overlong");
        assert!(
            err("ffffffffffffffffff02", 1).contains("overflows"),
            "65 bits"
        );
        assert!(err("0g", 1).contains("'g'"), "digit");
    }
}
