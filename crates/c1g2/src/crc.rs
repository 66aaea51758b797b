//! CRC generators mandated by the C1G2 standard.
//!
//! **CRC-16/CCITT** (poly `x¹⁶+x¹²+x⁵+1`, preset `0xFFFF`, final
//! complement) protects tag EPC backscatter and reader commands longer than
//! Query. The standard transmits the *complement* of the register and
//! verifies by checking for the residue `0x1D0F`.
//!
//! It is implemented table-driven, byte-wise; the tests keep the bit-serial
//! form — exactly how a tag's shift-register hardware computes it — as its
//! oracle. There is also a 48-bit composite code used by the Coded Polling
//! baseline reconstruction. (The Query command's CRC-5 is charged in
//! [`crate::commands::QUERY_BITS`] and computed only by the tests.)

/// Byte-wise CRC-16/CCITT, MSB-first: preset `0xFFFF`, polynomial
/// `0x1021`, final one's complement (as transmitted on air), using a
/// compile-time table.
pub fn crc16(data: &[u8]) -> u16 {
    let mut reg: u16 = 0xFFFF;
    for &byte in data {
        let idx = ((reg >> 8) ^ byte as u16) & 0xFF;
        reg = (reg << 8) ^ CRC16_TABLE[idx as usize];
    }
    !reg
}

/// A 48-bit code over a 96-bit EPC, built from two independent CRC-16 passes
/// (plain and byte-reversed) plus a 16-bit mixing fold. This is the
/// reconstruction of the Coded Polling paper's "half-length CRC-validated"
/// polling vector: 96 bits in, 48 bits out, uniformly distributed.
pub fn crc48_code(epc: &[u8; 12]) -> u64 {
    let a = crc16(epc) as u64;
    let mut rev = *epc;
    rev.reverse();
    let b = crc16(&rev) as u64;
    // Fold the EPC words through a multiply-xor mix for the middle 16 bits so
    // the three halves are pairwise independent.
    let mut fold: u64 = 0x9E37_79B9_7F4A_7C15;
    for chunk in epc.chunks(4) {
        let mut w = [0u8; 4];
        w[..chunk.len()].copy_from_slice(chunk);
        fold = (fold ^ u32::from_le_bytes(w) as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        fold ^= fold >> 31;
    }
    (a << 32) | ((fold & 0xFFFF) << 16) | b
}

/// CRC-16/CCITT lookup table for polynomial `0x1021`, generated at compile
/// time.
static CRC16_TABLE: [u16; 256] = build_crc16_table();

const fn build_crc16_table() -> [u16; 256] {
    let mut table = [0u16; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-serial CRC-16/CCITT over a bit slice, MSB-first, with the same
    /// parameters as [`crc16`]: the tag's shift register, and the oracle
    /// of the table-driven form.
    fn crc16_bits(bits: &[bool]) -> u16 {
        let mut reg: u16 = 0xFFFF;
        for &bit in bits {
            let msb = (reg >> 15) & 1 == 1;
            reg <<= 1;
            if msb != bit {
                reg ^= 0x1021;
            }
        }
        !reg
    }

    /// CRC-5 as specified in C1G2 Annex F: polynomial `0b101001` (x⁵+x³+1),
    /// register preset to `0b01001`, MSB-first, no final XOR.
    fn crc5(bits: &[bool]) -> u8 {
        let mut reg: u8 = 0b01001;
        for &bit in bits {
            let msb = (reg >> 4) & 1 == 1;
            reg = (reg << 1) & 0b11111;
            if msb != bit {
                // (msb XOR input) feeds back through the polynomial taps.
                reg ^= 0b01001;
            }
        }
        reg
    }

    /// CRC-5 over the low `n` bits of `value`, MSB first.
    fn crc5_of_value(value: u32, n: u32) -> u8 {
        assert!(n <= 32);
        let bits: Vec<bool> = (0..n).rev().map(|i| (value >> i) & 1 == 1).collect();
        crc5(&bits)
    }

    fn bits_of_bytes(data: &[u8]) -> Vec<bool> {
        data.iter()
            .flat_map(|&b| (0..8).rev().map(move |i| (b >> i) & 1 == 1))
            .collect()
    }

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE of "123456789" is 0x29B1; with the on-air final
        // complement the transmitted value is !0x29B1 = 0xD64E.
        assert_eq!(crc16(b"123456789"), !0x29B1);
    }

    #[test]
    fn crc16_bit_serial_matches_table() {
        for data in [&b"123456789"[..], b"", b"\x00", b"\xff\xff", b"EPC!"] {
            assert_eq!(crc16_bits(&bits_of_bytes(data)), crc16(data), "{data:?}");
        }
    }

    #[test]
    fn crc16_residue_check() {
        let msg = b"hello c1g2";
        let crc = crc16(msg);
        let mut framed = msg.to_vec();
        framed.extend_from_slice(&crc.to_be_bytes());
        // Appending the complemented CRC lands the register on the residue
        // 0x1D0F, which `crc16` returns complemented.
        const RESIDUE: u16 = !0x1D0F;
        assert_eq!(crc16(&framed), RESIDUE);
        // Any single-bit corruption must be caught.
        for byte in 0..framed.len() {
            for bit in 0..8 {
                let mut bad = framed.clone();
                bad[byte] ^= 1 << bit;
                assert_ne!(crc16(&bad), RESIDUE, "missed flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn crc16_detects_every_single_bit_flip_of_unaligned_frames() {
        // A corrupted reply is a payload of any width (not only whole bytes)
        // plus its transmitted CRC-16, with one bit flipped in transit; the
        // reader recomputes the CRC over the received payload and compares.
        for len in 0..=40usize {
            let payload: Vec<bool> = (0..len).map(|i| (i * 7 + len) % 3 == 0).collect();
            let crc = crc16_bits(&payload);
            let mut frame = payload.clone();
            frame.extend((0..16).rev().map(|i| (crc >> i) & 1 == 1));
            for pos in 0..frame.len() {
                let mut bad = frame.clone();
                bad[pos] = !bad[pos];
                let (rx_payload, rx_crc) = bad.split_at(len);
                let rx_crc = rx_crc.iter().fold(0u16, |acc, &b| (acc << 1) | b as u16);
                assert_ne!(
                    crc16_bits(rx_payload),
                    rx_crc,
                    "missed flip at bit {pos} of a {len}-bit payload"
                );
            }
        }
    }

    #[test]
    fn crc5_empty_is_preset() {
        assert_eq!(crc5(&[]), 0b01001);
    }

    #[test]
    fn crc5_detects_single_bit_errors() {
        let word = 0x2AC35u32; // arbitrary 22-bit Query image
        let good = crc5_of_value(word, 22);
        for i in 0..22 {
            let bad = crc5_of_value(word ^ (1 << i), 22);
            assert_ne!(good, bad, "missed flip at bit {i}");
        }
    }

    #[test]
    fn crc5_is_five_bits() {
        for v in [0u32, 1, 0x3FFFFF, 0x15555, 0x2AAAA] {
            assert!(crc5_of_value(v, 22) < 32);
        }
    }

    #[test]
    fn crc48_is_deterministic_and_48_bits() {
        let epc = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
        let c = crc48_code(&epc);
        assert_eq!(c, crc48_code(&epc));
        assert!(c < (1u64 << 48));
    }

    #[test]
    fn crc48_separates_similar_epcs() {
        let base = [0u8; 12];
        let mut seen = std::collections::HashSet::new();
        seen.insert(crc48_code(&base));
        for byte in 0..12 {
            for bit in 0..8 {
                let mut epc = base;
                epc[byte] ^= 1 << bit;
                assert!(seen.insert(crc48_code(&epc)), "collision at {byte}:{bit}");
            }
        }
    }
}
