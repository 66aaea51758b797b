//! Bit costs of the reader commands the protocols issue.
//!
//! The simulator charges reader air time per command. Standard C1G2 command
//! lengths are taken from the specification; the polling protocols' fixed
//! commands (the 32-bit round initiation `(h, r)` and EHPP's 128-bit circle
//! command `l_c`) and the CRC-16 on tag replies are the paper's Section-V
//! widths, and live here too. The variable-length payloads (polling
//! vectors, tree segments, indicator vectors) carry their own bit counts at
//! their call sites.

/// Bit length of the 4-bit `QueryRep` command that precedes each polling
/// vector in the paper's timing model (`37.45·(4+w)` µs).
pub const QUERY_REP_BITS: u64 = 4;

/// Bit length of the `(h, r)` broadcast that opens each polling round (the
/// Section-V simulation setting).
pub const ROUND_INIT_BITS: u64 = 32;

/// Bit length `l_c` of EHPP's circle command `(f, F, r)` (the paper sweeps
/// 100–400 and simulates with 128).
pub const CIRCLE_COMMAND_BITS: u64 = 128;

/// Bit length of the CRC-16 a tag appends to an identification reply.
pub const CRC16_BITS: u64 = 16;

/// Bit length of the full `Query` command (22 bits incl. CRC-5).
pub const QUERY_BITS: u64 = 22;

/// Bit length of an `ACK` command (2-bit code + 16-bit RN16).
pub const ACK_BITS: u64 = 18;

/// Bit length of a `NAK` command (8-bit code, no handle) — sent when a reply
/// fails its CRC-16 check to request a retransmission.
pub const NAK_BITS: u64 = 8;

/// Fixed portion of a `Select` command: 4-bit code, 3-bit target, 3-bit
/// action, 2-bit bank, EBV pointer (8) and 8-bit length, 1 truncate bit and
/// CRC-16 — the mask bits are added per use.
pub const SELECT_FIXED_BITS: u64 = 4 + 3 + 3 + 2 + 8 + 8 + 1 + 16;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkParams, Micros};

    #[test]
    fn standard_command_lengths() {
        assert_eq!(QUERY_BITS, 22);
        assert_eq!(QUERY_REP_BITS, 4);
        assert_eq!(ROUND_INIT_BITS, 32);
        assert_eq!(CIRCLE_COMMAND_BITS, 128);
        assert_eq!(CRC16_BITS, 16);
        assert_eq!(ACK_BITS, 18);
        assert_eq!(NAK_BITS, 8);
        assert_eq!(SELECT_FIXED_BITS + 32, 77);
    }

    #[test]
    fn durations_scale_with_link() {
        let link = LinkParams::paper();
        let d = link.reader_tx(QUERY_REP_BITS);
        assert_eq!(d, Micros::from_us(4.0 * 37.45));
        assert_eq!(d.as_ns(), 4 * 37_450);
        // A 2-bit TPP tree segment behind its QueryRep.
        assert_eq!(link.reader_tx(QUERY_REP_BITS + 2).as_ns(), 6 * 37_450);
    }
}
