//! Bit costs of the reader commands the protocols issue.
//!
//! The simulator charges reader air time per command. Standard C1G2 command
//! lengths are taken from the specification; the polling-specific payloads
//! (polling vectors, tree segments, indicator vectors, circle commands) carry
//! their own explicit bit counts.

use crate::params::LinkParams;
use crate::time::Micros;

/// Bit length of the 4-bit `QueryRep` command that precedes each polling
/// vector in the paper's timing model (`37.45·(4+w)` µs).
pub const QUERY_REP_BITS: u64 = 4;

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

/// A reader command with its air-time bit cost.
///
/// The enum distinguishes the standard inventory commands from the
/// protocol-specific broadcasts so event traces stay self-describing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Standard 22-bit `Query`, starting an inventory round.
    Query,
    /// Standard 4-bit `QueryRep`, advancing to the next slot.
    QueryRep,
    /// Standard `ACK`.
    Ack,
    /// `Select` with a mask of the given bit length.
    Select {
        /// Number of mask bits carried by the command.
        mask_bits: u64,
    },
    /// A round-initiation request carrying protocol parameters `(h, r)` or
    /// similar; the total length is protocol-configured.
    RoundInit {
        /// Total bits of the round-initiation broadcast.
        bits: u64,
    },
    /// An EHPP circle command carrying `(f, F, r)`; length `l_c` is a
    /// protocol parameter the paper sweeps (100/128/200/400 bits).
    CircleInit {
        /// Total bits `l_c` of the circle command.
        bits: u64,
    },
    /// A polling vector of `w` bits (preceded by a QueryRep when
    /// `with_query_rep` is set, matching the paper's `4 + w` accounting).
    Poll {
        /// Polling-vector length `w` in bits.
        vector_bits: u64,
        /// Whether the 4-bit QueryRep prefix is charged.
        with_query_rep: bool,
    },
    /// A TPP tree segment `Seq[j]` of `k` bits (also behind a QueryRep).
    TreeSegment {
        /// Differential-suffix length `k` in bits.
        segment_bits: u64,
        /// Whether the 4-bit QueryRep prefix is charged.
        with_query_rep: bool,
    },
    /// A MIC indicator vector covering a whole frame.
    IndicatorVector {
        /// Total bits of the indicator vector.
        bits: u64,
    },
    /// Raw reader payload of explicit length (escape hatch for baselines).
    Raw {
        /// Total bits transmitted.
        bits: u64,
    },
}

impl Command {
    /// Number of bits this command puts on the air.
    pub fn bits(&self) -> u64 {
        match *self {
            Command::Query => QUERY_BITS,
            Command::QueryRep => QUERY_REP_BITS,
            Command::Ack => ACK_BITS,
            Command::Select { mask_bits } => SELECT_FIXED_BITS + mask_bits,
            Command::RoundInit { bits }
            | Command::CircleInit { bits }
            | Command::IndicatorVector { bits }
            | Command::Raw { bits } => bits,
            Command::Poll {
                vector_bits,
                with_query_rep,
            } => vector_bits + if with_query_rep { QUERY_REP_BITS } else { 0 },
            Command::TreeSegment {
                segment_bits,
                with_query_rep,
            } => segment_bits + if with_query_rep { QUERY_REP_BITS } else { 0 },
        }
    }

    /// Air time of this command under the given link parameters.
    pub fn duration(&self, link: &LinkParams) -> Micros {
        link.reader_tx(self.bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_command_lengths() {
        assert_eq!(Command::Query.bits(), 22);
        assert_eq!(Command::QueryRep.bits(), 4);
        assert_eq!(Command::Ack.bits(), 18);
        assert_eq!(
            Command::Select { mask_bits: 32 }.bits(),
            SELECT_FIXED_BITS + 32
        );
    }

    #[test]
    fn poll_accounting_matches_paper() {
        let p = Command::Poll {
            vector_bits: 3,
            with_query_rep: true,
        };
        assert_eq!(p.bits(), 7);
        let bare = Command::Poll {
            vector_bits: 96,
            with_query_rep: false,
        };
        assert_eq!(bare.bits(), 96);
    }

    #[test]
    fn durations_scale_with_link() {
        let link = LinkParams::paper();
        let d = Command::QueryRep.duration(&link);
        assert_eq!(d, Micros::from_us(4.0 * 37.45));
        assert_eq!(d.as_ns(), 4 * 37_450);
        let seg = Command::TreeSegment {
            segment_bits: 2,
            with_query_rep: true,
        };
        assert_eq!(seg.duration(&link).as_ns(), 6 * 37_450);
    }
}
