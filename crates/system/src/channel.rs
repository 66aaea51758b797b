//! The shared wireless channel.
//!
//! When several tags backscatter in the same slot the reader sees a
//! collision; when none replies the slot is empty. Polling protocols never
//! produce either (they address singletons only) — the channel model is what
//! lets the simulator *verify* that, and what gives the ALOHA baselines
//! their empty/collision slots. A configurable reply-loss rate, which
//! `SimContext` applies to every reply before the capture decision here,
//! supports robustness experiments (a lost reply leaves the tag active, so
//! a correct protocol retries it).

use rfid_hash::Xoshiro256;

/// What the reader observed in one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOutcome {
    /// No tag replied.
    Empty,
    /// Exactly one tag replied (carries the tag handle).
    Singleton(usize),
    /// Two or more tags replied concurrently (carries the count).
    Collision(usize),
    /// Exactly one tag replied but the payload failed its CRC-16 check
    /// (carries the tag handle). The reader knows *someone* answered, so it
    /// can NAK-and-retry instead of treating the slot as empty.
    Corrupted(usize),
}

impl SlotOutcome {
    /// `true` for a singleton slot.
    pub fn is_singleton(&self) -> bool {
        matches!(self, SlotOutcome::Singleton(_))
    }
}

/// Channel configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Channel {
    /// Probability that a tag's reply is lost/corrupted and the reader
    /// cannot decode it (the slot then looks empty to the reader).
    pub reply_loss_rate: f64,
    /// Capture effect: probability that a 2-tag collision is nevertheless
    /// decoded as the stronger tag (0.0 = classical collision model).
    /// Wider collisions are never captured: capture models the power
    /// difference within a pair, and with many concurrent backscatters no
    /// single tag dominates.
    pub capture_prob: f64,
}

impl Channel {
    /// A perfect channel (the paper's setting).
    pub fn perfect() -> Self {
        Channel {
            reply_loss_rate: 0.0,
            capture_prob: 0.0,
        }
    }

    /// A lossy channel with the given reply-loss probability.
    ///
    /// # Panics
    /// Panics if `loss` is outside `[0, 1]`.
    pub fn lossy(loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss rate {loss}");
        Channel {
            reply_loss_rate: loss,
            ..Channel::perfect()
        }
    }

    /// Re-checks both rates — [`Channel::lossy`] validates at construction,
    /// but struct literals and JSON can smuggle in NaN or 2.0 (NaN fails
    /// the check too). [`crate::SimContext::new`] panics on the message;
    /// a snapshot restore turns it into a typed error.
    pub fn try_validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.reply_loss_rate) {
            return Err(format!("loss rate {}", self.reply_loss_rate));
        }
        if !(0.0..=1.0).contains(&self.capture_prob) {
            return Err(format!("capture prob {}", self.capture_prob));
        }
        Ok(())
    }

    /// Resolves a slot given the handles of the replies that reached the
    /// reader (loss is applied before, by [`crate::SimContext::slot`]): a
    /// two-tag collision the capture effect rescues decodes as one random
    /// survivor.
    pub(crate) fn resolve(&self, survivors: &[usize], rng: &mut Xoshiro256) -> SlotOutcome {
        match survivors.len() {
            0 => SlotOutcome::Empty,
            1 => SlotOutcome::Singleton(survivors[0]),
            2 if self.capture_prob > 0.0 && rng.chance(self.capture_prob) => {
                SlotOutcome::Singleton(survivors[rng.below(2) as usize])
            }
            n => SlotOutcome::Collision(n),
        }
    }
}

impl Default for Channel {
    fn default() -> Self {
        Channel::perfect()
    }
}

crate::impl_json_struct!(Channel {
    reply_loss_rate,
    capture_prob
});

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256 {
        Xoshiro256::seed_from_u64(1)
    }

    #[test]
    fn perfect_channel_is_deterministic() {
        let ch = Channel::perfect();
        let mut r = rng();
        assert_eq!(ch.resolve(&[], &mut r), SlotOutcome::Empty);
        assert_eq!(ch.resolve(&[7], &mut r), SlotOutcome::Singleton(7));
        assert_eq!(ch.resolve(&[1, 2, 3], &mut r), SlotOutcome::Collision(3));
    }

    #[test]
    fn capture_effect_rescues_some_two_tag_collisions() {
        let ch = Channel {
            capture_prob: 0.5,
            ..Channel::perfect()
        };
        let mut r = rng();
        let captured = (0..10_000)
            .filter(|_| ch.resolve(&[1, 2], &mut r).is_singleton())
            .count();
        let rate = captured as f64 / 10_000.0;
        assert!((rate - 0.5).abs() < 0.03, "capture rate {rate}");
        // Three-way collisions are never captured.
        for _ in 0..100 {
            assert_eq!(ch.resolve(&[1, 2, 3], &mut r), SlotOutcome::Collision(3));
        }
    }

    #[test]
    #[should_panic(expected = "loss rate")]
    fn invalid_loss_rejected() {
        let _ = Channel::lossy(1.5);
    }

    #[test]
    #[should_panic(expected = "capture prob")]
    fn invalid_capture_rejected() {
        Channel {
            capture_prob: 2.0,
            ..Channel::perfect()
        }
        .try_validate()
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "capture prob")]
    fn validate_catches_literal_nan() {
        let ch = Channel {
            reply_loss_rate: 0.0,
            capture_prob: f64::NAN,
        };
        ch.try_validate().unwrap();
    }
}
