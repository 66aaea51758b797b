//! Frame observations: what a reader sees in one estimation frame.

/// Slot-status counts of one observed ALOHA frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameObservation {
    /// Frame size `f`.
    pub frame: u64,
    /// Slots with no reply.
    pub empty: u64,
    /// Slots with exactly one reply.
    pub singleton: u64,
    /// Slots with two or more replies.
    pub collision: u64,
}

impl FrameObservation {
    /// Builds an observation, checking consistency.
    ///
    /// # Panics
    /// Panics if the counts do not sum to the frame size.
    pub(crate) fn new(frame: u64, empty: u64, singleton: u64, collision: u64) -> Self {
        assert_eq!(
            empty + singleton + collision,
            frame,
            "slot counts do not sum to the frame size"
        );
        FrameObservation {
            frame,
            empty,
            singleton,
            collision,
        }
    }

    /// Fraction of empty slots `p₀`.
    pub(crate) fn empty_fraction(&self) -> f64 {
        self.empty as f64 / self.frame as f64
    }
}

/// A test oracle: the protocol builds its observations from the slot
/// outcomes the reader hears.
#[cfg(test)]
impl FrameObservation {
    /// Observes a frame given each tag's chosen slot.
    pub(crate) fn observe(frame: u64, slots_chosen: &[u64]) -> Self {
        let mut counts = vec![0u32; frame as usize];
        for &s in slots_chosen {
            counts[s as usize] += 1;
        }
        let empty = counts.iter().filter(|&&c| c == 0).count() as u64;
        let singleton = counts.iter().filter(|&&c| c == 1).count() as u64;
        FrameObservation::new(frame, empty, singleton, frame - empty - singleton)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_counts_correctly() {
        // Slots: 0←2 tags, 1←1 tag, 2←0, 3←1.
        let obs = FrameObservation::observe(4, &[0, 0, 1, 3]);
        assert_eq!(obs.empty, 1);
        assert_eq!(obs.singleton, 2);
        assert_eq!(obs.collision, 1);
        assert_eq!(obs.empty_fraction(), 0.25);
    }

    #[test]
    fn empty_population_is_all_empty() {
        let obs = FrameObservation::observe(8, &[]);
        assert_eq!(obs.empty, 8);
        assert_eq!(obs.empty_fraction(), 1.0);
    }

    #[test]
    #[should_panic(expected = "do not sum")]
    fn inconsistent_counts_rejected() {
        FrameObservation::new(4, 1, 1, 1);
    }
}
