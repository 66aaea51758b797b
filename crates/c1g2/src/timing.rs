//! Time accounting for protocol runs.
//!
//! Protocols spend time in a handful of distinguishable ways (reader command
//! overhead, polling-vector bits, turnarounds, tag payloads, …). [`Clock`]
//! accumulates a per-[`TimeCategory`] breakdown whose sum is the total, so a
//! report can show *where* the inventory time went — the decomposition
//! behind Fig. 1 and the per-protocol discussion in Section V.

use std::fmt;
use std::ops::{Add, AddAssign};

use crate::time::Micros;

/// Buckets for the time breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeCategory {
    /// Fixed reader command overhead (Query/QueryRep/Select/round-init).
    ReaderCommand,
    /// Polling-vector or tree-segment payload bits.
    PollingVector,
    /// Indicator vectors and similar bulk reader broadcasts.
    IndicatorVector,
    /// T1/T2 turnaround waits.
    Turnaround,
    /// Tag reply payloads.
    TagReply,
    /// Time wasted in empty or collision slots (ALOHA baselines only).
    WastedSlot,
}

impl TimeCategory {
    /// All categories in display order.
    pub(crate) const ALL: [TimeCategory; 6] = [
        TimeCategory::ReaderCommand,
        TimeCategory::PollingVector,
        TimeCategory::IndicatorVector,
        TimeCategory::Turnaround,
        TimeCategory::TagReply,
        TimeCategory::WastedSlot,
    ];

    fn index(self) -> usize {
        match self {
            TimeCategory::ReaderCommand => 0,
            TimeCategory::PollingVector => 1,
            TimeCategory::IndicatorVector => 2,
            TimeCategory::Turnaround => 3,
            TimeCategory::TagReply => 4,
            TimeCategory::WastedSlot => 5,
        }
    }

    /// Human-readable label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            TimeCategory::ReaderCommand => "reader commands",
            TimeCategory::PollingVector => "polling vectors",
            TimeCategory::IndicatorVector => "indicator vectors",
            TimeCategory::Turnaround => "turnarounds",
            TimeCategory::TagReply => "tag replies",
            TimeCategory::WastedSlot => "wasted slots",
        }
    }
}

/// Per-category time totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimeBreakdown {
    buckets: [Micros; 6],
}

impl TimeBreakdown {
    /// The time spent in `category`.
    pub fn get(&self, category: TimeCategory) -> Micros {
        self.buckets[category.index()]
    }

    /// Records `dt` against `category`.
    pub fn record(&mut self, category: TimeCategory, dt: Micros) {
        self.buckets[category.index()] += dt;
    }

    /// Sum over all categories.
    pub fn total(&self) -> Micros {
        self.buckets.iter().copied().sum()
    }

    /// Iterates `(category, time)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (TimeCategory, Micros)> + '_ {
        TimeCategory::ALL.iter().map(move |&c| (c, self.get(c)))
    }
}

impl Add for TimeBreakdown {
    type Output = TimeBreakdown;
    fn add(self, rhs: TimeBreakdown) -> TimeBreakdown {
        let mut out = self;
        for (i, b) in rhs.buckets.iter().enumerate() {
            out.buckets[i] += *b;
        }
        out
    }
}

impl AddAssign for TimeBreakdown {
    fn add_assign(&mut self, rhs: TimeBreakdown) {
        *self = *self + rhs;
    }
}

impl fmt::Display for TimeBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total();
        for (cat, t) in self.iter() {
            if t.is_zero() {
                continue;
            }
            let pct = if total.is_zero() {
                0.0
            } else {
                t / total * 100.0
            };
            writeln!(
                f,
                "  {:<18} {:>12}  ({pct:5.1} %)",
                cat.label(),
                t.to_string()
            )?;
        }
        Ok(())
    }
}

/// An accumulating clock: the per-category breakdown, whose sum is the
/// total elapsed time. Time is whole nanoseconds, so the sum is exact
/// whatever the order the time was spent in.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    breakdown: TimeBreakdown,
}

impl Clock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Clock::default()
    }

    /// Advances the clock by `dt`, attributing it to `category`.
    #[inline]
    pub fn spend(&mut self, category: TimeCategory, dt: Micros) {
        self.breakdown.record(category, dt);
    }

    /// Total elapsed time: the sum of the breakdown.
    #[inline]
    pub fn total(&self) -> Micros {
        self.breakdown.total()
    }

    /// The per-category breakdown.
    pub fn breakdown(&self) -> &TimeBreakdown {
        &self.breakdown
    }
}

/// A clock that has spent exactly `breakdown` (a checkpointed clock).
impl From<TimeBreakdown> for Clock {
    fn from(breakdown: TimeBreakdown) -> Self {
        Clock { breakdown }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_accumulates_and_attributes() {
        let mut c = Clock::new();
        c.spend(TimeCategory::ReaderCommand, Micros::from_us(10.0));
        c.spend(TimeCategory::TagReply, Micros::from_us(25.0));
        c.spend(TimeCategory::ReaderCommand, Micros::from_us(5.0));
        assert_eq!(c.total(), Micros::from_us(40.0));
        assert_eq!(
            c.breakdown().get(TimeCategory::ReaderCommand),
            Micros::from_us(15.0)
        );
        assert_eq!(
            c.breakdown().get(TimeCategory::TagReply),
            Micros::from_us(25.0)
        );
        assert_eq!(c.breakdown().get(TimeCategory::Turnaround), Micros::ZERO);
    }

    #[test]
    fn breakdown_total_matches_clock_total() {
        let mut c = Clock::new();
        for (i, cat) in TimeCategory::ALL.iter().enumerate() {
            c.spend(*cat, Micros::from_us((i + 1) as f64));
        }
        assert_eq!(c.breakdown().total(), c.total());
    }

    #[test]
    fn absorb_merges() {
        // Sub-runs timed on their own clocks merge by adding breakdowns.
        let mut a = Clock::new();
        a.spend(TimeCategory::Turnaround, Micros::from_us(100.0));
        let mut b = Clock::new();
        b.spend(TimeCategory::Turnaround, Micros::from_us(50.0));
        b.spend(TimeCategory::PollingVector, Micros::from_us(7.0));
        let mut merged = *a.breakdown();
        merged += *b.breakdown();
        assert_eq!(merged.total(), Micros::from_us(157.0));
        assert_eq!(merged.get(TimeCategory::Turnaround), Micros::from_us(150.0));
        assert_eq!(merged, *a.breakdown() + *b.breakdown());
    }

    #[test]
    fn breakdown_display_lists_nonzero_buckets() {
        let mut c = Clock::new();
        c.spend(TimeCategory::TagReply, Micros::from_us(75.0));
        c.spend(TimeCategory::Turnaround, Micros::from_us(25.0));
        let s = format!("{}", c.breakdown());
        assert!(s.contains("tag replies"));
        assert!(s.contains("turnarounds"));
        assert!(!s.contains("wasted slots"));
        assert!(s.contains("75.0 %") || s.contains(" 75.0"));
    }

    #[test]
    fn breakdown_add() {
        let mut x = TimeBreakdown::default();
        x.record(TimeCategory::TagReply, Micros::from_us(1.0));
        let mut y = TimeBreakdown::default();
        y.record(TimeCategory::TagReply, Micros::from_us(2.0));
        y.record(TimeCategory::WastedSlot, Micros::from_us(3.0));
        let z = x + y;
        assert_eq!(z.get(TimeCategory::TagReply), Micros::from_us(3.0));
        assert_eq!(z.get(TimeCategory::WastedSlot), Micros::from_us(3.0));
        assert_eq!(z.total(), Micros::from_us(6.0));
    }
}
