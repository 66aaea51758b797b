//! Multi-reader deployments (Section II-A).
//!
//! Large facilities use many readers with overlapping interrogation zones.
//! The paper assumes "the collision-free transmission schedule among the
//! readers is established" and treats them as one logical reader; this
//! module *establishes* that schedule: readers whose zones overlap would
//! interfere, so a greedy coloring of the conflict graph assigns rounds in
//! which non-conflicting readers poll concurrently. Every tag is claimed by
//! its nearest covering reader. Each reader then polls its claim on its
//! own, and the deployment takes the sum over colors of the slowest reader
//! in each color (`examples/warehouse_inventory.rs` runs one).

use rfid_hash::{split_seed, Xoshiro256};

/// One reader and its interrogation zone (a disk).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReaderZone {
    /// Reader position.
    pub x: f64,
    /// Reader position.
    pub y: f64,
    /// Interrogation radius.
    pub radius: f64,
}

impl ReaderZone {
    /// Whether two readers interfere (zones within carrier range of each
    /// other — twice the radius, the standard disk-interference model).
    pub(crate) fn conflicts_with(&self, other: &ReaderZone) -> bool {
        let (dx, dy) = (other.x - self.x, other.y - self.y);
        let reach = self.radius + other.radius;
        dx * dx + dy * dy < reach * reach
    }
}

/// A planned deployment: readers on a floor, tags scattered uniformly.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentPlan {
    /// Reader zones.
    pub readers: Vec<ReaderZone>,
    /// Floor width.
    pub width: f64,
    /// Floor height.
    pub height: f64,
}

impl DeploymentPlan {
    /// A `cols × rows` grid of readers whose zones tile (and overlap on)
    /// a `width × height` floor.
    pub fn grid(cols: usize, rows: usize, width: f64, height: f64) -> Self {
        assert!(cols > 0 && rows > 0);
        let dx = width / cols as f64;
        let dy = height / rows as f64;
        // Radius chosen so four neighbours overlap: full coverage.
        let radius = 0.75 * dx.max(dy);
        let readers = (0..rows)
            .flat_map(|r| {
                (0..cols).map(move |c| ReaderZone {
                    x: (c as f64 + 0.5) * dx,
                    y: (r as f64 + 0.5) * dy,
                    radius,
                })
            })
            .collect();
        DeploymentPlan {
            readers,
            width,
            height,
        }
    }

    /// Greedy coloring of the reader conflict graph; returns one color per
    /// reader. Readers of equal color never interfere and may poll
    /// concurrently.
    pub fn color_schedule(&self) -> Vec<usize> {
        let n = self.readers.len();
        let mut colors = vec![usize::MAX; n];
        for i in 0..n {
            let used: std::collections::HashSet<usize> = self.readers[..i]
                .iter()
                .zip(&colors)
                .filter(|(earlier, _)| self.readers[i].conflicts_with(earlier))
                .map(|(_, &color)| color)
                .collect();
            colors[i] = (0..).find(|c| !used.contains(c)).expect("infinite range");
        }
        colors
    }

    /// Scatters the scenario's tags uniformly over the floor and claims each
    /// for its nearest covering reader. Returns per-reader tag indices
    /// (indices into the scenario population order). Uncovered tags go to
    /// the nearest reader regardless (best effort).
    pub fn claim_tags(&self, n: usize, seed: u64) -> Vec<Vec<usize>> {
        let mut rng = Xoshiro256::seed_from_u64(split_seed(seed, 77));
        let mut claims = vec![Vec::new(); self.readers.len()];
        for t in 0..n {
            let (tx, ty) = (rng.unit_f64() * self.width, rng.unit_f64() * self.height);
            let owner = self
                .readers
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let da = (tx - a.x).powi(2) + (ty - a.y).powi(2);
                    let db = (tx - b.x).powi(2) + (ty - b.y).powi(2);
                    da.total_cmp(&db)
                })
                .map(|(i, _)| i)
                .expect("at least one reader");
            claims[owner].push(t);
        }
        claims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_the_floor() {
        let plan = DeploymentPlan::grid(3, 2, 30.0, 20.0);
        assert_eq!(plan.readers.len(), 6);
        let mut rng = Xoshiro256::seed_from_u64(1);
        for _ in 0..1_000 {
            let (x, y) = (rng.unit_f64() * 30.0, rng.unit_f64() * 20.0);
            assert!(
                plan.readers.iter().any(|r| {
                    let (dx, dy) = (x - r.x, y - r.y);
                    dx * dx + dy * dy <= r.radius * r.radius
                }),
                "({x:.1}, {y:.1}) uncovered"
            );
        }
    }

    #[test]
    fn coloring_is_proper() {
        let plan = DeploymentPlan::grid(4, 4, 40.0, 40.0);
        let colors = plan.color_schedule();
        for i in 0..plan.readers.len() {
            for j in 0..i {
                if plan.readers[i].conflicts_with(&plan.readers[j]) {
                    assert_ne!(colors[i], colors[j], "readers {i} and {j} clash");
                }
            }
        }
    }

    #[test]
    fn adjacent_grid_readers_conflict() {
        let plan = DeploymentPlan::grid(2, 1, 20.0, 10.0);
        assert!(plan.readers[0].conflicts_with(&plan.readers[1]));
        let colors = plan.color_schedule();
        assert_ne!(colors[0], colors[1]);
    }

    #[test]
    fn every_tag_claimed_exactly_once() {
        let plan = DeploymentPlan::grid(3, 3, 30.0, 30.0);
        let claims = plan.claim_tags(1_000, 42);
        let total: usize = claims.iter().map(|c| c.len()).sum();
        assert_eq!(total, 1_000);
        let mut seen = std::collections::HashSet::new();
        for c in &claims {
            for &t in c {
                assert!(seen.insert(t), "tag {t} claimed twice");
            }
        }
    }

    #[test]
    fn single_reader_degenerates_to_plain_run() {
        // One reader claims every tag in one color: its run is the
        // whole deployment.
        let plan = DeploymentPlan::grid(1, 1, 10.0, 10.0);
        let claims = plan.claim_tags(100, 9);
        assert_eq!(claims.len(), 1);
        assert_eq!(claims[0].len(), 100);
        assert_eq!(plan.color_schedule(), [0]);
    }
}
