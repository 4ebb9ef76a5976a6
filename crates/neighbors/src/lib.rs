//! Neighbor search strategies for the Leaflet Finder edge-discovery stage.
//!
//! Three interchangeable back-ends, all returning the same edges:
//! * [`brute`] — SciPy-`cdist`-style all-pairs scan, O(n·m) (Approaches 1–3);
//! * [`balltree`] — BallTree radius queries, O(n log n) build, O(log n)
//!   query (Approach 4, "Tree-Search", modelled on scikit-learn's BallTree
//!   \[Omohundro 1989\]);
//! * [`celllist`] — sorted cell list, the classic MD short-range
//!   method, included as the "reduce the compute footprint" future-work
//!   item from §6 and as an ablation baseline.
//!
//! Property tests assert all back-ends produce identical edge sets.

pub mod balltree;
pub mod celllist;

pub use balltree::BallTree;
pub use celllist::CellList;

use linalg::Vec3;

/// Brute-force neighbor pairs within `cutoff` (inclusive) between two point
/// sets; re-exported from `linalg` for a uniform interface.
pub mod brute {
    pub use linalg::edges_within_cutoff;
}

/// The edge-discovery strategy used by a Leaflet Finder run — which of the
/// interchangeable back-ends performs stage (a) of Algorithm 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SearchStrategy {
    /// All-pairs distance scan (`cdist`).
    BruteForce,
    /// BallTree radius queries.
    BallTree,
    /// Sorted cell list.
    CellList,
}

/// Find all pairs `(i, j)`, `i < j`, within `cutoff` inside one point set,
/// using the requested strategy. This is the single-partition kernel; the
/// task-parallel pipelines in `mdtask-core` apply it per 2-D block.
pub fn neighbor_pairs(points: &[Vec3], cutoff: f32, strategy: SearchStrategy) -> Vec<(u32, u32)> {
    match strategy {
        SearchStrategy::BruteForce => linalg::edges_within_cutoff(points, points, cutoff, true),
        SearchStrategy::BallTree => {
            let tree = BallTree::build(points, 16);
            let mut edges = Vec::new();
            for (i, &p) in (0u32..).zip(points) {
                tree.for_each_within(p, cutoff, |j| {
                    if i < j {
                        edges.push((i, j));
                    }
                });
            }
            edges.sort_unstable();
            edges
        }
        SearchStrategy::CellList => {
            let grid = CellList::build(points, cutoff);
            let mut edges = grid.neighbor_pairs(points, cutoff);
            edges.sort_unstable();
            edges
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng as _};

    fn random_points(n: usize, span: f32, seed: u64) -> Vec<Vec3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Vec3::new(
                    rng.gen_range(-span..span),
                    rng.gen_range(-span..span),
                    rng.gen_range(-span..span),
                )
            })
            .collect()
    }

    #[test]
    fn strategies_agree_on_random_cloud() {
        let pts = random_points(300, 10.0, 42);
        let cutoff = 2.5;
        let brute = neighbor_pairs(&pts, cutoff, SearchStrategy::BruteForce);
        let tree = neighbor_pairs(&pts, cutoff, SearchStrategy::BallTree);
        let cells = neighbor_pairs(&pts, cutoff, SearchStrategy::CellList);
        assert!(!brute.is_empty(), "fixture should produce edges");
        assert_eq!(brute, tree);
        assert_eq!(brute, cells);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        for s in [
            SearchStrategy::BruteForce,
            SearchStrategy::BallTree,
            SearchStrategy::CellList,
        ] {
            assert!(neighbor_pairs(&[], 1.0, s).is_empty());
            assert!(neighbor_pairs(&[Vec3::ZERO], 1.0, s).is_empty());
        }
    }

    #[test]
    fn a_nan_point_pairs_with_nothing_on_every_strategy() {
        // 39 neighbours along a unit-spaced line; the NaN point takes its
        // two. The BallTree used to panic here.
        let mut pts: Vec<Vec3> = (0..40).map(|i| Vec3::new(i as f32, 0.0, 0.0)).collect();
        pts[20].x = f32::NAN;
        let brute = neighbor_pairs(&pts, 1.0, SearchStrategy::BruteForce);
        assert_eq!(brute.len(), 37);
        for s in [SearchStrategy::BallTree, SearchStrategy::CellList] {
            assert_eq!(neighbor_pairs(&pts, 1.0, s), brute, "{s:?}");
        }
    }

    proptest! {
        /// Clouds with NaN, ±inf and far points: every strategy returns
        /// brute force's pairs.
        #[test]
        fn all_strategies_equal_with_non_finite_points(
            raw in prop::collection::vec(((0u8..12, -10.0f32..10.0), (0u8..12, -10.0f32..10.0), (0u8..12, -10.0f32..10.0)), 0..80),
            cutoff in 0.5f32..4.0,
        ) {
            let coord = |(kind, v): (u8, f32)| match kind {
                8 => 3.0e38,
                9 => f32::NAN,
                10 => f32::INFINITY,
                11 => f32::NEG_INFINITY,
                _ => v,
            };
            let pts: Vec<Vec3> = raw.iter()
                .map(|&(x, y, z)| Vec3::new(coord(x), coord(y), coord(z)))
                .collect();
            let brute = neighbor_pairs(&pts, cutoff, SearchStrategy::BruteForce);
            prop_assert_eq!(&neighbor_pairs(&pts, cutoff, SearchStrategy::BallTree), &brute);
            prop_assert_eq!(&neighbor_pairs(&pts, cutoff, SearchStrategy::CellList), &brute);
        }

        #[test]
        fn all_strategies_equal(
            coords in prop::collection::vec(
                (-20.0f32..20.0, -20.0f32..20.0, -20.0f32..20.0), 0..80),
            cutoff in 0.5f32..6.0,
        ) {
            let pts: Vec<Vec3> = coords.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect();
            let brute = neighbor_pairs(&pts, cutoff, SearchStrategy::BruteForce);
            let tree = neighbor_pairs(&pts, cutoff, SearchStrategy::BallTree);
            let cells = neighbor_pairs(&pts, cutoff, SearchStrategy::CellList);
            prop_assert_eq!(&brute, &tree);
            prop_assert_eq!(&brute, &cells);
        }
    }
}
