//! Sorted cell list — the classic MD short-range neighbor method.
//!
//! Space is tiled into cells of edge just over `cutoff`; any two points
//! within `cutoff` necessarily lie in the same or adjacent (27-stencil)
//! cells, so the all-pairs scan collapses to a per-cell local scan. The build
//! computes each point's cell key once and sorts `(key, index)` pairs, so
//! every cell is a contiguous run of one array: an O(n log n) build with no
//! hashing and no per-cell allocation. Keys are packed row-major, so the 13
//! cells a cell pairs with (the forward half of its stencil) are 5 z-rows of
//! consecutive keys, each found by a cursor that only moves forward.
//! Included as the paper's "reduce the compute footprint" future-work item
//! and as an ablation alternative to BallTree.

use linalg::Vec3;

/// Cells per axis at most: a wider span gets longer cells along that axis,
/// so a packed key (with its border) stays below 2^31 for every input. A
/// far outlier thus makes the cells coarse (slower), never wrong.
const MAX_CELLS: u32 = 1024;

/// Cell geometry: the key of a point, the same for build and query.
#[derive(Clone, Copy, Debug)]
struct Grid {
    /// Per-axis minimum of the finite coordinates.
    origin: [f64; 3],
    /// Per-axis reciprocal cell edge.
    inv_edge: [f64; 3],
    /// Cells per axis plus an empty border cell on each side: the border
    /// keeps every stencil row inside its own x-y row of keys.
    dims: [u32; 3],
}

impl Grid {
    fn new(points: &[Vec3], cutoff: f32) -> Self {
        let mut lo = [f32::INFINITY; 3];
        let mut hi = [f32::NEG_INFINITY; 3];
        for p in points {
            for (k, v) in [p.x, p.y, p.z].into_iter().enumerate() {
                if v.is_finite() {
                    lo[k] = lo[k].min(v);
                    hi[k] = hi[k].max(v);
                }
            }
        }
        // A hair over the cutoff, so that a pair that passes the `f32`
        // distance test despite rounding never straddles two cell
        // boundaries (the `2^-70` covers a cutoff whose square underflows).
        let edge = f64::from(cutoff) * (1.0 + 1.0 / 65536.0) + 2f64.powi(-70);
        let mut grid = Grid {
            origin: [0.0; 3],
            inv_edge: [1.0 / edge; 3],
            dims: [3; 3],
        };
        for k in (0..3).filter(|&k| lo[k] <= hi[k]) {
            let span = f64::from(hi[k]) - f64::from(lo[k]);
            let edge = edge.max(span / f64::from(MAX_CELLS - 1));
            grid.origin[k] = f64::from(lo[k]);
            grid.inv_edge[k] = 1.0 / edge;
            grid.dims[k] = ((span / edge) as u32).min(MAX_CELLS - 1) + 3;
        }
        grid
    }

    /// Cell coordinate of `v` along axis `k`, in `1..=dims[k] - 2`. Total:
    /// the saturating cast sends NaN and everything below the origin to the
    /// first cell (truncation is `floor` there), the `min` sends +inf to
    /// the last. Clamping never moves two cells apart.
    #[inline]
    fn coord(&self, v: f32, k: usize) -> u32 {
        let c = (f64::from(v) - self.origin[k]) * self.inv_edge[k];
        (c as u32).min(self.dims[k] - 3) + 1
    }

    #[inline]
    fn pack(&self, x: u32, y: u32, z: u32) -> u32 {
        (x * self.dims[1] + y) * self.dims[2] + z
    }

    #[inline]
    fn key(&self, p: Vec3) -> u32 {
        self.pack(self.coord(p.x, 0), self.coord(p.y, 1), self.coord(p.z, 2))
    }
}

/// A sorted cell list over a point cloud.
#[derive(Clone, Debug)]
pub struct CellList {
    cutoff: f32,
    grid: Grid,
    /// Key of each occupied cell, ascending, then a `u32::MAX` sentinel
    /// that ends every scan.
    keys: Vec<u32>,
    /// Cell `c` holds `order[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    /// Point indices sorted by (cell key, index).
    order: Vec<u32>,
}

impl CellList {
    /// Build a grid with cell edge just over `cutoff` (the optimal choice
    /// for a single fixed query radius). `cutoff` must be positive.
    pub fn build(points: &[Vec3], cutoff: f32) -> Self {
        assert!(cutoff > 0.0, "cell list cutoff must be positive");
        let grid = Grid::new(points, cutoff);
        let mut keyed: Vec<u64> = points
            .iter()
            .enumerate()
            .map(|(i, &p)| u64::from(grid.key(p)) << 32 | i as u64)
            .collect();
        keyed.sort_unstable();
        let mut keys = Vec::with_capacity(keyed.len() + 1);
        let mut starts = Vec::with_capacity(keyed.len() + 1);
        let mut order = Vec::with_capacity(keyed.len());
        for (at, &entry) in keyed.iter().enumerate() {
            let key = (entry >> 32) as u32;
            if keys.last() != Some(&key) {
                keys.push(key);
                starts.push(at as u32);
            }
            order.push(entry as u32);
        }
        keys.push(u32::MAX);
        starts.push(order.len() as u32);
        CellList {
            cutoff,
            grid,
            keys,
            starts,
            order,
        }
    }

    /// Number of occupied cells.
    pub fn occupied_cells(&self) -> usize {
        self.keys.len() - 1
    }

    /// Positions in `order` of the members of cell `c`.
    #[inline]
    fn members(&self, c: usize) -> std::ops::Range<usize> {
        self.starts[c] as usize..self.starts[c + 1] as usize
    }

    /// All pairs `(i, j)`, `i < j`, within `cutoff` (inclusive). `points`
    /// must be the same slice the grid was built from.
    pub fn neighbor_pairs(&self, points: &[Vec3], cutoff: f32) -> Vec<(u32, u32)> {
        assert!(
            cutoff <= self.cutoff,
            "query cutoff {cutoff} exceeds grid cell edge {}",
            self.cutoff
        );
        let c2 = cutoff * cutoff;
        // Positions in cell order: every cell's members are one slice.
        let pos: Vec<Vec3> = self.order.iter().map(|&i| points[i as usize]).collect();
        let [_, ny, nz] = self.grid.dims;
        // Key ranges, relative to cell (x, y, z), of its forward neighbors:
        // (x, y, z+1), then z-1..=z+1 of rows (x, y+1), (x+1, y-1),
        // (x+1, y) and (x+1, y+1). Each cell pair is visited once, from
        // its earlier cell.
        let rows = [
            (1, 1),
            (nz - 1, nz + 1),
            ((ny - 1) * nz - 1, (ny - 1) * nz + 1),
            (ny * nz - 1, ny * nz + 1),
            ((ny + 1) * nz - 1, (ny + 1) * nz + 1),
        ];
        let mut cursors = [0usize; 5];
        let mut edges = Vec::with_capacity(points.len());
        for c in 0..self.occupied_cells() {
            let key = self.keys[c];
            let here = self.members(c);
            // Within-cell pairs: members are in ascending index order.
            for a in here.clone() {
                for b in a + 1..here.end {
                    if pos[a].dist2(pos[b]) <= c2 {
                        edges.push((self.order[a], self.order[b]));
                    }
                }
            }
            for (cursor, &(lo, hi)) in cursors.iter_mut().zip(&rows) {
                while self.keys[*cursor] < key + lo {
                    *cursor += 1;
                }
                let mut d = *cursor;
                while self.keys[d] <= key + hi {
                    for a in here.clone() {
                        for b in self.members(d) {
                            if pos[a].dist2(pos[b]) <= c2 {
                                let (i, j) = (self.order[a], self.order[b]);
                                edges.push(if i < j { (i, j) } else { (j, i) });
                            }
                        }
                    }
                    d += 1;
                }
            }
        }
        edges
    }

    /// Indices of all points within `radius` of `query` (radius must not
    /// exceed the grid cell edge), ascending.
    pub fn query_radius(&self, points: &[Vec3], query: Vec3, radius: f32) -> Vec<u32> {
        assert!(radius <= self.cutoff, "query radius exceeds grid cell edge");
        let r2 = radius * radius;
        let g = &self.grid;
        let (x, y, z) = (
            g.coord(query.x, 0),
            g.coord(query.y, 1),
            g.coord(query.z, 2),
        );
        let mut out = Vec::new();
        for x in x - 1..=x + 1 {
            for y in y - 1..=y + 1 {
                let row = g.pack(x, y, z);
                let mut c = self.keys.partition_point(|&k| k < row - 1);
                while self.keys[c] <= row + 1 {
                    for &i in &self.order[self.members(c)] {
                        if query.dist2(points[i as usize]) <= r2 {
                            out.push(i);
                        }
                    }
                    c += 1;
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn line(n: usize, spacing: f32) -> Vec<Vec3> {
        (0..n)
            .map(|i| Vec3::new(i as f32 * spacing, 0.0, 0.0))
            .collect()
    }

    /// The all-pairs oracle (`SearchStrategy::BruteForce`).
    fn brute(pts: &[Vec3], cutoff: f32) -> Vec<(u32, u32)> {
        linalg::edges_within_cutoff(pts, pts, cutoff, true)
    }

    fn sorted_pairs(pts: &[Vec3], cutoff: f32) -> Vec<(u32, u32)> {
        let mut e = CellList::build(pts, cutoff).neighbor_pairs(pts, cutoff);
        e.sort_unstable();
        e
    }

    fn filter(pts: &[Vec3], q: Vec3, radius: f32) -> Vec<u32> {
        (0..pts.len() as u32)
            .filter(|&i| q.dist2(pts[i as usize]) <= radius * radius)
            .collect()
    }

    #[test]
    fn chain_pairs() {
        // Points 1.0 apart, cutoff 1.0: consecutive pairs only.
        let pts = line(5, 1.0);
        assert_eq!(
            sorted_pairs(&pts, 1.0),
            vec![(0, 1), (1, 2), (2, 3), (3, 4)]
        );
    }

    #[test]
    fn sparse_points_have_no_pairs() {
        let pts = line(4, 10.0);
        let g = CellList::build(&pts, 1.0);
        assert!(g.neighbor_pairs(&pts, 1.0).is_empty());
    }

    #[test]
    fn query_radius_matches_filter() {
        let pts = line(10, 0.5);
        let g = CellList::build(&pts, 1.2);
        let q = Vec3::new(2.0, 0.0, 0.0);
        assert_eq!(g.query_radius(&pts, q, 1.0), filter(&pts, q, 1.0));
    }

    #[test]
    fn occupied_cells_counts() {
        let pts = line(3, 5.0);
        let g = CellList::build(&pts, 1.0);
        assert_eq!(g.occupied_cells(), 3);
    }

    #[test]
    #[should_panic]
    fn oversized_query_panics() {
        let pts = line(3, 1.0);
        let g = CellList::build(&pts, 1.0);
        g.neighbor_pairs(&pts, 2.0);
    }

    #[test]
    #[should_panic]
    fn zero_cutoff_panics() {
        CellList::build(&[], 0.0);
    }

    #[test]
    fn pair_rounded_onto_cutoff_across_two_boundaries() {
        // 2.0 - 0.99999994 rounds to exactly 1.0 in f32, so the distance
        // test accepts the pair although the points sit in cells 0 and 2
        // of a grid whose edge is exactly the cutoff.
        let pts = [
            Vec3::ZERO,
            Vec3::new(0.99999994, 0.0, 0.0),
            Vec3::new(2.0, 0.0, 0.0),
        ];
        assert_eq!(brute(&pts, 1.0), vec![(0, 1), (1, 2)]);
        assert_eq!(sorted_pairs(&pts, 1.0), brute(&pts, 1.0));
    }

    #[test]
    fn far_and_non_finite_points_neither_panic_nor_pair() {
        let near = [Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)];
        for odd in [
            Vec3::new(1e11, 0.0, 0.0),
            Vec3::new(-3e38, 3e38, 0.0),
            Vec3::new(f32::MAX, f32::MIN, f32::MAX),
            Vec3::new(f32::INFINITY, 0.0, 0.0),
            Vec3::new(0.0, f32::NEG_INFINITY, 0.0),
            Vec3::new(f32::NAN, 0.0, 0.0),
            Vec3::new(f32::NAN, f32::INFINITY, f32::NEG_INFINITY),
        ] {
            // A far point still pairs with its duplicate; NaN and ±inf
            // pair with nothing, not even themselves.
            let pts = [odd, near[0], near[1], odd];
            let want = if [odd.x, odd.y, odd.z].iter().all(|v| v.is_finite()) {
                vec![(0, 3), (1, 2)]
            } else {
                vec![(1, 2)]
            };
            assert_eq!(sorted_pairs(&pts, 6.0), want, "{odd:?}");
            assert_eq!(brute(&pts, 6.0), want, "{odd:?}");
            let g = CellList::build(&pts, 6.0);
            for q in [odd, near[0], Vec3::new(-1e11, 0.0, 0.0)] {
                assert_eq!(g.query_radius(&pts, q, 6.0), filter(&pts, q, 6.0), "{q:?}");
            }
        }
    }

    #[test]
    fn only_non_finite_points() {
        let pts = [
            Vec3::new(f32::NAN, 0.0, 0.0),
            Vec3::new(f32::INFINITY, 0.0, 0.0),
        ];
        let g = CellList::build(&pts, 2.0);
        assert!(g.neighbor_pairs(&pts, 2.0).is_empty());
        assert!(g.query_radius(&pts, Vec3::ZERO, 2.0).is_empty());
    }

    #[test]
    fn chain_trajectory_stride_8_matches_brute() {
        let spec = mdsim::ChainSpec {
            n_atoms: 3341,
            n_frames: 4,
            stride: 1,
            ..mdsim::ChainSpec::default()
        };
        let traj = mdsim::chain::generate(&spec, 7);
        for frame in &traj.frames {
            let pts: Vec<Vec3> = frame.positions().iter().step_by(8).copied().collect();
            assert_eq!(pts.len(), 418);
            let want = brute(&pts, 6.0);
            assert!(!want.is_empty(), "fixture should produce contacts");
            assert_eq!(sorted_pairs(&pts, 6.0), want);
        }
    }

    /// One coordinate draw: a kind, a free value and a cell multiple.
    type Draw = (u8, f32, i8);

    /// A sparse cloud over ±10⁴ Å: per coordinate, a free value, an exact
    /// multiple of the cutoff (a cell boundary) or a value within a
    /// fraction of the cutoff of the origin; then `dups` repeated points.
    fn sparse_cloud(draws: &[(Draw, Draw, Draw)], cutoff: f32, dups: &[usize]) -> Vec<Vec3> {
        let at = |(kind, free, k): Draw| match kind {
            0..=3 => free,
            4 | 5 => f32::from(k) * cutoff,
            _ => free.abs() * 4e-5 * cutoff,
        };
        let mut pts: Vec<Vec3> = draws
            .iter()
            .map(|&(x, y, z)| Vec3::new(at(x), at(y), at(z)))
            .collect();
        if !pts.is_empty() {
            for &d in dups {
                pts.push(pts[d % pts.len()]);
            }
        }
        pts
    }

    proptest! {
        #[test]
        fn sparse_pairs_match_brute(
            draws in prop::collection::vec(
                ((0u8..7, -1e4f32..1e4, -5i8..5),
                 (0u8..7, -1e4f32..1e4, -5i8..5),
                 (0u8..7, -1e4f32..1e4, -5i8..5)), 0..400),
            cutoff in 0.5f32..6.0,
            dups in prop::collection::vec(any::<usize>(), 0..20),
        ) {
            let pts = sparse_cloud(&draws, cutoff, &dups);
            prop_assert_eq!(sorted_pairs(&pts, cutoff), brute(&pts, cutoff));
        }

        #[test]
        fn sparse_queries_match_filter(
            draws in prop::collection::vec(
                ((0u8..7, -1e4f32..1e4, -5i8..5),
                 (0u8..7, -1e4f32..1e4, -5i8..5),
                 (0u8..7, -1e4f32..1e4, -5i8..5)), 0..400),
            cutoff in 0.5f32..6.0,
            dups in prop::collection::vec(any::<usize>(), 0..20),
            radius_share in 0.1f32..=1.0,
        ) {
            let pts = sparse_cloud(&draws, cutoff, &dups);
            let g = CellList::build(&pts, cutoff);
            let radius = cutoff * radius_share;
            let off_grid = Vec3::new(cutoff, -2.0 * cutoff, 1.5e4);
            for &q in pts.iter().chain([&off_grid]) {
                prop_assert_eq!(g.query_radius(&pts, q, radius), filter(&pts, q, radius));
            }
        }

        #[test]
        fn one_cell_cluster_matches_brute(
            coords in prop::collection::vec((0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0), 0..120),
            cutoff in 0.5f32..6.0,
        ) {
            let pts: Vec<Vec3> = coords
                .iter()
                .map(|&(x, y, z)| Vec3::new(x, y, z) * (cutoff * 0.5))
                .collect();
            prop_assert!(CellList::build(&pts, cutoff).occupied_cells() <= 1);
            prop_assert_eq!(sorted_pairs(&pts, cutoff), brute(&pts, cutoff));
        }
    }
}
