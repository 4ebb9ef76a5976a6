//! BallTree for fixed-radius neighbor queries.
//!
//! Construction follows the cheapest of Omohundro's five construction
//! algorithms (top-down split along the dimension of greatest spread, the
//! same default scikit-learn uses): O(n log n) build, O(log n + k) radius
//! query. Balls store a centre and radius; a subtree is pruned whenever the
//! query sphere cannot intersect its ball.

use linalg::Vec3;

/// Maximum fan-out imbalance guard: leaves hold up to `leaf_size` points.
#[derive(Clone, Debug)]
pub struct BallTree {
    nodes: Vec<Node>,
    /// Input index of each point of `points`.
    indices: Vec<u32>,
    /// The points in leaf order, so each node owns a contiguous range and
    /// a leaf scan reads consecutive memory.
    points: Vec<Vec3>,
}

#[derive(Clone, Debug)]
struct Node {
    center: Vec3,
    radius: f32,
    /// Range into `points` / `indices` covered by this node.
    start: u32,
    end: u32,
    /// Child node ids; `u32::MAX` marks a leaf.
    left: u32,
    right: u32,
}

const NO_CHILD: u32 = u32::MAX;

/// The median split halves a node, so a tree over at most `u32::MAX`
/// points is at most 32 levels deep, and a depth-first walk holds at most
/// one pending sibling per level plus two children.
const MAX_DEPTH: usize = 32;

/// A subtree is pruned only if the query sphere misses its ball by more
/// than this relative margin, which covers the rounding of the centre
/// distance and of both radii: pruning never drops a point the exact
/// `dist2 <= r²` test would keep. With no margin, a point on the far side
/// of its ball, in line with the centre and a query exactly its distance
/// away, was dropped.
const PRUNE_SLACK: f32 = 1.0 + 1e-5;

impl BallTree {
    /// Build a tree over `points`. `leaf_size` trades build time against
    /// query pruning (scikit-learn defaults to 40; 16 is better for the
    /// dense radius queries the Leaflet Finder performs).
    ///
    /// Building an empty tree is allowed; all queries return nothing.
    /// Non-finite coordinates are allowed too: such points sort to the
    /// ends of their axis and, as in a brute-force scan, pair with nothing
    /// at a finite radius.
    pub fn build(points: &[Vec3], leaf_size: usize) -> Self {
        assert!(leaf_size >= 1, "leaf_size must be >= 1");
        assert!(
            points.len() <= u32::MAX as usize,
            "BallTree indexes at most u32::MAX points"
        );
        let mut order: Vec<(Vec3, u32)> = points.iter().copied().zip(0..).collect();
        let mut nodes = Vec::new();
        if !order.is_empty() {
            build_node(&mut nodes, &mut order, 0, leaf_size);
        }
        let (points, indices) = order.into_iter().unzip();
        BallTree {
            nodes,
            indices,
            points,
        }
    }

    /// Number of points indexed.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Call `visit(i)` for the input index `i` of every point within
    /// `radius` (inclusive, `query.dist2(p) <= radius²`) of `query`, in
    /// tree order. Allocates nothing: pending nodes live in a fixed-size
    /// array.
    pub fn for_each_within(&self, query: Vec3, radius: f32, mut visit: impl FnMut(u32)) {
        assert!(radius >= 0.0, "radius must be non-negative");
        if self.nodes.is_empty() {
            return;
        }
        let r2 = radius * radius;
        let mut stack = [0u32; MAX_DEPTH + 1];
        let mut pending = 1;
        while pending > 0 {
            pending -= 1;
            let node = &self.nodes[stack[pending] as usize];
            // A NaN centre or radius compares false and is never pruned.
            if query.dist(node.center) > (node.radius + radius) * PRUNE_SLACK {
                continue; // query sphere cannot reach this ball
            }
            if node.left == NO_CHILD {
                let range = node.start as usize..node.end as usize;
                for (p, &i) in self.points[range.clone()].iter().zip(&self.indices[range]) {
                    if query.dist2(*p) <= r2 {
                        visit(i);
                    }
                }
            } else {
                stack[pending] = node.left;
                stack[pending + 1] = node.right;
                pending += 2;
            }
        }
    }

    /// Indices of all points within `radius` (inclusive) of `query`,
    /// ascending. The query point itself is included if it is a tree member
    /// at distance 0 — callers filter `i < j` when building edge lists.
    pub fn query_radius(&self, query: Vec3, radius: f32) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_within(query, radius, |i| out.push(i));
        out.sort_unstable();
        out
    }

    /// Approximate heap footprint in bytes — used by the memory model to
    /// reproduce the paper's observation that "the tree has a smaller
    /// memory footprint than cdist" (§4.3.4).
    pub fn size_bytes(&self) -> u64 {
        (self.nodes.len() * std::mem::size_of::<Node>()
            + self.indices.len() * 4
            + self.points.len() * std::mem::size_of::<Vec3>()) as u64
    }
}

/// Build the node covering `items` (which start at `start` in leaf
/// order), preorder, and return its id.
fn build_node(
    nodes: &mut Vec<Node>,
    items: &mut [(Vec3, u32)],
    start: usize,
    leaf_size: usize,
) -> u32 {
    let (center, radius) = bounding_ball(items);
    let id = nodes.len();
    nodes.push(Node {
        center,
        radius,
        start: start as u32,
        end: (start + items.len()) as u32,
        left: NO_CHILD,
        right: NO_CHILD,
    });
    if items.len() > leaf_size {
        let axis = spread_axis(items);
        let mid = items.len() / 2;
        // Median split along the widest axis: O(n) selection. The total
        // order puts NaN beyond ±inf instead of failing on it.
        items.select_nth_unstable_by(mid, |a, b| a.0.axis(axis).total_cmp(&b.0.axis(axis)));
        let (lo, hi) = items.split_at_mut(mid);
        nodes[id].left = build_node(nodes, lo, start, leaf_size);
        nodes[id].right = build_node(nodes, hi, start + mid, leaf_size);
    }
    id as u32
}

/// Centroid-centred bounding ball of `items`.
fn bounding_ball(items: &[(Vec3, u32)]) -> (Vec3, f32) {
    let c = items.iter().fold(Vec3::ZERO, |c, &(p, _)| c + p) / items.len() as f32;
    let r2 = items.iter().fold(0.0f32, |r2, &(p, _)| r2.max(c.dist2(p)));
    (c, r2.sqrt())
}

/// Axis (0/1/2) with the greatest coordinate spread in `items`.
fn spread_axis(items: &[(Vec3, u32)]) -> usize {
    let first = items[0].0;
    let (lo, hi) = items
        .iter()
        .fold((first, first), |(lo, hi), &(p, _)| (lo.min(p), hi.max(p)));
    let spread = hi - lo;
    let mut best = 0;
    if spread.y > spread.axis(best) {
        best = 1;
    }
    if spread.z > spread.axis(best) {
        best = 2;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid(n: usize) -> Vec<Vec3> {
        // n³ unit-spaced lattice.
        let mut pts = Vec::new();
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    pts.push(Vec3::new(x as f32, y as f32, z as f32));
                }
            }
        }
        pts
    }

    #[test]
    fn empty_tree() {
        let t = BallTree::build(&[], 16);
        assert!(t.is_empty());
        assert!(t.query_radius(Vec3::ZERO, 5.0).is_empty());
    }

    #[test]
    fn lattice_neighbors() {
        let pts = grid(4);
        let t = BallTree::build(&pts, 4);
        // Radius 1.0 from an interior point: itself + 6 face neighbors.
        let interior = Vec3::new(1.0, 1.0, 1.0);
        let hits = t.query_radius(interior, 1.0);
        assert_eq!(hits.len(), 7);
    }

    #[test]
    fn radius_zero_finds_exact_point() {
        let pts = grid(3);
        let t = BallTree::build(&pts, 2);
        let hits = t.query_radius(Vec3::new(2.0, 2.0, 2.0), 0.0);
        assert_eq!(hits.len(), 1);
        assert_eq!(pts[hits[0] as usize], Vec3::new(2.0, 2.0, 2.0));
    }

    #[test]
    fn leaf_size_one_works() {
        let pts = grid(3);
        let t = BallTree::build(&pts, 1);
        assert_eq!(t.query_radius(Vec3::ZERO, 1.0).len(), 4);
    }

    #[test]
    fn nan_coordinate_builds_and_pairs_with_nothing() {
        // Used to panic in the median split ("NaN coordinate in BallTree
        // input") on any set of more than `leaf_size` points.
        let mut pts: Vec<Vec3> = (0..40).map(|i| Vec3::new(i as f32, 0.0, 0.0)).collect();
        pts[17].y = f32::NAN;
        let t = BallTree::build(&pts, 16);
        assert!(t.query_radius(pts[17], 5.0).is_empty());
        assert_eq!(t.query_radius(Vec3::new(17.0, 0.0, 0.0), 1.0), vec![16, 18]);
    }

    #[test]
    fn boundary_point_in_line_with_the_centre_is_not_pruned() {
        // Query, centroid and point collinear, radius the query's own
        // distance to the point: the rounded centre distance exceeded the
        // rounded sum of the radii, and the only hit was pruned.
        let pts = [
            Vec3::new(3.0762348, 5.0249233, -6.1346116),
            Vec3::new(-3.988006, -6.5142703, 7.952862),
        ];
        let query = Vec3::new(5.922281, 9.673841, -11.810183);
        let t = BallTree::build(&pts, 16);
        assert_eq!(t.query_radius(query, query.dist(pts[0])), vec![0]);
    }

    #[test]
    fn deep_tree_visits_every_point_within_its_fixed_stack() {
        let pts: Vec<Vec3> = (0..4097).map(|i| Vec3::new(i as f32, 0.0, 0.0)).collect();
        let t = BallTree::build(&pts, 1);
        let all: Vec<u32> = (0..4097).collect();
        assert_eq!(t.query_radius(Vec3::new(2048.0, 0.0, 0.0), 4096.0), all);
        assert_eq!(t.query_radius(Vec3::ZERO, f32::INFINITY), all);
    }

    #[test]
    fn size_bytes_positive() {
        let t = BallTree::build(&grid(3), 8);
        assert!(t.size_bytes() > 0);
    }

    proptest! {
        /// Tree query == brute-force filter, for any cloud and radius.
        #[test]
        fn tree_matches_brute_force(
            coords in prop::collection::vec(
                (-15.0f32..15.0, -15.0f32..15.0, -15.0f32..15.0), 1..60),
            q in (-15.0f32..15.0, -15.0f32..15.0, -15.0f32..15.0),
            radius in 0.0f32..10.0,
            leaf in 1usize..8,
        ) {
            let pts: Vec<Vec3> = coords.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect();
            let query = Vec3::new(q.0, q.1, q.2);
            let t = BallTree::build(&pts, leaf);
            let got = t.query_radius(query, radius);
            let want: Vec<u32> = pts.iter().enumerate()
                .filter(|(_, p)| query.dist2(**p) <= radius * radius)
                .map(|(i, _)| i as u32)
                .collect();
            prop_assert_eq!(&got, &want);
        }

        /// Points on one line, the query on it too and the radius exactly
        /// the query's distance to one of them: the case where rounding
        /// sits on the pruning bound.
        #[test]
        fn collinear_boundary_points_are_never_pruned(
            dir in (-1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0),
            along in prop::collection::vec(-10.0f32..10.0, 2..40),
            q in -30.0f32..30.0,
            leaf in 1usize..17,
        ) {
            let dir = Vec3::new(dir.0, dir.1, dir.2);
            let pts: Vec<Vec3> = along.iter().map(|&t| dir * t).collect();
            let query = dir * q;
            let t = BallTree::build(&pts, leaf);
            for p in &pts {
                let radius = query.dist(*p);
                let want: Vec<u32> = (0..pts.len() as u32)
                    .filter(|&i| query.dist2(pts[i as usize]) <= radius * radius)
                    .collect();
                prop_assert_eq!(t.query_radius(query, radius), want);
            }
        }

        /// The same with NaN, ±inf and far coordinates in the cloud and in
        /// the query, and an infinite radius: the build never panics and
        /// pruning never drops a point the exact test keeps.
        #[test]
        fn tree_matches_brute_force_with_non_finite_points(
            raw in prop::collection::vec(((0u8..12, -8.0f32..8.0), (0u8..12, -8.0f32..8.0), (0u8..12, -8.0f32..8.0)), 1..80),
            q in 0usize..100,
            radius in (0u8..8, 0.0f32..6.0),
            leaf in 1usize..8,
        ) {
            // Mostly plain values; kinds 8–11 are far, NaN, +inf, −inf.
            let coord = |(kind, v): (u8, f32)| match kind {
                8 => 1.0e30,
                9 => f32::NAN,
                10 => f32::INFINITY,
                11 => f32::NEG_INFINITY,
                _ => v,
            };
            let pts: Vec<Vec3> = raw.iter()
                .map(|&(x, y, z)| Vec3::new(coord(x), coord(y), coord(z)))
                .collect();
            let query = pts.get(q).copied().unwrap_or(Vec3::new(0.5, -0.5, 1.0));
            let radius = if radius.0 == 0 { f32::INFINITY } else { radius.1 };
            let t = BallTree::build(&pts, leaf);
            let want: Vec<u32> = pts.iter().enumerate()
                .filter(|(_, p)| query.dist2(**p) <= radius * radius)
                .map(|(i, _)| i as u32)
                .collect();
            prop_assert_eq!(t.query_radius(query, radius), want);
        }
    }
}
