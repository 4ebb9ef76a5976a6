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
    /// Point indices, permuted so each node owns a contiguous range.
    indices: Vec<u32>,
    points: Vec<Vec3>,
}

#[derive(Clone, Debug)]
struct Node {
    center: Vec3,
    radius: f32,
    /// Range into `indices` covered by this node.
    start: u32,
    end: u32,
    /// Child node ids; `u32::MAX` marks a leaf.
    left: u32,
    right: u32,
}

const NO_CHILD: u32 = u32::MAX;

impl BallTree {
    /// Build a tree over `points`. `leaf_size` trades build time against
    /// query pruning (scikit-learn defaults to 40; 16 is better for the
    /// dense radius queries the Leaflet Finder performs).
    ///
    /// Building an empty tree is allowed; all queries return nothing.
    pub fn build(points: &[Vec3], leaf_size: usize) -> Self {
        assert!(leaf_size >= 1, "leaf_size must be >= 1");
        let mut tree = BallTree {
            nodes: Vec::new(),
            indices: (0..points.len() as u32).collect(),
            points: points.to_vec(),
        };
        if !points.is_empty() {
            tree.build_node(0, points.len(), leaf_size);
        }
        tree
    }

    /// Number of points indexed.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Recursively build the node covering `indices[start..end]`; returns
    /// its node id.
    fn build_node(&mut self, start: usize, end: usize, leaf_size: usize) -> u32 {
        let (center, radius) = self.bounding_ball(start, end);
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            center,
            radius,
            start: start as u32,
            end: end as u32,
            left: NO_CHILD,
            right: NO_CHILD,
        });
        if end - start > leaf_size {
            let axis = self.spread_axis(start, end);
            let mid = start + (end - start) / 2;
            // Median split along the widest axis: O(n) selection.
            self.indices[start..end].select_nth_unstable_by(mid - start, |&a, &b| {
                let pa = self.points[a as usize].axis(axis);
                let pb = self.points[b as usize].axis(axis);
                pa.partial_cmp(&pb)
                    .expect("NaN coordinate in BallTree input")
            });
            let left = self.build_node(start, mid, leaf_size);
            let right = self.build_node(mid, end, leaf_size);
            self.nodes[id as usize].left = left;
            self.nodes[id as usize].right = right;
        }
        id
    }

    /// Centroid-centred bounding ball of a range.
    fn bounding_ball(&self, start: usize, end: usize) -> (Vec3, f32) {
        let mut c = Vec3::ZERO;
        for &i in &self.indices[start..end] {
            c += self.points[i as usize];
        }
        let c = c / (end - start) as f32;
        let mut r2 = 0.0f32;
        for &i in &self.indices[start..end] {
            r2 = r2.max(c.dist2(self.points[i as usize]));
        }
        (c, r2.sqrt())
    }

    /// Axis (0/1/2) with the greatest coordinate spread in the range.
    fn spread_axis(&self, start: usize, end: usize) -> usize {
        let mut lo = self.points[self.indices[start] as usize];
        let mut hi = lo;
        for &i in &self.indices[start..end] {
            let p = self.points[i as usize];
            lo = lo.min(p);
            hi = hi.max(p);
        }
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

    /// Indices of all points within `radius` (inclusive) of `query`,
    /// ascending. The query point itself is included if it is a tree member
    /// at distance 0 — callers filter `i < j` when building edge lists.
    pub fn query_radius(&self, query: Vec3, radius: f32) -> Vec<u32> {
        assert!(radius >= 0.0, "radius must be non-negative");
        let mut out = Vec::new();
        if self.nodes.is_empty() {
            return out;
        }
        let r2 = radius * radius;
        let mut stack = vec![0u32];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            let d = query.dist(node.center);
            if d > node.radius + radius {
                continue; // query sphere cannot reach this ball
            }
            if node.left == NO_CHILD {
                for &i in &self.indices[node.start as usize..node.end as usize] {
                    if query.dist2(self.points[i as usize]) <= r2 {
                        out.push(i);
                    }
                }
            } else {
                stack.push(node.left);
                stack.push(node.right);
            }
        }
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
    }
}
