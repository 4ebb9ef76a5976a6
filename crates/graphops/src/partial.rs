//! Partial connected components and their merge — the paper's Approach 3.
//!
//! Each map task sees only the edges of its 2-D block and reduces them to
//! *partial components*: sets of globally-numbered nodes known to be
//! connected using only local evidence. Shuffling these is O(n) instead of
//! the O(E) edge list (Table 2), which is why the paper measured a >50%
//! shuffle-volume reduction. The reduce phase merges partials that share at
//! least one node.

/// Components discovered from a subset of the graph's edges.
///
/// Each inner vec is a sorted, deduplicated list of global node ids. Nodes
/// that appear in no edge of the subset are absent (the driver accounts for
/// isolated nodes at the end).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartialComponents {
    pub components: Vec<Vec<u32>>,
}

impl PartialComponents {
    /// Total node entries (the shuffle payload size is proportional to
    /// this).
    pub fn node_count(&self) -> usize {
        self.components.iter().map(Vec::len).sum()
    }

    /// Serialized payload size in bytes when shipped over the wire as
    /// length-prefixed `u32` lists.
    pub fn wire_bytes(&self) -> u64 {
        // 4 bytes per node id + 4 per component length + 4 for the count.
        (4 * self.node_count() + 4 * self.components.len() + 4) as u64
    }
}

/// Compute partial components from a local edge list. Node ids are global;
/// only nodes incident to a local edge appear in the result, so no
/// component is ever empty.
pub fn partial_components(edges: &[(u32, u32)]) -> PartialComponents {
    // Compress the sparse global ids into a dense local space, run
    // union–find there, then expand back.
    let mut local_of: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let mut global_of: Vec<u32> = Vec::new();
    let mut dense = Vec::with_capacity(edges.len());
    for &(a, b) in edges {
        let la = *local_of.entry(a).or_insert_with(|| {
            global_of.push(a);
            (global_of.len() - 1) as u32
        });
        let lb = *local_of.entry(b).or_insert_with(|| {
            global_of.push(b);
            (global_of.len() - 1) as u32
        });
        dense.push((la, lb));
    }
    let mut uf = crate::UnionFind::new(global_of.len());
    for (a, b) in dense {
        uf.union(a, b);
    }
    let mut groups: std::collections::HashMap<u32, Vec<u32>> = std::collections::HashMap::new();
    for l in 0..global_of.len() as u32 {
        groups
            .entry(uf.find(l))
            .or_default()
            .push(global_of[l as usize]);
    }
    let mut components: Vec<Vec<u32>> = groups
        .into_values()
        .map(|mut g| {
            g.sort_unstable();
            g
        })
        .collect();
    components.sort_by_key(|g| g[0]);
    PartialComponents { components }
}

/// Merge partial components: any two partials sharing a node are joined.
/// This is the reduce of Approach 3 and must be associative and commutative
/// (property-tested: any bracketing and either operand order give the same
/// canonical result) because engines merge in arbitrary shuffle order and
/// tree shape. Empty components — `components` is a public field — carry
/// no node and are dropped.
pub fn merge_partials(parts: &[PartialComponents]) -> PartialComponents {
    // Union-find over component indices, keyed by first-seen node.
    let total: usize = parts.iter().map(|p| p.components.len()).sum();
    let mut uf = crate::UnionFind::new(total);
    let mut owner_of_node: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let mut flat: Vec<&Vec<u32>> = Vec::with_capacity(total);
    for p in parts {
        for comp in p.components.iter().filter(|c| !c.is_empty()) {
            let idx = flat.len() as u32;
            flat.push(comp);
            for &node in comp {
                match owner_of_node.entry(node) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        uf.union(*e.get(), idx);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(idx);
                    }
                }
            }
        }
    }
    let mut merged: std::collections::HashMap<u32, Vec<u32>> = std::collections::HashMap::new();
    for (idx, comp) in flat.iter().enumerate() {
        merged
            .entry(uf.find(idx as u32))
            .or_default()
            .extend_from_slice(comp);
    }
    let mut components: Vec<Vec<u32>> = merged
        .into_values()
        .map(|mut g| {
            g.sort_unstable();
            g.dedup();
            g
        })
        .collect();
    components.sort_by_key(|g| g[0]);
    PartialComponents { components }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::connected_components_uf;
    use proptest::prelude::*;

    #[test]
    fn partial_of_disjoint_edges() {
        let p = partial_components(&[(10, 20), (30, 40)]);
        assert_eq!(p.components, vec![vec![10, 20], vec![30, 40]]);
        assert_eq!(p.node_count(), 4);
    }

    #[test]
    fn partial_chains_connect() {
        let p = partial_components(&[(1, 2), (2, 3), (7, 8)]);
        assert_eq!(p.components, vec![vec![1, 2, 3], vec![7, 8]]);
    }

    #[test]
    fn merge_joins_on_shared_node() {
        let a = PartialComponents {
            components: vec![vec![1, 2], vec![5, 6]],
        };
        let b = PartialComponents {
            components: vec![vec![2, 3]],
        };
        let m = merge_partials(&[a, b]);
        assert_eq!(m.components, vec![vec![1, 2, 3], vec![5, 6]]);
    }

    #[test]
    fn merge_of_empty_is_empty() {
        assert_eq!(merge_partials(&[]).components, Vec::<Vec<u32>>::new());
    }

    #[test]
    fn merge_drops_empty_components() {
        // Used to index `g[0]` of the empty group and panic.
        let p = PartialComponents {
            components: vec![vec![], vec![1, 2]],
        };
        assert_eq!(merge_partials(&[p]).components, vec![vec![1, 2]]);
        let only_empty = PartialComponents {
            components: vec![vec![], vec![]],
        };
        let m = merge_partials(&[only_empty.clone(), only_empty]);
        assert_eq!(m, PartialComponents::default());
        assert_eq!(partial_components(&[]), PartialComponents::default());
    }

    #[test]
    fn wire_bytes_formula() {
        let p = PartialComponents {
            components: vec![vec![1, 2, 3], vec![4]],
        };
        assert_eq!(p.wire_bytes(), (4 * 4 + 4 * 2 + 4) as u64);
    }

    /// Split an edge list into `k` chunks, compute partials per chunk,
    /// merge, and compare against the global components restricted to
    /// non-isolated nodes.
    fn partition_roundtrip(n: usize, edges: &[(u32, u32)], k: usize) -> bool {
        let chunks: Vec<PartialComponents> = edges
            .chunks(edges.len().div_ceil(k).max(1))
            .map(partial_components)
            .collect();
        let merged = merge_partials(&chunks);
        let global = connected_components_uf(n, edges);
        // Expected: global groups filtered to nodes with at least one edge.
        let mut has_edge = vec![false; n];
        for &(a, b) in edges {
            has_edge[a as usize] = true;
            has_edge[b as usize] = true;
        }
        let expected: Vec<Vec<u32>> = global
            .groups()
            .into_iter()
            .map(|g| {
                g.into_iter()
                    .filter(|&v| has_edge[v as usize])
                    .collect::<Vec<_>>()
            })
            .filter(|g: &Vec<u32>| !g.is_empty())
            .collect();
        merged.components == expected
    }

    fn merge_pair(a: PartialComponents, b: PartialComponents) -> PartialComponents {
        merge_partials(&[a, b])
    }

    fn merge_balanced(parts: &[PartialComponents]) -> PartialComponents {
        match parts {
            [] => PartialComponents::default(),
            [one] => one.clone(),
            _ => {
                let (l, r) = parts.split_at(parts.len() / 2);
                merge_pair(merge_balanced(l), merge_balanced(r))
            }
        }
    }

    /// The reduce shapes an engine may run over the same partials — left
    /// fold, right fold, balanced tree, one n-ary call — must agree.
    fn all_bracketings_agree(parts: &[PartialComponents]) -> bool {
        let nary = merge_partials(parts);
        let left = parts.iter().cloned().reduce(merge_pair).unwrap_or_default();
        let right = parts
            .iter()
            .rev()
            .cloned()
            .reduce(|acc, p| merge_pair(p, acc))
            .unwrap_or_default();
        left == nary && right == nary && merge_balanced(parts) == nary
    }

    #[test]
    fn bracketings_agree_on_bilayer_block_partials() {
        use rand::{Rng, SeedableRng};
        // Two jittered 25 × 40 sheets 30 Å apart: 2 000 atoms, neighbours
        // within a sheet only, like the leaflets of `mdsim::bilayer`.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let pts: Vec<[f32; 3]> = (0..2000)
            .map(|i| {
                let (sheet, cell) = (i / 1000, i % 1000);
                let mut jitter = || rng.gen_range(-1.0f32..1.0);
                [
                    (cell / 40) as f32 * 8.0 + jitter(),
                    (cell % 40) as f32 * 8.0 + jitter(),
                    sheet as f32 * 30.0 + jitter(),
                ]
            })
            .collect();
        let near = |i: usize, j: usize| {
            let d: f32 = (0..3).map(|k| (pts[i][k] - pts[j][k]).powi(2)).sum();
            d <= 10.5 * 10.5
        };
        // One partial per block of the upper triangle of an 8 × 8 grid.
        let mut parts = Vec::new();
        for r in 0..8 {
            for c in r..8 {
                let mut edges = Vec::new();
                for i in r * 250..(r + 1) * 250 {
                    for j in (c * 250..(c + 1) * 250).filter(|&j| i < j && near(i, j)) {
                        edges.push((i as u32, j as u32));
                    }
                }
                parts.push(partial_components(&edges));
            }
        }
        let merged = merge_partials(&parts);
        assert_eq!(merged.components.len(), 2, "one component per sheet");
        assert_eq!(merged.node_count(), 2000);
        assert!(all_bracketings_agree(&parts));
    }

    #[test]
    fn merge_equals_global_cc_small() {
        let edges = [(0, 1), (1, 2), (4, 5), (2, 4), (8, 9)];
        assert!(partition_roundtrip(10, &edges, 3));
    }

    proptest! {
        /// Partial-CC + merge over any partitioning equals the global CC
        /// (restricted to non-isolated nodes) — the core correctness claim
        /// behind Approach 3.
        #[test]
        fn merge_equals_global_cc(
            n in 2usize..50,
            raw in prop::collection::vec((0u32..50, 0u32..50), 1..100),
            k in 1usize..8,
        ) {
            let edges: Vec<(u32, u32)> = raw.into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .filter(|(a, b)| a != b)
                .collect();
            prop_assume!(!edges.is_empty());
            prop_assert!(partition_roundtrip(n, &edges, k));
        }

        /// Merging is associative: however k ≤ 8 partials are bracketed,
        /// the canonical result is the same.
        #[test]
        fn merge_is_associative(
            n in 2usize..40,
            raw in prop::collection::vec((0u32..40, 0u32..40), 1..120),
            k in 1usize..9,
        ) {
            let edges: Vec<(u32, u32)> = raw.into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .filter(|(a, b)| a != b)
                .collect();
            prop_assume!(!edges.is_empty());
            let parts: Vec<PartialComponents> = edges
                .chunks(edges.len().div_ceil(k))
                .map(partial_components)
                .collect();
            prop_assert!(all_bracketings_agree(&parts));
        }

        /// Merging is order-insensitive: shuffling the partials yields the
        /// same canonical result.
        #[test]
        fn merge_is_order_insensitive(
            n in 2usize..30,
            raw in prop::collection::vec((0u32..30, 0u32..30), 1..60),
        ) {
            let edges: Vec<(u32, u32)> = raw.into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .filter(|(a, b)| a != b)
                .collect();
            prop_assume!(edges.len() >= 2);
            let mid = edges.len() / 2;
            let p1 = partial_components(&edges[..mid]);
            let p2 = partial_components(&edges[mid..]);
            let ab = merge_partials(&[p1.clone(), p2.clone()]);
            let ba = merge_partials(&[p2, p1]);
            prop_assert_eq!(ab, ba);
        }
    }
}
