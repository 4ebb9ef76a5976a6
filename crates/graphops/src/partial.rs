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

/// Sentinel for "no group yet" in [`group_in_order`].
const NONE: u32 = u32::MAX;

/// Compute partial components from a local edge list. Node ids are global;
/// only nodes incident to a local edge appear in the result, so no
/// component is ever empty.
pub fn partial_components(edges: &[(u32, u32)]) -> PartialComponents {
    // Relabel the sparse global ids densely by rank among the sorted,
    // deduplicated endpoints, so dense order is id order.
    let mut ids: Vec<u32> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
    ids.sort_unstable();
    ids.dedup();
    let rank = |id: u32| ids.binary_search(&id).expect("endpoint is in ids") as u32;
    let mut uf = crate::UnionFind::new(ids.len());
    for &(a, b) in edges {
        uf.union(rank(a), rank(b));
    }
    let n = ids.len();
    let labelled = (0..n).map(|l| (uf.find(l as u32), ids[l]));
    PartialComponents {
        components: group_in_order(labelled, n),
    }
}

/// Merge partial components: any two partials sharing a node are joined.
/// This is the reduce of Approach 3 and must be associative and commutative
/// (property-tested: any bracketing and either operand order give the same
/// canonical result) because engines merge in arbitrary shuffle order and
/// tree shape. Empty components — `components` is a public field — carry
/// no node and are dropped.
pub fn merge_partials(parts: &[PartialComponents]) -> PartialComponents {
    let comps: Vec<&[u32]> = parts
        .iter()
        .flat_map(|p| &p.components)
        .map(Vec::as_slice)
        .collect();
    // Every node entry keyed `id << 32 | component`, sorted: a node's
    // holders are one run, and runs come in id order.
    let mut keyed: Vec<u64> = (0u64..)
        .zip(&comps)
        .flat_map(|(idx, comp)| comp.iter().map(move |&id| u64::from(id) << 32 | idx))
        .collect();
    keyed.sort_unstable();
    let mut uf = crate::UnionFind::new(comps.len());
    for w in keyed.windows(2) {
        if w[0] >> 32 == w[1] >> 32 {
            uf.union(w[0] as u32, w[1] as u32);
        }
    }
    keyed.dedup_by_key(|k| *k >> 32);
    let labelled = keyed.iter().map(|&k| (uf.find(k as u32), (k >> 32) as u32));
    PartialComponents {
        components: group_in_order(labelled, comps.len()),
    }
}

/// Group `(root, id)` pairs, given in ascending id order with every root
/// below `n_roots`, by root in one pass: a group opens at its first id, so
/// groups come out ordered by first node and ids ascend within each — the
/// canonical form, with no sort.
fn group_in_order(labelled: impl Iterator<Item = (u32, u32)>, n_roots: usize) -> Vec<Vec<u32>> {
    let mut group_of_root = vec![NONE; n_roots];
    let mut groups: Vec<Vec<u32>> = Vec::new();
    for (root, id) in labelled {
        let g = &mut group_of_root[root as usize];
        if *g == NONE {
            *g = groups.len() as u32;
            groups.push(Vec::new());
        }
        groups[*g as usize].push(id);
    }
    groups
}

#[cfg(test)]
mod oracle;

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
    /// fold, right fold, balanced tree, one n-ary call — must agree, and
    /// equal the hash-map oracle's n-ary merge.
    fn all_bracketings_agree(parts: &[PartialComponents]) -> bool {
        let nary = merge_partials(parts);
        if nary != oracle::merge_partials(parts) {
            return false;
        }
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
        /// the canonical result is the same, and it is the oracle's. Ids lie
        /// in three bands up to `u32::MAX`, and empty components — which
        /// the public field allows — are inserted among the partials'.
        #[test]
        fn merge_is_associative(
            n in 2u32..40,
            raw in prop::collection::vec((0u8..3, 0u32..40, 0u8..3, 0u32..40), 1..120),
            spread in any::<bool>(),
            k in 1usize..9,
            empties in prop::collection::vec((0usize..64, 0usize..64), 0..4),
        ) {
            let edges = edges_of(&raw, n, spread);
            let mut parts: Vec<PartialComponents> = edges
                .chunks(edges.len().div_ceil(k))
                .map(partial_components)
                .collect();
            // A lone partial is returned unmerged by every fold shape.
            if parts.len() >= 2 {
                insert_empties(&mut parts, &empties);
            }
            prop_assert!(all_bracketings_agree(&parts));
        }

        /// Merging is order-insensitive: shuffling the partials yields the
        /// same canonical result, the oracle's.
        #[test]
        fn merge_is_order_insensitive(
            n in 2u32..30,
            raw in prop::collection::vec((0u8..3, 0u32..30, 0u8..3, 0u32..30), 2..60),
            spread in any::<bool>(),
            empties in prop::collection::vec((0usize..64, 0usize..64), 0..4),
        ) {
            let edges = edges_of(&raw, n, spread);
            let mid = edges.len() / 2;
            let mut parts = vec![
                partial_components(&edges[..mid]),
                partial_components(&edges[mid..]),
            ];
            insert_empties(&mut parts, &empties);
            let ab = merge_partials(&parts);
            let ba = merge_partials(&[parts[1].clone(), parts[0].clone()]);
            prop_assert_eq!(&ab, &ba);
            prop_assert_eq!(ab, oracle::merge_partials(&parts));
        }
    }

    /// Node `k` of a test graph in one of three id bands — near 0, near
    /// 2³¹, at the top of the `u32` range — so the merge sees ids far
    /// apart as well as ids that fill their range.
    fn banded(band: u8, k: u32) -> u32 {
        match band {
            0 => k,
            1 => (1 << 31) + k,
            _ => u32::MAX - k,
        }
    }

    type RawEdge = (u8, u32, u8, u32);

    /// Edges over nodes `0..n`, placed in their bands when `spread`; self
    /// loops are kept (a lone node is a component of its own).
    fn edges_of(raw: &[RawEdge], n: u32, spread: bool) -> Vec<(u32, u32)> {
        let node = |band, k: u32| if spread { banded(band, k % n) } else { k % n };
        raw.iter()
            .map(|&(ba, a, bb, b)| (node(ba, a), node(bb, b)))
            .collect()
    }

    /// Insert an empty component into partial `p % len` at `at % (size + 1)`
    /// for each `(p, at)`.
    fn insert_empties(parts: &mut [PartialComponents], empties: &[(usize, usize)]) {
        for &(p, at) in empties {
            let comps = &mut parts[p % parts.len()].components;
            comps.insert(at % (comps.len() + 1), Vec::new());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Dense relabelling gives the hash-map version's partials, self
        /// loops and ids near `u32::MAX` included.
        #[test]
        fn partial_components_equals_the_hash_map_oracle(
            raw in prop::collection::vec((0u8..3, 0u32..40, 0u8..3, 0u32..40), 0..80),
            spread in any::<bool>(),
        ) {
            let edges = edges_of(&raw, 40, spread);
            prop_assert_eq!(partial_components(&edges), oracle::partial_components(&edges));
        }

        /// Components the public field allows but `partial_components`
        /// never makes — unsorted, with repeats, overlapping inside one
        /// partial — merge as the oracle merges them.
        #[test]
        fn merge_of_raw_components_equals_the_oracle(
            raw in prop::collection::vec(
                prop::collection::vec((0u8..3, 0u32..30), 0..6), 0..12),
            spread in any::<bool>(),
            split in 0usize..12,
        ) {
            let comps: Vec<Vec<u32>> = raw
                .iter()
                .map(|c| c.iter().map(|&(b, k)| if spread { banded(b, k) } else { k }).collect())
                .collect();
            let (a, b) = comps.split_at(split.min(comps.len()));
            let parts = [
                PartialComponents { components: a.to_vec() },
                PartialComponents { components: b.to_vec() },
            ];
            prop_assert_eq!(merge_partials(&parts), oracle::merge_partials(&parts));
        }
    }
}
