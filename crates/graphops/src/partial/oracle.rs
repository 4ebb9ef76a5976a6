//! The hash-map partial components and merge that
//! [`super::partial_components`] and [`super::merge_partials`] replaced,
//! kept as their test oracles.

use super::PartialComponents;
use std::collections::HashMap;

/// Compute partial components from a local edge list. Node ids are global;
/// only nodes incident to a local edge appear in the result, so no
/// component is ever empty.
pub fn partial_components(edges: &[(u32, u32)]) -> PartialComponents {
    // Compress the sparse global ids into a dense local space, run
    // union–find there, then expand back.
    let mut local_of: HashMap<u32, u32> = HashMap::new();
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
    let mut groups: HashMap<u32, Vec<u32>> = HashMap::new();
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
    let mut owner_of_node: HashMap<u32, u32> = HashMap::new();
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
    let mut merged: HashMap<u32, Vec<u32>> = HashMap::new();
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
