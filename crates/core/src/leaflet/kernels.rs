//! Per-task edge-discovery kernels, shared by all engines.

use crate::partition::{Block, Range};
use linalg::Vec3;
use neighbors::{BallTree, CellList, SearchStrategy};

/// Edges of one 2-D block via brute-force pairwise distances (`cdist`),
/// returned with **global** atom indices, `i < j` guaranteed.
pub fn block_edges(positions: &[Vec3], b: Block, cutoff: f32) -> Vec<(u32, u32)> {
    let rows = &positions[b.row.0 as usize..b.row.1 as usize];
    let cols = &positions[b.col.0 as usize..b.col.1 as usize];
    if b.is_diagonal() {
        linalg::edges_within_cutoff(rows, rows, cutoff, true)
            .into_iter()
            .map(|(i, j)| (b.row.0 + i, b.row.0 + j))
            .collect()
    } else {
        linalg::edges_within_cutoff(rows, cols, cutoff, false)
            .into_iter()
            .map(|(i, j)| (b.row.0 + i, b.col.0 + j))
            .collect()
    }
}

/// Edges of one 2-D block via BallTree radius queries (Approach 4): build
/// the tree over the column atoms, query each row atom.
pub fn block_edges_tree(positions: &[Vec3], b: Block, cutoff: f32) -> Vec<(u32, u32)> {
    block_edges_indexed(positions, b, cutoff, SearchStrategy::BallTree)
}

/// Approach 4 with a configurable spatial index (BallTree by default; the
/// cell list as the ablation alternative). Brute force falls back to
/// [`block_edges`].
pub fn block_edges_indexed(
    positions: &[Vec3],
    b: Block,
    cutoff: f32,
    strategy: SearchStrategy,
) -> Vec<(u32, u32)> {
    let rows = &positions[b.row.0 as usize..b.row.1 as usize];
    let cols = &positions[b.col.0 as usize..b.col.1 as usize];
    let mut edges = Vec::new();
    let mut keep = |gi: u32, j: u32| {
        let gj = b.col.0 + j;
        if gi < gj {
            edges.push((gi, gj));
        }
    };
    match strategy {
        SearchStrategy::BruteForce => return block_edges(positions, b, cutoff),
        SearchStrategy::BallTree => {
            let tree = BallTree::build(cols, 16);
            for (gi, &p) in (b.row.0..).zip(rows) {
                tree.for_each_within(p, cutoff, |j| keep(gi, j));
            }
        }
        SearchStrategy::CellList => {
            let grid = CellList::build(cols, cutoff);
            for (gi, &p) in (b.row.0..).zip(rows) {
                for j in grid.query_radius(cols, p, cutoff) {
                    keep(gi, j);
                }
            }
        }
    }
    edges.sort_unstable();
    edges
}

/// Edges of one 1-D row strip against the **whole** system (Approach 1:
/// every node holds a broadcast copy). Global indices, `i < j`.
pub fn strip_edges(positions: &[Vec3], strip: Range, cutoff: f32) -> Vec<(u32, u32)> {
    let rows = &positions[strip.0 as usize..strip.1 as usize];
    linalg::edges_within_cutoff(rows, positions, cutoff, false)
        .into_iter()
        .filter_map(|(i, j)| {
            let gi = strip.0 + i;
            (gi < j).then_some((gi, j))
        })
        .collect()
}

/// Input bytes a 2-D block task must load (its row and column coordinate
/// slices, 12 bytes per atom).
pub fn block_input_bytes(b: Block) -> u64 {
    let r = (b.row.1 - b.row.0) as u64;
    let c = if b.is_diagonal() {
        0
    } else {
        (b.col.1 - b.col.0) as u64
    };
    (r + c) * 12
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{plan_1d, plan_2d_grid};
    use mdsim::{bilayer, BilayerSpec};

    fn system() -> (Vec<Vec3>, f32) {
        let b = bilayer::generate(
            &BilayerSpec {
                n_atoms: 120,
                ..Default::default()
            },
            3,
        );
        (b.positions, b.suggested_cutoff)
    }

    fn all_edges(pos: &[Vec3], cutoff: f32) -> Vec<(u32, u32)> {
        linalg::edges_within_cutoff(pos, pos, cutoff, true)
    }

    #[test]
    fn blocks_union_equals_global_edges() {
        let (pos, cutoff) = system();
        let mut got: Vec<(u32, u32)> = plan_2d_grid(pos.len(), 5)
            .into_iter()
            .flat_map(|b| block_edges(&pos, b, cutoff))
            .collect();
        got.sort_unstable();
        assert_eq!(got, all_edges(&pos, cutoff));
    }

    #[test]
    fn tree_blocks_match_brute_blocks() {
        let (pos, cutoff) = system();
        for b in plan_2d_grid(pos.len(), 4) {
            let mut brute = block_edges(&pos, b, cutoff);
            brute.sort_unstable();
            assert_eq!(block_edges_tree(&pos, b, cutoff), brute, "block {b:?}");
        }
    }

    /// The blocks above hold some thirty atoms each; this is the full
    /// diagonal block of a paper-size system (deep trees, 48 161 edges).
    #[test]
    fn tree_block_matches_brute_block_at_8k_atoms() {
        let b = bilayer::generate(
            &BilayerSpec {
                n_atoms: 8192,
                ..Default::default()
            },
            17,
        );
        let n = b.positions.len() as u32;
        let block = Block {
            row: (0, n),
            col: (0, n),
        };
        let tree = block_edges_tree(&b.positions, block, b.suggested_cutoff);
        let mut brute = block_edges(&b.positions, block, b.suggested_cutoff);
        brute.sort_unstable();
        assert_eq!(tree.len(), 48_161);
        assert_eq!(tree, brute);
    }

    #[test]
    fn every_index_strategy_matches_brute() {
        use neighbors::SearchStrategy::*;
        let (pos, cutoff) = system();
        for b in plan_2d_grid(pos.len(), 3) {
            let mut brute = block_edges(&pos, b, cutoff);
            brute.sort_unstable();
            for strategy in [BruteForce, BallTree, CellList] {
                assert_eq!(
                    super::block_edges_indexed(&pos, b, cutoff, strategy),
                    brute,
                    "block {b:?} via {strategy:?}"
                );
            }
        }
    }

    #[test]
    fn tree_blocks_match_brute_blocks_with_non_finite_atoms() {
        // A NaN, ±inf or far coordinate (an XYZ file can carry them) used
        // to panic the BallTree's median split; such atoms pair with
        // nothing, on every strategy.
        let (clean, cutoff) = system();
        let poisons = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 3.0e38, -1.0e30];
        for (k, &bad) in poisons.iter().enumerate() {
            let mut pos = clean.clone();
            for (n, i) in (k..pos.len()).step_by(7).enumerate() {
                match n % 3 {
                    0 => pos[i].x = bad,
                    1 => pos[i].y = bad,
                    _ => pos[i].z = bad,
                }
            }
            for b in plan_2d_grid(pos.len(), 4) {
                let mut brute = block_edges(&pos, b, cutoff);
                brute.sort_unstable();
                assert_eq!(block_edges_tree(&pos, b, cutoff), brute, "{bad} in {b:?}");
                let cells = block_edges_indexed(&pos, b, cutoff, SearchStrategy::CellList);
                assert_eq!(cells, brute, "{bad} in {b:?} via the cell list");
            }
        }
    }

    #[test]
    fn strips_union_equals_global_edges() {
        let (pos, cutoff) = system();
        let mut got: Vec<(u32, u32)> = plan_1d(pos.len(), 7)
            .into_iter()
            .flat_map(|s| strip_edges(&pos, s, cutoff))
            .collect();
        got.sort_unstable();
        assert_eq!(got, all_edges(&pos, cutoff));
    }

    #[test]
    fn input_bytes() {
        use crate::partition::Block;
        assert_eq!(
            block_input_bytes(Block {
                row: (0, 10),
                col: (10, 30)
            }),
            30 * 12
        );
        assert_eq!(
            block_input_bytes(Block {
                row: (0, 10),
                col: (0, 10)
            }),
            10 * 12
        );
    }
}
