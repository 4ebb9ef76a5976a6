//! Data partitioning: Algorithm 2 for PSA and the memory-aware 2-D block
//! planner for the Leaflet Finder.

/// A half-open index range `[start, end)`.
pub type Range = (u32, u32);

/// One 2-D block of an all-pairs computation: compare every element of
/// `row` against every element of `col`. Planners only emit blocks with
/// `row.start <= col.start` (upper triangle); diagonal blocks are
/// self-comparisons and consumers must filter `i < j` there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Block {
    pub row: Range,
    pub col: Range,
}

impl Block {
    /// Is this a diagonal (self-comparison) block?
    pub fn is_diagonal(&self) -> bool {
        self.row == self.col
    }
}

/// Split `[0, n)` into `parts` contiguous, nearly-equal ranges (used by
/// the Leaflet Finder's Approach 1, "Broadcast and 1-D Partitioning").
pub fn plan_1d(n: usize, parts: usize) -> Vec<Range> {
    assert!(parts >= 1, "need at least one part");
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0u32;
    for i in 0..parts {
        let len = (base + usize::from(i < extra)) as u32;
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Algorithm 2 (PSA): group `n` trajectories into `k` groups; every
/// ordered group pair becomes one task comparing `n/k × n/k` trajectory
/// pairs serially. Returns the `k²` blocks of the paper's formulation.
pub fn plan_psa_2d(n: usize, k: usize) -> Vec<Block> {
    assert!(
        k >= 1 && k <= n,
        "group count {k} out of range for {n} trajectories"
    );
    let ranges = plan_1d(n, k);
    let mut out = Vec::with_capacity(k * k);
    for &row in &ranges {
        for &col in &ranges {
            out.push(Block { row, col });
        }
    }
    out
}

/// Upper-triangle 2-D grid over `[0, n)` with `g` row/column groups:
/// `g(g+1)/2` blocks covering every unordered pair exactly once.
pub fn plan_2d_grid(n: usize, g: usize) -> Vec<Block> {
    assert!(g >= 1, "need at least one group");
    let ranges = plan_1d(n, g);
    let mut out = Vec::with_capacity(g * (g + 1) / 2);
    for i in 0..g {
        for j in i..g {
            out.push(Block {
                row: ranges[i],
                col: ranges[j],
            });
        }
    }
    out
}

/// Smallest grid dimension `g` whose upper triangle has at least
/// `target_tasks` blocks.
pub fn grid_for_tasks(target_tasks: usize) -> usize {
    let mut g = (((8.0 * target_tasks as f64 + 1.0).sqrt() - 1.0) / 2.0).floor() as usize;
    g = g.max(1);
    while g * (g + 1) / 2 < target_tasks {
        g += 1;
    }
    g
}

/// Memory-aware Leaflet Finder planner (Approaches 2 and 3): start from
/// the grid implied by `target_tasks`, then grow it until a
/// double-precision `cdist` block over the **paper-scale** system
/// (`paper_n` atoms) fits in `task_mem_budget` bytes. Blocks are emitted
/// in the *actual* (possibly scaled-down) index space `[0, n)`.
///
/// This reproduces §4.3's "data partitioning of the 4M atom dataset
/// resulted to 42k tasks … due to memory limitations from using cdist".
pub fn plan_2d_mem(
    n: usize,
    paper_n: usize,
    target_tasks: usize,
    task_mem_budget: u64,
) -> Vec<Block> {
    assert!(task_mem_budget > 0, "need a positive memory budget");
    let mut g = grid_for_tasks(target_tasks);
    // Paper-scale block edge for grid g is ceil(paper_n / g).
    let block_bytes = |g: usize| {
        let edge = (paper_n as u64).div_ceil(g as u64);
        edge * edge * 8
    };
    while block_bytes(g) > task_mem_budget {
        g += 1;
    }
    let g = g.min(n); // cannot have more groups than elements
    plan_2d_grid(n, g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn plan_1d_covers_exactly() {
        let parts = plan_1d(10, 3);
        assert_eq!(parts, vec![(0, 4), (4, 7), (7, 10)]);
        let even = plan_1d(8, 4);
        assert!(even.iter().all(|&(a, b)| b - a == 2));
    }

    #[test]
    fn plan_1d_more_parts_than_items() {
        let parts = plan_1d(2, 5);
        assert_eq!(parts.iter().filter(|&&(a, b)| b > a).count(), 2);
        assert_eq!(parts.last(), Some(&(2, 2)));
    }

    #[test]
    fn psa_2d_is_k_squared() {
        let blocks = plan_psa_2d(8, 4);
        assert_eq!(blocks.len(), 16);
        // Paper example: N² distances mapped to k² tasks of n1×n1 each.
        assert!(blocks
            .iter()
            .all(|b| b.row.1 - b.row.0 == 2 && b.col.1 - b.col.0 == 2));
    }

    #[test]
    fn grid_for_tasks_bounds() {
        assert_eq!(grid_for_tasks(1), 1);
        assert_eq!(grid_for_tasks(3), 2);
        let g = grid_for_tasks(1024);
        assert!(g * (g + 1) / 2 >= 1024);
        assert!((g - 1) * g / 2 < 1024);
    }

    #[test]
    fn grid_blocks_cover_upper_triangle() {
        let n = 20;
        let blocks = plan_2d_grid(n, 4);
        // Every unordered pair (i < j) plus self-pairs on the diagonal is
        // covered by exactly one block.
        let mut cover = vec![vec![0u8; n]; n];
        for b in &blocks {
            for i in b.row.0..b.row.1 {
                for j in b.col.0..b.col.1 {
                    let (i, j) = (i as usize, j as usize);
                    if b.is_diagonal() {
                        if i < j {
                            cover[i][j] += 1;
                        }
                    } else {
                        cover[i.min(j)][i.max(j)] += 1;
                    }
                }
            }
        }
        for (i, row) in cover.iter().enumerate() {
            for (j, &count) in row.iter().enumerate().skip(i + 1) {
                assert_eq!(count, 1, "pair ({i},{j}) covered {count} times");
            }
        }
    }

    #[test]
    fn mem_planner_splits_4m_like_the_paper() {
        // Wrangler-class budget: 128 GB node, 24 workers, half a worker
        // for a task's cdist matrix ≈ 2.67 GB.
        let budget = 128 * (1u64 << 30) / 24 / 2;
        let small = plan_2d_mem(131_072, 131_072, 1024, budget);
        let big = plan_2d_mem(4_000_000, 4_000_000, 1024, budget);
        // 131k: the target grid already fits.
        let g_target = grid_for_tasks(1024);
        assert_eq!(small.len(), g_target * (g_target + 1) / 2);
        // 4M: tens of thousands of tasks, not ~1k.
        assert!(
            big.len() > 10_000 && big.len() < 100_000,
            "4M atoms should explode the task count (got {})",
            big.len()
        );
    }

    #[test]
    fn mem_planner_uses_paper_scale_for_scaled_data() {
        let budget = 128 * (1u64 << 30) / 24 / 2;
        // Scaled-down data (4M/32 atoms) must still split like 4M.
        let scaled = plan_2d_mem(125_000, 4_000_000, 1024, budget);
        let unscaled = plan_2d_mem(4_000_000, 4_000_000, 1024, budget);
        assert_eq!(scaled.len(), unscaled.len());
    }

    #[test]
    fn is_diagonal() {
        let b = Block {
            row: (0, 100),
            col: (100, 300),
        };
        assert!(!b.is_diagonal());
        assert!(Block {
            row: (0, 5),
            col: (0, 5)
        }
        .is_diagonal());
    }

    proptest! {
        #[test]
        fn plan_1d_partitions_exactly(n in 0usize..500, parts in 1usize..40) {
            let ranges = plan_1d(n, parts);
            prop_assert_eq!(ranges.len(), parts);
            let mut expect = 0u32;
            for (a, b) in ranges {
                prop_assert_eq!(a, expect);
                prop_assert!(b >= a);
                expect = b;
            }
            prop_assert_eq!(expect as usize, n);
        }

        #[test]
        fn grid_cover_is_exact(n in 1usize..60, g in 1usize..10) {
            let g = g.min(n);
            let blocks = plan_2d_grid(n, g);
            let mut count = 0usize;
            for b in &blocks {
                let r = (b.row.1 - b.row.0) as usize;
                let c = (b.col.1 - b.col.0) as usize;
                count += if b.is_diagonal() { r * (r - 1) / 2 } else { r * c };
            }
            prop_assert_eq!(count, n * (n - 1) / 2);
        }
    }
}
