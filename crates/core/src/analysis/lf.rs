//! The Leaflet Finder expressed as [`ParallelAnalysis`] instances.
//!
//! Two instances cover the four architectural approaches of Table 2:
//! [`LfEdges`] for the edge-gathering approaches (1: broadcast + 1-D
//! strips, 2: task API + 2-D blocks) and [`LfPartials`] for the
//! partial-connected-components approaches (3: parallel CC, 4: tree
//! search), whose reduce is engine-side. Both reproduce the postures of
//! the hand-written per-engine drivers they replaced exactly —
//! `tests/golden_collectives.rs` holds those drivers' reports.

use super::{DriverCtx, Gathered, MpiClocks, ParallelAnalysis, Plan, Reduce, Staging};
use crate::codec;
use crate::leaflet::{
    block_edges, block_edges_tree, block_input_bytes, check_feasible, driver_components,
    edge_shuffle_bytes, sizes_of_groups, strip_edges, task_mem_budget, LfApproach, LfConfig,
    LfOutput,
};
use crate::partition::{grid_for_tasks, plan_1d, plan_2d_grid, plan_2d_mem, Block, Range};
use crate::Engine;
use graphops::{merge_partials, partial_components, PartialComponents};
use linalg::Vec3;
use netsim::Cluster;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use taskframe::EngineError;

/// Per-rank MPI wire format shared by both LF analyses: `(edge list,
/// partial components, edges found)` — one of the first two is empty
/// depending on the approach.
pub(crate) type RankOut = (Vec<(u32, u32)>, Vec<Vec<u32>>, u64);

/// One unit of Leaflet-Finder work: a 1-D atom strip (approach 1) or a
/// 2-D block (approaches 2–4).
#[derive(Clone, Copy, Debug)]
pub(crate) enum LfSlice {
    Strip(Range),
    Block(Block),
}

/// Approaches 1–2: map tasks emit raw edge lists, gathered at the driver,
/// which runs connected components (the O(E)-shuffle posture of Table 2).
pub(crate) struct LfEdges {
    positions: Arc<Vec<Vec3>>,
    cfg: LfConfig,
    approach: LfApproach,
    /// Edges found across *executions* (Spark's broadcast counter — under
    /// retries or speculation it counts every attempt, exactly like a
    /// Spark accumulator).
    edge_count: AtomicU64,
}

impl LfEdges {
    pub(crate) fn new(positions: Arc<Vec<Vec3>>, cfg: LfConfig, approach: LfApproach) -> Self {
        debug_assert!(matches!(
            approach,
            LfApproach::Broadcast1D | LfApproach::Task2D
        ));
        LfEdges {
            positions,
            cfg,
            approach,
            edge_count: AtomicU64::new(0),
        }
    }
}

impl LfEdges {
    fn edges(&self, shared: &[Vec3], slice: LfSlice) -> Vec<(u32, u32)> {
        match slice {
            LfSlice::Strip(s) => strip_edges(shared, s, self.cfg.cutoff),
            LfSlice::Block(b) => block_edges(shared, b, self.cfg.cutoff),
        }
    }

    /// Pilot posture: a block's coordinate slices really encoded and
    /// staged through the filesystem (RP's only data path).
    fn stage(shared: &[Vec3], slice: LfSlice) -> (Vec<u8>, u64) {
        let LfSlice::Block(b) = slice else {
            unreachable!("only block slices are staged")
        };
        let rows = &shared[b.row.0 as usize..b.row.1 as usize];
        let cols = &shared[b.col.0 as usize..b.col.1 as usize];
        (codec::encode_point_pair(rows, cols), 0)
    }

    fn edges_staged(&self, slice: LfSlice, _token: u64, staged: &[u8]) -> Vec<(u32, u32)> {
        let LfSlice::Block(b) = slice else {
            unreachable!("only block slices are staged")
        };
        let (rows, cols) = codec::decode_point_pair(staged);
        // Re-derive global indices from the block ranges.
        let local = Block {
            row: (0, rows.len() as u32),
            col: (rows.len() as u32, (rows.len() + cols.len()) as u32),
        };
        let mut joined = rows;
        joined.extend_from_slice(&cols);
        let edges = if b.is_diagonal() {
            block_edges(
                &joined,
                Block {
                    row: local.row,
                    col: local.row,
                },
                self.cfg.cutoff,
            )
        } else {
            block_edges(&joined, local, self.cfg.cutoff)
        };
        edges
            .into_iter()
            .map(|(i, j)| {
                let gi = b.row.0 + i;
                let gj = if b.is_diagonal() {
                    b.row.0 + j
                } else {
                    b.col.0 + (j - local.col.0)
                };
                (gi, gj)
            })
            .collect()
    }
}

impl ParallelAnalysis for LfEdges {
    type Shared = Vec<Vec3>;
    type Slice = LfSlice;
    type Item = (u32, u32);
    type Wire = RankOut;
    type Output = LfOutput;

    fn shared(&self) -> Arc<Vec<Vec3>> {
        Arc::clone(&self.positions)
    }

    fn plan(&self, engine: Engine, cluster: &Cluster) -> Result<Plan<Self>, EngineError> {
        check_feasible(engine, self.approach, &self.cfg, cluster)?;
        let n = self.positions.len();
        // Approach 1 ships its data by broadcast; approach 2 reads (or,
        // on the pilot, stages) its blocks.
        let broadcast = self.approach == LfApproach::Broadcast1D;
        let slices = if broadcast {
            plan_1d(n, self.cfg.partitions)
                .into_iter()
                .map(LfSlice::Strip)
                .collect()
        } else {
            plan_2d_grid(n, grid_for_tasks(self.cfg.partitions))
                .into_iter()
                .map(LfSlice::Block)
                .collect()
        };
        let map = |a: &Self, shared: &Vec<Vec3>, slice| {
            let edges = a.edges(shared, slice);
            if let LfSlice::Strip(_) = slice {
                a.edge_count
                    .fetch_add(edges.len() as u64, Ordering::Relaxed);
            }
            edges
        };
        Ok(Plan {
            broadcast,
            phase: "edge-discovery",
            bracket: true,
            read_bytes: (!broadcast && self.cfg.charge_io).then_some(|_, slice| match slice {
                LfSlice::Strip(_) => 0,
                LfSlice::Block(b) => block_input_bytes(b),
            }),
            staging: (!broadcast).then_some(Staging {
                encode: |_, shared, slice| Self::stage(shared, slice),
                map: Self::edges_staged,
            }),
            ..Plan::new(slices, Reduce::Gather(map))
        })
    }

    fn rank_map(&self, shared: &Vec<Vec3>, mine: &[LfSlice]) -> RankOut {
        let edges: Vec<(u32, u32)> = mine.iter().flat_map(|&s| self.edges(shared, s)).collect();
        let found = edges.len() as u64;
        (edges, Vec::new(), found)
    }

    fn finalize(
        &self,
        gathered: Gathered<(u32, u32), RankOut>,
        mut ctx: DriverCtx<'_>,
    ) -> Result<LfOutput, EngineError> {
        let n = self.positions.len();
        match gathered {
            Gathered::Items(edges) => {
                let shuffle_bytes = edge_shuffle_bytes(edges.len() as u64);
                // Spark's broadcast approach reports the accumulator (all
                // executions); the rest report the collected edge count.
                let edges_found =
                    if ctx.engine() == Engine::Spark && self.approach == LfApproach::Broadcast1D {
                        self.edge_count.load(Ordering::Relaxed)
                    } else {
                        edges.len() as u64
                    };
                let (sizes, count) =
                    ctx.charge_measured("connected-components", || driver_components(n, &edges));
                Ok(LfOutput {
                    leaflet_sizes: sizes,
                    n_components: count,
                    edges_found,
                    shuffle_bytes,
                    tasks: ctx.tasks(),
                    report: ctx.finish(),
                })
            }
            Gathered::Ranks(wires, clocks) => {
                Ok(finalize_mpi(n, self.approach, wires, clocks, ctx))
            }
        }
    }
}

/// Approaches 3–4: map tasks compute partial connected components,
/// merged engine-side (one partial per task crosses the wire — Table 2's
/// O(n) shuffle instead of O(E)).
pub(crate) struct LfPartials {
    positions: Arc<Vec<Vec3>>,
    cfg: LfConfig,
    approach: LfApproach,
    edge_count: AtomicU64,
    shuffle_bytes: AtomicU64,
}

impl LfPartials {
    pub(crate) fn new(positions: Arc<Vec<Vec3>>, cfg: LfConfig, approach: LfApproach) -> Self {
        debug_assert!(matches!(
            approach,
            LfApproach::ParallelCC | LfApproach::TreeSearch
        ));
        LfPartials {
            positions,
            cfg,
            approach,
            edge_count: AtomicU64::new(0),
            shuffle_bytes: AtomicU64::new(0),
        }
    }

    fn edges_of(&self, shared: &[Vec3], b: Block) -> Vec<(u32, u32)> {
        if self.approach == LfApproach::TreeSearch {
            block_edges_tree(shared, b, self.cfg.cutoff)
        } else {
            block_edges(shared, b, self.cfg.cutoff)
        }
    }
}

impl ParallelAnalysis for LfPartials {
    type Shared = Vec<Vec3>;
    type Slice = Block;
    type Item = Vec<Vec<u32>>;
    type Wire = RankOut;
    type Output = LfOutput;

    fn shared(&self) -> Arc<Vec<Vec3>> {
        Arc::clone(&self.positions)
    }

    fn plan(&self, engine: Engine, cluster: &Cluster) -> Result<Plan<Self>, EngineError> {
        check_feasible(engine, self.approach, &self.cfg, cluster)?;
        let n = self.positions.len();
        let slices = match self.approach {
            LfApproach::ParallelCC => plan_2d_mem(
                n,
                self.cfg.paper_atoms,
                self.cfg.partitions,
                task_mem_budget(cluster),
            ),
            _ => plan_2d_grid(n, grid_for_tasks(self.cfg.partitions)),
        };
        let leaf = |a: &Self, shared: &Vec<Vec3>, b| {
            let edges = a.edges_of(shared, b);
            a.edge_count
                .fetch_add(edges.len() as u64, Ordering::Relaxed);
            let partial = partial_components(&edges);
            a.shuffle_bytes
                .fetch_add(partial.wire_bytes(), Ordering::Relaxed);
            partial.components
        };
        let combine = |_: &Self, x, y| {
            merge_partials(&[
                PartialComponents { components: x },
                PartialComponents { components: y },
            ])
            .components
        };
        Ok(Plan {
            // The SPMD engine folds the partial-CC into its edge loop; the
            // task engines label the fused map+reduce stage explicitly.
            phase: if engine == Engine::Mpi {
                "edge-discovery"
            } else {
                "edge-discovery+partial-cc"
            },
            read_bytes: self.cfg.charge_io.then_some(|_, b| block_input_bytes(b)),
            ..Plan::new(slices, Reduce::Tree(leaf, combine))
        })
    }

    fn rank_map(&self, shared: &Vec<Vec3>, mine: &[Block]) -> RankOut {
        let mut found = 0u64;
        let parts: Vec<PartialComponents> = mine
            .iter()
            .map(|&b| {
                let edges = self.edges_of(shared, b);
                found += edges.len() as u64;
                partial_components(&edges)
            })
            .collect();
        (Vec::new(), merge_partials(&parts).components, found)
    }

    fn finalize(
        &self,
        gathered: Gathered<Vec<Vec<u32>>, RankOut>,
        ctx: DriverCtx<'_>,
    ) -> Result<LfOutput, EngineError> {
        let n = self.positions.len();
        match gathered {
            Gathered::Items(mut merged) => {
                // Engine-side reduce already ran: no driver CC charge.
                let (sizes, count) = sizes_of_groups(merged.pop().unwrap_or_default());
                Ok(LfOutput {
                    leaflet_sizes: sizes,
                    n_components: count,
                    edges_found: self.edge_count.load(Ordering::Relaxed),
                    shuffle_bytes: self.shuffle_bytes.load(Ordering::Relaxed),
                    tasks: ctx.tasks(),
                    report: ctx.finish(),
                })
            }
            Gathered::Ranks(wires, clocks) => {
                Ok(finalize_mpi(n, self.approach, wires, clocks, ctx))
            }
        }
    }
}

/// Shared MPI rank-0 reduce for both LF analyses: accumulate per-rank
/// wires, attribute the broadcast/edge-discovery spans from the rank
/// clocks, and charge the measured driver-side component reduction.
fn finalize_mpi(
    n: usize,
    approach: LfApproach,
    wires: Vec<RankOut>,
    clocks: MpiClocks,
    mut ctx: DriverCtx<'_>,
) -> LfOutput {
    let mut all_edges: Vec<(u32, u32)> = Vec::new();
    let mut all_partials: Vec<PartialComponents> = Vec::new();
    let mut edges_found = 0u64;
    let mut shuffle_bytes = 0u64;
    for (edges, components, found) in wires {
        let partial = PartialComponents { components };
        shuffle_bytes += edge_shuffle_bytes(edges.len() as u64) + partial.wire_bytes();
        all_edges.extend(edges);
        all_partials.push(partial);
        edges_found += found;
    }
    let MpiClocks {
        start_min,
        bcast_max,
        map_max,
    } = clocks;
    if approach == LfApproach::Broadcast1D {
        ctx.push_span("broadcast", start_min, bcast_max);
    }
    ctx.push_span("edge-discovery", bcast_max, map_max);
    let (sizes, count) = ctx.charge_measured("connected-components", || match approach {
        LfApproach::Broadcast1D | LfApproach::Task2D => driver_components(n, &all_edges),
        LfApproach::ParallelCC | LfApproach::TreeSearch => {
            sizes_of_groups(merge_partials(&all_partials).components)
        }
    });
    LfOutput {
        leaflet_sizes: sizes,
        n_components: count,
        edges_found,
        shuffle_bytes,
        tasks: ctx.tasks(),
        report: ctx.finish(),
    }
}
