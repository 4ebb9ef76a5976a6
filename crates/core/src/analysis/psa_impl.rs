//! Path Similarity Analysis expressed as a [`ParallelAnalysis`].
//!
//! One instance for all four engines: per-block all-pairs Hausdorff
//! distances over the 2-D partitioning of Algorithm 2, gathered and
//! assembled at the driver. The per-pair kernel is the centroid-pruned
//! Hausdorff ([`linalg::hausdorff_rmsd_pruned`]), which is
//! bitwise-identical to the naive sweep of [`crate::psa::psa_serial`]
//! (and of the per-engine drivers this replaced, whose matrices
//! `tests/golden_collectives.rs` holds).

use super::{DriverCtx, Gathered, ParallelAnalysis, Plan, Reduce, Staging};
use crate::codec;
use crate::partition::{plan_psa_2d, Block};
use crate::psa::{assemble, block_input_bytes, PsaConfig, PsaOutput};
use crate::Engine;
use linalg::hausdorff_rmsd_pruned;
use mdsim::Trajectory;
use netsim::Cluster;
use std::sync::Arc;
use taskframe::EngineError;

pub(crate) struct PsaAnalysis {
    ensemble: Arc<Vec<Trajectory>>,
    cfg: PsaConfig,
}

impl PsaAnalysis {
    pub(crate) fn new(ensemble: Arc<Vec<Trajectory>>, cfg: PsaConfig) -> Self {
        PsaAnalysis { ensemble, cfg }
    }
}

/// All Hausdorff distances of one 2-D block (Algorithm 2 step 3), with
/// the pruned kernel.
fn block_distances(ensemble: &[Trajectory], b: Block) -> Vec<(u32, u32, f64)> {
    let mut out = Vec::with_capacity(((b.row.1 - b.row.0) * (b.col.1 - b.col.0)) as usize);
    for i in b.row.0..b.row.1 {
        for j in b.col.0..b.col.1 {
            let h =
                hausdorff_rmsd_pruned(&ensemble[i as usize].frames, &ensemble[j as usize].frames);
            out.push((i, j, h));
        }
    }
    out
}

/// Pilot posture: the block's row and column trajectories genuinely
/// serialized through the staging filesystem; the split offset travels as
/// the decode token.
fn stage(shared: &[Trajectory], b: Block) -> (Vec<u8>, u64) {
    let rows: Vec<&Trajectory> = (b.row.0..b.row.1).map(|i| &shared[i as usize]).collect();
    let cols: Vec<&Trajectory> = (b.col.0..b.col.1).map(|j| &shared[j as usize]).collect();
    let mut input = codec::encode_trajectories(&rows);
    let row_len = input.len() as u64;
    input.extend_from_slice(&codec::encode_trajectories(&cols));
    (input, row_len)
}

fn distances_staged(b: Block, row_len: u64, staged: &[u8]) -> Vec<(u32, u32, f64)> {
    let row_len = row_len as usize;
    let rows = codec::decode_trajectories(&staged[..row_len]);
    let cols = codec::decode_trajectories(&staged[row_len..]);
    let mut out = Vec::new();
    for (di, ti) in rows.iter().enumerate() {
        for (dj, tj) in cols.iter().enumerate() {
            let h = hausdorff_rmsd_pruned(&ti.frames, &tj.frames);
            out.push((b.row.0 + di as u32, b.col.0 + dj as u32, h));
        }
    }
    out
}

impl ParallelAnalysis for PsaAnalysis {
    type Shared = Vec<Trajectory>;
    type Slice = Block;
    type Item = (u32, u32, f64);
    type Wire = Vec<(u32, u32, f64)>;
    type Output = PsaOutput;

    fn shared(&self) -> Arc<Vec<Trajectory>> {
        Arc::clone(&self.ensemble)
    }

    fn plan(&self, _engine: Engine, _cluster: &Cluster) -> Result<Plan<Self>, EngineError> {
        let slices = plan_psa_2d(self.ensemble.len(), self.cfg.groups);
        Ok(Plan {
            phase: "psa-map",
            read_bytes: self
                .cfg
                .charge_io
                .then_some(|a, b| block_input_bytes(&a.ensemble, b)),
            staging: Some(Staging {
                encode: |_, shared, b| stage(shared, b),
                map: |_, b, row_len, staged| distances_staged(b, row_len, staged),
            }),
            ..Plan::new(
                slices,
                Reduce::Gather(|_, shared: &Vec<Trajectory>, b| block_distances(shared, b)),
            )
        })
    }

    fn rank_map(&self, shared: &Vec<Trajectory>, mine: &[Block]) -> Vec<(u32, u32, f64)> {
        mine.iter()
            .flat_map(|&b| block_distances(shared, b))
            .collect()
    }

    fn finalize(
        &self,
        gathered: Gathered<(u32, u32, f64), Vec<(u32, u32, f64)>>,
        ctx: DriverCtx<'_>,
    ) -> Result<PsaOutput, EngineError> {
        let n = self.ensemble.len();
        let distances = match gathered {
            Gathered::Items(triples) => assemble(n, triples),
            Gathered::Ranks(wires, _) => assemble(n, wires.into_iter().flatten()),
        };
        Ok(PsaOutput {
            distances,
            report: ctx.finish(),
        })
    }
}
