//! Path Similarity Analysis (Algorithm 1) with the 2-D task partitioning
//! of Algorithm 2: the job's configuration and output types, the serial
//! reference, and the block helpers the
//! [`ParallelAnalysis`](crate::ParallelAnalysis) instance
//! (`analysis/psa_impl.rs`) behind [`run_psa`](crate::run::run_psa) uses.
//!
//! "The input data, i.e. a set of trajectory files, is equally distributed
//! over the cores, generating one task per core. Each task reads its
//! respective input files in parallel, executes and writes the result"
//! (§4.2). Per framework (§4.2):
//! * RADICAL-Pilot — one Compute-Unit per task, inputs staged through the
//!   shared filesystem (*really* serialized and written here);
//! * Spark — an RDD with one partition per task, executed in a map;
//! * Dask — one delayed function per task;
//! * MPI — each task executed by a process (round-robin over ranks).

use crate::partition::Block;
use linalg::{hausdorff_naive, DistanceMatrix};
use mdsim::Trajectory;
use netsim::SimReport;

/// PSA job parameters.
#[derive(Clone, Debug)]
pub struct PsaConfig {
    /// Number of trajectory groups `k` (Algorithm 2): the job runs `k²`
    /// tasks. The paper picks `k` so that `k²` ≈ core count.
    pub groups: usize,
    /// Charge each task the (virtual) time to read its trajectory slice
    /// from shared storage, as the paper's file-per-task layout did.
    pub charge_io: bool,
}

impl PsaConfig {
    /// `k` such that `k²` is at least `cores` (one task per core, §4.2).
    pub fn for_cores(cores: usize) -> Self {
        let mut k = (cores as f64).sqrt().floor() as usize;
        k = k.max(1);
        while k * k < cores {
            k += 1;
        }
        PsaConfig {
            groups: k,
            charge_io: true,
        }
    }
}

/// Result of a PSA run: the real all-pairs Hausdorff matrix and the
/// simulated execution report.
pub struct PsaOutput {
    pub distances: DistanceMatrix,
    pub report: SimReport,
}

/// Serial reference (Algorithm 1 verbatim).
pub fn psa_serial(ensemble: &[Trajectory]) -> DistanceMatrix {
    let n = ensemble.len();
    let mut d = DistanceMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            d.set(
                i,
                j,
                hausdorff_naive(&ensemble[i].frames, &ensemble[j].frames, linalg::frame_rmsd),
            );
        }
    }
    d
}

/// Bytes a task must read from storage for block `b`.
pub(crate) fn block_input_bytes(ensemble: &[Trajectory], b: Block) -> u64 {
    let row: u64 = (b.row.0..b.row.1)
        .map(|i| ensemble[i as usize].size_bytes())
        .sum();
    let col: u64 = (b.col.0..b.col.1)
        .map(|j| ensemble[j as usize].size_bytes())
        .sum();
    row + col
}

pub(crate) fn assemble(
    n: usize,
    triples: impl IntoIterator<Item = (u32, u32, f64)>,
) -> DistanceMatrix {
    let mut d = DistanceMatrix::zeros(n, n);
    for (i, j, h) in triples {
        d.set(i as usize, j as usize, h);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_psa, RunConfig};
    use mdsim::ChainSpec;
    use netsim::{comet, laptop, Cluster};
    use sparklet::SparkContext;
    use std::sync::Arc;
    use taskframe::Engine;

    fn ensemble(count: usize) -> Vec<Trajectory> {
        let spec = ChainSpec {
            n_atoms: 10,
            n_frames: 5,
            stride: 1,
            ..ChainSpec::default()
        };
        mdsim::chain::generate_ensemble(&spec, count, 42)
    }

    fn matrices_equal(a: &DistanceMatrix, b: &DistanceMatrix) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() < 1e-12)
    }

    #[test]
    fn config_for_cores() {
        assert_eq!(PsaConfig::for_cores(16).groups, 4);
        assert_eq!(PsaConfig::for_cores(17).groups, 5);
        assert_eq!(PsaConfig::for_cores(1).groups, 1);
    }

    #[test]
    fn serial_matrix_is_symmetric_zero_diagonal() {
        let e = ensemble(4);
        let d = psa_serial(&e);
        for i in 0..4 {
            assert_eq!(d.get(i, i), 0.0);
            for j in 0..4 {
                assert!((d.get(i, j) - d.get(j, i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn all_engines_match_serial() {
        let e = ensemble(6);
        let reference = psa_serial(&e);
        let cfg = PsaConfig {
            groups: 3,
            charge_io: true,
        };
        let cluster = || Cluster::new(laptop(), 2);
        let arc = Arc::new(e.clone());

        for engine in Engine::ALL {
            let rc = RunConfig::new(cluster(), engine).mpi_world(4);
            let out = run_psa(&rc, Arc::clone(&arc), &cfg)
                .unwrap_or_else(|e| panic!("{engine:?} runs fault-free: {e}"));
            assert!(
                matrices_equal(&out.distances, &reference),
                "{engine:?} mismatch"
            );
        }
    }

    #[test]
    fn task_counts_are_k_squared() {
        let e = ensemble(4);
        let cfg = PsaConfig {
            groups: 2,
            charge_io: false,
        };
        let rc = RunConfig::new(Cluster::new(laptop(), 1), Engine::Spark);
        let out = run_psa(&rc, Arc::new(e), &cfg).expect("fault-free");
        assert_eq!(out.report.tasks, 4);
    }

    #[test]
    fn block_input_bytes_counts_both_axes() {
        // The I/O model charges exactly the bytes a task reads: all row
        // and column trajectories of its block.
        let e = ensemble(4); // 4 trajectories × 5 frames × 10 atoms
        let per_traj = 5 * 10 * 12;
        let diag = Block {
            row: (0, 2),
            col: (0, 2),
        };
        assert_eq!(block_input_bytes(&e, diag), 4 * per_traj);
        let off = Block {
            row: (0, 1),
            col: (2, 4),
        };
        assert_eq!(block_input_bytes(&e, off), 3 * per_traj);
    }

    #[test]
    fn charged_io_lands_in_task_durations() {
        // Mechanism check with a charge (10 s/task) that dwarfs any host
        // noise: compute_s must include it for every task.
        let sc = SparkContext::new(Cluster::new(comet(), 1));
        let rdd = sparklet::Rdd::from_partitions(sc.clone(), 4, |_p, ctx: &taskframe::TaskCtx| {
            ctx.charge(10.0);
            vec![0u32]
        });
        rdd.collect();
        assert!(sc.report().compute_s >= 40.0);
    }

    #[test]
    fn pilot_stages_real_bytes() {
        let e = ensemble(2);
        let rc = RunConfig::new(Cluster::new(laptop(), 1), Engine::Pilot);
        let out = run_psa(
            &rc,
            Arc::new(e),
            &PsaConfig {
                groups: 1,
                charge_io: true,
            },
        )
        .unwrap();
        assert!(
            out.report.bytes_staged > 0,
            "pilot must stage trajectory bytes"
        );
    }
}
