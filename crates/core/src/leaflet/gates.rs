//! Memory-feasibility gates: the paper's failure modes, derived from the
//! machine's memory model rather than hard-coded per dataset.
//!
//! Observed in §4.3 and reproduced here:
//! * Approach 1 "only scales up to 262k atoms for Dask" — the list-wise
//!   broadcast's per-element scheduler state exhausts a worker;
//! * "…and 524k atoms for Spark and MPI4py" — at 4M atoms a 1-D strip's
//!   `cdist` matrix (rows × *all* atoms × 8 B) no longer fits any worker;
//! * Approach 2 cannot run the 4M system at 1024 fixed partitions ("we
//!   were not able to scale this implementation to the 4M dataset, due to
//!   memory requirements of cdist");
//! * Approach 3 splits the 4M system into tens of thousands of tasks for
//!   Spark/MPI, while "Dask was restarting its worker processes because
//!   their memory utilization was reaching 95%" — Dask 0.14 kept task
//!   results in worker memory with no disk spill, so any dataset that
//!   needs memory-driven splitting kills it;
//! * Approach 4 has no gate (the BallTree's footprint is linear).

use super::{LfApproach, LfConfig};
use crate::partition::grid_for_tasks;
use crate::Engine;
use netsim::Cluster;
use taskframe::EngineError;

/// Memory available to one worker process (the paper's deployments ran
/// one worker per core).
pub fn worker_mem(cluster: &Cluster) -> u64 {
    cluster.profile.mem_per_node / cluster.profile.cores_per_node as u64
}

/// Memory budget for a single task's `cdist` matrix: half a worker (the
/// rest holds the interpreter, input coordinates and the edge list under
/// construction).
pub fn task_mem_budget(cluster: &Cluster) -> u64 {
    worker_mem(cluster) / 2
}

/// Can `engine` run `approach` on a paper-scale system of
/// `cfg.paper_atoms` atoms without exhausting the memory model?
pub fn check_feasible(
    engine: Engine,
    approach: LfApproach,
    cfg: &LfConfig,
    cluster: &Cluster,
) -> Result<(), EngineError> {
    let n = cfg.paper_atoms as u64;
    let wmem = worker_mem(cluster);
    let budget = task_mem_budget(cluster);
    match approach {
        LfApproach::Broadcast1D => {
            if engine == Engine::Dask {
                let state = n * dasklet::LISTWISE_STATE_BYTES_PER_ITEM;
                if state > wmem {
                    return Err(EngineError::OutOfMemory {
                        node_mem: wmem,
                        required: state,
                        what: format!("Dask list-wise broadcast of {n} atoms"),
                    });
                }
            }
            // Every engine: one strip row-block against the full system.
            let strip_rows = n.div_ceil(cfg.partitions as u64).max(1);
            let strip_bytes = strip_rows * n * 8;
            if strip_bytes > wmem {
                return Err(EngineError::OutOfMemory {
                    node_mem: wmem,
                    required: strip_bytes,
                    what: format!("1-D cdist strip ({strip_rows} rows × {n} atoms, f64)"),
                });
            }
            Ok(())
        }
        LfApproach::Task2D => {
            let g = grid_for_tasks(cfg.partitions) as u64;
            let edge = n.div_ceil(g);
            let block_bytes = edge * edge * 8;
            if block_bytes > budget {
                return Err(EngineError::OutOfMemory {
                    node_mem: budget,
                    required: block_bytes,
                    what: format!("2-D cdist block ({edge}×{edge}, f64) at fixed {g}×{g} grid"),
                });
            }
            Ok(())
        }
        LfApproach::ParallelCC => {
            // Splitting rescues Spark/MPI; Dask 0.14 (no spill-to-disk)
            // dies whenever splitting is needed at all.
            let g_target = grid_for_tasks(cfg.partitions) as u64;
            let edge = n.div_ceil(g_target);
            let needs_split = edge * edge * 8 > budget;
            if needs_split && engine == Engine::Dask {
                return Err(EngineError::OutOfMemory {
                    node_mem: wmem,
                    required: edge * edge * 8,
                    what: "Dask workers restart at 95% memory (no result spilling)".into(),
                });
            }
            Ok(())
        }
        LfApproach::TreeSearch => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::wrangler;

    fn cluster() -> Cluster {
        Cluster::new(wrangler(), 8)
    }

    fn cfg(paper_atoms: usize) -> LfConfig {
        LfConfig {
            cutoff: 2.1,
            partitions: 1024,
            paper_atoms,
            charge_io: true,
        }
    }

    #[test]
    fn worker_budget_math() {
        let c = cluster();
        let cpn = c.profile.cores_per_node as u64;
        assert_eq!(worker_mem(&c), 128 * (1 << 30) / cpn);
        assert_eq!(task_mem_budget(&c), worker_mem(&c) / 2);
    }

    #[test]
    fn approach1_paper_failure_matrix() {
        let c = cluster();
        // Dask: ok at 131k/262k, OOM from 524k (paper §4.3.1).
        for (atoms, ok) in [
            (131_072, true),
            (262_144, true),
            (524_288, false),
            (4_000_000, false),
        ] {
            let r = check_feasible(Engine::Dask, LfApproach::Broadcast1D, &cfg(atoms), &c);
            assert_eq!(r.is_ok(), ok, "dask approach1 {atoms}");
        }
        // Spark/MPI: ok through 524k, OOM at 4M.
        for engine in [Engine::Spark, Engine::Mpi] {
            for (atoms, ok) in [(524_288, true), (4_000_000, false)] {
                let r = check_feasible(engine, LfApproach::Broadcast1D, &cfg(atoms), &c);
                assert_eq!(r.is_ok(), ok, "{engine:?} approach1 {atoms}");
            }
        }
    }

    #[test]
    fn approach2_blocks_4m_for_everyone() {
        let c = cluster();
        for engine in [Engine::Spark, Engine::Dask, Engine::Mpi, Engine::Pilot] {
            assert!(check_feasible(engine, LfApproach::Task2D, &cfg(524_288), &c).is_ok());
            assert!(check_feasible(engine, LfApproach::Task2D, &cfg(4_000_000), &c).is_err());
        }
    }

    #[test]
    fn approach3_spares_spark_and_mpi_but_not_dask() {
        let c = cluster();
        assert!(check_feasible(Engine::Spark, LfApproach::ParallelCC, &cfg(4_000_000), &c).is_ok());
        assert!(check_feasible(Engine::Mpi, LfApproach::ParallelCC, &cfg(4_000_000), &c).is_ok());
        assert!(check_feasible(Engine::Dask, LfApproach::ParallelCC, &cfg(4_000_000), &c).is_err());
        assert!(check_feasible(Engine::Dask, LfApproach::ParallelCC, &cfg(524_288), &c).is_ok());
    }

    #[test]
    fn approach4_always_feasible() {
        let c = cluster();
        for engine in Engine::ALL {
            assert!(check_feasible(engine, LfApproach::TreeSearch, &cfg(4_000_000), &c).is_ok());
        }
    }
}
