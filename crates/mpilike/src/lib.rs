//! An MPI-equivalent SPMD substrate with virtual-time accounting — the
//! paper's MPI4py baseline.
//!
//! [`run`] spawns one OS thread per rank; every rank executes the same
//! closure (SPMD) against a [`Comm`] providing the collectives the paper's
//! implementations use (`barrier`, `bcast`, `scatter`, `gather`,
//! `allreduce`). Each rank keeps its own *virtual clock*:
//!
//! * [`Comm::compute`] runs real work, measures it, scales it by the
//!   machine profile and advances the rank's clock. Real execution is
//!   bounded by a compute semaphore whose capacity is the host-parallelism
//!   degree (`netsim::parallel`) at run entry. At the default degree 1
//!   this is a global token: host-core contention never pollutes
//!   measurements and concurrency exists only in virtual time. Higher
//!   degrees let ranks really compute in parallel on the host.
//! * Collectives synchronize clocks: the operation completes at
//!   `max(arrival clocks) + communication cost`, with costs from the
//!   cluster's [`netsim::NetworkModel`] (naive linear broadcast/gather,
//!   matching the paper's observation that MPI broadcast time grows
//!   linearly with process count).
//!
//! The returned [`netsim::SimReport`] carries the virtual makespan and the
//! byte counters the experiment harness prints.

mod collective;
mod comm;
mod stream;

pub use comm::{run, try_run, try_run_with_policy, Comm, MpiRunOutput};
pub use stream::run_stream_ring;

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Cluster;
    use taskframe::Payload;

    fn cluster(ranks: usize) -> Cluster {
        Cluster::builder()
            .cores_per_node(8)
            .nodes(ranks.div_ceil(8))
            .build()
    }

    #[test]
    fn spmd_ranks_see_their_ids() {
        let out = run(cluster(4), 4, |comm| (comm.rank(), comm.world()));
        let mut got = out.results;
        got.sort_unstable();
        assert_eq!(got, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn bcast_delivers_root_value() {
        let out = run(cluster(6), 6, |comm| {
            let v = if comm.rank() == 0 {
                Some(vec![7u32, 8, 9])
            } else {
                None
            };
            comm.bcast(0, v)
        });
        for r in out.results {
            assert_eq!(r, vec![7, 8, 9]);
        }
        assert!(out.report.bytes_broadcast > 0);
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = run(cluster(4), 4, |comm| {
            let rank = comm.rank() as u32;
            comm.gather(0, rank * 10)
        });
        let roots: Vec<_> = out.results.into_iter().flatten().collect();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0], vec![0, 10, 20, 30]);
    }

    #[test]
    fn scatter_distributes_parts() {
        let out = run(cluster(3), 3, |comm| {
            let parts = if comm.rank() == 0 {
                Some(vec![vec![1u32], vec![2, 2], vec![3, 3, 3]])
            } else {
                None
            };
            comm.scatter(0, parts)
        });
        let mut lens: Vec<usize> = out.results.iter().map(Vec::len).collect();
        lens.sort_unstable();
        assert_eq!(lens, vec![1, 2, 3]);
    }

    #[test]
    fn allreduce_max() {
        let out = run(cluster(5), 5, |comm| {
            comm.allreduce_f64(comm.rank() as f64, f64::max)
        });
        for v in out.results {
            assert_eq!(v, 4.0);
        }
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let out = run(cluster(2), 2, |comm| {
            if comm.rank() == 0 {
                comm.charge(1.0); // rank 0 is busy for 1 virtual second
            }
            comm.barrier();
            comm.clock()
        });
        // After the barrier both clocks are (at least) the slowest arrival.
        for c in out.results {
            assert!(c >= 1.0, "clock after barrier: {c}");
        }
    }

    #[test]
    fn compute_advances_clock_and_runs_really() {
        let out = run(cluster(2), 2, |comm| {
            let v = comm.compute(|| (0..1000u64).sum::<u64>());
            (v, comm.clock())
        });
        for (v, clock) in out.results {
            assert_eq!(v, 499_500);
            assert!(clock > 0.0);
        }
    }

    #[test]
    fn makespan_reflects_slowest_rank() {
        let out = run(cluster(3), 3, |comm| {
            comm.charge(comm.rank() as f64);
        });
        assert!(out.report.makespan_s >= 2.0);
    }

    #[test]
    fn broadcast_cost_grows_with_world_size() {
        let payload = vec![0u8; 1 << 20];
        let t = |world: usize| {
            let p = payload.clone();
            let out = run(cluster(world), world, move |comm| {
                let v = if comm.rank() == 0 {
                    Some(p.clone())
                } else {
                    None
                };
                comm.bcast(0, v);
                comm.clock()
            });
            // Subtract the fixed mpirun startup to isolate broadcast cost.
            out.results.into_iter().fold(0.0, f64::max) - 0.5
        };
        let t4 = t(4);
        let t16 = t(16);
        assert!(
            t16 > t4 * 2.0,
            "linear broadcast should grow with ranks: t4={t4} t16={t16}"
        );
    }

    #[test]
    fn oversized_bcast_fails_typed_on_every_rank() {
        // 1 MiB node budget over 8 ranks = 128 KiB fixed buffers; a
        // 1 MiB replica cannot fit any of them, so every rank sees the
        // same typed error — no panic, no hang, no mpirun teardown.
        let cluster = Cluster::builder()
            .cores_per_node(8)
            .mem_budget(1 << 20)
            .build();
        let out = try_run(cluster, 4, |comm| {
            let v = if comm.rank() == 0 {
                Some(vec![0u8; 1 << 20])
            } else {
                None
            };
            comm.try_bcast(0, v)
        })
        .unwrap();
        for r in &out.results {
            let err = r.as_ref().expect_err("replica cannot fit a 128 KiB buffer");
            assert!(err.to_string().contains("out of memory"), "{err}");
        }
        assert!(out.report.oom_kills >= 1);
    }

    #[test]
    fn chunked_bcast_pays_latency_per_chunk() {
        // Same payload, shrinking buffers: more chunks, more latency.
        let t = |mem: u64| {
            let cluster = Cluster::builder()
                .nodes(2)
                .cores_per_node(8)
                .mem_budget(mem)
                .build();
            let out = run(cluster, 16, |comm| {
                let v = if comm.rank() == 0 {
                    Some(vec![0u8; 64 * 1024])
                } else {
                    None
                };
                comm.bcast(0, v);
                comm.clock()
            });
            out.results.into_iter().fold(0.0, f64::max)
        };
        let roomy = t(1 << 30);
        let tight = t(1 << 20); // 128 KiB buffers → 32 KiB chunks
        assert!(
            tight > roomy,
            "chunked sends must cost extra latency: roomy={roomy} tight={tight}"
        );
    }

    #[test]
    fn gather_overflowing_root_fails_typed() {
        // Each rank contributes 64 KiB; 16 ranks = 1 MiB at the root,
        // which only holds a 128 KiB fixed buffer.
        let cluster = Cluster::builder()
            .nodes(2)
            .cores_per_node(8)
            .mem_budget(1 << 20)
            .build();
        let out = try_run(cluster, 16, |comm| {
            comm.try_gather(0, vec![comm.rank() as u8; 64 * 1024])
        })
        .unwrap();
        for r in &out.results {
            let err = r.as_ref().expect_err("gathered 1 MiB cannot fit 128 KiB");
            assert!(matches!(
                err,
                taskframe::EngineError::MemoryExhausted { .. }
            ));
        }
    }

    #[test]
    fn mem_shrink_fault_turns_fitting_bcast_into_typed_error() {
        // Nominally the 256 KiB replica fits the 512 KiB buffers; a fault
        // shrinking the node's budget at t=0 leaves 16 KiB buffers and the
        // collective must fail typed mid-run.
        let plan = netsim::FaultPlan::none().shrink_memory(0, 0.0, 128 * 1024);
        let cluster = Cluster::builder()
            .cores_per_node(8)
            .mem_budget(4 << 20)
            .fault_plan(plan)
            .build();
        let out = try_run(cluster, 4, |comm| {
            let v = if comm.rank() == 0 {
                Some(vec![0u8; 256 * 1024])
            } else {
                None
            };
            comm.try_bcast(0, v)
        })
        .unwrap();
        for r in &out.results {
            assert!(r.is_err(), "shrunken buffers must refuse the replica");
        }
    }

    #[test]
    fn single_rank_world_works() {
        let out = run(cluster(1), 1, |comm| {
            let v = comm.bcast(0, Some(41u32)) + 1;
            comm.gather(0, v).map(|g| g[0])
        });
        assert_eq!(out.results, vec![Some(42)]);
    }

    #[test]
    fn payload_bytes_accounted_for_gather() {
        let out = run(cluster(4), 4, |comm| {
            let data = vec![comm.rank() as u32; 100];
            assert_eq!(data.wire_bytes(), 404);
            comm.gather(0, data);
        });
        assert!(
            out.report.bytes_shuffled >= 3 * 404,
            "gather moves non-root payloads"
        );
    }
}
