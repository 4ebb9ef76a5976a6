//! An MPI-equivalent SPMD substrate with virtual-time accounting — the
//! paper's MPI4py baseline.
//!
//! The paper's MPI implementations have one shape: broadcast or
//! partition, compute, gather to rank 0. [`World`] runs that shape as
//! bulk-synchronous supersteps (Valiant's BSP model): one value holds a
//! *virtual clock* per rank, and each step advances the whole vector.
//! No OS thread is started per rank.
//!
//! * A local step, [`World::compute`], runs every rank's closure for real
//!   through `netsim::parallel` (serially at the default host degree 1,
//!   so host-core contention never pollutes measurements), measures each
//!   one, scales it by the machine profile and advances that rank's
//!   clock. [`World::charge`] adds modelled time.
//! * A collective step ([`World::try_bcast`], [`World::try_gather`])
//!   synchronizes the clocks: it starts at the latest arrival and
//!   completes per rank after the communication cost from the cluster's
//!   [`netsim::NetworkModel`] (naive linear broadcast/gather, matching the
//!   paper's observation that MPI broadcast time grows linearly with
//!   process count), through fixed per-rank buffers.
//! * [`World::finish`] applies the fault plan to the finished timeline
//!   (abort, or restart from the last collective) and returns the
//!   [`netsim::SimReport`] with the virtual makespan and the byte counters
//!   the experiment harness prints.

mod stream;
mod world;

pub use stream::run_stream_ring;
pub use world::World;

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Cluster, RetryPolicy};
    use taskframe::{EngineError, Payload};

    fn cluster(ranks: usize) -> Cluster {
        Cluster::builder()
            .cores_per_node(8)
            .nodes(ranks.div_ceil(8))
            .build()
    }

    fn launch(cluster: Cluster, world: usize) -> World {
        World::launch(cluster, world).expect("the world fits the cluster")
    }

    /// The report of a plain (one-attempt) MPI job.
    fn finish(world: World) -> netsim::SimReport {
        world
            .finish(&RetryPolicy::new(1), true)
            .expect("no fault hits the job")
    }

    fn latest(world: &World) -> f64 {
        world.clocks().iter().copied().fold(0.0, f64::max)
    }

    #[test]
    fn spmd_ranks_see_their_ids() {
        let mut world = launch(cluster(4), 4);
        let n = world.size();
        let got = world.compute(|rank| (rank, n));
        assert_eq!(got, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn bcast_delivers_root_value() {
        let mut world = launch(cluster(6), 6);
        let got = world.try_bcast(0, vec![7u32, 8, 9]).unwrap();
        assert_eq!(got.len(), 6);
        for r in got {
            assert_eq!(r, vec![7, 8, 9]);
        }
        assert!(finish(world).bytes_broadcast > 0);
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let mut world = launch(cluster(4), 4);
        let mine = world.compute(|rank| rank as u32 * 10);
        assert_eq!(world.try_gather(0, mine).unwrap(), vec![0, 10, 20, 30]);
    }

    /// Each collective superstep ends in a barrier: no rank leaves it
    /// before the slowest rank arrived.
    #[test]
    fn barrier_synchronizes_clocks() {
        let mut world = launch(cluster(2), 2);
        world.charge(0, 1.0); // rank 0 is busy for 1 virtual second
        world.try_gather(0, vec![(); 2]).unwrap();
        for &c in world.clocks() {
            assert!(c >= 1.0, "clock after barrier: {c}");
        }
    }

    #[test]
    fn compute_advances_clock_and_runs_really() {
        let mut world = launch(cluster(2), 2);
        let got = world.compute(|_| (0..1000u64).sum::<u64>());
        assert_eq!(got, vec![499_500; 2]);
        for &clock in world.clocks() {
            assert!(clock > 0.0);
        }
    }

    #[test]
    fn makespan_reflects_slowest_rank() {
        let mut world = launch(cluster(3), 3);
        for rank in 0..3 {
            world.charge(rank, rank as f64);
        }
        assert!(finish(world).makespan_s >= 2.0);
    }

    #[test]
    fn broadcast_cost_grows_with_world_size() {
        let payload = vec![0u8; 1 << 20];
        let t = |n: usize| {
            let mut world = launch(cluster(n), n);
            world.try_bcast(0, payload.clone()).unwrap();
            // Subtract the fixed mpirun startup to isolate broadcast cost.
            latest(&world) - 0.5
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
        // 1 MiB replica cannot fit any of them, so the collective fails
        // typed — no panic, no hang, no mpirun teardown.
        let cluster = Cluster::builder()
            .cores_per_node(8)
            .mem_budget(1 << 20)
            .build();
        let mut world = launch(cluster, 4);
        let err = world
            .try_bcast(0, vec![0u8; 1 << 20])
            .expect_err("replica cannot fit a 128 KiB buffer");
        assert!(err.to_string().contains("out of memory"), "{err}");
        assert!(finish(world).oom_kills >= 1);
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
            let mut world = launch(cluster, 16);
            world.try_bcast(0, vec![0u8; 64 * 1024]).unwrap();
            latest(&world)
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
        let mut world = launch(cluster, 16);
        let mine = world.compute(|rank| vec![rank as u8; 64 * 1024]);
        let err = world
            .try_gather(0, mine)
            .expect_err("gathered 1 MiB cannot fit 128 KiB");
        assert!(matches!(err, EngineError::MemoryExhausted { .. }));
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
        let mut world = launch(cluster, 4);
        assert!(
            world.try_bcast(0, vec![0u8; 256 * 1024]).is_err(),
            "shrunken buffers must refuse the replica"
        );
    }

    #[test]
    fn single_rank_world_works() {
        let mut world = launch(cluster(1), 1);
        let v = world.try_bcast(0, 41u32).unwrap();
        let mine = world.compute(|rank| v[rank] + 1);
        assert_eq!(world.try_gather(0, mine).unwrap(), vec![42]);
    }

    #[test]
    fn payload_bytes_accounted_for_gather() {
        let mut world = launch(cluster(4), 4);
        let data = world.compute(|rank| vec![rank as u32; 100]);
        assert_eq!(data[0].wire_bytes(), 404);
        world.try_gather(0, data).unwrap();
        assert!(
            finish(world).bytes_shuffled >= 3 * 404,
            "gather moves non-root payloads"
        );
    }
}
