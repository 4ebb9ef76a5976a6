//! A Dask-equivalent task-parallel engine.
//!
//! `dasklet` reproduces the architecture the paper describes for Dask +
//! Distributed (§3.2, Table 1):
//!
//! * **Low-level `delayed` task graphs** — arbitrary DAGs of tasks; a task
//!   becomes ready the moment its dependencies finish. There is **no stage
//!   barrier**: unlike `sparklet`, downstream work starts per-dependency,
//!   which is why Dask's scheduler "does not rely on synchronization
//!   points that Spark's stage-oriented scheduler introduces" (§3.4).
//! * **A lightweight central scheduler** — per-task dispatch cost an order
//!   of magnitude below Spark's (Fig. 2's throughput gap).
//! * **Weak broadcast** — `scatter(broadcast=true)` handles the payload as
//!   a *list*, paying per-element scheduler state and time; large arrays
//!   exhaust worker memory, which is why the paper could not broadcast the
//!   524k-atom system with Dask (§4.3.1).
//!
//! Execution is real; time is virtual (see `netsim`). Because the task
//! graph is dynamic, `Delayed<T>` carries its value *and* its virtual
//! completion time — building the graph eagerly executes it, which is
//! timing-equivalent for a dependency-driven scheduler.

mod client;

pub use client::{DaskClient, Delayed};

/// Per-element scheduler/comm state for list-wise broadcast (bytes). The
/// 2017-era `scatter(broadcast=True)` registered every list element as its
/// own key; ~11 KiB of tracking state per element is what reproduces the
/// paper's "could not broadcast 524k atoms" failure against a 128 GB node
/// running 24 workers (524288 × 11 KiB ≈ 5.9 GB > 5.7 GB per worker,
/// while 262144 × 11 KiB ≈ 2.9 GB still fits).
pub const LISTWISE_STATE_BYTES_PER_ITEM: u64 = 11 * 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{laptop, Cluster};

    fn client() -> DaskClient {
        DaskClient::new(Cluster::new(laptop(), 2))
    }

    #[test]
    fn delayed_and_then() {
        let c = client();
        let a = c.delayed(|_| 21u64);
        let b = a.then(&c, |v, _| v * 2);
        assert_eq!(*b.value(), 42);
        assert!(b.ready_at() > a.ready_at());
    }

    #[test]
    fn combine_waits_for_all_deps() {
        let c = client();
        let xs: Vec<Delayed<u64>> = (0..5).map(|i| c.delayed(move |_| i)).collect();
        let slowest = xs.iter().map(Delayed::ready_at).fold(0.0, f64::max);
        let refs: Vec<&Delayed<u64>> = xs.iter().collect();
        let sum = c.combine(&refs, |vals, _| vals.iter().copied().sum::<u64>());
        assert_eq!(*sum.value(), 10);
        assert!(sum.ready_at() > slowest);
    }

    #[test]
    fn no_stage_barrier_between_generations() {
        // Chain B_i = f(A_i) where A_0 is fast and A_1 takes 10 virtual
        // seconds. A dynamic scheduler runs B_0 as soon as A_0 is done;
        // a stage-oriented one would hold B_0 until A_1 finished.
        let c = client();
        let a: Vec<Delayed<u64>> = (0..2)
            .map(|i| {
                c.delayed(move |ctx: &taskframe::TaskCtx| {
                    ctx.charge(if i == 1 { 10.0 } else { 0.0 });
                    i
                })
            })
            .collect();
        let b: Vec<Delayed<u64>> = a.iter().map(|d| d.then(&c, |v, _| v + 1)).collect();
        let last_a = a.iter().map(Delayed::ready_at).fold(0.0, f64::max);
        assert!(last_a >= 10.0);
        assert!(
            b[0].ready_at() < last_a,
            "B_0 ({}) must not wait for A_1 ({last_a})",
            b[0].ready_at()
        );
    }

    #[test]
    fn gather_returns_values_in_order() {
        let c = client();
        let xs: Vec<Delayed<u32>> = (0..8).map(|i| c.delayed(move |_| i * i)).collect();
        let (vals, _t) = c.gather(&xs);
        assert_eq!(vals, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn scatter_spreads_partitions() {
        let c = client();
        let parts = c.scatter(vec![vec![1u32], vec![2, 3], vec![4]]).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(*parts[1].value(), vec![2, 3]);
    }

    #[test]
    fn listwise_broadcast_charges_per_item() {
        let c = client();
        let small = c.broadcast(vec![1u32; 10]).unwrap();
        let t_small = small.ready_at();
        let c2 = client();
        let big = c2.broadcast(vec![1u32; 100_000]).unwrap();
        let t_big = big.ready_at();
        // 100k items at 50 µs each ≈ 5 s of list handling.
        assert!(t_big - t_small > 3.0, "t_small={t_small} t_big={t_big}");
    }

    #[test]
    fn oversized_broadcast_fails_like_524k_atoms() {
        // 600k elements × 10 KiB scheduler state ≈ 6 GB > a 2 GiB-worker
        // budget: the paper's 524k-atom failure mode.
        // 8 workers on a 16 GiB node: worker budget = 2 GiB
        let c = DaskClient::new(
            Cluster::builder()
                .cores_per_node(8)
                .mem_budget(16 * (1 << 30))
                .build(),
        );
        let res = c.broadcast(vec![0u32; 600_000]);
        match res {
            Err(e) => assert!(e.to_string().contains("out of memory")),
            Ok(_) => panic!("broadcast of 600k items should exhaust worker memory"),
        }
    }

    #[test]
    fn memory_pressure_spills_but_results_survive() {
        // 64 KiB node budget, ~8 KiB results that stay resident until the
        // gather: the worker memory manager must spill past the 70%
        // threshold instead of failing, and the gathered values must be
        // exactly what the tasks computed.
        let c = DaskClient::new(Cluster::builder().mem_budget(64 * 1024).build());
        let xs: Vec<Delayed<Vec<u64>>> = (0..10)
            .map(|i| c.delayed(move |_| vec![i as u64; 1024]))
            .collect();
        let (vals, _t) = c.try_gather(&xs).expect("spill, don't fail");
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(v, &vec![i as u64; 1024]);
        }
        let r = c.report();
        assert!(r.bytes_spilled > 0, "spill threshold must have tripped");
        assert_eq!(r.oom_kills, 0);
        assert!(r.mem_high_water.iter().any(|&b| b > 0));
    }

    #[test]
    fn oversized_working_set_fails_typed_not_panicking() {
        // A single result bigger than the terminate threshold of the node
        // budget: nothing can be spilled to make room, so the future holds
        // a typed MemoryExhausted error (never a panic or hang).
        let c = DaskClient::new(Cluster::builder().mem_budget(16 * 1024).build());
        let d = c.delayed(|_| vec![0u64; 64 * 1024]);
        let err = c
            .try_gather(&[d])
            .expect_err("512 KiB cannot fit in 16 KiB");
        assert!(err.to_string().contains("out of memory"), "{err}");
        assert!(matches!(
            err,
            taskframe::EngineError::MemoryExhausted { node: 0, .. }
        ));
        assert!(c.report().oom_kills >= 1);
    }

    #[test]
    fn mem_shrink_fault_pauses_and_spills_mid_run() {
        // A fault plan shrinks node 0's budget to 32 KiB at t=0: resident
        // results cross the shrunken pause threshold and later tasks wait
        // behind the spill, but every value still comes back intact.
        let plan = netsim::FaultPlan::none().shrink_memory(0, 0.0, 32 * 1024);
        let c = DaskClient::new(
            Cluster::builder()
                .mem_budget(1 << 30)
                .fault_plan(plan)
                .build(),
        );
        let xs: Vec<Delayed<Vec<u64>>> = (0..12)
            .map(|i| c.delayed(move |_| vec![i as u64; 1024]))
            .collect();
        let (vals, _t) = c.try_gather(&xs).expect("degrade, don't fail");
        assert_eq!(vals.len(), 12);
        let r = c.report();
        assert!(r.bytes_spilled > 0);
        assert_eq!(r.oom_kills, 0);
    }

    #[test]
    fn report_counts_tasks_and_makespan() {
        let c = client();
        let xs: Vec<Delayed<u32>> = (0..10).map(|i| c.delayed(move |_| i)).collect();
        c.gather(&xs);
        let r = c.report();
        assert_eq!(r.tasks, 10);
        assert!(r.makespan_s >= 0.2, "startup (0.2s) included");
    }

    #[test]
    fn empty_gather() {
        let c = client();
        let (vals, _) = c.gather::<u32>(&[]);
        assert!(vals.is_empty());
    }
}

mod bag_engine {
    //! [`taskframe::BagEngine`] adapter: one delayed function per task
    //! ("tasks were defined as delayed functions executed by the
    //! Distributed scheduler", §4.1).

    use crate::{DaskClient, Delayed};
    use taskframe::{BagEngine, BagTask, EngineError};

    impl BagEngine for DaskClient {
        fn name(&self) -> &'static str {
            "dask"
        }

        fn run_bag(
            &mut self,
            tasks: Vec<BagTask>,
        ) -> Result<(Vec<u64>, netsim::SimReport), EngineError> {
            let ds: Vec<Delayed<u64>> = tasks
                .into_iter()
                .map(|t| self.delayed(move |ctx| t(ctx)))
                .collect();
            let (vals, _t) = self.gather(&ds);
            Ok((vals, self.report()))
        }
    }
}
