//! A Spark-equivalent task-parallel engine.
//!
//! `sparklet` reproduces the architectural features the paper attributes to
//! Spark 2.2 (§3.1, Table 1):
//!
//! * **RDDs with lazy lineage** — transformations (`map`, `filter`,
//!   `flat_map`, `map_partitions`) build closures over their parent and
//!   fuse into a single *stage*; nothing runs until an action.
//! * **Stage-oriented DAG scheduling** — a shuffle (`group_by_key`,
//!   `reduce_by_key`) ends a stage; the next stage starts only after every
//!   task of the previous stage finished (the synchronization barrier Dask
//!   does not have, §3.4).
//! * **Hash-partitioned shuffle** with byte-accurate volume accounting.
//! * **Broadcast variables** using a tree/torrent distribution whose cost
//!   is roughly independent of node count (Fig. 8).
//! * **In-memory caching** (`persist`) — recomputation is skipped for
//!   cached partitions, Spark's headline feature for iterative analytics.
//! * **Python↔JVM serialization tax** on task results and shuffled
//!   records, as the paper's PySpark deployments paid (§4.4.1).
//!
//! Execution is real (task closures genuinely run); time is virtual —
//! measured durations are placed onto a [`netsim::SimExecutor`].

mod context;
mod rdd;
mod shuffle;
mod stream;

pub use context::{Broadcast, SparkContext};
pub use rdd::Rdd;
pub use stream::DEFAULT_MICRO_BATCH;

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{laptop, Cluster};

    fn ctx() -> SparkContext {
        SparkContext::new(Cluster::new(laptop(), 2))
    }

    #[test]
    fn parallelize_collect_roundtrip() {
        let sc = ctx();
        let rdd = sc.parallelize((0..100u32).collect(), 8);
        assert_eq!(rdd.n_partitions(), 8);
        assert_eq!(rdd.collect(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn map_filter_fuse_into_one_stage() {
        let sc = ctx();
        let out = sc
            .parallelize((0..20u32).collect(), 4)
            .map(|x| x * 2)
            .filter(|x| x % 8 == 0)
            .collect();
        assert_eq!(out, vec![0, 8, 16, 24, 32]);
        // One stage: 4 tasks, no shuffle.
        let report = sc.report();
        assert_eq!(report.tasks, 4);
        assert_eq!(report.bytes_shuffled, 0);
    }

    #[test]
    fn flat_map_and_count() {
        let sc = ctx();
        let n = sc
            .parallelize(vec![1u32, 2, 3], 3)
            .flat_map(|x| vec![x; x as usize])
            .count();
        assert_eq!(n, 6);
    }

    #[test]
    fn map_partitions_sees_whole_partition() {
        let sc = ctx();
        let sums = sc
            .parallelize((1..=8u32).collect(), 2)
            .map_partitions(|items| vec![items.iter().sum::<u32>()])
            .collect();
        assert_eq!(sums, vec![10, 26]);
    }

    #[test]
    fn reduce_action() {
        let sc = ctx();
        let total = sc
            .parallelize((1..=10u64).collect(), 4)
            .reduce(|a, b| a + b);
        assert_eq!(total, Some(55));
        let empty = sc.parallelize(Vec::<u64>::new(), 2).reduce(|a, b| a + b);
        assert_eq!(empty, None);
    }

    #[test]
    fn reduce_is_an_order_preserving_logarithmic_tree() {
        // One `(lo, hi, depth)` interval per partition, every fifth
        // partition empty. `f` accepts only adjacent operands in order and
        // counts the combines stacked on a value.
        let is_empty = |p: usize| p % 5 == 3;
        for parts in [1usize, 2, 3, 7, 64, 1035] {
            let filled = (0..parts).filter(|&p| !is_empty(p)).count() as u32;
            let rdd = Rdd::from_partitions(ctx(), parts, move |p, _| {
                if is_empty(p) {
                    return Vec::new();
                }
                let lo = (0..p).filter(|&q| !is_empty(q)).count() as u32;
                vec![(lo, lo + 1, 0u32)]
            });
            let (lo, hi, depth) = rdd
                .reduce(|a, b| {
                    assert_eq!(a.1, b.0, "operands adjacent and in partition order");
                    (a.0, b.1, a.2.max(b.2) + 1)
                })
                .expect("some partition is filled");
            assert_eq!((lo, hi), (0, filled), "{parts} partitions");
            // A left fold reads `filled - 1` here.
            assert_eq!(
                depth,
                filled.next_power_of_two().trailing_zeros(),
                "{parts} partitions"
            );
        }
    }

    #[test]
    fn reduce_of_a_non_commutative_op_equals_the_serial_fold() {
        let words: Vec<String> = (0..50).map(|i| format!("w{i};")).collect();
        for parts in [1, 3, 7, 64] {
            // 64 partitions of 50 words: some are empty.
            let joined = ctx()
                .parallelize(words.clone(), parts)
                .reduce(|a, b| a + &b);
            assert_eq!(joined, Some(words.concat()), "{parts} partitions");
        }
    }

    #[test]
    fn group_by_key_shuffles() {
        let sc = ctx();
        let pairs: Vec<(u32, u32)> = (0..40).map(|i| (i % 4, i)).collect();
        let grouped = sc.parallelize(pairs, 8).group_by_key(4);
        let mut out = grouped.collect();
        out.sort_by_key(|(k, _)| *k);
        assert_eq!(out.len(), 4);
        for (k, vs) in &out {
            assert_eq!(vs.len(), 10);
            assert!(vs.iter().all(|v| v % 4 == *k));
        }
        let report = sc.report();
        assert!(report.bytes_shuffled > 0, "group_by_key must shuffle");
        assert_eq!(report.tasks, 8 + 4, "map stage + reduce stage tasks");
    }

    #[test]
    fn reduce_by_key_combines() {
        let sc = ctx();
        let pairs: Vec<(u32, u64)> = (1..=20).map(|i| (i % 2, i as u64)).collect();
        let mut out = sc
            .parallelize(pairs, 5)
            .reduce_by_key(2, |a, b| a + b)
            .collect();
        out.sort_by_key(|(k, _)| *k);
        assert_eq!(out, vec![(0, 110), (1, 100)]);
    }

    #[test]
    fn stages_barrier_in_virtual_time() {
        // The reduce stage must start after the *last* map task ends.
        let sc = ctx();
        let pairs: Vec<(u32, u32)> = (0..16).map(|i| (i % 2, i)).collect();
        sc.parallelize(pairs, 4).group_by_key(2).collect();
        let report = sc.report();
        // With barrier semantics the makespan is at least two sequential
        // task rounds plus startup.
        assert!(report.makespan_s > 1.0, "startup (1s) should be included");
        assert_eq!(report.tasks, 6);
    }

    #[test]
    fn persist_skips_recompute() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let sc = ctx();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let rdd = sc
            .parallelize((0..12u32).collect(), 3)
            .map(move |x| {
                h.fetch_add(1, Ordering::Relaxed);
                x + 1
            })
            .persist();
        let a = rdd.collect();
        let b = rdd.collect();
        assert_eq!(a, b);
        assert_eq!(
            hits.load(Ordering::Relaxed),
            12,
            "second action served from cache"
        );
    }

    #[test]
    fn unpersisted_lineage_recomputes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let sc = ctx();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let rdd = sc.parallelize((0..12u32).collect(), 3).map(move |x| {
            h.fetch_add(1, Ordering::Relaxed);
            x + 1
        });
        rdd.collect();
        rdd.collect();
        assert_eq!(
            hits.load(Ordering::Relaxed),
            24,
            "lineage recomputed per action"
        );
    }

    #[test]
    fn broadcast_is_shared_and_charged() {
        let sc = ctx();
        let table = sc.broadcast(vec![10u32, 20, 30]).expect("fits in memory");
        let rdd = sc.parallelize(vec![0usize, 1, 2, 1], 2);
        let t = table.clone();
        let out = rdd.map(move |i| t.value()[i]).collect();
        assert_eq!(out, vec![10, 20, 30, 20]);
        let report = sc.report();
        assert!(report.bytes_broadcast > 0);
        assert!(report.phase_duration("broadcast").is_some());
    }

    #[test]
    fn broadcast_larger_than_node_memory_fails() {
        // 1 KiB nodes
        let sc = SparkContext::new(Cluster::builder().nodes(2).mem_budget(1024).build());
        let msg = match sc.broadcast(vec![0u64; 1024]) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("8 KiB broadcast must not fit in 1 KiB nodes"),
        };
        assert!(msg.contains("out of memory"), "{msg}");
    }

    #[test]
    fn more_cores_shrink_virtual_makespan() {
        let run = |cores: usize| {
            let sc = SparkContext::new(Cluster::builder().cores_per_node(cores).build());
            sc.parallelize((0..64u64).collect(), 64)
                .map(|x| {
                    // ~0.2ms of real work per task
                    let mut acc = x;
                    for i in 0..20_000 {
                        acc = acc.wrapping_mul(31).wrapping_add(i);
                    }
                    acc
                })
                .collect();
            sc.report().makespan_s
        };
        let t4 = run(4);
        let t16 = run(16);
        assert!(
            t16 < t4,
            "16 cores should beat 4 in virtual time: t4={t4} t16={t16}"
        );
    }

    #[test]
    fn eviction_under_memory_pressure_recomputes_identically() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        // Nodes barely big enough for one copy of the dataset: caching a
        // second persisted RDD must LRU-evict the first, and re-collecting
        // the first must lineage-recompute bit-identical partitions.
        // 600-byte nodes; each u64 partition ~8*items
        let sc = SparkContext::new(Cluster::builder().mem_budget(600).build());
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let a = sc
            .parallelize((0..64u64).collect(), 4)
            .map(move |x| {
                h.fetch_add(1, Ordering::Relaxed);
                x.wrapping_mul(0x9e3779b97f4a7c15)
            })
            .persist();
        let first = a.collect();
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        // A second persisted RDD of similar size forces eviction of `a`.
        let b = sc.parallelize((0..64u64).collect(), 4).persist();
        b.collect();
        let report = sc.report();
        assert!(report.bytes_evicted > 0, "pressure must evict: {report:?}");
        // Re-collecting `a` recomputes the evicted partitions — same bits.
        let second = a.collect();
        assert_eq!(first, second, "recomputed partitions are bit-identical");
        assert!(hits.load(Ordering::Relaxed) > 64, "recompute really ran");
        let report = sc.report();
        assert!(report.recomputed_partitions > 0);
        assert!(report.mem_high_water.iter().any(|&h| h > 0));
    }

    #[test]
    fn shrunk_memory_budget_spills_broadcast_to_disk() {
        // A fault plan shrinks node memory below the broadcast replica
        // size mid-run: the replica degrades to a disk-backed copy (spill)
        // instead of failing or panicking.
        let plan = netsim::FaultPlan::none().shrink_memory(1, 0.0, 128);
        let sc = SparkContext::new(
            Cluster::builder()
                .nodes(2)
                .mem_budget(4096)
                .fault_plan(plan)
                .build(),
        );
        let table = sc
            .broadcast(vec![7u64; 64])
            .expect("broadcast degrades, not fails");
        let out = sc
            .parallelize(vec![0usize, 1], 2)
            .map(move |i| table.value()[i])
            .collect();
        assert_eq!(out, vec![7, 7]);
        let report = sc.report();
        assert!(report.bytes_spilled > 0, "shrunk node spills: {report:?}");
        assert_eq!(report.oom_kills, 0);
    }

    #[test]
    fn empty_rdd_works() {
        let sc = ctx();
        let rdd = sc.parallelize(Vec::<u32>::new(), 4);
        assert_eq!(rdd.collect(), Vec::<u32>::new());
        assert_eq!(rdd.count(), 0);
    }
}

mod bag_engine {
    //! [`taskframe::BagEngine`] adapter: the Fig. 2/3 throughput harness
    //! runs one RDD with one partition per task, as the paper did ("we
    //! created an RDD with as many partitions as the number of tasks").

    use crate::SparkContext;
    use std::sync::Arc;
    use taskframe::{BagEngine, BagTask, EngineError};

    impl BagEngine for SparkContext {
        fn name(&self) -> &'static str {
            "spark"
        }

        fn run_bag(
            &mut self,
            tasks: Vec<BagTask>,
        ) -> Result<(Vec<u64>, netsim::SimReport), EngineError> {
            if tasks.is_empty() {
                return Ok((Vec::new(), self.report()));
            }
            let n = tasks.len();
            let tasks = Arc::new(tasks);
            let rdd =
                crate::Rdd::from_partitions(self.clone(), n, move |p, ctx| vec![tasks[p](ctx)]);
            let out = rdd.collect();
            Ok((out, self.report()))
        }
    }
}

#[cfg(test)]
mod speculation_tests {
    use super::*;
    use netsim::{laptop, Cluster};

    /// One straggler charging 100 virtual seconds among uniform 1-second
    /// tasks: speculation caps the stage near the healthy duration.
    fn straggler_makespan(speculate: bool) -> f64 {
        let sc = SparkContext::new(Cluster::builder().cores_per_node(8).build());
        if speculate {
            sc.enable_speculation(1.5);
        }
        let rdd = Rdd::from_partitions(sc.clone(), 8, |p, ctx: &taskframe::TaskCtx| {
            ctx.charge(if p == 3 { 100.0 } else { 1.0 });
            vec![p as u32]
        });
        rdd.collect();
        sc.report().makespan_s
    }

    #[test]
    fn speculation_caps_stragglers() {
        let without = straggler_makespan(false);
        let with = straggler_makespan(true);
        assert!(without > 100.0, "straggler dominates: {without}");
        assert!(with < 5.0, "speculation recovers the stage: {with}");
    }

    #[test]
    fn speculation_keeps_results_identical() {
        let sc = SparkContext::new(Cluster::new(laptop(), 1));
        sc.enable_speculation(2.0);
        let out = sc
            .parallelize((0..32u32).collect(), 8)
            .map(|x| x * 3)
            .collect();
        assert_eq!(out, (0..32).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn speculation_threshold_must_exceed_one() {
        let sc = SparkContext::new(Cluster::new(laptop(), 1));
        sc.enable_speculation(0.9);
    }
}
