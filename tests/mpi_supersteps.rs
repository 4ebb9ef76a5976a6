//! The MPI posture end to end, through `RunConfig`: which error wins when a
//! collective fails and a fault also hits the job, fencing of a partitioned
//! cohort under a multi-attempt policy, and the whole `SimReport` — trace
//! included — at every host thread count.

use mdtask::analysis::DriverCtx;
use mdtask::prelude::*;
use std::sync::Arc;

/// Broadcasts `bytes` of shared input to every rank, then maps 32 unit
/// slices with a declared cost, so a run has a bcast, a compute and a
/// gather step with virtual time between them.
struct Replica {
    bytes: usize,
}

impl ParallelAnalysis for Replica {
    type Shared = Vec<u8>;
    type Slice = u32;
    type Item = u32;
    type Wire = Vec<u32>;
    type Output = (Vec<u32>, SimReport);

    fn shared(&self) -> Arc<Vec<u8>> {
        Arc::new(vec![7; self.bytes])
    }

    fn plan(&self, _engine: Engine, _cluster: &Cluster) -> Result<Plan<Self>, EngineError> {
        Ok(Plan {
            broadcast: true,
            cost_s: Some(|_, s| 0.01 * f64::from(s + 1)),
            ..Plan::new(
                (0..32).collect(),
                Reduce::Gather(|_, shared: &Vec<u8>, s: u32| vec![s + u32::from(shared[0])]),
            )
        })
    }

    fn rank_map(&self, shared: &Vec<u8>, mine: &[u32]) -> Vec<u32> {
        mine.iter().map(|&s| s + u32::from(shared[0])).collect()
    }

    fn finalize(
        &self,
        gathered: Gathered<u32, Vec<u32>>,
        ctx: DriverCtx<'_>,
    ) -> Result<(Vec<u32>, SimReport), EngineError> {
        let mut values = match gathered {
            Gathered::Ranks(wires, _) => wires.concat(),
            Gathered::Items(items) => items,
        };
        values.sort_unstable();
        Ok((values, ctx.finish()))
    }
}

/// Two nodes of eight cores, each node holding `mem` bytes: a 16-rank
/// world's fixed per-rank buffers are `mem / 8`.
fn cluster(mem: u64, plan: FaultPlan) -> Cluster {
    Cluster::builder()
        .nodes(2)
        .cores_per_node(8)
        .mem_budget(mem)
        .fault_plan(plan)
        .build()
}

fn run(mem: u64, plan: FaultPlan, policy: RetryPolicy, threads: Threads) -> RunOutcome {
    RunConfig::new(cluster(mem, plan), Engine::Mpi)
        .mpi_world(16)
        .retry_policy(policy)
        .threads(threads)
        .trace(true)
        .run_analysis(Replica { bytes: 64 * 1024 })
}

type RunOutcome = Result<(Vec<u32>, SimReport), EngineError>;

const ROOMY: u64 = 1 << 30;

/// A 1 MiB replica cannot fit 128 KiB buffers, so the broadcast fails at
/// mpirun start-up (0.5 s). A node death before that instant ends the job
/// first, and the fault walk's `WorkerLost` wins; a death after it leaves
/// the collective's own `MemoryExhausted`.
#[test]
fn a_death_before_the_job_end_outranks_a_failed_broadcast() {
    mdtask::cluster::set_deterministic_timing(true);
    let oversized = |plan| {
        RunConfig::new(cluster(1 << 20, plan), Engine::Mpi)
            .mpi_world(16)
            .run_analysis(Replica { bytes: 1 << 20 })
    };
    match oversized(FaultPlan::none().kill_node(1, 0.2)) {
        Err(EngineError::WorkerLost { node, at_s }) => assert_eq!((node, at_s), (1, 0.2)),
        other => panic!("expected WorkerLost, got {other:?}"),
    }
    for plan in [FaultPlan::none(), FaultPlan::none().kill_node(1, 50.0)] {
        match oversized(plan) {
            Err(EngineError::MemoryExhausted {
                node,
                budget,
                required,
                ..
            }) => {
                assert_eq!((node, budget), (0, 128 * 1024));
                assert!(required >= 1 << 20, "{required}");
            }
            other => panic!("expected MemoryExhausted, got {other:?}"),
        }
    }
}

/// A cut that outlasts the detection delay restarts the world from its
/// last collective; the isolated cohort's progress is fenced, and the
/// answer is the clean run's.
#[test]
fn a_partition_under_a_multi_attempt_policy_is_fenced() {
    mdtask::cluster::set_deterministic_timing(true);
    let policy = || RetryPolicy::new(4).with_detection_delay(0.25);
    let (clean, clean_report) =
        run(ROOMY, FaultPlan::none(), policy(), Threads::Serial).expect("clean run");
    let t_cut = 0.5 * (0.5 + clean_report.makespan_s);
    let plan = FaultPlan::none().partition(vec![vec![1]], t_cut, t_cut + 2.0);
    let (values, report) = run(ROOMY, plan, policy(), Threads::Serial).expect("fenced run");
    assert_eq!(values, clean);
    assert!(report.zombie_attempts > 0, "{report:?}");
    assert!(report.fenced_results > 0, "{report:?}");
    assert!(report.retries > 0);
    assert!(report.makespan_s > clean_report.makespan_s);
}

/// Host threads only carry the ranks' real compute: under deterministic
/// timing the full outcome, trace included, is the same at 1, 2 and 8
/// threads — clean, under a death with barrier restart, under a cut, and
/// when the broadcast fails.
#[test]
fn the_whole_report_is_equal_at_every_host_thread_count() {
    mdtask::cluster::set_deterministic_timing(true);
    let cases = [
        (ROOMY, FaultPlan::none()),
        (ROOMY, FaultPlan::none().kill_node(1, 0.6).slow_core(3, 2.0)),
        (ROOMY, FaultPlan::none().partition(vec![vec![1]], 0.55, 3.0)),
        (256 * 1024, FaultPlan::none().kill_node(1, 40.0)),
    ];
    for (i, (mem, plan)) in cases.into_iter().enumerate() {
        let outcomes: Vec<RunOutcome> = [Threads::Serial, Threads::Fixed(2), Threads::Fixed(8)]
            .into_iter()
            .map(|t| {
                run(
                    mem,
                    plan.clone(),
                    RetryPolicy::new(3).with_detection_delay(0.25),
                    t,
                )
            })
            .collect();
        if let Ok((_, report)) = &outcomes[0] {
            assert!(report.trace.as_ref().is_some_and(|t| !t.is_empty()));
        }
        assert_eq!(outcomes[0], outcomes[1], "case {i}: 1 vs 2 threads");
        assert_eq!(outcomes[1], outcomes[2], "case {i}: 2 vs 8 threads");
    }
}
