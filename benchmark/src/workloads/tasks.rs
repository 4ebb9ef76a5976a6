//! `tasks_zero` and `tasks_traced` — the paper's zero-workload task
//! throughput experiment (Figs. 2–3), untraced and with every
//! observability feature on. Both place the same task sets.

use super::{Spec, Workload};
use crate::harness::{layer_of, run_span, Ctx};
use crate::spans::SpanStats;
use dasklet::DaskClient;
use linalg::{Frame, Vec3};
use mdsim::Trajectory;
use mdtask_core::{AnalysisFromFunction, AtomSelection, RunConfig};
use netsim::{
    wrangler, Cluster, CriticalPath, FaultPlan, Metrics, RetryPolicy, SimExecutor, SimReport,
};
use pilot::Session;
use sparklet::SparkContext;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use taskframe::{BagEngine, BagTask, Engine, EngineError, TaskCtx};

pub const ZERO: Spec = Spec {
    name: "tasks_zero",
    why: "zero-workload tasks (paper Figs. 2-3), untraced and fault-free: kernels do nothing, so \
          engine scheduling and netsim placement are the whole cost",
    build: |seed, _| Box::new(Tasks::new(seed, false)),
};

pub const TRACED: Spec = Spec {
    name: "tasks_traced",
    why: "the same task sets with tracing on, the bare executor under a fault plan, then trace, \
          metrics and critical-path export: what observability costs beside plain placement",
    build: |seed, _| Box::new(Tasks::new(seed, true)),
};

const BAG_TASKS: usize = 16_384;
/// Each pilot unit stages a file; on a disk-backed checkout creating it
/// costs more than everything the pilot itself does for the unit, so the
/// pilot bag is kept to what shows its scheduling loop at all.
const PILOT_TASKS: usize = 32;
const PILOT_NODES: usize = 4;
const MPI_FRAMES: usize = 4_096;
const MPI_WORLD: usize = 64;
/// Saturated placements through the indexed (tournament-tree) core pick.
const EXEC_TASKS: usize = 120_000;
/// Placements under a retry policy with a suspicion detector. Under a
/// scripted partition each of these scans every core and asks the plan
/// when the core's node is reachable, so there are fewer of them.
const POLICIED_TASKS: usize = 8_000;
const EXEC_NODES: usize = 128;
const EXEC_CORES_PER_NODE: usize = 32;
/// The reachability probe asks `can_reach` and `earliest_reach` of every
/// node at this many instants across the partition's lifetime.
const REACH_INSTANTS: usize = 250;

struct Tasks {
    traced: bool,
    seed: u64,
    /// One atom per frame, at x = frame index: the MPI scenario's
    /// per-frame function reads its answer out of the data.
    frames: Arc<Trajectory>,
    /// Tracing run only: a node death and two stragglers for the indexed
    /// leg, the same plus a partition for the policied leg.
    exec_plan: FaultPlan,
    partition_plan: FaultPlan,
    /// Bytes of Chrome trace exported per iteration (traced only).
    chrome_bytes: usize,
}

/// The paper's `/bin/hostname`: a task that does nothing.
fn zero_tasks(n: usize) -> Vec<BagTask> {
    (0..n)
        .map(|i| Box::new(move |_: &TaskCtx| i as u64) as BagTask)
        .collect()
}

/// Per-task virtual duration in (0.5, 1.5] s, varied with the seed so
/// placements spread unevenly and the core pick is never degenerate.
fn dur(seed: u64, i: usize) -> f64 {
    let h = (i as u64 ^ seed.rotate_left(17)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
    0.5 + (h % 1000 + 1) as f64 * 1e-3
}

impl Tasks {
    fn new(seed: u64, traced: bool) -> Self {
        let frames = (0..MPI_FRAMES)
            .map(|i| Frame::new(vec![Vec3::new(i as f32, 0.0, 0.0)]))
            .collect();
        // One node death and two stragglers inside the indexed leg's ~45
        // virtual seconds, plus one partition inside the policied leg's ~5;
        // which node and cores depends on the seed.
        let pick = |k: u64, n: usize| 1 + ((seed.wrapping_mul(31) + k * 7919) as usize % (n - 1));
        let faults = |death_s: f64| {
            FaultPlan::none()
                .kill_node(pick(1, EXEC_NODES), death_s)
                .slow_core(pick(2, EXEC_NODES * EXEC_CORES_PER_NODE), 3.0)
                .slow_core(pick(3, EXEC_NODES * EXEC_CORES_PER_NODE), 6.0)
        };
        let exec_plan = faults(20.0);
        let partition_plan = faults(2.0).partition(vec![vec![pick(4, EXEC_NODES)]], 1.0, 3.0);
        Tasks {
            traced,
            seed,
            frames: Arc::new(Trajectory { frames }),
            exec_plan,
            partition_plan,
            chrome_bytes: 0,
        }
    }

    fn exec_cluster(&self, plan: FaultPlan) -> Cluster {
        Cluster::builder()
            .nodes(EXEC_NODES)
            .cores_per_node(EXEC_CORES_PER_NODE)
            .fault_plan(plan)
            .build()
    }

    /// Saturated placements straight into a `SimExecutor`: every task
    /// released at t = 0, so each pick searches the busy core timeline.
    fn drive_executor(&self, plan: FaultPlan, traced: bool) -> SimReport {
        let mut exec = SimExecutor::new(self.exec_cluster(plan));
        if traced {
            exec.enable_trace();
        }
        for i in 0..EXEC_TASKS {
            exec.run_task(0.0, dur(self.seed, i));
        }
        exec.into_report()
    }

    /// The same under a retry policy whose suspicion detector makes the
    /// executor consult `earliest_reach` for every core on every pick
    /// once the plan scripts a partition.
    fn drive_policied(&self, plan: FaultPlan, traced: bool) -> SimReport {
        let mut exec = SimExecutor::new(self.exec_cluster(plan));
        if traced {
            exec.enable_trace();
        }
        let policy = RetryPolicy::new(4)
            .with_detection_delay(0.25)
            .with_suspicion(0.25, 0.5);
        for i in 0..POLICIED_TASKS {
            exec.run_task_policied(0.0, dur(self.seed, i), &policy)
                .expect("one death and one healed cut leave cores to retry on");
        }
        exec.into_report()
    }

    /// What a user does with a traced report: export the trace and the
    /// metrics summary, and ask where the time went.
    fn export(&mut self, ctx: &mut Ctx, report: &SimReport, cores: usize) {
        // (The MPI engine records its small trace whether asked to or not.)
        let Some(trace) = report.trace.as_ref().filter(|_| self.traced) else {
            return;
        };
        let json = ctx.span("netsim.chrome_export", |_| trace.to_chrome_json());
        self.chrome_bytes += json.len();
        ctx.span("netsim.metrics_export", |_| {
            black_box(Metrics::from_report(report, cores).to_json());
        });
        ctx.span("netsim.critical_path", |_| {
            black_box(CriticalPath::from_trace(trace).total_s());
        });
    }

    /// A bag of `n` no-op tasks on an engine built over `cluster`.
    fn bag<E: BagEngine>(
        &mut self,
        ctx: &mut Ctx,
        engine: Engine,
        scenario: &'static str,
        n: usize,
        cluster: Cluster,
        make: impl FnOnce(Cluster) -> Result<E, EngineError>,
    ) {
        let cores = cluster.total_cores();
        ctx.op(scenario, |ctx| {
            let out = ctx.span(run_span(engine), |_| make(cluster)?.run_bag(zero_tasks(n)));
            match out {
                Ok((values, report)) => {
                    ctx.check(
                        "bag results out of order",
                        values.iter().enumerate().all(|(i, &v)| v == i as u64),
                    );
                    self.export(ctx, &report, cores);
                    ctx.report(Some(engine), scenario, report);
                }
                Err(e) => ctx.check(&format!("{scenario}: {e}"), false),
            }
        });
    }
}

impl Workload for Tasks {
    fn units(&self) -> u64 {
        (2 * BAG_TASKS + PILOT_TASKS + MPI_FRAMES + EXEC_TASKS + POLICIED_TASKS) as u64
    }

    fn iterate(&mut self, ctx: &mut Ctx) {
        let traced = self.traced;
        self.chrome_bytes = 0;
        let node = || Cluster::new(wrangler(), 1);
        self.bag(
            ctx,
            Engine::Spark,
            "tasks.bag_spark",
            BAG_TASKS,
            node(),
            |c| {
                let sc = SparkContext::new(c);
                if traced {
                    sc.enable_trace();
                }
                Ok(sc)
            },
        );
        self.bag(
            ctx,
            Engine::Dask,
            "tasks.bag_dask",
            BAG_TASKS,
            node(),
            |c| {
                let client = DaskClient::new(c);
                if traced {
                    client.enable_trace();
                }
                Ok(client)
            },
        );
        let pilot_nodes = Cluster::new(wrangler(), PILOT_NODES);
        self.bag(
            ctx,
            Engine::Pilot,
            "tasks.bag_pilot",
            PILOT_TASKS,
            pilot_nodes,
            |c| {
                let session = Session::new(c)?;
                if traced {
                    session.enable_trace();
                }
                Ok(session)
            },
        );

        ctx.op("tasks.frames_mpi", |ctx| {
            let rc = RunConfig::new(Cluster::with_cores(wrangler(), MPI_WORLD), Engine::Mpi)
                .mpi_world(MPI_WORLD)
                .trace(traced);
            let analysis = AnalysisFromFunction::new(
                "frame-index",
                Arc::clone(&self.frames),
                AtomSelection::All,
                MPI_FRAMES,
                |frame: &Frame, _: &AtomSelection| frame.positions()[0].x as u64,
            );
            match ctx.span(run_span(Engine::Mpi), |_| rc.run_analysis(analysis)) {
                Ok(series) => {
                    ctx.check(
                        "frame series out of order",
                        series
                            .values
                            .iter()
                            .enumerate()
                            .all(|(i, &v)| v == i as u64),
                    );
                    self.export(ctx, &series.report, MPI_WORLD);
                    // The MPI report counts ranks; this scenario's tasks
                    // are its per-frame slices.
                    ctx.add(
                        "mpilike.sim_tasks",
                        (MPI_FRAMES - series.report.tasks) as f64,
                    );
                    ctx.add("model.sim_tasks", (MPI_FRAMES - series.report.tasks) as f64);
                    ctx.report(Some(Engine::Mpi), "tasks.frames_mpi", series.report);
                }
                Err(e) => ctx.check(&format!("tasks.frames_mpi: {e}"), false),
            }
        });

        let plan = |p: &FaultPlan| if traced { p.clone() } else { FaultPlan::none() };
        ctx.op("tasks.executor", |ctx| {
            let plan = plan(&self.exec_plan);
            let report = ctx.span("netsim.executor", |_| self.drive_executor(plan, traced));
            ctx.check("executor lost tasks", report.tasks == EXEC_TASKS);
            self.export(ctx, &report, EXEC_NODES * EXEC_CORES_PER_NODE);
            ctx.report(None, "tasks.executor", report);
        });
        ctx.op("tasks.executor_policied", |ctx| {
            let plan = plan(&self.partition_plan);
            let report = ctx.span("netsim.executor", |_| self.drive_policied(plan, traced));
            ctx.check("executor lost tasks", report.tasks == POLICIED_TASKS);
            self.export(ctx, &report, EXEC_NODES * EXEC_CORES_PER_NODE);
            ctx.report(None, "tasks.executor_policied", report);
        });
    }

    fn probe(&mut self, ctx: &mut Ctx) {
        if !self.traced {
            return;
        }
        // The same faulty placements without the recorder: the difference
        // to the traced leg is what recording costs.
        ctx.span("netsim.executor_untraced", |_| {
            black_box(self.drive_executor(self.exec_plan.clone(), false));
            black_box(self.drive_policied(self.partition_plan.clone(), false));
        });
        let plan = &self.partition_plan;
        ctx.span("netsim.faultplan_json_roundtrip", |_| {
            for _ in 0..1000 {
                let back = FaultPlan::from_json(&plan.to_json()).expect("own JSON parses");
                assert_eq!(&back, plan);
            }
        });
        ctx.span("netsim.reach_queries", |_| {
            let mut reachable = 0usize;
            for step in 0..REACH_INSTANTS {
                let at = black_box(step as f64 * 0.02);
                for node in 0..EXEC_NODES {
                    reachable += plan.can_reach(0, node, at) as usize;
                    black_box(plan.earliest_reach(0, node, at));
                }
            }
            black_box(reachable);
        });
    }

    fn derive(&self, s: &SpanStats, m: &mut BTreeMap<String, f64>) {
        // Nothing is computed in a zero-workload task: the whole run is
        // engine, netsim and driver.
        for engine in Engine::ALL {
            m.insert(
                format!("{}.residual_s", layer_of(engine)),
                s.total_s(run_span(engine)),
            );
        }
        let exec = (EXEC_TASKS + POLICIED_TASKS) as f64 / s.total_s("netsim.executor");
        if !self.traced {
            m.insert("netsim.exec_tasks_per_s".into(), exec);
            return;
        }
        m.insert("netsim.exec_faulty_tasks_per_s".into(), exec);
        m.insert(
            "netsim.trace_record_overhead_ratio".into(),
            s.total_s("netsim.executor") / s.total_s("netsim.executor_untraced"),
        );
        m.insert(
            "netsim.chrome_export_mb_per_s".into(),
            self.chrome_bytes as f64 / 1e6 / s.total_s("netsim.chrome_export"),
        );
        m.insert(
            "netsim.metrics_export_s".into(),
            s.total_s("netsim.metrics_export"),
        );
        m.insert(
            "netsim.critical_path_s".into(),
            s.total_s("netsim.critical_path"),
        );
        m.insert(
            "netsim.faultplan_json_roundtrip_s".into(),
            s.total_s("netsim.faultplan_json_roundtrip") / 1000.0,
        );
        m.insert(
            "netsim.reach_queries_per_s".into(),
            (2 * REACH_INSTANTS * EXEC_NODES) as f64 / s.total_s("netsim.reach_queries"),
        );
    }
}
