//! Recovery-overhead sweep (PR-3): node-death time vs recovery cost for
//! every engine, with and without checkpointing.
//!
//! A fixed Leaflet Finder job runs fault-free once per engine to measure
//! its clean execution window (first recorded phase start → makespan, so
//! the sweep skips the engine's startup floor — 1 s for Spark, 35 s for
//! RP — where a death costs nothing), then re-runs with node 1 killed at
//! a sweep of fractions of that window. Each point records the makespan
//! inflation,
//! the `"recovery"` phase time, and the engine's recovery-cost counters
//! (`retries`, `recomputed_partitions`, `lost_time_s`). Two engines have a
//! checkpointing axis:
//!
//! * **Spark** — a two-shuffle RDD pipeline with and without
//!   `checkpoint()` on the intermediate RDD (lineage truncation);
//! * **MPI** — `run_lf` with `.checkpoint_restart(true)` restarting from
//!   the last collective barrier vs from scratch.
//!
//! Times are virtual; closures are re-measured each run, so cross-run
//! makespan deltas carry µs-scale measurement jitter (negligible against
//! detection delays and re-executed work, which dominate overheads).
//!
//! ```sh
//! cargo run -p bench --release --bin exp_recovery
//! cargo run -p bench --release --bin exp_recovery -- --out results/recovery.json
//! ```

use bench::report::{series_json, Cell, Point, Row, Series};
use bench::{lf_system, secs, write_artifact};
use mdtask_core::leaflet::{LfApproach, LfConfig};
use mdtask_core::run::{run_lf, RunConfig};
use netsim::{laptop, Cluster, FaultPlan, RetryPolicy, SimReport};
use sparklet::SparkContext;
use std::sync::Arc;
use taskframe::Engine;

const DEATH_FRACS: [f64; 5] = [0.15, 0.35, 0.55, 0.75, 0.95];
const MPI_WORLD: usize = 16;
/// The printed table: two axis columns, then the outcome's.
const COLUMNS: [(&str, usize); 8] = [
    ("frac", 6),
    ("t_kill", 10),
    ("makespan", 10),
    ("overhead", 10),
    ("recovery", 10),
    ("try", 4),
    ("recomp", 7),
    ("lost", 10),
];

/// The window worth killing in: from the first recorded phase (i.e. after
/// the engine's startup floor) to the end of the job.
fn execution_window(clean: &SimReport) -> (f64, f64) {
    let start = clean
        .phases
        .iter()
        .map(|p| p.start_s)
        .fold(f64::INFINITY, f64::min);
    let start = if start.is_finite() { start } else { 0.0 };
    (start, clean.makespan_s)
}

/// The envelope of all `"shuffle"` phases: where map outputs are at risk
/// and a checkpoint can truncate lineage recompute.
fn shuffle_window(clean: &SimReport) -> (f64, f64) {
    let (mut start, mut end) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in clean.phases.iter().filter(|p| p.name == "shuffle") {
        start = start.min(p.start_s);
        end = end.max(p.end_s);
    }
    if start.is_finite() {
        (start, end)
    } else {
        execution_window(clean)
    }
}

/// Sweep one engine: `run(plan)` returns the report of a faulty run.
/// Node 1 dies at `DEATH_FRACS` fractions of `window`. Sweep points are
/// independent, so they fan out across host threads (`--threads`).
fn sweep(
    engine: &str,
    variant: &str,
    clean: &SimReport,
    (win_start, win_end): (f64, f64),
    run: impl Fn(FaultPlan) -> Result<SimReport, String> + Sync,
) -> Series {
    let points = netsim::parallel::run_indexed(DEATH_FRACS.len(), |i| {
        let t_kill = win_start + DEATH_FRACS[i] * (win_end - win_start);
        let outcome = run(FaultPlan::none().kill_node(1, t_kill)).map(|rep| {
            Row(vec![
                ("makespan_s", Cell::Secs(rep.makespan_s)),
                ("overhead_s", Cell::Secs(rep.makespan_s - clean.makespan_s)),
                (
                    "recovery_s",
                    Cell::Secs(rep.phase_total("recovery").unwrap_or(0.0)),
                ),
                ("retries", Cell::Int(rep.retries as u64)),
                (
                    "recomputed_partitions",
                    Cell::Int(rep.recomputed_partitions as u64),
                ),
                ("lost_time_s", Cell::Secs(rep.lost_time_s)),
            ])
        });
        Point {
            axis: Row(vec![
                ("death_frac", Cell::Fixed(DEATH_FRACS[i], 2)),
                ("t_kill_s", Cell::Secs(t_kill)),
            ]),
            outcome,
        }
    });
    Series {
        title: format!("{engine} / {variant} (clean {} s)", secs(clean.makespan_s)),
        header: Row(vec![
            ("engine", Cell::Str(engine.into())),
            ("variant", Cell::Str(variant.into())),
            ("clean_makespan_s", Cell::Secs(clean.makespan_s)),
        ]),
        points,
    }
}

/// One engine's recovery series. MPI gets a checkpointing axis
/// (`from_barrier`), which the task engines ignore.
fn engine_series(
    engine: Engine,
    positions: &Arc<Vec<linalg::Vec3>>,
    cfg: &LfConfig,
    from_barrier: bool,
) -> Series {
    let run = |plan: FaultPlan| {
        let mut rc = RunConfig::new(Cluster::new(laptop(), 2).with_faults(plan), engine)
            .approach(LfApproach::Broadcast1D)
            .mpi_world(MPI_WORLD)
            .checkpoint_restart(from_barrier);
        if engine == Engine::Mpi {
            rc = rc.retry_policy(RetryPolicy::new(5).with_detection_delay(0.25));
        }
        run_lf(&rc, Arc::clone(positions), cfg)
            .map(|o| o.report)
            .map_err(|e| format!("{e:?}"))
    };
    let clean = run(FaultPlan::none()).expect("fault-free");
    let variant = match engine {
        Engine::Spark => "lineage",
        Engine::Dask => "reschedule",
        Engine::Pilot => "re-enqueue",
        Engine::Mpi if from_barrier => "barrier-checkpoint",
        Engine::Mpi => "from-scratch",
    };
    // The pilot's phase bookkeeping sits at the tail of the run; the
    // at-risk window is the whole span after the 35 s bootstrap.
    let window = if engine == Engine::Pilot {
        (taskframe::pilot_profile().startup_s, clean.makespan_s)
    } else {
        execution_window(&clean)
    };
    sweep(engine.label(), variant, &clean, window, run)
}

/// The checkpoint axis for Spark: two chained shuffles over bulky records,
/// optionally checkpointing the intermediate RDD (same pipeline the
/// recovery-policy tests pin).
fn spark_checkpoint_series(checkpointed: bool) -> Series {
    let data: Vec<(u32, Vec<u32>)> = (0..64).map(|i| (i % 16, vec![i; 4096])).collect();
    let run = |plan: FaultPlan| {
        let sc = SparkContext::new(Cluster::new(laptop(), 2).with_faults(plan));
        let mid = sc
            .parallelize(data.clone(), 16)
            .group_by_key(16)
            .map(|(k, vs)| (k % 4, vs));
        let mid = if checkpointed { mid.checkpoint() } else { mid };
        mid.group_by_key(4)
            .try_collect()
            .map(|_| sc.report())
            .map_err(|e| format!("{e:?}"))
    };
    let clean = run(FaultPlan::none()).expect("fault-free");
    let variant = if checkpointed {
        "two-shuffle checkpointed"
    } else {
        "two-shuffle lineage"
    };
    // Kill inside the shuffle-fetch envelope, where map outputs are lost
    // and the checkpoint axis actually bites.
    let window = shuffle_window(&clean);
    sweep("spark-rdd", variant, &clean, window, run)
}

fn main() {
    let args = bench::cli::Cli::new()
        .value(
            "--out",
            "PATH",
            "output path (default results/recovery.json)",
        )
        .parse();
    let out_path = args.str_or("--out", "results/recovery.json");

    println!(
        "Recovery sweep: node 1 killed at {DEATH_FRACS:?} of each engine's \
         clean execution window (LF Broadcast1D, 1000 atoms, 2 laptop nodes)"
    );
    let (positions, cfg) = lf_system(1000, 17, 32, true);
    let mut series = Vec::new();
    for engine in args.engines() {
        series.push(engine_series(engine, &positions, &cfg, true));
        if engine == Engine::Mpi {
            // MPI's checkpointing axis: restart from scratch as well.
            series.push(engine_series(engine, &positions, &cfg, false));
        }
    }
    if args.engine.is_none() || args.engine == Some(Engine::Spark) {
        series.push(spark_checkpoint_series(false));
        series.push(spark_checkpoint_series(true));
    }
    for s in &series {
        print!("{}", s.table(&COLUMNS));
    }
    write_artifact(&out_path, &series_json("recovery-overhead sweep", &series));
}
