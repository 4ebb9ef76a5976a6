//! Partition/split-brain experiment: what a false-positive failure
//! detector costs, per engine, in one artifact.
//!
//! Two legs:
//!
//! 1. **sweep**: partition duration × detector timeout, per engine. A
//!    scripted cut isolates node 1 mid-execution while its tasks keep
//!    running. A detector timeout shorter than the cut false-positively
//!    declares the node dead: work is rescheduled (wasted as
//!    `zombie_time_s`) and the stale results are fenced at heal. A
//!    timeout longer than the cut rides it out: nothing is rescheduled,
//!    the job merely stalls. Every run must still match the fault-free
//!    results bit-for-bit, and fences must conserve zombies.
//! 2. **chaos**: `--plans` seeded partition plans (cuts + link
//!    degradation stacked on deaths/stragglers) run on every engine.
//!    Each run completes with fault-free results and a balanced
//!    zombie/fence ledger or fails typed. Violations are shrunk to a
//!    minimal plan, written to `--violations-dir` for CI to upload, and
//!    fail the binary.
//!
//! Results land in `--out` (default `results/partition.json`). Exits 1
//! on any violated contract, so CI runs it as a gate.
//!
//! ```sh
//! cargo run -p bench --release --bin exp_partition
//! cargo run -p bench --release --bin exp_partition -- --plans 200
//! ```

use bench::report::{json_lines, Cell, Row};
use bench::{death_window, lf_system, write_artifact, write_violations};
use mdtask_core::run::{run_lf, RunConfig};
use mdtask_core::{LfApproach, LfOutput};
use netsim::chaos::{fuzz_with, plan_for_seed, shrink, ChaosConfig, Verdict};
use netsim::{laptop, Cluster, FaultPlan, RetryPolicy, SimReport};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use taskframe::{Engine, EngineError};

const HEARTBEAT_S: f64 = 0.25;
/// Cut durations crossed with detector timeouts in the sweep.
const DURATIONS_S: [f64; 4] = [0.3, 0.75, 1.5, 3.0];
const TIMEOUTS_S: [f64; 4] = [0.25, 0.5, 1.0, 2.0];

fn policy(timeout_s: f64) -> RetryPolicy {
    RetryPolicy::new(4)
        .with_detection_delay(HEARTBEAT_S)
        .with_suspicion(HEARTBEAT_S, timeout_s)
        .with_deadline(10_000.0)
}

fn rc(engine: Engine, plan: FaultPlan, timeout_s: f64) -> RunConfig {
    RunConfig::new(Cluster::new(laptop(), 2).with_faults(plan), engine)
        .approach(LfApproach::Broadcast1D)
        .mpi_world(16)
        .retry_policy(policy(timeout_s))
}

/// Virtual time guaranteed to land among in-flight tasks: the middle of
/// the engine's execution window.
fn cut_time(engine: Engine, clean: &LfOutput) -> f64 {
    match engine {
        // Past the 35 s pilot bootstrap / 0.5 s mpirun startup.
        Engine::Pilot => 0.5 * (35.0 + clean.report.makespan_s),
        Engine::Mpi => 0.5 * (0.5 + clean.report.makespan_s),
        _ => clean
            .report
            .phases
            .iter()
            .find(|p| p.name == "edge-discovery")
            .map(|p| 0.5 * (p.start_s + p.end_s))
            .expect("edge-discovery phase"),
    }
}

fn matches(clean: &LfOutput, got: &LfOutput) -> bool {
    got.leaflet_sizes == clean.leaflet_sizes
        && got.n_components == clean.n_components
        && got.edges_found == clean.edges_found
}

/// One (engine, cut duration, detector timeout) run of the sweep.
struct SweepPoint {
    engine: Engine,
    duration_s: f64,
    timeout_s: f64,
    report: SimReport,
    clean_makespan_s: f64,
}

impl SweepPoint {
    fn false_positive(&self) -> bool {
        self.report.zombie_attempts > 0
    }

    fn row(&self) -> Row {
        let r = &self.report;
        Row(vec![
            ("engine", Cell::Str(format!("{:?}", self.engine))),
            ("duration_s", Cell::Num(self.duration_s)),
            ("timeout_s", Cell::Num(self.timeout_s)),
            ("false_positive", Cell::Bool(self.false_positive())),
            ("zombie_attempts", Cell::Int(r.zombie_attempts as u64)),
            ("zombie_time_s", Cell::Secs(r.zombie_time_s)),
            ("fenced_results", Cell::Int(r.fenced_results as u64)),
            ("reschedules", Cell::Int(r.retries as u64)),
            ("makespan_s", Cell::Secs(r.makespan_s)),
            ("clean_makespan_s", Cell::Secs(self.clean_makespan_s)),
        ])
    }
}

/// The errors a partitioned run may legitimately end in.
fn is_typed(e: &EngineError) -> bool {
    matches!(
        e,
        EngineError::RetriesExhausted { .. }
            | EngineError::DeadlineExceeded { .. }
            | EngineError::WorkerLost { .. }
            | EngineError::NoSurvivingWorkers { .. }
    )
}

fn main() {
    let args = bench::cli::Cli::new()
        .value("--plans", "N", "seeded partition chaos plans (default 100)")
        .value(
            "--out",
            "PATH",
            "output path (default results/partition.json)",
        )
        .value(
            "--violations-dir",
            "PATH",
            "where shrunk violating plans land (default results)",
        )
        .parse();
    let n_plans = args.usize_or("--plans", 100);
    let out_path = args.str_or("--out", "results/partition.json");
    let viol_dir = args.str_or("--violations-dir", "results");
    let mut failed = false;

    // More partitions than one node's 8 cores, so node 1 hosts in-flight
    // tasks for every cut to strand.
    let (positions, cfg) = lf_system(200, 7, 16, false);
    println!(
        "partition experiment: {}x{} duration x timeout sweep x 4 engines + {n_plans} chaos plans",
        DURATIONS_S.len(),
        TIMEOUTS_S.len()
    );

    let mut points: Vec<SweepPoint> = Vec::new();
    for engine in Engine::ALL {
        let clean = run_lf(
            &rc(engine, FaultPlan::none(), TIMEOUTS_S[0]),
            Arc::clone(&positions),
            &cfg,
        )
        .expect("fault-free run");
        let t_cut = cut_time(engine, &clean);
        for &duration in &DURATIONS_S {
            for &timeout in &TIMEOUTS_S {
                let plan = FaultPlan::none().partition(vec![vec![1]], t_cut, t_cut + duration);
                let out = run_lf(&rc(engine, plan, timeout), Arc::clone(&positions), &cfg)
                    .unwrap_or_else(|e| panic!("{engine:?} dur {duration} to {timeout}: {e}"));
                if !matches(&clean, &out) {
                    eprintln!(
                        "FAILED: {engine:?} dur {duration}s timeout {timeout}s \
                         diverged from the fault-free results"
                    );
                    failed = true;
                }
                if out.report.fenced_results != out.report.zombie_attempts {
                    eprintln!(
                        "FAILED: {engine:?} dur {duration}s timeout {timeout}s: \
                         {} zombies but {} fences — stale results not rejected exactly once",
                        out.report.zombie_attempts, out.report.fenced_results
                    );
                    failed = true;
                }
                points.push(SweepPoint {
                    engine,
                    duration_s: duration,
                    timeout_s: timeout,
                    report: out.report,
                    clean_makespan_s: clean.report.makespan_s,
                });
            }
        }
    }
    for p in &points {
        println!(
            "  sweep: {:?} cut {:5.2}s timeout {:5.2}s -> {} zombies, \
             {:7.4}s wasted, {} reschedules{}",
            p.engine,
            p.duration_s,
            p.timeout_s,
            p.report.zombie_attempts,
            p.report.zombie_time_s,
            p.report.retries,
            if p.false_positive() {
                " (false positive)"
            } else {
                " (rode it out)"
            }
        );
    }
    // The trade-off must actually show: per engine, the longest cut under
    // the hairiest trigger false-positives (wasted work > 0) while the
    // shortest cut under the laziest timeout rides it out (nothing
    // rescheduled, nothing fenced).
    for engine in Engine::ALL {
        let at = |d: f64, t: f64| {
            points
                .iter()
                .find(|p| p.engine == engine && p.duration_s == d && p.timeout_s == t)
                .unwrap()
        };
        let hasty = at(DURATIONS_S[3], TIMEOUTS_S[0]);
        if !hasty.false_positive() || hasty.report.zombie_time_s <= 0.0 {
            eprintln!(
                "FAILED: {engine:?}: a {}s cut under a {}s timeout must \
                 false-positive and waste work",
                DURATIONS_S[3], TIMEOUTS_S[0]
            );
            failed = true;
        }
        let patient = at(DURATIONS_S[0], TIMEOUTS_S[3]);
        if patient.false_positive() || patient.report.fenced_results > 0 {
            eprintln!(
                "FAILED: {engine:?}: a {}s cut under a {}s timeout must be \
                 waited out (no zombies, no fences)",
                DURATIONS_S[0], TIMEOUTS_S[3]
            );
            failed = true;
        }
    }

    // Chaos leg: generated cuts + link degradation stacked on the usual
    // deaths/stragglers, on every engine. Zombies and fences are counted
    // over the runs that held, as they were judged (not while shrinking).
    let (mut completed, mut typed, mut violations) = (0, 0, 0);
    let (zombies, fences) = (AtomicUsize::new(0), AtomicUsize::new(0));
    for engine in Engine::ALL {
        let clean = run_lf(
            &rc(engine, FaultPlan::none(), 0.5),
            Arc::clone(&positions),
            &cfg,
        )
        .expect("fault-free run");
        let chaos_cfg = {
            let mut c = ChaosConfig::new(2, 8).with_partitions(2);
            c.death_window_s = death_window(engine);
            // Aim the cuts at the engine's busy window so they land
            // among in-flight tasks.
            let busy_lo = if engine == Engine::Pilot { 34.0 } else { 0.05 };
            c.partition_window_s = (busy_lo, clean.report.makespan_s);
            c.partition_len_s = (0.5, 3.0);
            c
        };
        let shrinking = AtomicBool::new(false);
        let oracle = |out: LfOutput| {
            let r = &out.report;
            if !matches(&clean, &out) {
                return Some("results diverged from the fault-free run".into());
            }
            if r.zombie_attempts > 0 && r.fenced_results == 0 {
                return Some("zombie results were not fenced".into());
            }
            if !r.makespan_s.is_finite() {
                return Some("non-finite makespan".into());
            }
            if !shrinking.load(Ordering::Relaxed) {
                zombies.fetch_add(r.zombie_attempts, Ordering::Relaxed);
                fences.fetch_add(r.fenced_results, Ordering::Relaxed);
            }
            None
        };
        let report = fuzz_with(
            0..n_plans as u64,
            |seed| plan_for_seed(&chaos_cfg, seed),
            |plan| match run_lf(&rc(engine, plan.clone(), 0.5), Arc::clone(&positions), &cfg) {
                Ok(out) => oracle(out).map_or(Verdict::Held, Verdict::Broke),
                Err(e) if is_typed(&e) => Verdict::Typed,
                Err(e) => Verdict::Broke(format!("untyped failure {e:?}")),
            },
            |plan, still_fails| {
                shrinking.store(true, Ordering::Relaxed);
                shrink(plan, still_fails)
            },
        );
        write_violations(&report, engine, &viol_dir, "partition");
        completed += report.completed;
        typed += report.typed;
        violations += report.violations.len();
    }
    failed |= violations > 0;
    let (chaos_zombies, chaos_fences) = (zombies.into_inner(), fences.into_inner());
    println!(
        "  chaos: {completed} completed, {typed} typed failures, {violations} violations, \
         {chaos_zombies} zombies all fenced ({chaos_fences} fences) over {} runs",
        n_plans * 4
    );
    if chaos_zombies == 0 {
        eprintln!(
            "FAILED: no chaos plan produced a zombie — the battery is not exercising fencing"
        );
        failed = true;
    }

    let rows: Vec<Row> = points.iter().map(SweepPoint::row).collect();
    let json = format!(
        "{{\n  \"heartbeat_s\": {HEARTBEAT_S},\n  \
         \"durations_s\": {DURATIONS_S:?},\n  \"timeouts_s\": {TIMEOUTS_S:?},\n  \
         \"sweep\": [\n{}\n  ],\n  \
         \"chaos_plans\": {n_plans},\n  \"chaos_runs\": {},\n  \
         \"chaos_completed\": {completed},\n  \"chaos_typed_failures\": {typed},\n  \
         \"chaos_violations\": {violations},\n  \
         \"chaos_zombie_attempts\": {chaos_zombies},\n  \
         \"chaos_fenced_results\": {chaos_fences}\n}}\n",
        json_lines(&rows),
        n_plans * 4,
    );
    write_artifact(&out_path, &json);
    if failed {
        std::process::exit(1);
    }
}
