//! Streaming/in-situ experiment: the latency-vs-throughput frontier of
//! the four engine postures plus a stream-chaos gate, in one artifact.
//!
//! Three legs:
//!
//! 1. **frontier**: the Leaflet-Finder per-frame kernel streamed at
//!    increasing arrival rates (shrinking frame intervals). Per
//!    (engine, rate): achieved throughput (frames per virtual second up
//!    to the last window close) against mean and worst window staleness
//!    (close time minus window end — how far behind the live edge the
//!    emitted result runs). Dispatch overhead separates the postures:
//!    per-frame tasking saturates first, micro-batching and ring
//!    collectives amortize, the continuous pilot unit pays nothing per
//!    frame but closes whole windows at once.
//! 2. **chaos**: `--plans` seeded stream-fault plans (producer
//!    stalls/crashes, drops, delays, duplicates, node deaths, memory
//!    shrinks) run on every engine. Each run must either complete with
//!    the stream oracles intact (no silent loss, watermark monotone,
//!    bounded staleness) or fail with a typed error. Any violation is
//!    shrunk to a minimal plan, written to `--violations-dir` for CI to
//!    upload, and fails the binary.
//! 3. **threads**: one fault-heavy plan at 1/2/8 host threads; the
//!    three `SimReport`s must be bit-identical.
//!
//! Results land in `--out` (default `results/stream.json`). Exits 1 on
//! any violated contract, so CI runs it as a gate.
//!
//! ```sh
//! cargo run -p bench --release --bin exp_stream
//! cargo run -p bench --release --bin exp_stream -- --plans 200
//! ```

use bench::report::{json_lines, Cell, Row};
use bench::{write_artifact, write_violations};
use mdtask_core::run::{run_lf_stream, RunConfig};
use mdtask_core::LfConfig;
use netsim::chaos::{fuzz_with, plan_for_seed, shrink, ChaosConfig, Verdict};
use netsim::stream::{check_stream_invariants, DispatchMode, StreamJob, StreamRun, WindowSpec};
use netsim::{laptop, Cluster, FaultPlan, RetryPolicy};
use std::sync::Arc;
use taskframe::{Engine, EngineError};

/// Frames in the chaos and thread legs (0.25s cadence).
const FRAMES: usize = 96;
/// Event-time span of every frontier run: frame count scales with the
/// offered rate so each run streams the same virtual duration.
const SPAN_S: f64 = 24.0;
/// Event-time window layout, fixed across the sweep (2s tumbling,
/// 0.25s allowed lateness) so staleness is comparable between rates.
const WINDOW_S: f64 = 2.0;
const LATENESS_S: f64 = 0.25;

fn trajectory() -> Arc<mdsim::Trajectory> {
    let spec = mdsim::ChainSpec {
        n_atoms: 30,
        n_frames: 96,
        stride: 1,
        ..mdsim::ChainSpec::default()
    };
    Arc::new(mdsim::chain::generate_ensemble(&spec, 1, 11).remove(0))
}

fn lf_cfg() -> LfConfig {
    LfConfig {
        cutoff: 8.0,
        partitions: 4,
        paper_atoms: 30,
        charge_io: false,
    }
}

fn rc(engine: Engine, plan: FaultPlan) -> RunConfig {
    let mut cfg = RunConfig::new(Cluster::new(laptop(), 2).with_faults(plan), engine)
        .streaming(WINDOW_S, WINDOW_S, LATENESS_S)
        .stream_costs(0.05, 1 << 20)
        .retry_policy(
            RetryPolicy::new(4)
                .with_detection_delay(0.25)
                .with_deadline(10_000.0),
        );
    if engine == Engine::Mpi {
        cfg = cfg.mpi_world(8);
    }
    cfg
}

fn source(n_frames: usize, interval_s: f64, plan: FaultPlan) -> mdio::StreamSource {
    mdio::StreamSource::new(n_frames, interval_s)
        .with_latency(0.02)
        .with_jitter(0.05)
        .with_faults(plan)
}

fn run_one(
    engine: Engine,
    n_frames: usize,
    interval_s: f64,
    plan: FaultPlan,
) -> Result<StreamRun, EngineError> {
    run_lf_stream(
        &rc(engine, plan.clone()),
        trajectory(),
        &lf_cfg(),
        &source(n_frames, interval_s, plan),
    )
}

fn mode_for(engine: Engine) -> DispatchMode {
    match engine {
        Engine::Spark => DispatchMode::MicroBatch(4),
        Engine::Dask => DispatchMode::PerFrame,
        Engine::Pilot => DispatchMode::UnitPerWindow,
        Engine::Mpi => DispatchMode::RingCollective(4),
    }
}

fn oracle_message(
    engine: Engine,
    n_frames: usize,
    interval_s: f64,
    plan: &FaultPlan,
    run: &StreamRun,
) -> Option<String> {
    let spec = StreamJob::new(WindowSpec::sliding(WINDOW_S, WINDOW_S, LATENESS_S))
        .frame_cost(0.05)
        .spec(mode_for(engine), 0.0);
    let log = source(n_frames, interval_s, plan.clone()).schedule();
    // Slack covers dispatch overheads, buffering, compute backlog at
    // saturation, and death-detection delays.
    check_stream_invariants(&log, &spec, &run.output, 600.0)
}

struct FrontierPoint {
    engine: Engine,
    interval_s: f64,
    offered_fps: f64,
    achieved_fps: f64,
    staleness_mean_s: f64,
    staleness_max_s: f64,
    backpressure_pauses: usize,
}

impl FrontierPoint {
    fn row(&self) -> Row {
        Row(vec![
            ("engine", Cell::Str(format!("{:?}", self.engine))),
            ("interval_s", Cell::Num(self.interval_s)),
            ("offered_fps", Cell::Fixed(self.offered_fps, 4)),
            ("achieved_fps", Cell::Fixed(self.achieved_fps, 4)),
            ("staleness_mean_s", Cell::Secs(self.staleness_mean_s)),
            ("staleness_max_s", Cell::Secs(self.staleness_max_s)),
            (
                "backpressure_pauses",
                Cell::Int(self.backpressure_pauses as u64),
            ),
        ])
    }
}

/// The errors a faulty stream may legitimately end in.
fn is_typed(e: &EngineError) -> bool {
    matches!(
        e,
        EngineError::StreamStalled { .. }
            | EngineError::DeadlineExceeded { .. }
            | EngineError::MemoryExhausted { .. }
            | EngineError::OutOfMemory { .. }
            | EngineError::WorkerLost { .. }
            | EngineError::NoSurvivingWorkers { .. }
            | EngineError::RetriesExhausted { .. }
    )
}

fn frontier_leg() -> Vec<FrontierPoint> {
    let mut points = Vec::new();
    for engine in Engine::ALL {
        for &interval in &[0.8, 0.2, 0.05, 0.0125, 0.0025] {
            let frames = (SPAN_S / interval).round() as usize;
            let r = run_one(engine, frames, interval, FaultPlan::none())
                .unwrap_or_else(|e| panic!("{engine:?}@{interval}: clean stream failed: {e}"));
            let last_close = r
                .output
                .windows
                .iter()
                .map(|w| w.close_s)
                .fold(0.0f64, f64::max);
            let stale: Vec<f64> = r
                .output
                .windows
                .iter()
                .map(|w| (w.close_s - w.end_s).max(0.0))
                .collect();
            points.push(FrontierPoint {
                engine,
                interval_s: interval,
                offered_fps: frames as f64 / SPAN_S,
                achieved_fps: r.output.frames_accepted as f64 / last_close.max(1e-9),
                staleness_mean_s: stale.iter().sum::<f64>() / stale.len().max(1) as f64,
                staleness_max_s: stale.iter().copied().fold(0.0, f64::max),
                backpressure_pauses: r.output.backpressure_pauses,
            });
        }
    }
    points
}

fn main() {
    let args = bench::cli::Cli::new()
        .value("--plans", "N", "seeded chaos plans (default 100)")
        .value("--out", "PATH", "output path (default results/stream.json)")
        .value(
            "--violations-dir",
            "PATH",
            "where shrunk violating plans land (default results)",
        )
        .parse();
    let n_plans = args.usize_or("--plans", 100);
    let out_path = args.str_or("--out", "results/stream.json");
    let viol_dir = args.str_or("--violations-dir", "results");
    let mut failed = false;

    println!("stream experiment: frontier sweep + {n_plans} chaos plans x 4 engines");
    let points = frontier_leg();
    for p in &points {
        println!(
            "  frontier: {:?} offered {:7.2} f/s achieved {:7.2} f/s \
             staleness mean {:6.3}s max {:6.3}s",
            p.engine, p.offered_fps, p.achieved_fps, p.staleness_mean_s, p.staleness_max_s
        );
    }
    // The frontier must actually bend: for every engine the worst
    // staleness at the highest offered rate exceeds the lowest rate's.
    for engine in Engine::ALL {
        let of: Vec<&FrontierPoint> = points.iter().filter(|p| p.engine == engine).collect();
        let (first, last) = (of.first().unwrap(), of.last().unwrap());
        if last.staleness_max_s <= first.staleness_max_s {
            eprintln!(
                "FAILED: {engine:?} frontier never bent \
                 ({:.3}s at {:.1} f/s vs {:.3}s at {:.1} f/s)",
                first.staleness_max_s, first.offered_fps, last.staleness_max_s, last.offered_fps
            );
            failed = true;
        }
    }

    let mut chaos_cfg = ChaosConfig::new(2, 8).with_stream(FRAMES);
    chaos_cfg.death_window_s = (0.0, 20.0);
    chaos_cfg.mem_shrink_window_s = (0.0, 20.0);
    chaos_cfg.mem_per_node = 16 << 30;
    let chaos_interval = 0.25;
    let (mut completed, mut typed, mut violations) = (0, 0, 0);
    for engine in Engine::ALL {
        let report = fuzz_with(
            0..n_plans as u64,
            |seed| plan_for_seed(&chaos_cfg, seed),
            |plan| match run_one(engine, FRAMES, chaos_interval, plan.clone()) {
                Ok(r) => oracle_message(engine, FRAMES, chaos_interval, plan, &r)
                    .map_or(Verdict::Held, Verdict::Broke),
                Err(e) if is_typed(&e) => Verdict::Typed,
                Err(e) => Verdict::Broke(format!("untyped failure {e:?}")),
            },
            |plan, still_fails| shrink(plan, still_fails),
        );
        write_violations(&report, engine, &viol_dir, "stream");
        completed += report.completed;
        typed += report.typed;
        violations += report.violations.len();
    }
    failed |= violations > 0;
    println!(
        "  chaos: {completed} completed, {typed} typed failures, \
         {violations} violations over {} runs",
        n_plans * 4
    );
    if completed == 0 {
        eprintln!("FAILED: no chaos plan completed — the battery is not exercising recovery");
        failed = true;
    }

    let heavy = FaultPlan::none()
        .seeded(5)
        .kill_node(0, 3.1)
        .stall_producer(6.0, 2.0)
        .duplicate_frames(0.1);
    let (_, identical) = bench::thread_invariant("stream reports", || {
        run_one(Engine::Dask, FRAMES, chaos_interval, heavy.clone()).map_err(|e| format!("{e:?}"))
    });
    if !identical {
        eprintln!("FAILED: stream reports must not depend on host threads");
        failed = true;
    }

    let rows: Vec<Row> = points.iter().map(FrontierPoint::row).collect();
    let json = format!(
        "{{\n  \"span_s\": {SPAN_S},\n  \"chaos_frames\": {FRAMES},\n  \
         \"frontier\": [\n{}\n  ],\n  \
         \"chaos_plans\": {n_plans},\n  \"chaos_runs\": {},\n  \
         \"chaos_completed\": {completed},\n  \"chaos_typed_failures\": {typed},\n  \
         \"chaos_violations\": {violations},\n  \
         \"reports_identical_at_threads\": [1, 2, 8],\n  \
         \"thread_invariance_held\": {identical}\n}}\n",
        json_lines(&rows),
        n_plans * 4,
    );
    write_artifact(&out_path, &json);
    if failed {
        std::process::exit(1);
    }
}
