//! Raw simulator speed: simulated task placements per host-second.
//!
//! ROADMAP item 2 ("fast at 1000× paper scale") is about the *simulator's*
//! own hot path, not the modelled makespans — this bench tracks it across
//! PRs the way the experiment binaries track makespan. For each cluster
//! shape (256 / 4k / 100k cores by default) it drives a saturated task
//! backlog straight into a `SimExecutor` — every task released at t=0, so
//! each placement must search the busy core timeline, the regime engines
//! hit between stage barriers — and measures wall-clock per leg:
//!
//! * **index** — the earliest-free-core tournament tree, untraced: the
//!   hot path allocates nothing per task.
//! * **traced** — the same with a full trace on, at the smallest shape
//!   only: the cost ceiling of observability.
//!
//! That the tree picks what the O(cores) scan it replaced would pick is
//! the business of `netsim`'s unit tests (`index_matches_linear_scan_*`
//! in `executor.rs`, which replay this backlog under faults), not of this
//! bench.
//!
//! Results land in `--out` (default `results/sim_throughput.json`). With
//! `--min-tasks-per-sec X` the binary exits 1 if the 4k-core index leg
//! places fewer than X tasks per host-second — the CI floor, analogous to
//! `host_parallel`'s `--min-speedup`.
//!
//! ```sh
//! cargo run -p bench --release --bin sim_throughput
//! cargo run -p bench --release --bin sim_throughput -- \
//!     --tasks 1000000 --min-tasks-per-sec 100000
//! ```

use netsim::{Cluster, SimExecutor};
use std::time::Instant;

const CORES_PER_NODE: usize = 32;

/// Deterministic per-task duration in (0.5, 1.5]s — varied so placements
/// spread unevenly across cores and the pick is never degenerate.
fn dur(i: usize) -> f64 {
    0.5 + ((i as u64).wrapping_mul(2654435761) % 1000 + 1) as f64 * 1e-3
}

fn cluster(cores: usize) -> Cluster {
    assert_eq!(cores % CORES_PER_NODE, 0);
    Cluster::builder()
        .nodes(cores / CORES_PER_NODE)
        .cores_per_node(CORES_PER_NODE)
        .build()
}

/// Place `tasks` saturated tasks; returns (host seconds, final makespan).
fn drive(exec: &mut SimExecutor, tasks: usize) -> (f64, f64) {
    let t = Instant::now();
    for i in 0..tasks {
        exec.run_task(0.0, dur(i));
    }
    (t.elapsed().as_secs_f64(), exec.report().makespan_s)
}

struct Point {
    cores: usize,
    tasks: usize,
    index_tps: f64,
    traced_tps: Option<f64>,
}

fn main() {
    let args = bench::cli::Cli::new()
        .value("--tasks", "N", "tasks per shape (default 1000000)")
        .value(
            "--min-tasks-per-sec",
            "X",
            "fail unless the 4k-core index leg reaches X tasks/s (default: record only)",
        )
        .value(
            "--out",
            "PATH",
            "output path (default results/sim_throughput.json)",
        )
        .parse();
    let tasks = args.usize_or("--tasks", 1_000_000);
    let min_tps = args.f64_or("--min-tasks-per-sec", 0.0);
    let out_path = args.str_or("--out", "results/sim_throughput.json");

    println!("sim_throughput: {tasks} saturated tasks per shape, {CORES_PER_NODE} cores/node");

    let shapes = [256usize, 4096, 100_000 - 100_000 % CORES_PER_NODE];
    let mut points = Vec::new();
    for (si, &cores) in shapes.iter().enumerate() {
        let (index_s, makespan) = drive(&mut SimExecutor::new(cluster(cores)), tasks);
        // Full tracing only at the smallest shape: its event vector is the
        // bench's memory ceiling.
        let traced_tps = (si == 0).then(|| {
            let mut e = SimExecutor::new(cluster(cores));
            e.enable_trace();
            let (s, _) = drive(&mut e, tasks);
            tasks as f64 / s
        });
        let p = Point {
            cores,
            tasks,
            index_tps: tasks as f64 / index_s,
            traced_tps,
        };
        println!(
            "{:>7} cores: index {:>12.0} tasks/s, makespan {makespan:.1}s{}",
            p.cores,
            p.index_tps,
            p.traced_tps
                .map_or(String::new(), |t| format!(", traced {t:.0} tasks/s")),
        );
        points.push(p);
    }

    let at_4k = points.iter().find(|p| p.cores == 4096).expect("4k point");
    let index_tps_4k = at_4k.index_tps;

    let mut json = format!(
        "{{\n  \"cores_per_node\": {CORES_PER_NODE},\n  \"tasks_per_shape\": {tasks},\n  \
         \"points\": [\n"
    );
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"cores\": {}, \"tasks\": {}, \"index_tasks_per_s\": {:.0}{}}}{}\n",
            p.cores,
            p.tasks,
            p.index_tps,
            p.traced_tps.map_or(String::new(), |t| format!(
                ", \"traced_tasks_per_s\": {t:.0}"
            )),
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"index_tasks_per_s_at_4k\": {index_tps_4k:.0},\n  \
         \"min_tasks_per_sec_required\": {min_tps}\n}}\n"
    ));
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
    }
    std::fs::write(&out_path, &json).expect("write sim_throughput.json");
    eprintln!("wrote {out_path}");

    if min_tps > 0.0 && index_tps_4k < min_tps {
        eprintln!(
            "FAIL: 4k-core index leg placed {index_tps_4k:.0} tasks/s, \
             below the {min_tps:.0} floor"
        );
        std::process::exit(1);
    }
}
