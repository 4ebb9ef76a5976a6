//! Memory-pressure sweep (PR-4): per-node memory limit vs runtime and
//! degradation cost for every engine.
//!
//! A fixed Leaflet Finder job runs fault-free once per engine to measure
//! its peak resident footprint (the memory ledger's high-water mark; for
//! MPI, which holds no resident state, the bytes its collectives move).
//! The job then re-runs with both nodes capped at a sweep of fractions
//! of that footprint, applied through `FaultPlan::shrink_memory` at t=0
//! — the same mechanism chaos plans use for mid-run shrinks. Each point
//! records the makespan inflation and the engine's degradation counters
//! (`bytes_spilled`, `bytes_evicted`, `recomputed_partitions`,
//! `oom_kills`), or the typed error once the cap leaves the engine no
//! coping path.
//!
//! The expected shapes: Spark/Dask degrade smoothly (spill and recompute
//! cost time, never correctness), Pilot serializes admission (longer
//! makespan, no spills), MPI chunks its collectives (latency grows) and
//! falls off a cliff into `MemoryExhausted` once a replica outgrows the
//! fixed per-rank buffers.
//!
//! ```sh
//! cargo run -p bench --release --bin exp_memory
//! cargo run -p bench --release --bin exp_memory -- --out results/memory.json
//! ```

use bench::report::{series_json, Cell, Point, Row, Series};
use bench::{fault_free_footprint, high_water, lf_system, secs, write_artifact};
use mdtask_core::leaflet::{LfApproach, LfConfig};
use mdtask_core::run::{run_lf, RunConfig};
use netsim::{laptop, Cluster, FaultPlan};
use std::sync::Arc;
use taskframe::Engine;

/// Caps swept, as fractions of the fault-free peak footprint.
const MEM_FRACS: [f64; 6] = [1.0, 0.75, 0.5, 0.35, 0.25, 0.15];
/// MPI's footprint proxy (bytes its collectives move) understates the
/// real requirement — the node budget is sliced into per-core rank
/// buffers, so the gather root needs cores_per_node x its inbound bytes.
/// Sweep higher fractions so the chunking regime (complete, extra
/// latency) is visible before the MemoryExhausted cliff.
const MPI_MEM_FRACS: [f64; 6] = [4.0, 3.0, 2.0, 1.6, 1.0, 0.5];
const MPI_WORLD: usize = 16;
/// The printed table: two axis columns, then the outcome's.
const COLUMNS: [(&str, usize); 9] = [
    ("frac", 6),
    ("cap", 12),
    ("makespan", 10),
    ("overhead", 10),
    ("spilled", 10),
    ("evicted", 10),
    ("recomp", 7),
    ("oom", 4),
    ("high-water", 12),
];

/// Cap every node of the 2-node cluster to `cap` bytes from t=0.
fn cap_plan(cap: u64) -> FaultPlan {
    FaultPlan::none()
        .shrink_memory(0, 0.0, cap)
        .shrink_memory(1, 0.0, cap)
}

/// The paper-faithful degradation path each engine takes under pressure.
fn degradation(engine: Engine) -> &'static str {
    match engine {
        Engine::Spark => "evict+lineage-recompute+spill",
        Engine::Dask => "pause+spill",
        Engine::Pilot => "admission-control",
        Engine::Mpi => "chunk-or-fail",
    }
}

/// Sweep one engine: both nodes capped at each fraction of its fault-free
/// footprint. Sweep points are independent, so they fan out across host
/// threads (`--threads`); results come back in frac order regardless of
/// degree.
fn engine_series(engine: Engine, positions: &Arc<Vec<linalg::Vec3>>, cfg: &LfConfig) -> Series {
    let run = |plan: FaultPlan| {
        let rc = RunConfig::new(Cluster::new(laptop(), 2).with_faults(plan), engine)
            .approach(LfApproach::Broadcast1D)
            .mpi_world(MPI_WORLD);
        run_lf(&rc, Arc::clone(positions), cfg)
            .map(|o| o.report)
            .map_err(|e| format!("{e:?}"))
    };
    let clean = run(FaultPlan::none()).expect("fault-free");
    let fracs: &[f64] = if engine == Engine::Mpi {
        &MPI_MEM_FRACS
    } else {
        &MEM_FRACS
    };
    let footprint = fault_free_footprint(&clean);
    let points = netsim::parallel::run_indexed(fracs.len(), |i| {
        let cap = ((footprint as f64 * fracs[i]) as u64).max(1);
        let outcome = run(cap_plan(cap)).map(|rep| {
            Row(vec![
                ("makespan_s", Cell::Secs(rep.makespan_s)),
                ("overhead_s", Cell::Secs(rep.makespan_s - clean.makespan_s)),
                ("bytes_spilled", Cell::Int(rep.bytes_spilled)),
                ("bytes_evicted", Cell::Int(rep.bytes_evicted)),
                (
                    "recomputed_partitions",
                    Cell::Int(rep.recomputed_partitions as u64),
                ),
                ("oom_kills", Cell::Int(rep.oom_kills as u64)),
                ("mem_high_water", Cell::Int(high_water(&rep))),
            ])
        });
        Point {
            axis: Row(vec![
                ("mem_frac", Cell::Fixed(fracs[i], 2)),
                ("cap_bytes", Cell::Int(cap)),
            ]),
            outcome,
        }
    });
    Series {
        title: format!(
            "{} / {} (clean {}, footprint {footprint} B)",
            engine.label(),
            degradation(engine),
            secs(clean.makespan_s)
        ),
        header: Row(vec![
            ("engine", Cell::Str(engine.label().into())),
            ("degradation", Cell::Str(degradation(engine).into())),
            ("clean_makespan_s", Cell::Secs(clean.makespan_s)),
            ("footprint_bytes", Cell::Int(footprint)),
        ]),
        points,
    }
}

fn main() {
    let args = bench::cli::Cli::new()
        .value("--out", "PATH", "output path (default results/memory.json)")
        .parse();
    let out_path = args.str_or("--out", "results/memory.json");

    println!(
        "Memory sweep: both nodes capped at {MEM_FRACS:?} of each engine's \
         fault-free peak footprint ({MPI_MEM_FRACS:?} for MPI's per-rank \
         buffers; LF, 1000 atoms, 2 laptop nodes)"
    );
    let (positions, cfg) = lf_system(1000, 17, 32, true);
    let series: Vec<Series> = args
        .engines()
        .into_iter()
        .map(|engine| engine_series(engine, &positions, &cfg))
        .collect();
    for s in &series {
        print!("{}", s.table(&COLUMNS));
    }
    write_artifact(&out_path, &series_json("memory-pressure sweep", &series));
}
