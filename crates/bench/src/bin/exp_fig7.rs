//! Figure 7 — Leaflet Finder: performance of the four architectural
//! approaches on Spark, Dask and MPI4py.
//!
//! "Runtimes and Speedups for different system sizes over different number
//! of cores for all approaches and frameworks." Grid: 4 approaches ×
//! {Spark, Dask, MPI4py} × {131k, 262k, 524k, 4M atoms} × cores
//! {32, 64, 128, 256}. Missing paper bars (memory failures) appear here as
//! `OOM` — produced by the memory model, not hard-coded.
//!
//! Default scale ÷32 (131k→4k … 4M→125k atoms); the memory model still
//! reasons at paper scale via `LfConfig::paper_atoms`.
//!
//! ```sh
//! cargo run -p bench --release --bin exp_fig7
//! cargo run -p bench --release --bin exp_fig7 -- --scale 64   # faster
//! ```

use bench::{cli::Cli, cores_nodes_label, lf_paper_system, secs};
use mdsim::LfDatasetId;
use mdtask_core::leaflet::LfApproach;
use mdtask_core::run::{run_lf, RunConfig};
use netsim::{wrangler, Cluster};
use std::sync::Arc;
use taskframe::Engine;

fn main() {
    let scale = Cli::new().scaled().parse().scale(32);
    let machine = wrangler();
    let cores_axis = [32usize, 64, 128, 256];
    println!(
        "Fig. 7: Leaflet Finder on {} (atoms ÷{})",
        machine.name, scale
    );

    for approach in LfApproach::ALL {
        println!("\n--- {} ---", approach.label());
        println!(
            "{:<6} {:>9} | {:>12} {:>12} {:>12}",
            "atoms", "cores/nd", "spark (s)", "dask (s)", "mpi4py (s)"
        );
        for id in LfDatasetId::ALL {
            let (positions, cfg) = lf_paper_system(id, scale);
            for &cores in &cores_axis {
                let time = |engine| {
                    let rc = RunConfig::new(Cluster::with_cores(machine.clone(), cores), engine)
                        .approach(approach)
                        .mpi_world(cores);
                    run_lf(&rc, Arc::clone(&positions), &cfg)
                        .map(|o| secs(o.report.makespan_s))
                        .unwrap_or_else(|_| "OOM".into())
                };
                let spark = time(Engine::Spark);
                let dask = time(Engine::Dask);
                let mpi = time(Engine::Mpi);

                println!(
                    "{:<6} {:>9} | {:>12} {:>12} {:>12}",
                    id.label(),
                    cores_nodes_label(cores, &machine),
                    spark,
                    dask,
                    mpi
                );
            }
        }
    }
    println!(
        "\npaper shape: approach 1 worst and memory-capped (Dask ≤262k,\n\
         Spark/MPI ≤524k); approach 2 beats 1 but cannot run 4M; approach 3\n\
         ~20% faster than 2 for Spark/Dask and reaches 4M for Spark/MPI;\n\
         tree-search wins on the large systems and runs 4M everywhere;\n\
         MPI speedups ≈8 at 256 cores vs ≈4.5–5 for Spark/Dask."
    );
}
