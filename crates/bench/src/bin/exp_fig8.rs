//! Figure 8 — Broadcast and 1-D Partitioned Leaflet Finder (Approach 1):
//! runtime and broadcast-time breakdown.
//!
//! "Broadcast times are about 3%–15% of the edge discovery time for Spark,
//! 40%–65% for Dask, and <1%–10% for MPI4py. MPI's broadcast times
//! increase linearly as the number of processes increases, while Spark's
//! and Dask's remain relatively constant for each dataset."
//!
//! ```sh
//! cargo run -p bench --release --bin exp_fig8
//! ```

use bench::{cli::Cli, cores_nodes_label, lf_paper_system, secs};
use mdsim::LfDatasetId;
use mdtask_core::leaflet::LfApproach;
use mdtask_core::run::{run_lf, RunConfig};
use netsim::{wrangler, Cluster};
use std::sync::Arc;
use taskframe::Engine;

fn main() {
    let args = Cli::new().scaled().parse();
    let scale = args.scale(32);
    let machine = wrangler();
    let cores_axis = [32usize, 64, 128, 256];
    println!(
        "Fig. 8: Leaflet Finder approach 1 broadcast breakdown on {} (atoms ÷{})",
        machine.name, scale
    );

    for id in [LfDatasetId::Atoms131k, LfDatasetId::Atoms262k] {
        let (positions, cfg) = lf_paper_system(id, scale);
        println!("\n--- {} atoms ---", id.label());
        println!(
            "{:>9} | {:>10} {:>10} {:>6} | {:>10} {:>10} {:>6} | {:>10} {:>10} {:>6}",
            "cores/nd", "spark", "bcast", "%", "dask", "bcast", "%", "mpi", "bcast", "%"
        );
        for &cores in &cores_axis {
            let groups = [Engine::Spark, Engine::Dask, Engine::Mpi].map(|engine| {
                let rc = RunConfig::new(Cluster::with_cores(machine.clone(), cores), engine)
                    .approach(LfApproach::Broadcast1D)
                    .mpi_world(cores);
                let out =
                    run_lf(&rc, Arc::clone(&positions), &cfg).expect("approach1 fits 131k/262k");
                cells(&out.report)
            });
            println!(
                "{:>9} | {}",
                cores_nodes_label(cores, &machine),
                groups.join(" | ")
            );
        }
    }
    println!(
        "\npaper shape: broadcast is a small share for Spark (3–15%) and MPI\n\
         (<1–10%, but growing linearly with process count) and dominant for\n\
         Dask (40–65% of edge-discovery time)."
    );

    if args.wants_observability() {
        // Traced Dask run of the broadcast-heavy approach: the critical
        // path shows *why* broadcast dominates (Fig. 8's mechanism).
        let (positions, cfg) = lf_paper_system(LfDatasetId::Atoms131k, scale);
        let cores = 64;
        let rc = RunConfig::new(Cluster::with_cores(machine.clone(), cores), Engine::Dask)
            .approach(LfApproach::Broadcast1D)
            .trace(true);
        let d = run_lf(&rc, positions, &cfg).expect("traced dask run");
        let trace = d.report.trace.as_ref().expect("trace enabled");
        println!("\ncritical path (dask, approach 1, {cores} cores):");
        print!("{}", netsim::CriticalPath::from_trace(trace).render());
        bench::write_observability(&args, &d.report, cores);
    }
}

/// One engine's `runtime bcast %` columns.
fn cells(report: &netsim::SimReport) -> String {
    let bcast = report.phase_total("broadcast").unwrap_or(0.0);
    let edges = report.phase_total("edge-discovery").unwrap_or(f64::NAN);
    let share = format!("{:.0}%", 100.0 * bcast / edges);
    format!(
        "{:>10} {:>10} {share:>6}",
        secs(report.makespan_s),
        secs(bcast)
    )
}
