//! Figure 9 — RADICAL-Pilot Task API and 2-D Partitioned Leaflet Finder
//! (Approach 2).
//!
//! "Runtime for multiple system sizes over different number of cores.
//! Overheads dominate since execution times are similar despite the system
//! size" — and performance improves dramatically once more than 64 cores
//! are available.
//!
//! ```sh
//! cargo run -p bench --release --bin exp_fig9
//! ```

use bench::{cli::Cli, cores_nodes_label, lf_paper_system, secs};
use mdsim::LfDatasetId;
use mdtask_core::run::{run_lf, RunConfig};
use netsim::{wrangler, Cluster};
use std::sync::Arc;
use taskframe::Engine;

fn main() {
    let scale = Cli::new().scaled().parse().scale(32);
    let machine = wrangler();
    let cores_axis = [32usize, 64, 128, 256];
    println!(
        "Fig. 9: Leaflet Finder approach 2 on RADICAL-Pilot, {} (atoms ÷{})",
        machine.name, scale
    );
    println!(
        "\n{:>9} | {:>12} {:>12} {:>12}",
        "cores/nd", "131k (s)", "262k (s)", "524k (s)"
    );

    let datasets = [
        LfDatasetId::Atoms131k,
        LfDatasetId::Atoms262k,
        LfDatasetId::Atoms524k,
    ]
    .map(|id| lf_paper_system(id, scale));

    for &cores in &cores_axis {
        let row = datasets.each_ref().map(|(positions, cfg)| {
            let rc = RunConfig::new(Cluster::with_cores(machine.clone(), cores), Engine::Pilot);
            let out = run_lf(&rc, Arc::clone(positions), cfg).expect("RP runs approach 2");
            format!("{:>12}", secs(out.report.makespan_s))
        });
        println!(
            "{:>9} | {}",
            cores_nodes_label(cores, &machine),
            row.join(" ")
        );
    }
    println!(
        "\npaper shape: runtimes are similar across system sizes because\n\
         RADICAL-Pilot's task-management overhead (DB round-trips for 1035\n\
         units) dominates the actual edge-discovery compute."
    );
}
