//! Figure 4 — Hausdorff Distance (PSA) on Wrangler.
//!
//! "Runtimes over different number of cores, trajectory sizes, and number
//! of trajectories. All frameworks scaled by a factor of 6 from 16 to 256
//! cores." Grid: {128, 256} trajectories × {small, medium, large} ×
//! cores {16, 64, 256} × {MPI4py, Spark, Dask, RADICAL-Pilot}.
//!
//! Defaults are laptop-scaled: trajectory count ÷8, atoms ÷16 (frames stay
//! at the paper's 102). `--full` runs paper sizes.
//!
//! ```sh
//! cargo run -p bench --release --bin exp_fig4
//! ```

use bench::{cli::Cli, cores_nodes_label, secs};
use mdsim::{psa_ensemble, PsaSize};
use mdtask_core::psa::PsaConfig;
use mdtask_core::run::{run_psa, RunConfig};
use netsim::{wrangler, Cluster};
use std::sync::Arc;
use taskframe::Engine;

fn main() {
    let scale = Cli::new().scaled().parse().scale(16);
    let machine = wrangler();
    let traj_scale = if scale == 1 { 1 } else { 8 };
    let cores_axis = [16usize, 64, 256];

    println!(
        "Fig. 4: PSA/Hausdorff on {} (atoms ÷{}, trajectories ÷{traj_scale})",
        machine.name, scale
    );
    println!(
        "\n{:<8} {:<7} {:>9} | {:>10} {:>10} {:>10} {:>10}",
        "size", "trajs", "cores/nd", "mpi4py", "spark", "dask", "rp"
    );

    for &count in &[128usize, 256] {
        let count = count / traj_scale;
        for size in PsaSize::ALL {
            let ensemble = Arc::new(psa_ensemble(size, count, scale, 42));
            for &cores in &cores_axis {
                let cfg = PsaConfig::for_cores(cores);
                let time = |engine| {
                    let rc = RunConfig::new(Cluster::with_cores(machine.clone(), cores), engine)
                        .mpi_world(cores);
                    run_psa(&rc, Arc::clone(&ensemble), &cfg).map(|o| o.report.makespan_s)
                };
                let mpi = time(Engine::Mpi).expect("fault-free");
                let spark = time(Engine::Spark).expect("fault-free");
                let dask = time(Engine::Dask).expect("fault-free");
                let rp = time(Engine::Pilot).map(secs).unwrap_or_else(|_| "-".into());

                println!(
                    "{:<8} {:<7} {:>9} | {:>10} {:>10} {:>10} {:>10}",
                    size.label(),
                    count,
                    cores_nodes_label(cores, &machine),
                    secs(mpi),
                    secs(spark),
                    secs(dask),
                    rp
                );
            }
        }
    }
    println!(
        "\npaper shape: all four frameworks within a small factor of each other;\n\
         every framework speeds up ≈6x from 16 to 256 cores; MPI4py fastest,\n\
         RADICAL-Pilot carries its pilot-bootstrap overhead."
    );
}
