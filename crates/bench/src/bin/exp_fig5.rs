//! Figure 5 — Hausdorff Distance on Comet and Wrangler.
//!
//! "Runtime and Speedup for 128 large trajectories" across {16, 64, 256}
//! cores on both machines, all four frameworks. Wrangler's hyper-threaded
//! slots yield visibly smaller speedups than Comet's physical cores.
//!
//! ```sh
//! cargo run -p bench --release --bin exp_fig5
//! ```

use bench::{cli::Cli, cores_nodes_label, secs};
use mdsim::{psa_ensemble, PsaSize};
use mdtask_core::psa::PsaConfig;
use mdtask_core::run::{run_psa, RunConfig};
use netsim::{comet, wrangler, Cluster, MachineProfile};
use std::sync::Arc;
use taskframe::Engine;

fn run_machine(profile: MachineProfile, scale: usize, count: usize) {
    assert!(count >= 1);
    let ensemble = Arc::new(psa_ensemble(PsaSize::Large, count, scale, 42));
    let cores_axis = [16usize, 64, 256];
    let engines = [
        ("mpi4py", Engine::Mpi),
        ("spark", Engine::Spark),
        ("dask", Engine::Dask),
        ("rp", Engine::Pilot),
    ];
    // Per engine, the runtime at each core count.
    let mut runtimes = vec![Vec::new(); engines.len()];
    for &cores in &cores_axis {
        let mut cfg = PsaConfig::for_cores(cores);
        // Cannot have more groups than ensemble members (Algorithm 2).
        cfg.groups = cfg.groups.min(count);
        for (series, &(_, engine)) in runtimes.iter_mut().zip(&engines) {
            let rc = RunConfig::new(Cluster::with_cores(profile.clone(), cores), engine)
                .mpi_world(cores);
            let out = run_psa(&rc, Arc::clone(&ensemble), &cfg);
            series.push(out.map_or(f64::NAN, |o| o.report.makespan_s));
        }
    }

    println!("\n--- {} ---", profile.name);
    print!("{:<8}", "cores");
    for &c in &cores_axis {
        print!(" {:>12}", cores_nodes_label(c, &profile));
    }
    println!();
    for (&(name, _), series) in engines.iter().zip(&runtimes) {
        print!("{name:<8}");
        for t in series {
            print!(" {:>12}", secs(*t));
        }
        print!("   speedup:");
        for t in series {
            print!(" {:>5.2}", series[0] / t);
        }
        println!();
    }
}

fn main() {
    let scale = Cli::new().scaled().parse().scale(16);
    let count = if scale == 1 { 128 } else { 8 };
    println!(
        "Fig. 5: PSA, {count} large trajectories (atoms ÷{}) — Comet vs Wrangler",
        scale
    );
    run_machine(comet(), scale, count);
    run_machine(wrangler(), scale, count);
    println!(
        "\npaper shape: similar per-framework performance on both systems, but\n\
         Comet reaches higher speedups than Wrangler at equal core counts\n\
         (hyper-threading halves Wrangler's effective parallelism)."
    );
}
