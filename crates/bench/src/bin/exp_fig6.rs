//! Figure 6 — Hausdorff Distance using CPPTraj.
//!
//! "Runtimes and Speedup over different number of cores" for 128 small
//! trajectories on 20-core Haswell nodes, 1–240 cores, two builds: GNU
//! with no optimization vs Intel `-Wall -O3`. Near-linear speedups; the
//! optimized build is several times faster in absolute terms.
//!
//! ```sh
//! cargo run -p bench --release --bin exp_fig6
//! ```

use bench::{cli::Cli, secs};
use cpptraj::{ensemble_psa, KernelBuild};
use mdsim::{psa_ensemble, PsaSize};
use netsim::{Cluster, MachineProfile, NetworkModel};

/// The paper's CPPTraj testbed: 20-core Haswell nodes.
fn haswell20() -> MachineProfile {
    MachineProfile {
        name: "haswell-20".into(),
        cores_per_node: 20,
        core_efficiency: 1.0,
        mem_per_node: 128 * (1 << 30),
        disk_bandwidth_bps: 5.0e8,
        network: NetworkModel::infiniband(),
    }
}

fn main() {
    let scale = Cli::new().scaled().parse().scale(4);
    let count = if scale == 1 { 128 } else { 32 };
    let ensemble = psa_ensemble(PsaSize::Small, count, scale, 42);
    println!(
        "Fig. 6: CPPTraj 2D-RMSD/Hausdorff, {count} small trajectories (atoms ÷{})",
        scale
    );

    let cores_axis = [1usize, 20, 60, 120, 240];
    println!(
        "\n{:>6} | {:>12} {:>9} | {:>12} {:>9}",
        "cores", "GNU (s)", "speedup", "IntelO3 (s)", "speedup"
    );
    // Sweep points are independent simulations, so they fan out across
    // host threads (`--threads`); results come back in axis order.
    let rows = netsim::parallel::run_indexed(cores_axis.len(), |i| {
        let cores = cores_axis[i];
        let run = |build: KernelBuild| {
            ensemble_psa(
                Cluster::with_cores(haswell20(), cores),
                cores,
                build,
                &ensemble,
            )
            .expect("fault-free, one rank per core")
            .report
            .makespan_s
        };
        (run(KernelBuild::GnuNoOpt), run(KernelBuild::IntelO3))
    });
    let base = rows[0];
    for (&cores, &(gnu, intel)) in cores_axis.iter().zip(&rows) {
        println!(
            "{:>6} | {:>12} {:>9.1} | {:>12} {:>9.1}",
            cores,
            secs(gnu),
            base.0 / gnu,
            secs(intel),
            base.1 / intel
        );
    }
    println!(
        "\npaper shape: the optimized build is several times faster at every\n\
         core count; both builds speed up near-linearly until task\n\
         granularity runs out around 100–200 cores."
    );
}
