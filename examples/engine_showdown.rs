//! Engine showdown: the same PSA workload on all four engines (Spark,
//! Dask, RADICAL-Pilot, MPI), verifying they produce identical science and
//! comparing their virtual runtimes — then asking the paper's decision
//! framework (Table 3 / §4.4) which engine it would have recommended.
//!
//! ```sh
//! cargo run --release --example engine_showdown
//! ```

use mdtask::analysis::decision::{self, Workload};
use mdtask::prelude::*;
use std::sync::Arc;

fn main() {
    let spec = ChainSpec {
        n_atoms: 150,
        n_frames: 50,
        stride: 1,
        ..ChainSpec::default()
    };
    let ensemble = Arc::new(mdtask::sim::chain::generate_ensemble(&spec, 8, 99));
    let cfg = PsaConfig {
        groups: 4,
        charge_io: true,
    };
    let cluster = || Cluster::new(comet(), 2);

    let reference = psa_serial(&ensemble);
    let check = |name: &str, d: &DistanceMatrix| {
        for i in 0..d.rows() {
            for j in 0..d.cols() {
                assert!(
                    (d.get(i, j) - reference.get(i, j)).abs() < 1e-12,
                    "{name} diverged at ({i},{j})"
                );
            }
        }
    };

    println!(
        "{:<16} {:>10} {:>12} {:>12}",
        "engine", "makespan", "overhead", "comm"
    );

    for engine in Engine::ALL {
        let rc = RunConfig::new(cluster(), engine).mpi_world(16);
        let out = run_psa(&rc, Arc::clone(&ensemble), &cfg).expect("fault-free");
        check(engine.label(), &out.distances);
        print_row(engine.label(), &out.report);
    }

    println!("\nAll four engines computed identical distance matrices.");

    // What would the paper recommend for this workload?
    let workload = Workload {
        embarrassingly_parallel: true,
        ..Default::default()
    };
    println!(
        "decision framework says: {} (embarrassingly parallel → programmability wins)",
        decision::paper_name(decision::recommend(&workload))
    );
    let coupled = Workload {
        needs_shuffle: true,
        ..Default::default()
    };
    println!(
        "…and for shuffle-coupled analyses: {}",
        decision::paper_name(decision::recommend(&coupled))
    );
}

fn print_row(name: &str, r: &SimReport) {
    println!(
        "{:<16} {:>9.2}s {:>11.2}s {:>11.4}s",
        name, r.makespan_s, r.overhead_s, r.comm_s
    );
}
