//! Table 3 — Decision Framework: criteria and ranking for framework
//! selection, plus the recommendation logic applied to the paper's two
//! applications.
//!
//! ```sh
//! cargo run -p bench --release --bin exp_tab3
//! ```

use mdtask_core::decision::{paper_name, rank, recommend, Criterion, Workload};
use mdtask_core::Engine;

fn main() {
    println!("Table 3: Decision Framework — criteria and ranking");
    println!("(-: unsupported/low performance, o: minor, +: supported, ++: major)\n");
    let engines = [Engine::Pilot, Engine::Spark, Engine::Dask];
    println!(
        "{:<28} {:>14} {:>8} {:>8}",
        "", "RADICAL-Pilot", "Spark", "Dask"
    );
    println!("Task Management");
    for c in Criterion::ALL.iter().filter(|c| c.is_task_management()) {
        print_row(*c, &engines);
    }
    println!("Application Characteristics");
    for c in Criterion::ALL.iter().filter(|c| !c.is_task_management()) {
        print_row(*c, &engines);
    }

    println!("\nRecommendations (§4.4.1):");
    let psa = Workload {
        embarrassingly_parallel: true,
        ..Default::default()
    };
    println!(
        "  PSA (embarrassingly parallel)      → {}",
        paper_name(recommend(&psa))
    );
    let lf = Workload {
        needs_shuffle: true,
        ..Default::default()
    };
    println!(
        "  Leaflet Finder (map+reduce/shuffle) → {}",
        paper_name(recommend(&lf))
    );
    let ensemble = Workload {
        mixes_mpi_tasks: true,
        ..Default::default()
    };
    println!(
        "  MD ensembles of MPI simulations     → {}",
        paper_name(recommend(&ensemble))
    );
}

fn print_row(c: Criterion, engines: &[Engine; 3]) {
    println!(
        "  {:<26} {:>14} {:>8} {:>8}",
        c.label(),
        rank(engines[0], c).symbol(),
        rank(engines[1], c).symbol(),
        rank(engines[2], c).symbol()
    );
}
