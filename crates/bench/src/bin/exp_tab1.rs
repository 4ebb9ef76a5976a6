//! Table 1 — Frameworks Comparison: descriptive properties of
//! RADICAL-Pilot, Spark and Dask (plus the MPI baseline).
//!
//! ```sh
//! cargo run -p bench --release --bin exp_tab1
//! ```

use mdtask_core::decision::{framework_properties, paper_name};
use mdtask_core::Engine;

fn main() {
    println!("Table 1: Frameworks Comparison\n");
    let engines = [Engine::Pilot, Engine::Spark, Engine::Dask, Engine::Mpi];
    let rows = framework_properties(engines[0]);
    print!("{:<26}", "");
    for e in engines {
        print!("| {:<42}", paper_name(e));
    }
    println!();
    for (i, (key, _)) in rows.iter().enumerate() {
        print!("{key:<26}");
        for e in engines {
            let props = framework_properties(e);
            print!("| {:<42}", props[i].1);
        }
        println!();
    }
}
