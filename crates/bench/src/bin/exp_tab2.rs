//! Table 2 — MapReduce Operations used by the Leaflet Finder, with
//! *measured* shuffle volumes per approach (the quantities behind the
//! paper's "reduces the amount of shuffle data by more than 50%" claim).
//!
//! ```sh
//! cargo run -p bench --release --bin exp_tab2
//! ```

use bench::{cli::Cli, lf_paper_system};
use mdsim::LfDatasetId;
use mdtask_core::leaflet::LfApproach;
use mdtask_core::run::{run_lf, RunConfig};
use netsim::{wrangler, Cluster};
use std::sync::Arc;
use taskframe::Engine;

fn main() {
    let scale = Cli::new().scaled().parse().scale(32);
    let (positions, cfg) = lf_paper_system(LfDatasetId::Atoms131k, scale);

    println!("Table 2: MapReduce operations per Leaflet Finder approach");
    println!(
        "(measured on the 131k-class system ÷{}, Spark engine)\n",
        scale
    );
    println!(
        "{:<34} {:<6} {:<38} {:>12} {:>9} | {:>14}",
        "approach", "part.", "map", "shuffle (B)", "tasks", "reduce"
    );
    let static_rows = [
        (
            LfApproach::Broadcast1D,
            "1-D",
            "edges via pairwise distance",
            "connected components",
        ),
        (
            LfApproach::Task2D,
            "2-D",
            "edges via pairwise distance",
            "connected components",
        ),
        (
            LfApproach::ParallelCC,
            "2-D",
            "edges via pairwise distance + partial CC",
            "join partial components",
        ),
        (
            LfApproach::TreeSearch,
            "2-D",
            "edges via BallTree + partial CC",
            "join partial components",
        ),
    ];
    for (approach, part, map, reduce) in static_rows {
        let rc = RunConfig::new(Cluster::new(wrangler(), 4), Engine::Spark).approach(approach);
        match run_lf(&rc, Arc::clone(&positions), &cfg) {
            Ok(out) => println!(
                "{:<34} {:<6} {:<38} {:>12} {:>9} | {:>14}",
                approach.label(),
                part,
                map,
                out.shuffle_bytes,
                out.tasks,
                reduce
            ),
            Err(e) => println!("{:<34} {e}", approach.label()),
        }
    }
    println!(
        "\npaper shape: approaches 1–2 shuffle the O(E) edge list (pickled\n\
         tuples, ~28 B/edge); approaches 3–4 shuffle O(n) partial components\n\
         (compact integer arrays) — \"reduces the amount of shuffle data by\n\
         more than 50%\" (§4.3.3), reproduced above."
    );
}
