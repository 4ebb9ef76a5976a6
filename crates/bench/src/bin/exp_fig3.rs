//! Figure 3 — Task Throughput by Framework (Multiple Nodes).
//!
//! "Task throughput for 100k zero-workload tasks on different numbers of
//! nodes for each framework. Dask has the largest throughput, followed by
//! Spark and RADICAL-Pilot" — Dask/Spark grow ≈linearly with nodes, RP
//! plateaus below 100 tasks/s. Run for both Comet and Wrangler.
//!
//! ```sh
//! cargo run -p bench --release --bin exp_fig3
//! cargo run -p bench --release --bin exp_fig3 -- --full   # 100k tasks
//! ```

use bench::{cli::Cli, section, zero_tasks};
use dasklet::DaskClient;
use netsim::{comet, wrangler, Cluster, MachineProfile};
use pilot::Session;
use sparklet::SparkContext;
use taskframe::BagEngine;

fn run_machine(profile: MachineProfile, n_tasks: usize) {
    section(&format!(
        "Fig. 3: {} — throughput of {n_tasks} tasks vs nodes",
        profile.name
    ));
    println!(
        "{:>6} | {:>12} {:>12} {:>12}",
        "nodes", "spark t/s", "dask t/s", "rp t/s"
    );
    for nodes in 1..=4 {
        let cluster = || Cluster::new(profile.clone(), nodes);

        let mut spark = SparkContext::new(cluster());
        let (_, rs) = spark.run_bag(zero_tasks(n_tasks)).expect("spark runs");

        let mut dask = DaskClient::new(cluster());
        let (_, rd) = dask.run_bag(zero_tasks(n_tasks)).expect("dask runs");

        // RP refuses >16384 tasks; run its cap and report the throughput it
        // achieves there, as the paper's plateau plots do.
        let rp_tasks = n_tasks.min(pilot::MAX_UNITS);
        let rp = Session::new(cluster())
            .and_then(|mut s| s.run_bag(zero_tasks(rp_tasks)))
            .map(|(_, r)| r.throughput());
        let rp_tp = rp.map(|t| format!("{t:.1}")).unwrap_or_else(|_| "-".into());

        println!(
            "{:>6} | {:>12.1} {:>12.1} {:>12}",
            nodes,
            rs.throughput(),
            rd.throughput(),
            rp_tp
        );
    }
}

fn main() {
    let scale = Cli::new().scaled().parse().scale(4); // default 25k tasks; --full = 100k
    let n_tasks = 100_000 / scale;
    run_machine(comet(), n_tasks);
    run_machine(wrangler(), n_tasks);
    println!(
        "\npaper shape: Dask ≈linear in nodes and an order of magnitude above\n\
         Spark (also ≈linear); RP flat below 100 tasks/s on every node count;\n\
         Comet slightly outperforms Wrangler."
    );
}
