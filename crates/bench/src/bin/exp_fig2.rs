//! Figure 2 — Task Throughput by Framework (Single Node).
//!
//! "Time/Throughput executing a given number of zero-workload tasks on
//! Wrangler. Dask performs best; Dask and Spark have very small delays for
//! few tasks. RADICAL-Pilot offers the smallest throughput" — and could
//! not scale to 32k or more tasks.
//!
//! ```sh
//! cargo run -p bench --release --bin exp_fig2            # up to 16k tasks
//! cargo run -p bench --release --bin exp_fig2 -- --full  # up to 131k
//! ```

use bench::{cli::Cli, secs, section, zero_tasks};
use dasklet::DaskClient;
use netsim::{wrangler, Cluster};
use pilot::Session;
use sparklet::SparkContext;
use taskframe::BagEngine;

fn main() {
    let args = Cli::new().scaled().parse();
    let scale = args.scale(8); // default: stop at 131072/8 = 16384 tasks
    let max_tasks = 131_072 / scale;
    let cluster = || Cluster::new(wrangler(), 1);

    section("Fig. 2: zero-workload task throughput, single node");
    println!(
        "{:>8} | {:>11} {:>11} {:>11} | {:>10} {:>10} {:>10}",
        "tasks", "spark (s)", "dask (s)", "rp (s)", "spark t/s", "dask t/s", "rp t/s"
    );
    let mut n = 16usize;
    while n <= max_tasks {
        let mut spark = SparkContext::new(cluster());
        let (_, rs) = spark.run_bag(zero_tasks(n)).expect("spark runs");

        let mut dask = DaskClient::new(cluster());
        let (_, rd) = dask.run_bag(zero_tasks(n)).expect("dask runs");

        let rp = Session::new(cluster()).and_then(|mut s| s.run_bag(zero_tasks(n)));
        let (rp_time, rp_tp) = match &rp {
            Ok((_, r)) => (secs(r.makespan_s), format!("{:.1}", r.throughput())),
            Err(_) => ("FAIL".into(), "-".into()),
        };

        println!(
            "{:>8} | {:>11} {:>11} {:>11} | {:>10.1} {:>10.1} {:>10}",
            n,
            secs(rs.makespan_s),
            secs(rd.makespan_s),
            rp_time,
            rs.throughput(),
            rd.throughput(),
            rp_tp,
        );
        n *= 2;
    }
    println!(
        "\npaper shape: Dask fastest and ~10x Spark; RP slowest, plateauing and\n\
         failing beyond 16k tasks (it refuses 32k+ submissions outright)."
    );

    if args.wants_observability() {
        // A traced zero-workload run for the requested artifacts.
        let mut sc = SparkContext::new(cluster());
        sc.enable_trace();
        sc.set_phase("zero-workload");
        let (_, report) = sc
            .run_bag(zero_tasks(256.min(max_tasks)))
            .expect("traced spark run");
        bench::write_observability(&args, &report, sc.cluster().total_cores());
    }
}
