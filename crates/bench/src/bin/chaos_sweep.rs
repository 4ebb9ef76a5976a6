//! Fixed-seed chaos sweep for CI (PR-3, memory battery PR-4): run every
//! engine's Leaflet Finder under a battery of seeded random fault plans
//! and check the invariant oracles (`netsim::chaos`). Exit code 1 on any
//! violation.
//!
//! Two batteries run per engine:
//!
//! 1. the mixed battery (deaths + stragglers + lost fetches + the odd
//!    memory shrink against a roomy 16 GiB budget), and
//! 2. a *memory* battery: pure mem-shrink plans scaled to the engine's
//!    own fault-free peak footprint, so caps genuinely bite and the
//!    spill/evict/recompute/OOM degradation paths are exercised.
//!
//! `--metrics-out` writes the memory battery's aggregate pressure
//! counters (spilled/evicted bytes, recomputes, OOM kills, high-water)
//! as JSON — CI uploads it as an artifact on every run.
//!
//! On failure the binary writes replayable artifacts under `--out-dir`:
//!
//! * `chaos_failures_<engine>.json` / `chaos_mem_failures_<engine>.json`
//!   — the full `FuzzReport` (every violation with its original and
//!   shrunk `FaultPlan`);
//! * `chaos_failure_<engine>.trace.json` — a Chrome trace of the first
//!   shrunk plan replayed with tracing enabled (engines that trace).
//!
//! Replay a shrunk plan locally with
//! `Cluster::with_faults(FaultPlan::from_json(..))`.
//!
//! ```sh
//! cargo run -p bench --release --bin chaos_sweep
//! cargo run -p bench --release --bin chaos_sweep -- --plans 200 --seed 7 \
//!     --mem-plans 100 --metrics-out results/chaos_mem_metrics.json
//! ```

use bench::report::{json_lines, Cell, Row};
use bench::{death_window, fault_free_footprint, high_water, lf_system, write_artifact};
use mdtask_core::leaflet::{LfApproach, LfConfig, LfOutput};
use mdtask_core::run::{run_lf, RunConfig};
use netsim::chaos::{fuzz, ChaosConfig, ChaosOutcome, Fingerprint, FuzzReport};
use netsim::{laptop, Cluster, FaultPlan, RetryPolicy};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use taskframe::Engine;

const MPI_WORLD: usize = 16;

/// Hash the *data* an LF run produced — the oracle compares this against
/// the fault-free baseline.
fn fingerprint(out: &LfOutput) -> u64 {
    let mut fp = Fingerprint::new();
    for &s in &out.leaflet_sizes {
        fp.write_usize(s);
    }
    fp.write_usize(out.n_components);
    fp.write_u64(out.edges_found);
    fp.finish()
}

/// One LF run under `plan`; `traced` turns on the event trace (for the
/// failure-replay artifact). `mem_battery` switches spark to the
/// Broadcast1D approach, whose per-node replica reservations actually
/// engage the memory ledger (ParallelCC neither broadcasts nor persists).
fn run_engine(
    engine: Engine,
    plan: &FaultPlan,
    positions: &Arc<Vec<linalg::Vec3>>,
    cfg: &LfConfig,
    traced: bool,
    mem_battery: bool,
) -> Result<ChaosOutcome, String> {
    let cluster = Cluster::new(laptop(), 2).with_faults(plan.clone());
    let approach = match engine {
        Engine::Spark if !mem_battery => LfApproach::ParallelCC,
        Engine::Dask => LfApproach::Task2D,
        _ => LfApproach::Broadcast1D,
    };
    let mut rc = RunConfig::new(cluster, engine)
        .approach(approach)
        .trace(traced)
        .mpi_world(MPI_WORLD);
    if engine == Engine::Mpi {
        rc = rc.retry_policy(RetryPolicy::new(4).with_detection_delay(0.25));
    }
    let out = run_lf(&rc, Arc::clone(positions), cfg).map_err(|e| format!("{e:?}"))?;
    Ok(ChaosOutcome {
        fingerprint: fingerprint(&out),
        report: out.report,
    })
}

/// Aggregate memory-pressure counters over one engine's memory battery.
#[derive(Default)]
struct MemAgg {
    runs: usize,
    typed_errors: usize,
    bytes_spilled: u64,
    bytes_evicted: u64,
    recomputed_partitions: usize,
    oom_kills: usize,
    mem_high_water_max: u64,
}

impl MemAgg {
    fn absorb(&mut self, res: &Result<ChaosOutcome, String>) {
        self.runs += 1;
        let Ok(ChaosOutcome { report, .. }) = res else {
            self.typed_errors += 1;
            return;
        };
        self.bytes_spilled += report.bytes_spilled;
        self.bytes_evicted += report.bytes_evicted;
        self.recomputed_partitions += report.recomputed_partitions;
        self.oom_kills += report.oom_kills;
        self.mem_high_water_max = self.mem_high_water_max.max(high_water(report));
    }

    fn row(&self, engine: Engine, footprint: u64) -> Row {
        Row(vec![
            ("engine", Cell::Str(engine.label().into())),
            ("fault_free_footprint_bytes", Cell::Int(footprint)),
            ("runs", Cell::Int(self.runs as u64)),
            ("typed_errors", Cell::Int(self.typed_errors as u64)),
            ("bytes_spilled", Cell::Int(self.bytes_spilled)),
            ("bytes_evicted", Cell::Int(self.bytes_evicted)),
            (
                "recomputed_partitions",
                Cell::Int(self.recomputed_partitions as u64),
            ),
            ("oom_kills", Cell::Int(self.oom_kills as u64)),
            ("mem_high_water_max", Cell::Int(self.mem_high_water_max)),
        ])
    }
}

/// Print a failed battery's violations and write its `FuzzReport`.
fn report_violations(engine: Engine, report: &FuzzReport, path: &str) {
    println!(
        "  {:<6} {} plans, {} VIOLATIONS",
        engine.label(),
        report.runs,
        report.violations.len()
    );
    for v in &report.violations {
        println!("         seed {}: {}", v.seed, v.message);
    }
    write_artifact(path, &report.to_json());
}

fn main() {
    let args = bench::cli::Cli::new()
        .value(
            "--plans",
            "N",
            "mixed-battery plans per engine (default 200)",
        )
        .value(
            "--mem-plans",
            "N",
            "memory-battery plans per engine (default 100)",
        )
        .value("--seed", "S", "base seed (default 0)")
        .value(
            "--out-dir",
            "PATH",
            "failure-artifact directory (default results)",
        )
        .parse();
    let plans = args.usize_or("--plans", 200);
    let mem_plans = args.usize_or("--mem-plans", 100);
    let base_seed = args.u64_or("--seed", 0);
    let out_dir = args.str_or("--out-dir", "results");
    let metrics_out = args.metrics_out.clone();
    let engines = args.engines();

    let (positions, cfg) = lf_system(200, 7, 8, false);
    println!(
        "chaos sweep: {plans} seeded plans per engine (base seed {base_seed}), \
         LF 200 atoms on 2 laptop nodes, {} host threads",
        netsim::parallel::current_degree()
    );
    let mut failed = false;
    for &engine in &engines {
        let mut ccfg = ChaosConfig::new(2, 8);
        ccfg.plans = plans;
        ccfg.base_seed = base_seed;
        ccfg.death_window_s = death_window(engine);
        // These workloads re-measure real closure durations each run, so
        // empty-plan reports carry µs-scale jitter; the data fingerprint
        // still must match exactly.
        ccfg.check_empty_plan_determinism = false;
        // `fuzz` fans the plans out across host threads internally.
        let report = fuzz(&ccfg, |plan| {
            run_engine(engine, plan, &positions, &cfg, false, false)
        });
        if report.passed() {
            println!(
                "  {:<6} {} plans, all oracles held",
                engine.label(),
                report.runs
            );
        } else {
            failed = true;
            let label = engine.label();
            report_violations(
                engine,
                &report,
                &format!("{out_dir}/chaos_failures_{label}.json"),
            );
            // Replay the first shrunk counterexample with the event trace
            // on, so the CI artifact shows the recovery timeline that
            // broke the oracle.
            let replay = report
                .violations
                .first()
                .and_then(|v| run_engine(engine, &v.shrunk, &positions, &cfg, true, false).ok());
            if let Some(trace) = replay.as_ref().and_then(|o| o.report.trace.as_ref()) {
                write_artifact(
                    &format!("{out_dir}/chaos_failure_{label}.trace.json"),
                    &trace.to_chrome_json(),
                );
            }
        }
    }
    // Memory battery: pure mem-shrink plans scaled to each engine's own
    // fault-free footprint, so a 16 GiB default budget doesn't render
    // every shrink a no-op against KB-scale CI workloads.
    let mut metric_rows: Vec<Row> = Vec::new();
    if mem_plans > 0 {
        println!(
            "memory battery: {mem_plans} seeded mem-shrink plans per engine \
             (base seed {base_seed}), caps scaled to fault-free footprints"
        );
        for &engine in &engines {
            // The fault-free peak footprint memory plans are scaled against.
            let clean = run_engine(engine, &FaultPlan::none(), &positions, &cfg, false, true)
                .expect("fault-free footprint probe must succeed");
            let footprint = fault_free_footprint(&clean.report);
            let mut ccfg = ChaosConfig::new(2, 8);
            ccfg.plans = mem_plans;
            ccfg.base_seed = base_seed;
            ccfg.max_deaths = 0;
            ccfg.max_stragglers = 0;
            ccfg.lost_fetch_prob_max = 0.0;
            ccfg.max_mem_shrinks = 2;
            // Shrinks land inside the engine's live window, like deaths.
            ccfg.mem_shrink_window_s = death_window(engine);
            ccfg.mem_per_node = footprint;
            ccfg.mem_shrink_frac = (0.25, 1.0);
            ccfg.check_empty_plan_determinism = false;
            let agg = Mutex::new(MemAgg::default());
            // `fuzz` runs the fault-free baseline first, then each plan
            // once, then more only while shrinking a violation: count the
            // plans alone.
            let calls = AtomicUsize::new(0);
            let report = fuzz(&ccfg, |plan| {
                let res = run_engine(engine, plan, &positions, &cfg, false, true);
                if (1..=mem_plans).contains(&calls.fetch_add(1, Ordering::Relaxed)) {
                    agg.lock().unwrap().absorb(&res);
                }
                res
            });
            let agg = agg.into_inner().unwrap();
            metric_rows.push(agg.row(engine, footprint));
            if report.passed() {
                println!(
                    "  {:<6} {} plans, all oracles held \
                     (spilled {} B, evicted {} B, {} recomputes, {} OOM, {} typed errors)",
                    engine.label(),
                    report.runs,
                    agg.bytes_spilled,
                    agg.bytes_evicted,
                    agg.recomputed_partitions,
                    agg.oom_kills,
                    agg.typed_errors,
                );
            } else {
                failed = true;
                report_violations(
                    engine,
                    &report,
                    &format!("{out_dir}/chaos_mem_failures_{}.json", engine.label()),
                );
            }
        }
    }
    if let Some(path) = &metrics_out {
        let body = format!(
            "{{\n  \"mem_plans_per_engine\": {mem_plans},\n  \"base_seed\": {base_seed},\n  \
             \"engines\": [\n{}\n  ]\n}}\n",
            json_lines(&metric_rows)
        );
        write_artifact(path, &body);
    }

    if failed {
        eprintln!("chaos sweep FAILED — artifacts under {out_dir}/");
        std::process::exit(1);
    }
    println!("chaos sweep passed.");
}
