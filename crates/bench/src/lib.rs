//! Shared harness for the experiment binaries (`exp_fig2` … `exp_tab3`).
//!
//! Every binary regenerates one figure or table from the paper's
//! evaluation section, printing the same rows/series the paper reports.
//! Times are **virtual** (simulated cluster seconds — see `netsim`);
//! computation is real. How fast the host produces them is the other
//! clock and is measured in `benchmark/`, not here. Rows, tables and
//! `results/*.json` artifacts go through [`report`] and
//! [`write_artifact`].
//!
//! Flags are parsed by [`cli`]. The figure and table binaries that size
//! their datasets also take (via [`cli::Cli::scaled`]):
//! * `--scale N` — divide dataset sizes by `N` (default 32 for Leaflet
//!   Finder systems, 16 for PSA ensembles; frame counts and task layouts
//!   are never scaled). The memory model always reasons at paper scale.
//! * `--full` — paper-sized datasets (`scale = 1`). Expect hours.
//!
//! Each binary fixes its machine profile: Wrangler where the paper shows
//! one machine.

use mdtask_core::LfConfig;
use netsim::{FuzzReport, MachineProfile, Metrics, SimReport, Threads};
use std::sync::Arc;
use taskframe::Engine;

pub mod cli;
pub mod report;

/// Write the artifacts requested by `--trace-out` / `--metrics-out` from a
/// traced run's report, creating parent directories as needed.
pub fn write_observability(args: &cli::Args, report: &SimReport, n_cores: usize) {
    if let Some(path) = &args.trace_out {
        let trace = report
            .trace
            .as_ref()
            .expect("--trace-out needs a traced run (enable_trace)");
        write_artifact(path, &trace.to_chrome_json());
    }
    if let Some(path) = &args.metrics_out {
        write_artifact(path, &Metrics::from_report(report, n_cores).to_json());
    }
}

/// Write `contents` to `path`, creating its directory: the one place the
/// experiment binaries touch the file system, and it fails loudly.
pub fn write_artifact(path: &str, contents: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create artifact directory");
        }
    }
    std::fs::write(path, contents).expect("write artifact");
    eprintln!("wrote {path}");
}

/// Print a section header.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Format seconds compactly.
pub fn secs(t: f64) -> String {
    if t >= 100.0 {
        format!("{t:.0}")
    } else if t >= 1.0 {
        format!("{t:.2}")
    } else {
        format!("{t:.4}")
    }
}

/// The paper's "Cores/Nodes" axis for Wrangler-class nodes (24/node).
pub fn cores_nodes_label(cores: usize, profile: &MachineProfile) -> String {
    format!("{}/{}", cores, cores.div_ceil(profile.cores_per_node))
}

/// Zero-workload tasks (the paper's `/bin/hostname`).
pub fn zero_tasks(n: usize) -> Vec<taskframe::BagTask> {
    (0..n)
        .map(|i| Box::new(move |_: &taskframe::TaskCtx| i as u64) as taskframe::BagTask)
        .collect()
}

/// What `run_lf` takes: shared positions and the run's configuration.
pub type LfInput = (Arc<Vec<linalg::Vec3>>, LfConfig);

fn lf_input(s: mdsim::Bilayer, paper_atoms: usize, partitions: usize, charge_io: bool) -> LfInput {
    let cfg = LfConfig {
        cutoff: s.suggested_cutoff,
        partitions,
        paper_atoms,
        charge_io,
    };
    (Arc::new(s.positions), cfg)
}

/// A generated bilayer and the Leaflet Finder configuration the fault
/// sweeps run on it.
pub fn lf_system(atoms: usize, seed: u64, partitions: usize, charge_io: bool) -> LfInput {
    let spec = mdsim::BilayerSpec {
        n_atoms: atoms,
        ..Default::default()
    };
    let system = mdsim::bilayer::generate(&spec, seed);
    lf_input(system, atoms, partitions, charge_io)
}

/// One of the paper's Leaflet Finder systems, atoms divided by `scale`,
/// in the paper's 1024 partitions; the memory model reasons at paper
/// scale.
pub fn lf_paper_system(id: mdsim::LfDatasetId, scale: usize) -> LfInput {
    let system = mdsim::lf_dataset(id, scale, 7);
    lf_input(system, id.paper_atoms(), 1024, true)
}

/// Deaths must land inside the engine's live window (startup + job).
pub fn death_window(engine: Engine) -> (f64, f64) {
    match engine {
        Engine::Spark | Engine::Dask => (0.0, 3.0),
        Engine::Pilot => (0.0, 40.0),
        Engine::Mpi => (0.0, 1.5),
    }
}

/// The memory ledger's high-water mark over all nodes.
pub fn high_water(report: &SimReport) -> u64 {
    report.mem_high_water.iter().copied().max().unwrap_or(0)
}

/// Peak resident footprint of a fault-free run, the scale memory caps
/// are set against. MPI keeps no resident ledger, so its proxy is the
/// bytes its collectives move (what the fixed per-rank buffers hold).
pub fn fault_free_footprint(clean: &SimReport) -> u64 {
    match high_water(clean) {
        0 => (clean.bytes_broadcast + clean.bytes_shuffled).max(64 * 1024),
        peak => peak,
    }
}

/// Run `f` at 1, 2 and 8 host threads and print the `threads:` line:
/// virtual time owes nothing to host scheduling, so the three results
/// must be identical. Returns the serial result and whether they were.
pub fn thread_invariant<T: PartialEq>(what: &str, f: impl Fn() -> T) -> (T, bool) {
    let [t1, t2, t8] = [Threads::Serial, Threads::Fixed(2), Threads::Fixed(8)]
        .map(|threads| netsim::parallel::with_degree(threads, &f));
    let identical = t1 == t2 && t2 == t8;
    let verdict = if identical {
        "bit-identical"
    } else {
        "DIVERGED"
    };
    println!("  threads: {what} at 1/2/8 host threads {verdict}");
    (t1, identical)
}

/// Print a chaos leg's violations on `engine` and write each shrunk plan
/// to `<dir>/<stem>_violation_<seed>_<engine>.json` for CI to upload.
pub fn write_violations(report: &FuzzReport, engine: Engine, dir: &str, stem: &str) {
    for v in &report.violations {
        eprintln!("VIOLATION seed {} {engine:?}: {}", v.seed, v.message);
        let path = format!("{dir}/{stem}_violation_{}_{}.json", v.seed, engine.label());
        write_artifact(&path, &v.shrunk.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_formats() {
        assert_eq!(secs(123.4), "123");
        assert_eq!(secs(1.234), "1.23");
        assert_eq!(secs(0.1234), "0.1234");
    }

    #[test]
    fn cores_nodes() {
        // Matches the paper's Wrangler axis labels (32 HT slots per node).
        let w = netsim::wrangler();
        assert_eq!(cores_nodes_label(256, &w), "256/8");
        assert_eq!(cores_nodes_label(32, &w), "32/1");
        assert_eq!(cores_nodes_label(16, &w), "16/1");
    }
}
