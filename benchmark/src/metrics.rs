//! The metric catalogue: names, units and directions, and for end-to-end
//! metrics the bound `compare` (and the benchmark driver) applies.
//! `BENCHMARK.json` at the repo root is printed from this table
//! (`benchmark describe`); a test keeps the two in step.

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// it is a regression.
    pub bound: f64,
    /// `compare` lets the metric worsen by this much in its own unit even
    /// where that is more than the bound, so that a small baseline does
    /// not turn noise into a regression.
    pub slack: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    e2e("iter_wall_s_p25", "s", Lower, 0.25, 0.0),
    e2e("units_per_s_p75", "1/s", Higher, 0.25, 0.0),
    e2e("cpu_s_per_iter_p25", "s", Lower, 0.25, 0.0),
    e2e("setup_s", "s", Lower, 0.25, 0.05),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    slack: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        slack,
    }
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics; the layer is the text before the dot and is a crate
/// of the repo (`bench` is this harness, `model` the virtual clock).
/// Counts and every `model.*` value repeat exactly for a given seed; they
/// have a direction only because the schema wants one.
pub const PER_LAYER: &[PerLayer] = &[
    pl("bench.iters", "count", Higher),
    pl("bench.iter_wall_s_p50", "s", Lower),
    pl("bench.iter_wall_s_p75", "s", Lower),
    pl("bench.iter_wall_s_min", "s", Lower),
    pl("bench.cpu_user_s_per_iter", "s", Lower),
    pl("bench.cpu_sys_s_per_iter", "s", Lower),
    pl("bench.span_overhead_ratio", "ratio", Lower),
    pl("bench.unattributed_share", "share", Lower),
    pl("bench.failed_share", "share", Lower),
    pl("bench.peak_rss_mib", "MiB", Lower),
    pl("mdsim.generate_s", "s", Lower),
    pl("mdsim.atoms_per_s", "1/s", Higher),
    pl("mdio.decode_mdt_mb_per_s", "MB/s", Higher),
    pl("mdio.decode_xtcq_mb_per_s", "MB/s", Higher),
    pl("mdio.encode_mdt_mb_per_s", "MB/s", Higher),
    pl("mdio.encode_xtcq_mb_per_s", "MB/s", Higher),
    pl("mdio.xyz_decode_mb_per_s", "MB/s", Higher),
    pl("mdio.xyz_encode_mb_per_s", "MB/s", Higher),
    pl("mdio.staging_roundtrip_s", "s", Lower),
    pl("mdio.stream_schedule_s", "s", Lower),
    pl("mdio.busy_s", "s", Lower),
    pl("linalg.hausdorff_s", "s", Lower),
    pl("linalg.hausdorff_evals", "count", Lower),
    pl("linalg.rmsd_frames_per_s", "1/s", Higher),
    pl("linalg.busy_s", "s", Lower),
    pl("neighbors.block_edges_s", "s", Lower),
    pl("neighbors.block_edges_tree_s", "s", Lower),
    pl("neighbors.celllist_s", "s", Lower),
    pl("neighbors.edges_found", "count", Higher),
    pl("graphops.components_s", "s", Lower),
    pl("graphops.partial_merge_s", "s", Lower),
    pl("graphops.components_found", "count", Higher),
    pl("core.select_gather_s", "s", Lower),
    pl("core.codec_roundtrip_s", "s", Lower),
    pl("sparklet.run_s", "s", Lower),
    pl("sparklet.residual_s", "s", Lower),
    pl("sparklet.sim_tasks", "count", Higher),
    pl("sparklet.tasks_per_host_s", "1/s", Higher),
    pl("sparklet.stream_frames_per_s", "1/s", Higher),
    pl("dasklet.run_s", "s", Lower),
    pl("dasklet.residual_s", "s", Lower),
    pl("dasklet.sim_tasks", "count", Higher),
    pl("dasklet.tasks_per_host_s", "1/s", Higher),
    pl("dasklet.stream_frames_per_s", "1/s", Higher),
    pl("pilot.run_s", "s", Lower),
    pl("pilot.residual_s", "s", Lower),
    pl("pilot.sim_tasks", "count", Higher),
    pl("pilot.tasks_per_host_s", "1/s", Higher),
    pl("pilot.stream_frames_per_s", "1/s", Higher),
    pl("mpilike.run_s", "s", Lower),
    pl("mpilike.residual_s", "s", Lower),
    pl("mpilike.sim_tasks", "count", Higher),
    pl("mpilike.tasks_per_host_s", "1/s", Higher),
    pl("mpilike.stream_frames_per_s", "1/s", Higher),
    pl("netsim.exec_tasks_per_s", "1/s", Higher),
    pl("netsim.exec_faulty_tasks_per_s", "1/s", Higher),
    pl("netsim.trace_record_overhead_ratio", "ratio", Lower),
    pl("netsim.chrome_export_mb_per_s", "MB/s", Higher),
    pl("netsim.metrics_export_s", "s", Lower),
    pl("netsim.critical_path_s", "s", Lower),
    pl("netsim.faultplan_json_roundtrip_s", "s", Lower),
    pl("netsim.reach_queries_per_s", "1/s", Higher),
    pl("netsim.chaos_plans_per_s", "1/s", Higher),
    pl("netsim.chaos_violations", "count", Lower),
    pl("netsim.stream_frames_per_s", "1/s", Higher),
    pl("netsim.stream_invariant_failures", "count", Lower),
    pl("netsim.parallel_speedup_2t", "ratio", Higher),
    pl("mdtaskd.run_s", "s", Lower),
    pl("mdtaskd.jobs_per_host_s", "1/s", Higher),
    pl("mdtaskd.backlog_jobs", "count", Lower),
    pl("mdtaskd.rejected_typed", "count", Lower),
    pl("mdtaskd.requeues", "count", Lower),
    pl("model.makespan_s_sum", "s", Lower),
    pl("model.sim_tasks", "count", Higher),
    pl("model.retries", "count", Lower),
    pl("model.bytes_shuffled", "B", Lower),
    pl("model.bytes_broadcast", "B", Lower),
    pl("model.bytes_staged", "B", Lower),
    pl("model.fenced_results", "count", Lower),
    pl("model.service_latency_p50_s", "s", Lower),
    pl("model.service_latency_p99_s", "s", Lower),
    pl("model.stream_staleness_max_s", "s", Lower),
    pl("model.fingerprint_u32", "count", Higher),
];

/// Must a per-layer metric be bit-identical between two runs of one seed?
/// True of everything computed on the virtual clock and of every count
/// except the iteration count, which follows the time budget.
pub fn repeats_exactly(p: &PerLayer) -> bool {
    p.name.starts_with("model.") || (p.unit == "count" && p.name != "bench.iters")
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_schema_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(names.iter().all(|n| n.len() <= 64));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    #[test]
    fn exact_metrics_are_counts_and_model_values() {
        assert!(repeats_exactly(per_layer("model.makespan_s_sum").unwrap()));
        assert!(repeats_exactly(per_layer("neighbors.edges_found").unwrap()));
        assert!(!repeats_exactly(per_layer("bench.iters").unwrap()));
        assert!(!repeats_exactly(per_layer("mdio.busy_s").unwrap()));
    }
}
