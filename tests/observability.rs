//! Cross-crate observability tests: traced engine runs export valid
//! Chrome traces and CSV, the gantt renderer never panics, and the
//! critical path reproduces Fig. 8's broadcast attribution from mechanism.

use mdtask::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Minimal structural JSON check: balanced braces/brackets outside
/// strings, double quotes paired, no trailing garbage. Enough to catch a
/// malformed hand-rolled export without a JSON dependency.
fn assert_structurally_valid_json(s: &str) {
    let mut depth: Vec<char> = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    for c in s.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => depth.push('}'),
            '[' => depth.push(']'),
            '}' | ']' => {
                assert_eq!(depth.pop(), Some(c), "unbalanced {c:?} in JSON export")
            }
            _ => {}
        }
    }
    assert!(!in_string, "unterminated string in JSON export");
    assert!(depth.is_empty(), "unclosed brackets in JSON export");
}

fn traced_lf_clients() -> (Cluster, LfConfig, Arc<Vec<Vec3>>) {
    // ~2048 atoms: the 131k-atom bilayer at scale 64, the regime where
    // Dask's list-wise broadcast tax (items × 5e-5 s) dominates.
    let system = mdtask::sim::lf_dataset(LfDatasetId::Atoms131k, 64, 7);
    let cfg = LfConfig {
        cutoff: system.suggested_cutoff,
        partitions: 64,
        paper_atoms: LfDatasetId::Atoms131k.paper_atoms(),
        charge_io: false,
    };
    (Cluster::new(laptop(), 2), cfg, Arc::new(system.positions))
}

#[test]
fn traced_zero_workload_run_completes() {
    // Fig. 2's shape — zero-workload tasks — with the trace on.
    let sc = SparkContext::new(Cluster::new(laptop(), 1));
    sc.enable_trace();
    sc.set_phase("zero-workload");
    let mut sc = sc;
    let tasks: Vec<mdtask::frame::BagTask> = (0..64)
        .map(|i| Box::new(move |_: &TaskCtx| i as u64) as mdtask::frame::BagTask)
        .collect();
    let (_, report) = sc.run_bag(tasks).expect("traced run completes");
    let trace = report.trace.as_ref().expect("trace carried in report");
    assert!(trace.events.len() >= 64, "one event per task at least");
    // The exporters all accept the real trace.
    assert!(!trace
        .gantt(Cluster::new(laptop(), 1).total_cores(), 60)
        .is_empty());
    assert_structurally_valid_json(&trace.to_chrome_json());
    assert_structurally_valid_json(&Metrics::from_report(&report, 4).to_json());
}

#[test]
fn chrome_export_of_lf_run_is_structurally_valid() {
    let (cluster, cfg, positions) = traced_lf_clients();
    let rc = RunConfig::new(cluster, Engine::Spark)
        .approach(LfApproach::Broadcast1D)
        .trace(true);
    let out = run_lf(&rc, positions, &cfg).expect("spark LF runs");
    let trace = out.report.trace.as_ref().expect("trace enabled");
    let json = trace.to_chrome_json();
    assert_structurally_valid_json(&json);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""), "duration slices present");
    assert!(json.contains("\"ph\":\"M\""), "metadata records present");
    assert!(
        json.contains("\"broadcast\""),
        "the broadcast shows up as a named slice"
    );
}

/// The bare executor under a cut that outlives the suspicion timeout,
/// before its report is taken: killed attempts, fences and recovery
/// windows on the driver track, in a phase that needs escaping.
fn partitioned_policied_run() -> mdtask::cluster::SimExecutor {
    let plan = FaultPlan::none()
        .kill_node(2, 1.5)
        .partition(vec![vec![1]], 1.0, 3.0);
    let cluster = Cluster::builder()
        .nodes(4)
        .cores_per_node(4)
        .fault_plan(plan)
        .build();
    let mut exec = mdtask::cluster::SimExecutor::new(cluster);
    exec.enable_trace();
    exec.set_phase("policied \"cut\"");
    let policy = RetryPolicy::new(4)
        .with_detection_delay(0.25)
        .with_suspicion(0.25, 0.5);
    for i in 0..200 {
        exec.run_task_policied(0.0, 0.25 + 0.01 * (i % 50) as f64, &policy)
            .expect("one death and one healed cut leave cores to retry on");
    }
    exec
}

/// Leave `json` under `target/tmp/` for CI to load with a real JSON
/// parser — the structural check here cannot see a missing comma.
fn leave_for_ci(name: &str, json: String) {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, json).expect("write the export for CI");
}

#[test]
fn chrome_export_of_a_partitioned_policied_run_is_left_for_ci() {
    let report = partitioned_policied_run().into_report();
    assert!(report.fenced_results > 0 && report.retries > report.fenced_results);
    let json = report.trace.as_ref().expect("traced").to_chrome_json();
    assert_structurally_valid_json(&json);
    for cat in ["task", "recovery", "fenced"] {
        assert!(
            json.contains(&format!("\"cat\":\"{cat}\"")),
            "no {cat} slice"
        );
    }
    leave_for_ci("partitioned_policied.trace.json", json);
}

/// The partitioned run above plus one event of every other kind, through
/// the recorders the engines, the stream loop and `mdtaskd` call: every
/// arm of the Chrome writer in one export, whose flows CI also pairs.
#[test]
fn chrome_export_with_every_event_kind_is_left_for_ci() {
    let mut exec = partitioned_policied_run();
    exec.set_phase("every kind");
    exec.record_fetch(0, 3, 4096, 4.0, 4.5);
    exec.record_fetch_lost(3, 1, 512, 4.5, 4.75);
    exec.record_broadcast(1 << 20, 3, 5.0, 5.25);
    exec.record_spill(1, 2048, 5.25, 5.5);
    exec.record_evict(1, 1024, 5.5);
    exec.record_oom_kill(2, 5.5);
    exec.record_backpressure(0, 5.5, 6.0);
    exec.record_enqueue(1, 7, 6.0);
    exec.record_admit(1, 7, 6.0, 6.5);
    exec.record_reject(1, 8, 6.5);
    let report = exec.into_report();
    let trace = report.trace.as_ref().expect("traced");
    let kinds: Vec<&str> = trace.events.iter().map(|e| e.kind.kind_name()).collect();
    for kind in [
        "task",
        "fetch",
        "broadcast",
        "recovery",
        "fenced",
        "spill",
        "evict",
        "oomkill",
        "enqueue",
        "admit",
        "reject",
        "backpressure",
    ] {
        assert!(kinds.contains(&kind), "no {kind} event");
    }
    let json = trace.to_chrome_json();
    assert_structurally_valid_json(&json);
    leave_for_ci("every_kind.trace.json", json);
}

#[test]
fn csv_round_trips_a_real_engine_trace() {
    let (cluster, cfg, positions) = traced_lf_clients();
    let rc = RunConfig::new(cluster, Engine::Dask)
        .approach(LfApproach::Broadcast1D)
        .trace(true);
    let out = run_lf(&rc, positions, &cfg).expect("dask LF runs");
    let trace = out.report.trace.as_ref().expect("trace enabled");
    assert!(!trace.is_empty());
    let parsed = Trace::from_csv(&trace.to_csv()).expect("export parses back");
    assert_eq!(&parsed, trace);
}

#[test]
fn critical_path_attributes_dask_edge_discovery_to_broadcast() {
    // Fig. 8's headline: list-wise broadcast is 40–65% of Dask's
    // approach-1 edge discovery. The critical path derives it from the
    // event graph rather than from phase bookkeeping.
    let (cluster, cfg, positions) = traced_lf_clients();
    let rc = RunConfig::new(cluster, Engine::Dask)
        .approach(LfApproach::Broadcast1D)
        .trace(true);
    let out = run_lf(&rc, positions, &cfg).expect("dask LF runs");
    let trace = out.report.trace.as_ref().expect("trace enabled");
    let cp = CriticalPath::from_trace(trace);
    let edge = out
        .report
        .phase_total("edge-discovery")
        .expect("edge-discovery phase recorded");
    assert!(
        cp.time_for("broadcast") >= 0.40 * edge,
        "broadcast {}s must be >= 40% of edge discovery {}s",
        cp.time_for("broadcast"),
        edge
    );
}

#[test]
fn critical_path_keeps_spark_broadcast_marginal() {
    let (cluster, cfg, positions) = traced_lf_clients();
    let rc = RunConfig::new(cluster, Engine::Spark)
        .approach(LfApproach::Broadcast1D)
        .trace(true);
    let out = run_lf(&rc, positions, &cfg).expect("spark LF runs");
    let trace = out.report.trace.as_ref().expect("trace enabled");
    let cp = CriticalPath::from_trace(trace);
    let edge = out
        .report
        .phase_total("edge-discovery")
        .expect("edge-discovery phase recorded");
    assert!(
        cp.time_for("broadcast") <= 0.15 * edge,
        "tree broadcast {}s must be <= 15% of edge discovery {}s",
        cp.time_for("broadcast"),
        edge
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The gantt renderer tolerates any event geometry — zero-duration
    /// events, events at the exact span boundary, any width.
    #[test]
    fn gantt_never_panics(
        events in prop::collection::vec(
            (0usize..6, 0.0f64..10.0, 0.0f64..3.0, 0u8..2),
            0..24,
        ),
        width in 1usize..100,
    ) {
        let mut trace = Trace::default();
        for (i, (core, start, dur, killed)) in events.iter().enumerate() {
            if *killed == 1 {
                trace.push_killed(i, *core, *start, *start + *dur);
            } else {
                trace.push(i, *core, *start, *start + *dur);
            }
        }
        let rendered = trace.gantt(6, width);
        prop_assert!(trace.is_empty() || !rendered.is_empty());
    }
}
