//! Network partitions, suspicion, and zombie fencing (ISSUE-9
//! acceptance): a partitioned-but-alive node keeps computing while the
//! suspicion detector false-positively reschedules its tasks; the
//! original attempts survive as zombies whose stale results are fenced
//! exactly once at heal. Every engine must converge to the fault-free
//! answer, report the wasted work (`zombie_attempts`/`zombie_time_s`)
//! and the rejections (`fenced_results`), stay bit-identical across
//! host thread counts, and hold the no-double-count/no-hang oracles
//! under a ≥100-plan seeded partition-chaos battery.

use mdtask::prelude::*;
use netsim::chaos::plan_for_seed;
use std::sync::Arc;

fn lf_system() -> (Arc<Vec<Vec3>>, LfConfig) {
    let b = mdtask::sim::bilayer::generate(
        &BilayerSpec {
            n_atoms: 200,
            ..Default::default()
        },
        7,
    );
    (
        Arc::new(b.positions),
        LfConfig {
            // More partitions than one node's 8 cores, so node 1 hosts
            // in-flight tasks for every cut to strand.
            partitions: 16,
            cutoff: b.suggested_cutoff,
            paper_atoms: 200,
            charge_io: false,
        },
    )
}

fn cluster(plan: FaultPlan) -> Cluster {
    Cluster::new(laptop(), 2).with_faults(plan)
}

/// A detector aggressive enough to false-positive on short cuts: 0.25 s
/// heartbeats, suspected after one missed timeout window of 0.5 s.
fn suspicious_policy() -> RetryPolicy {
    RetryPolicy::new(4)
        .with_detection_delay(0.25)
        .with_suspicion(0.25, 0.5)
}

/// Midpoint of the named phase — virtual time guaranteed to fall inside
/// that phase's task window (tasks run back-to-back during a stage).
fn phase_midpoint(report: &SimReport, name: &str) -> f64 {
    let p = report
        .phases
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no {name:?} phase recorded"));
    0.5 * (p.start_s + p.end_s)
}

fn lf_matches(clean: &LfOutput, got: &LfOutput) {
    assert_eq!(got.leaflet_sizes, clean.leaflet_sizes, "leaflet sizes");
    assert_eq!(got.n_components, clean.n_components, "components");
    assert_eq!(got.edges_found, clean.edges_found, "edges");
}

/// The zombie ledger every false-positive run must balance: wasted work
/// is visible, and every zombie's stale result was rejected exactly once
/// (fences and zombies are conserved — never double-counted, never
/// silently dropped).
fn assert_fenced_exactly_once(engine: &str, report: &SimReport) {
    assert!(
        report.zombie_attempts > 0,
        "{engine}: the cut must strand at least one live attempt"
    );
    assert!(
        report.zombie_time_s > 0.0,
        "{engine}: zombie attempts burn core time"
    );
    assert_eq!(
        report.fenced_results, report.zombie_attempts,
        "{engine}: each zombie result is fenced exactly once"
    );
    assert!(
        report.retries > 0,
        "{engine}: suspicion must have rescheduled work"
    );
    assert!(report.makespan_s.is_finite(), "{engine}: no hang");
}

/// Spark: cut node 1 off mid-edge-discovery for long enough that the
/// detector gives up on it. Its in-flight tasks keep running behind the
/// cut; the driver reschedules them and later fences the stale shuffle
/// outputs by epoch. Results match the fault-free run bit-for-bit.
#[test]
fn spark_fences_zombies_and_converges_after_heal() {
    let (positions, cfg) = lf_system();
    let rc = |plan| {
        RunConfig::new(cluster(plan), Engine::Spark)
            .approach(LfApproach::Broadcast1D)
            .retry_policy(suspicious_policy())
    };
    let clean = run_lf(&rc(FaultPlan::none()), Arc::clone(&positions), &cfg).unwrap();
    assert_eq!(clean.report.zombie_attempts, 0);
    assert_eq!(clean.report.fenced_results, 0);

    let t_cut = phase_midpoint(&clean.report, "edge-discovery");
    let plan = FaultPlan::none().partition(vec![vec![1]], t_cut, t_cut + 2.0);
    let faulty = run_lf(&rc(plan), Arc::clone(&positions), &cfg).unwrap();
    lf_matches(&clean, &faulty);
    assert_fenced_exactly_once("spark", &faulty.report);
}

/// Dask: same cut; the dynamic scheduler reroutes the suspected node's
/// keys to survivors and ignores the superseded key results at heal.
#[test]
fn dask_fences_zombies_and_converges_after_heal() {
    let (positions, cfg) = lf_system();
    let rc = |plan| {
        RunConfig::new(cluster(plan), Engine::Dask)
            .approach(LfApproach::Broadcast1D)
            .retry_policy(suspicious_policy())
    };
    let clean = run_lf(&rc(FaultPlan::none()), Arc::clone(&positions), &cfg).unwrap();

    let t_cut = phase_midpoint(&clean.report, "edge-discovery");
    let plan = FaultPlan::none().partition(vec![vec![1]], t_cut, t_cut + 2.0);
    let faulty = run_lf(&rc(plan), Arc::clone(&positions), &cfg).unwrap();
    lf_matches(&clean, &faulty);
    assert_fenced_exactly_once("dask", &faulty.report);
}

/// Pilot: the cut lands inside the execution window (after the 35 s
/// bootstrap). The DB poll gives up on the partitioned agent, re-enqueues
/// its units, and fences the stale completions by generation number.
#[test]
fn pilot_fences_zombies_and_converges_after_heal() {
    let (positions, cfg) = lf_system();
    let rc = |plan| RunConfig::new(cluster(plan), Engine::Pilot).retry_policy(suspicious_policy());
    let clean = run_lf(&rc(FaultPlan::none()), Arc::clone(&positions), &cfg).unwrap();
    assert!(clean.report.makespan_s > 35.0, "pilot pays bootstrap");

    let t_cut = 0.5 * (35.0 + clean.report.makespan_s);
    let plan = FaultPlan::none().partition(vec![vec![1]], t_cut, t_cut + 8.0);
    let faulty = run_lf(&rc(plan), Arc::clone(&positions), &cfg).unwrap();
    lf_matches(&clean, &faulty);
    assert_fenced_exactly_once("pilot", &faulty.report);
}

/// MPI: a cut crossing the communicator breaks collectives like a death,
/// except the isolated cohort is alive — its post-checkpoint progress
/// carries a stale communicator epoch and is discarded exactly once on
/// the barrier restart.
#[test]
fn mpi_fences_zombie_cohort_and_converges_after_heal() {
    // The cut is aimed with the clean run's makespan, so every run below
    // must see the same clock: another test of this binary turns the
    // process-wide deterministic timing on, and did so between two of
    // these runs about once in ten.
    mdtask::cluster::set_deterministic_timing(true);
    let (positions, cfg) = lf_system();
    let rc = |plan| {
        RunConfig::new(cluster(plan), Engine::Mpi)
            .approach(LfApproach::Broadcast1D)
            .mpi_world(16)
            .retry_policy(suspicious_policy())
    };
    let clean = run_lf(&rc(FaultPlan::none()), Arc::clone(&positions), &cfg).unwrap();
    // Midway between mpirun startup (0.5 s) and job end — inside the
    // collective window, so the cut breaks the communicator.
    let t_cut = 0.5 * (0.5 + clean.report.makespan_s);

    // Heal far past the suspicion horizon (< cut + heartbeat + timeout =
    // cut + 0.75) so the detector declares the cohort dead while it is
    // still computing.
    let plan = FaultPlan::none().partition(vec![vec![1]], t_cut, t_cut + 2.0);
    let faulty = run_lf(&rc(plan), Arc::clone(&positions), &cfg).unwrap();
    lf_matches(&clean, &faulty);
    assert_fenced_exactly_once("mpi", &faulty.report);

    // The same cut healing before the suspicion horizon (suspect is at
    // least cut + timeout - heartbeat = cut + 0.25) is a stall, not a
    // failure: ranks block on the broken collective and resume — no
    // attempt consumed, nothing fenced.
    let brief = FaultPlan::none().partition(vec![vec![1]], t_cut, t_cut + 0.1);
    let stalled = run_lf(&rc(brief), Arc::clone(&positions), &cfg).unwrap();
    lf_matches(&clean, &stalled);
    assert_eq!(stalled.report.retries, 0, "waited-out cut costs no attempt");
    assert_eq!(stalled.report.zombie_attempts, 0);
    assert_eq!(stalled.report.fenced_results, 0);
    assert!(
        stalled.report.makespan_s > clean.report.makespan_s,
        "the stall still costs wall time"
    );

    // Plain MPI (one attempt, no detector) cannot recover: the cut is
    // indistinguishable from a death and aborts the communicator.
    let rc1 = RunConfig::new(
        cluster(FaultPlan::none().partition(vec![vec![1]], t_cut, t_cut + 2.0)),
        Engine::Mpi,
    )
    .approach(LfApproach::Broadcast1D)
    .mpi_world(16);
    match run_lf(&rc1, Arc::clone(&positions), &cfg) {
        Err(EngineError::WorkerLost { node, .. }) => assert_eq!(node, 1),
        other => panic!("expected WorkerLost, got {other:?}"),
    }
}

/// A partition during a streaming run never double-counts a window: every
/// engine's window map matches the fault-free run, replays are fenced,
/// and the fence/zombie ledger balances.
#[test]
fn stream_partition_replays_without_double_count() {
    const FRAMES: usize = 20;
    let spec = ChainSpec {
        n_atoms: 30,
        n_frames: FRAMES,
        stride: 1,
        ..ChainSpec::default()
    };
    let trajectory = Arc::new(mdtask::sim::chain::generate_ensemble(&spec, 1, 11).remove(0));
    let lf_cfg = LfConfig {
        cutoff: 8.0,
        partitions: 4,
        paper_atoms: 30,
        charge_io: false,
    };
    let source = || StreamSource::new(FRAMES, 0.5).with_latency(0.05);
    // Drain the driver node's memory so window state lives on node 1 —
    // the node the cut will sever — while node 2 stays free for replays.
    let run = |engine: Engine, plan: FaultPlan| {
        let plan = plan.shrink_memory(0, 0.0, 0);
        let mut rc = RunConfig::new(Cluster::new(laptop(), 3).with_faults(plan), engine)
            .streaming(2.0, 2.0, 0.5)
            .retry_policy(suspicious_policy().with_deadline(500.0));
        if engine == Engine::Mpi {
            rc = rc.mpi_world(16);
        }
        run_lf_stream(&rc, Arc::clone(&trajectory), &lf_cfg, &source())
    };
    let window_map = |out: &StreamOutput| {
        let mut v: Vec<_> = out
            .windows
            .iter()
            .map(|w| (w.id, w.frames.clone(), w.value))
            .collect();
        v.sort();
        v
    };

    // Cut node 1 off mid-stream for long enough that suspicion fires.
    let plan = FaultPlan::none().partition(vec![vec![1]], 1.0, 4.0);
    let mut disturbed = 0usize;
    for engine in Engine::ALL {
        let clean = run(engine, FaultPlan::none()).unwrap();
        let faulty = run(engine, plan.clone()).unwrap_or_else(|e| {
            panic!("{engine:?}: partitioned stream failed: {e}");
        });
        assert_eq!(
            window_map(&faulty.output),
            window_map(&clean.output),
            "{engine:?}: window contents must match the fault-free run"
        );
        // Exactly-once per window id, even where replays happened.
        let mut ids: Vec<usize> = faulty.output.windows.iter().map(|w| w.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            faulty.output.windows.len(),
            "{engine:?}: a window closed twice"
        );
        assert!(
            faulty.report.zombie_attempts == 0 || faulty.report.fenced_results > 0,
            "{engine:?}: zombies without fences"
        );
        assert!(faulty.report.makespan_s.is_finite(), "{engine:?}: hang");
        disturbed +=
            faulty.report.zombie_attempts + faulty.report.fenced_results + faulty.report.retries;
        disturbed += faulty.output.frames_replayed;
    }
    assert!(
        disturbed > 0,
        "the cut must visibly disturb at least one engine"
    );
}

/// Partition recovery — reschedules, zombie accounting, fence events, and
/// the trace — is bit-identical across host thread counts {1, 2, 8}.
#[test]
fn partition_runs_identical_across_host_threads() {
    mdtask::cluster::set_deterministic_timing(true);
    let (positions, cfg) = lf_system();
    for engine in Engine::ALL {
        let clean = {
            let rc = RunConfig::new(cluster(FaultPlan::none()), engine)
                .approach(LfApproach::Broadcast1D)
                .mpi_world(16)
                .retry_policy(suspicious_policy());
            run_lf(&rc, Arc::clone(&positions), &cfg).unwrap()
        };
        let t_cut = match engine {
            Engine::Pilot => 0.5 * (35.0 + clean.report.makespan_s),
            Engine::Mpi => 0.5 * (0.5 + clean.report.makespan_s),
            _ => phase_midpoint(&clean.report, "edge-discovery"),
        };
        let plan = FaultPlan::none().partition(vec![vec![1]], t_cut, t_cut + 8.0);
        let run = |threads: Threads| {
            let rc = RunConfig::new(cluster(plan.clone()), engine)
                .approach(LfApproach::Broadcast1D)
                .mpi_world(16)
                .retry_policy(suspicious_policy())
                .trace(true)
                .threads(threads);
            run_lf(&rc, Arc::clone(&positions), &cfg).map_err(|e| format!("{e:?}"))
        };
        let serial = run(Threads::Serial);
        for degree in [Threads::Fixed(2), Threads::Fixed(8)] {
            let got = run(degree);
            match (&serial, &got) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.leaflet_sizes, b.leaflet_sizes, "{engine:?}/{degree}");
                    assert_eq!(
                        a.report, b.report,
                        "{engine:?}/{degree}: SimReport (incl. zombies, fences, trace)"
                    );
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{engine:?}/{degree}: error"),
                (a, b) => panic!("{engine:?}/{degree}: outcome diverged: {a:?} vs {b:?}"),
            }
        }
    }
}

/// The ≥100-plan seeded partition-chaos battery: every engine under every
/// generated partition plan either matches the fault-free run exactly or
/// fails typed — zero double-counts (fences conserve zombies, results
/// never diverge) and zero hangs (every makespan finite).
#[test]
fn seeded_partition_chaos_battery_holds_on_every_engine() {
    let (positions, cfg) = lf_system();
    for engine in Engine::ALL {
        let window = match engine {
            Engine::Spark | Engine::Dask => (0.0, 3.0),
            Engine::Pilot => (0.0, 40.0),
            Engine::Mpi => (0.0, 1.5),
        };
        let rc = |plan| {
            RunConfig::new(cluster(plan), engine)
                .approach(LfApproach::Broadcast1D)
                .mpi_world(16)
                .retry_policy(suspicious_policy().with_deadline(10_000.0))
        };
        let clean = run_lf(&rc(FaultPlan::none()), Arc::clone(&positions), &cfg).unwrap();
        // Aim the cuts at the engine's busy window (for the pilot, past
        // the 35 s bootstrap) so they land among in-flight tasks; deaths
        // keep their per-engine windows.
        let busy_lo = if engine == Engine::Pilot { 34.0 } else { 0.05 };
        let chaos_cfg = {
            let mut c = ChaosConfig::new(2, 8).with_partitions(2);
            c.death_window_s = window;
            c.partition_window_s = (busy_lo, clean.report.makespan_s);
            c.partition_len_s = (0.5, 3.0);
            c
        };
        let mut zombies = 0usize;
        for seed in 0..110u64 {
            let plan = plan_for_seed(&chaos_cfg, seed);
            match run_lf(&rc(plan), Arc::clone(&positions), &cfg) {
                Ok(out) => {
                    lf_matches(&clean, &out);
                    assert!(
                        out.report.zombie_attempts == 0 || out.report.fenced_results > 0,
                        "{engine:?} seed {seed}: stale outputs were not rejected"
                    );
                    assert!(
                        out.report.makespan_s.is_finite(),
                        "{engine:?} seed {seed}: hang"
                    );
                    zombies += out.report.zombie_attempts;
                }
                // Under stacked deaths + cuts, running out of attempts or
                // time is an acceptable *typed* outcome — never a panic,
                // a hang, or silently wrong data.
                Err(
                    EngineError::RetriesExhausted { .. }
                    | EngineError::DeadlineExceeded { .. }
                    | EngineError::WorkerLost { .. },
                ) => {}
                Err(e) => panic!("{engine:?} seed {seed}: untyped failure: {e:?}"),
            }
        }
        assert!(
            zombies > 0,
            "{engine:?}: the battery must exercise the zombie path"
        );
    }
}
