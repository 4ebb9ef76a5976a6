//! Recovery policies end-to-end (PR-3 acceptance scenarios): bounded
//! retries surface typed errors instead of panicking or hanging, deadlines
//! and detection delays are honoured, sparklet checkpoints truncate
//! lineage recompute, and mpilike restarts from the last collective
//! barrier instead of aborting.

use mdtask::prelude::*;
use std::sync::Arc;

struct System {
    positions: Arc<Vec<Vec3>>,
    cfg: LfConfig,
}

fn system() -> System {
    let b = mdtask::sim::bilayer::generate(
        &BilayerSpec {
            n_atoms: 300,
            ..Default::default()
        },
        17,
    );
    System {
        positions: Arc::new(b.positions),
        cfg: LfConfig {
            cutoff: b.suggested_cutoff,
            partitions: 16,
            paper_atoms: 300,
            charge_io: false,
        },
    }
}

fn cluster() -> Cluster {
    Cluster::new(laptop(), 2)
}

fn phase_midpoint(report: &SimReport, name: &str) -> f64 {
    let p = report
        .phases
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no {name:?} phase recorded"));
    0.5 * (p.start_s + p.end_s)
}

/// With `max_attempts = 1` the very first killed attempt exhausts the
/// policy: Spark surfaces `RetriesExhausted` as a value, not a panic.
#[test]
fn spark_retry_exhaustion_is_typed_error() {
    let s = system();
    let rc = RunConfig::new(cluster(), Engine::Spark).approach(LfApproach::Broadcast1D);
    let clean = run_lf(&rc, Arc::clone(&s.positions), &s.cfg).unwrap();

    let t_kill = phase_midpoint(&clean.report, "edge-discovery");
    let rc = RunConfig::new(
        cluster().with_faults(FaultPlan::none().kill_node(1, t_kill)),
        Engine::Spark,
    )
    .approach(LfApproach::Broadcast1D)
    .retry_policy(RetryPolicy::new(1));
    let got = run_lf(&rc, Arc::clone(&s.positions), &s.cfg);
    match got {
        Err(EngineError::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 1),
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

/// Same scenario on Dask: the poisoned future reaches `try_gather` as a
/// typed error.
#[test]
fn dask_retry_exhaustion_is_typed_error() {
    let s = system();
    let rc = RunConfig::new(cluster(), Engine::Dask).approach(LfApproach::Broadcast1D);
    let clean = run_lf(&rc, Arc::clone(&s.positions), &s.cfg).unwrap();

    let t_kill = phase_midpoint(&clean.report, "edge-discovery");
    let rc = RunConfig::new(
        cluster().with_faults(FaultPlan::none().kill_node(1, t_kill)),
        Engine::Dask,
    )
    .approach(LfApproach::Broadcast1D)
    .retry_policy(RetryPolicy::new(1));
    let got = run_lf(&rc, Arc::clone(&s.positions), &s.cfg);
    match got {
        Err(EngineError::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 1),
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

/// Pilot: a unit killed once under `max_attempts = 1` is not re-enqueued —
/// the session returns the typed error.
#[test]
fn pilot_retry_exhaustion_is_typed_error() {
    let units = || {
        (0..32u64)
            .map(|i| UnitDescription::compute_only(move |_, _| i * i))
            .collect::<Vec<UnitDescription<u64>>>()
    };
    let clean = Session::new(cluster())
        .unwrap()
        .submit_and_wait(units())
        .unwrap();
    let t_kill = 0.5 * (35.0 + clean.report.makespan_s);
    let session =
        Session::new(cluster().with_faults(FaultPlan::none().kill_node(1, t_kill))).unwrap();
    session.set_retry_policy(RetryPolicy::new(1));
    match session.submit_and_wait(units()) {
        Err(EngineError::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 1),
        Err(other) => panic!("expected RetriesExhausted, got {other:?}"),
        Ok(_) => panic!("expected RetriesExhausted, job succeeded"),
    }
}

/// When every node dies there is nowhere left to run: the engines fail
/// fast with `NoSurvivingWorkers` instead of hanging.
#[test]
fn all_nodes_dead_fails_fast_not_hangs() {
    let s = system();
    let plan = || FaultPlan::none().kill_node(0, 1e-4).kill_node(1, 1e-4);

    for engine in [Engine::Spark, Engine::Dask] {
        let rc =
            RunConfig::new(cluster().with_faults(plan()), engine).approach(LfApproach::Broadcast1D);
        match run_lf(&rc, Arc::clone(&s.positions), &s.cfg) {
            Err(EngineError::NoSurvivingWorkers { .. }) => {}
            other => panic!("{engine:?}: expected NoSurvivingWorkers, got {other:?}"),
        }
    }
}

/// An impossibly tight deadline fails fast with the typed error even on a
/// fault-free cluster.
#[test]
fn deadline_exceeded_is_typed_error() {
    let sc = SparkContext::new(cluster());
    sc.set_retry_policy(RetryPolicy::new(3).with_deadline(1e-12));
    let rdd = sc.parallelize((0..64u32).collect::<Vec<_>>(), 8);
    match rdd.try_collect() {
        Err(EngineError::DeadlineExceeded { deadline_s, .. }) => {
            assert!((deadline_s - 1e-12).abs() < 1e-15)
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

/// Heartbeat detection delay is paid in virtual time: the same death with
/// a 2 s heartbeat finishes at least ~2 s later than instant detection.
#[test]
fn detection_delay_is_paid_in_virtual_time() {
    let s = system();
    let rc = RunConfig::new(cluster(), Engine::Dask).approach(LfApproach::Broadcast1D);
    let clean = run_lf(&rc, Arc::clone(&s.positions), &s.cfg).unwrap();
    let t_kill = phase_midpoint(&clean.report, "edge-discovery");
    let run = |delay: f64| {
        let rc = RunConfig::new(
            cluster().with_faults(FaultPlan::none().kill_node(1, t_kill)),
            Engine::Dask,
        )
        .approach(LfApproach::Broadcast1D)
        .retry_policy(RetryPolicy::new(5).with_detection_delay(delay));
        run_lf(&rc, Arc::clone(&s.positions), &s.cfg).unwrap()
    };
    let instant = run(0.0);
    let delayed = run(2.0);
    assert_eq!(instant.leaflet_sizes, delayed.leaflet_sizes);
    assert!(
        delayed.report.makespan_s >= instant.report.makespan_s + 1.0,
        "a 2 s heartbeat must delay recovery: {} vs {}",
        delayed.report.makespan_s,
        instant.report.makespan_s
    );
}

/// Acceptance scenario: a checkpointed RDD provably recomputes fewer
/// partitions than the same uncheckpointed lineage after a late node
/// death, and still produces the fault-free answer.
#[test]
fn checkpoint_truncates_lineage_recompute() {
    // Two chained shuffles over bulky records: the second shuffle's fetch
    // window is dominated by deterministic (byte-volume) transfer time, so
    // a kill at its midpoint reliably destroys map outputs on node 1
    // before the reducers finish fetching. Without a checkpoint the
    // rebuild replays the whole depth-2 lineage per lost partition; with
    // the intermediate RDD checkpointed it replays a single stage.
    let data: Vec<(u32, Vec<u32>)> = (0..64).map(|i| (i % 16, vec![i; 4096])).collect();
    let run = |checkpointed: bool, faults: Option<f64>| {
        let plan = match faults {
            Some(t) => FaultPlan::none().kill_node(1, t),
            None => FaultPlan::none(),
        };
        let sc = SparkContext::new(cluster().with_faults(plan));
        // 16 map partitions feed shuffle #2, spanning both nodes.
        let mid = sc
            .parallelize(data.clone(), 16)
            .group_by_key(16)
            .map(|(k, vs)| (k % 4, vs));
        let mid = if checkpointed { mid.checkpoint() } else { mid };
        let mut out: Vec<(u32, Vec<Vec<Vec<u32>>>)> = mid.group_by_key(4).collect();
        out.sort_unstable();
        (out, sc.report())
    };
    // Midpoint of the second (latest-starting) shuffle's fetch window.
    let second_shuffle_mid = |rep: &SimReport| {
        rep.phases
            .iter()
            .filter(|p| p.name == "shuffle")
            .max_by(|a, b| a.start_s.total_cmp(&b.start_s))
            .map(|p| 0.5 * (p.start_s + p.end_s))
            .expect("shuffle phase recorded")
    };

    let (clean_plain, rep_plain) = run(false, None);
    let (clean_ckpt, rep_ckpt) = run(true, None);
    assert_eq!(clean_plain, clean_ckpt);
    assert!(
        rep_ckpt.phase_total("checkpoint").unwrap_or(0.0) > 0.0,
        "the checkpoint write must be charged"
    );

    let (faulty_plain, frep_plain) = run(false, Some(second_shuffle_mid(&rep_plain)));
    let (faulty_ckpt, frep_ckpt) = run(true, Some(second_shuffle_mid(&rep_ckpt)));
    assert_eq!(faulty_plain, clean_plain, "recompute must reproduce data");
    assert_eq!(faulty_ckpt, clean_plain, "recompute must reproduce data");
    assert!(frep_plain.recomputed_partitions > 0);
    assert!(frep_ckpt.recomputed_partitions > 0);
    assert!(
        frep_ckpt.recomputed_partitions < frep_plain.recomputed_partitions,
        "checkpoint must truncate lineage: {} (ckpt) vs {} (plain)",
        frep_ckpt.recomputed_partitions,
        frep_plain.recomputed_partitions
    );
}

/// MPI under a recovery policy restarts from the last completed collective
/// barrier: the job finishes with the fault-free answer, and restarting
/// from the barrier loses strictly less work than restarting from scratch.
#[test]
fn mpi_restarts_from_last_collective_barrier() {
    let s = system();
    let rc = RunConfig::new(cluster(), Engine::Mpi)
        .approach(LfApproach::Broadcast1D)
        .mpi_world(16);
    let clean = run_lf(&rc, Arc::clone(&s.positions), &s.cfg).unwrap();
    let t_kill = phase_midpoint(&clean.report, "edge-discovery");
    let policy = RetryPolicy::new(3).with_detection_delay(1.0);
    let run = |from_barrier: bool| {
        let rc = RunConfig::new(
            cluster().with_faults(FaultPlan::none().kill_node(1, t_kill)),
            Engine::Mpi,
        )
        .approach(LfApproach::Broadcast1D)
        .mpi_world(16)
        .retry_policy(policy)
        .checkpoint_restart(from_barrier);
        run_lf(&rc, Arc::clone(&s.positions), &s.cfg).expect("policied MPI job must recover")
    };
    let barrier = run(true);
    let scratch = run(false);

    for out in [&barrier, &scratch] {
        assert_eq!(out.leaflet_sizes, clean.leaflet_sizes);
        assert_eq!(out.n_components, clean.n_components);
        assert_eq!(out.edges_found, clean.edges_found);
        assert_eq!(out.report.retries, 1, "one restart");
        assert!(out.report.lost_time_s > 0.0);
        assert!(out.report.makespan_s > clean.report.makespan_s);
        assert!(
            out.report.phase_total("recovery").unwrap_or(0.0) > 0.0,
            "the restart window must be a recovery phase"
        );
    }
    // Note: makespans of the two runs are not directly comparable — each
    // re-measures its real task durations — but lost work is computed
    // inside one timeline and scales with `world`, so it is robust.
    assert!(
        barrier.report.lost_time_s < scratch.report.lost_time_s,
        "the broadcast barrier checkpoint must save work: {} vs {}",
        barrier.report.lost_time_s,
        scratch.report.lost_time_s
    );
}

/// A second death during the restarted MPI run exhausts `max_attempts = 2`
/// and surfaces the typed error; MPI without a policy (one attempt) still
/// keeps the abort-on-death posture.
#[test]
fn mpi_policy_exhaustion_and_default_abort() {
    let s = system();
    // Both deaths land inside the 0.5 s mpirun startup window, so they are
    // always before the job's end regardless of measured task durations.
    let plan = FaultPlan::none().kill_node(1, 0.3).kill_node(0, 0.4);
    let rc = RunConfig::new(cluster().with_faults(plan.clone()), Engine::Mpi)
        .approach(LfApproach::Broadcast1D)
        .mpi_world(16)
        .retry_policy(RetryPolicy::new(2));
    match run_lf(&rc, Arc::clone(&s.positions), &s.cfg) {
        Err(EngineError::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 2),
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }

    let rc = RunConfig::new(
        cluster().with_faults(FaultPlan::none().kill_node(1, 0.4)),
        Engine::Mpi,
    )
    .approach(LfApproach::Broadcast1D)
    .mpi_world(16);
    match run_lf(&rc, Arc::clone(&s.positions), &s.cfg) {
        Err(EngineError::WorkerLost { node, .. }) => assert_eq!(node, 1),
        other => panic!("expected WorkerLost, got {other:?}"),
    }
}

/// PSA on MPI under a retry policy survives a mid-job death and still
/// reproduces the fault-free Hausdorff matrix bit-for-bit.
#[test]
fn psa_mpi_with_policy_matches_fault_free() {
    let spec = ChainSpec {
        n_atoms: 10,
        n_frames: 5,
        stride: 1,
        ..ChainSpec::default()
    };
    let e = mdtask::sim::chain::generate_ensemble(&spec, 6, 42);
    let cfg = PsaConfig {
        groups: 3,
        charge_io: true,
    };
    let e = Arc::new(e);
    let rc = RunConfig::new(cluster(), Engine::Mpi).mpi_world(4);
    let clean = run_psa(&rc, Arc::clone(&e), &cfg).unwrap();
    // A death during startup always precedes the job's end, whatever the
    // measured kernel durations turn out to be. All 4 ranks sit on node 0,
    // so that is the node whose death the communicator observes.
    let rc = RunConfig::new(
        cluster().with_faults(FaultPlan::none().kill_node(0, 0.4)),
        Engine::Mpi,
    )
    .mpi_world(4)
    .retry_policy(RetryPolicy::new(3));
    let faulty = run_psa(&rc, Arc::clone(&e), &cfg).expect("policied PSA must recover");
    assert_eq!(
        faulty.distances.as_slice(),
        clean.distances.as_slice(),
        "recovered matrix must match fault-free bit-for-bit"
    );
    assert_eq!(faulty.report.retries, 1);
}

/// The task engines and how each is asked for LF.
fn task_engine_config(engine: Engine, plan: FaultPlan, policy: RetryPolicy) -> RunConfig {
    let rc = RunConfig::new(cluster().with_faults(plan), engine)
        .retry_policy(policy)
        .trace(true);
    match engine {
        Engine::Pilot => rc,
        _ => rc.approach(LfApproach::Broadcast1D),
    }
}

const TASK_ENGINES: [Engine; 3] = [Engine::Spark, Engine::Dask, Engine::Pilot];

/// The per-attempt watchdog is honoured by every task engine: a straggler
/// core stretches its task 50×, the watchdog — set between the clean and
/// the stretched duration — kills the attempt, and the rerun on another
/// core reproduces the fault-free answer.
#[test]
fn watchdog_kills_a_straggler_attempt_on_every_task_engine() {
    let s = system();
    for engine in TASK_ENGINES {
        let rc = task_engine_config(engine, FaultPlan::none(), RetryPolicy::new(4));
        let clean = run_lf(&rc, Arc::clone(&s.positions), &s.cfg).unwrap();
        let trace = clean.report.trace.as_ref().expect("traced");
        let tasks = || {
            trace
                .events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Task { .. }))
        };
        let straggler = tasks().next().expect("the run placed tasks").core;
        let shortest = tasks()
            .map(|e| e.end_s - e.start_s)
            .fold(f64::INFINITY, f64::min);

        let plan = FaultPlan::none().slow_core(straggler, 50.0);
        let policy = RetryPolicy::new(4).with_timeout(25.0 * shortest);
        let rc = task_engine_config(engine, plan, policy);
        let got = run_lf(&rc, Arc::clone(&s.positions), &s.cfg)
            .unwrap_or_else(|e| panic!("{engine:?}: the rerun must succeed, got {e:?}"));
        assert_eq!(got.leaflet_sizes, clean.leaflet_sizes, "{engine:?}");
        assert_eq!(got.n_components, clean.n_components, "{engine:?}");
        assert_eq!(got.edges_found, clean.edges_found, "{engine:?}");
        assert!(
            got.report.retries >= 1,
            "{engine:?}: the watchdog never fired"
        );
        assert!(got.report.lost_time_s > 0.0, "{engine:?}");
        let trace = got.report.trace.as_ref().expect("traced");
        assert!(
            trace.events.iter().any(|e| {
                matches!(e.kind, EventKind::Recovery { .. }) && trace.label_of(e) == "timeout"
            }),
            "{engine:?}: no `timeout` recovery in the trace"
        );
    }
}

/// A watchdog no attempt can beat exhausts the budget as a typed timeout.
#[test]
fn unbeatable_watchdog_is_a_typed_timeout_on_every_task_engine() {
    let s = system();
    for engine in TASK_ENGINES {
        let policy = RetryPolicy::new(2).with_timeout(1e-9);
        let rc = task_engine_config(engine, FaultPlan::none(), policy);
        match run_lf(&rc, Arc::clone(&s.positions), &s.cfg) {
            Err(EngineError::TaskTimeout {
                attempt, timeout_s, ..
            }) => {
                assert_eq!((attempt, timeout_s), (2, 1e-9), "{engine:?}");
            }
            other => panic!("{engine:?}: expected TaskTimeout, got {other:?}"),
        }
    }
}
