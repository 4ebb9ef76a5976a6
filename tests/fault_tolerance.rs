//! Fault injection and recovery across engines (ISSUE acceptance
//! scenarios): task engines survive a worker death with identical results
//! and bounded slowdown; SPMD aborts; speculation tames stragglers.

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

/// Midpoint of the first phase with this name — a virtual time guaranteed
/// to fall inside the task window of that phase (tasks run back-to-back on
/// every core during a stage).
fn phase_midpoint(report: &SimReport, name: &str) -> f64 {
    let p = report
        .phases
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no {name:?} phase recorded"));
    0.5 * (p.start_s + p.end_s)
}

/// Scenario (a), Spark: kill one of the two nodes mid-edge-discovery. The
/// job must finish with results identical to the fault-free run, visible
/// retries, and a makespan that is inflated but bounded.
#[test]
fn spark_survives_worker_death_with_identical_results() {
    let s = system();
    let rc = RunConfig::new(cluster(), Engine::Spark).approach(LfApproach::Broadcast1D);
    let clean = run_lf(&rc, Arc::clone(&s.positions), &s.cfg).unwrap();
    assert_eq!(clean.report.retries, 0);
    assert_eq!(clean.report.lost_time_s, 0.0);

    let t_kill = phase_midpoint(&clean.report, "edge-discovery");
    let plan = FaultPlan::none().kill_node(1, t_kill);
    let rc = RunConfig::new(cluster().with_faults(plan), Engine::Spark)
        .approach(LfApproach::Broadcast1D);
    let faulty = run_lf(&rc, Arc::clone(&s.positions), &s.cfg).unwrap();

    assert_eq!(faulty.leaflet_sizes, clean.leaflet_sizes);
    assert_eq!(faulty.n_components, clean.n_components);
    assert_eq!(faulty.edges_found, clean.edges_found);
    assert!(faulty.report.retries > 0, "reruns must be accounted");
    assert!(faulty.report.lost_time_s > 0.0, "killed attempts lose work");
    assert!(
        faulty.report.phase_total("recovery").unwrap_or(0.0) > 0.0,
        "recovery must be recorded as a phase"
    );
    assert!(
        faulty.report.makespan_s > clean.report.makespan_s,
        "losing half the cluster mid-stage must cost time: {} vs {}",
        faulty.report.makespan_s,
        clean.report.makespan_s
    );
    assert!(
        faulty.report.makespan_s < 3.0 * clean.report.makespan_s,
        "recovery must stay bounded: {} vs {}",
        faulty.report.makespan_s,
        clean.report.makespan_s
    );
}

/// Scenario (a), Dask: same worker death, same guarantees — the dynamic
/// scheduler reschedules the dead worker's tasks on the survivors.
#[test]
fn dask_survives_worker_death_with_identical_results() {
    let s = system();
    let rc = RunConfig::new(cluster(), Engine::Dask).approach(LfApproach::Broadcast1D);
    let clean = run_lf(&rc, Arc::clone(&s.positions), &s.cfg).unwrap();
    assert_eq!(clean.report.retries, 0);

    let t_kill = phase_midpoint(&clean.report, "edge-discovery");
    let plan = FaultPlan::none().kill_node(1, t_kill);
    let rc =
        RunConfig::new(cluster().with_faults(plan), Engine::Dask).approach(LfApproach::Broadcast1D);
    let faulty = run_lf(&rc, Arc::clone(&s.positions), &s.cfg).unwrap();

    assert_eq!(faulty.leaflet_sizes, clean.leaflet_sizes);
    assert_eq!(faulty.n_components, clean.n_components);
    assert_eq!(faulty.edges_found, clean.edges_found);
    assert!(faulty.report.retries > 0, "reruns must be accounted");
    assert!(faulty.report.lost_time_s > 0.0, "killed attempts lose work");
    assert!(
        faulty.report.makespan_s < 3.0 * clean.report.makespan_s,
        "recovery must stay bounded: {} vs {}",
        faulty.report.makespan_s,
        clean.report.makespan_s
    );
}

/// The pilot re-enqueues failed units through the database, paying the
/// scheduling round-trip again, and still returns every result.
#[test]
fn pilot_reenqueues_failed_units() {
    let clean = Session::new(cluster())
        .unwrap()
        .submit_and_wait(
            (0..32u64)
                .map(|i| UnitDescription::compute_only(move |_, _| i * i))
                .collect::<Vec<UnitDescription<u64>>>(),
        )
        .unwrap();
    assert_eq!(clean.report.retries, 0);

    // Pilot startup is 35 s; units execute right after, so a death shortly
    // into the execution window hits running units.
    let t_kill = 0.5 * (35.0 + clean.report.makespan_s);
    let plan = FaultPlan::none().kill_node(1, t_kill);
    let faulty = Session::new(cluster().with_faults(plan))
        .unwrap()
        .submit_and_wait(
            (0..32u64)
                .map(|i| UnitDescription::compute_only(move |_, _| i * i))
                .collect::<Vec<UnitDescription<u64>>>(),
        )
        .unwrap();
    assert_eq!(faulty.results, clean.results);
    assert!(
        faulty.report.retries > 0,
        "failed units must be re-enqueued"
    );
    assert!(
        faulty.report.makespan_s >= clean.report.makespan_s,
        "re-enqueued units pay the DB round-trip again"
    );
}

/// Scenario (b): the same node death under MPI aborts the whole
/// communicator — SPMD has no task-level recovery.
#[test]
fn mpi_aborts_on_worker_death() {
    let s = system();
    // 0.4 s is before mpirun even finishes startup (0.5 s), so the death
    // always lands inside the job window.
    let plan = FaultPlan::none().kill_node(1, 0.4);
    let rc = RunConfig::new(cluster().with_faults(plan), Engine::Mpi)
        .approach(LfApproach::Broadcast1D)
        .mpi_world(16);
    match run_lf(&rc, Arc::clone(&s.positions), &s.cfg) {
        Err(EngineError::WorkerLost { node, at_s }) => {
            assert_eq!(node, 1);
            assert!((at_s - 0.4).abs() < 1e-12);
        }
        other => panic!("expected WorkerLost, got {other:?}"),
    }

    // A death scripted *after* the job would finish leaves it untouched.
    let late = FaultPlan::none().kill_node(1, 1e6);
    let rc = RunConfig::new(cluster().with_faults(late), Engine::Mpi)
        .approach(LfApproach::Broadcast1D)
        .mpi_world(16);
    let ok = run_lf(&rc, Arc::clone(&s.positions), &s.cfg);
    assert!(ok.is_ok(), "a post-job death must not abort: {ok:?}");
}

/// Scenario (c): under an injected straggler, enabling Spark's speculative
/// execution launches a backup attempt and shrinks the makespan.
#[test]
fn speculation_reduces_spark_makespan_under_straggler() {
    let run = |speculate: bool| {
        let plan = FaultPlan::none().slow_core(0, 30.0);
        let sc = SparkContext::new(cluster().with_faults(plan));
        if speculate {
            sc.enable_speculation(1.5);
        }
        let rdd = sc.parallelize((0..160u32).collect::<Vec<_>>(), 16);
        let doubled: Vec<u32> = rdd.map(|x| x * 2).collect();
        assert_eq!(doubled.len(), 160);
        sc.report()
    };
    let without = run(false);
    let with = run(true);
    assert_eq!(without.retries, 0);
    assert!(
        with.retries > 0,
        "the winning backup attempt counts as a retry"
    );
    assert!(
        with.makespan_s < 0.8 * without.makespan_s,
        "speculation must beat the straggler: {} vs {}",
        with.makespan_s,
        without.makespan_s
    );
}

/// A node death that destroys already-written shuffle output forces a
/// lineage recompute of the lost map partitions, and the recovered job
/// still produces the fault-free answer.
#[test]
fn spark_recomputes_lost_shuffle_output_from_lineage() {
    let data: Vec<(u32, u32)> = (0..64).map(|i| (i % 8, 1)).collect();
    let run = |faults: FaultPlan| {
        let sc = SparkContext::new(cluster().with_faults(faults));
        let rdd = sc.parallelize(data.clone(), 16);
        let mut grouped: Vec<(u32, Vec<u32>)> = rdd.group_by_key(4).collect();
        grouped.sort_unstable_by_key(|(k, _)| *k);
        (grouped, sc.report())
    };
    let (clean, clean_rep) = run(FaultPlan::none());
    assert_eq!(clean_rep.recomputed_partitions, 0);

    // Kill node 1 the instant the map stage's barrier passes: its shuffle
    // files vanish before any reducer can fetch them.
    let map_end = clean_rep
        .phases
        .iter()
        .find(|p| p.name == "shuffle")
        .expect("shuffle phase")
        .start_s;
    let (faulty, faulty_rep) = run(FaultPlan::none().kill_node(1, map_end + 1e-9));
    assert_eq!(faulty, clean, "lineage recompute must reproduce the data");
    assert!(
        faulty_rep.recomputed_partitions > 0,
        "lost map outputs must be recomputed from lineage"
    );
    assert!(faulty_rep.phase_total("recovery").unwrap_or(0.0) > 0.0);
}

/// Lost shuffle fetches are re-sent (and accounted as retries) without
/// double-counting the shuffled bytes.
#[test]
fn lost_fetches_are_resent_not_recounted() {
    let data: Vec<(u32, u32)> = (0..64).map(|i| (i % 8, 1)).collect();
    let run = |faults: FaultPlan| {
        let sc = SparkContext::new(cluster().with_faults(faults));
        let out = sc.parallelize(data.clone(), 8).group_by_key(4).count();
        assert_eq!(out, 8);
        sc.report()
    };
    let clean = run(FaultPlan::none());
    let lossy = run(FaultPlan::none().lose_fetches(0.5, 7));
    assert_eq!(
        lossy.bytes_shuffled, clean.bytes_shuffled,
        "re-sent fetches carry the same logical bytes"
    );
    assert!(lossy.retries > 0, "re-sent fetches are retries");
    assert!(lossy.comm_s > clean.comm_s, "re-sending costs wire time");
}

/// A rank that panics aborts its world, as `mpirun` would: the caller
/// gets the panicking rank's own payload back — promptly, never a hang.
#[test]
fn a_panicking_rank_aborts_the_mpi_world_instead_of_hanging() {
    let (tx, rx) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        let run = std::panic::catch_unwind(|| {
            let mut world = mdtask::mpi::World::launch(cluster(), 4).expect("4 ranks fit");
            let ranks = world.compute(|rank| {
                if rank == 2 {
                    panic!("rank 2 failed");
                }
                rank
            });
            world.try_gather(0, ranks)
        });
        let payload = run
            .err()
            .map(|p| p.downcast_ref::<&str>().map(|s| s.to_string()));
        let _ = tx.send(payload);
    });
    let payload = rx
        .recv_timeout(std::time::Duration::from_secs(20))
        .expect("a panicking rank left the world blocked");
    assert_eq!(payload, Some(Some("rank 2 failed".to_string())));
    helper.join().expect("the helper caught the run's panic");
}
