//! Host-parallel determinism suite (PR-5 tentpole): running the real
//! compute closures across host threads must leave every simulated
//! observable — results, `SimReport` accounting, and the recorded trace —
//! bit-identical to the serial run.
//!
//! Every engine × workload × seeded fault/memory plan runs at host
//! thread counts {1, 2, 8} (via [`RunConfig::threads`]); the serial run
//! is the baseline. `set_deterministic_timing(true)` zeroes host-time
//! feedback into task costs so equality is exact.

use mdtask::prelude::*;
use netsim::chaos::plan_for_seed;
use std::sync::Arc;

/// Seeded chaos plans (deaths, stragglers, memory shrinks, lost fetches)
/// drawn from the same generator the fuzz harness uses.
const SEEDS: [u64; 2] = [7, 99_991];

const DEGREES: [Threads; 2] = [Threads::Fixed(2), Threads::Fixed(8)];

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
            cutoff: b.suggested_cutoff,
            partitions: 8,
            paper_atoms: 200,
            charge_io: true,
        },
    )
}

fn psa_system() -> (Arc<Vec<Trajectory>>, PsaConfig) {
    let spec = ChainSpec {
        n_atoms: 10,
        n_frames: 5,
        stride: 1,
        ..ChainSpec::default()
    };
    (
        Arc::new(mdtask::sim::chain::generate_ensemble(&spec, 4, 42)),
        PsaConfig {
            groups: 2,
            charge_io: true,
        },
    )
}

fn chaos_cfg(death_window: (f64, f64)) -> ChaosConfig {
    let mut cfg = ChaosConfig::new(2, 8);
    cfg.death_window_s = death_window;
    cfg
}

/// The fault/memory plans a given engine runs under: fault-free plus one
/// seeded chaos plan per seed, deaths placed inside the engine's
/// execution window.
fn plans(death_window: (f64, f64)) -> Vec<FaultPlan> {
    let mut out = vec![FaultPlan::none()];
    out.extend(
        SEEDS
            .iter()
            .map(|&s| plan_for_seed(&chaos_cfg(death_window), s)),
    );
    out
}

fn death_window(engine: Engine) -> (f64, f64) {
    match engine {
        Engine::Spark | Engine::Dask => (0.0, 3.0),
        Engine::Pilot => (0.0, 40.0),
        Engine::Mpi => (0.0, 1.5),
    }
}

fn rc_for(engine: Engine, approach: LfApproach, plan: FaultPlan) -> RunConfig {
    let mut rc = RunConfig::new(Cluster::new(laptop(), 2).with_faults(plan), engine)
        .approach(approach)
        .mpi_world(8)
        .trace(true);
    if engine == Engine::Mpi {
        rc = rc.retry_policy(RetryPolicy::new(4).with_detection_delay(0.25));
    }
    rc
}

fn assert_lf_identical(
    what: &str,
    base: &Result<LfOutput, String>,
    got: &Result<LfOutput, String>,
) {
    match (base, got) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.leaflet_sizes, b.leaflet_sizes, "{what}: leaflet sizes");
            assert_eq!(a.n_components, b.n_components, "{what}: components");
            assert_eq!(a.edges_found, b.edges_found, "{what}: edges");
            assert_eq!(a.shuffle_bytes, b.shuffle_bytes, "{what}: shuffle bytes");
            assert_eq!(a.tasks, b.tasks, "{what}: tasks");
            assert_eq!(a.report, b.report, "{what}: SimReport (incl. trace)");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{what}: error"),
        (a, b) => panic!("{what}: outcome diverged: {a:?} vs {b:?}"),
    }
}

/// Every engine × LF approach × plan: thread counts 2 and 8 reproduce
/// the serial run's output, report, and trace exactly.
#[test]
fn lf_reports_and_traces_identical_across_thread_counts() {
    mdtask::cluster::set_deterministic_timing(true);
    let (positions, cfg) = lf_system();
    for engine in Engine::ALL {
        // Pilot implements Approach 2 only; the knob is ignored there.
        let approaches: &[LfApproach] = if engine == Engine::Pilot {
            &[LfApproach::Task2D]
        } else {
            &LfApproach::ALL
        };
        for &approach in approaches {
            for plan in plans(death_window(engine)) {
                let run = |threads: Option<Threads>| {
                    let mut rc = rc_for(engine, approach, plan.clone());
                    if let Some(t) = threads {
                        rc = rc.threads(t);
                    }
                    run_lf(&rc, Arc::clone(&positions), &cfg).map_err(|e| format!("{e:?}"))
                };
                let serial = run(Some(Threads::Serial));
                for degree in DEGREES {
                    let what = format!("{engine:?}/{}/{degree}", approach.label());
                    assert_lf_identical(&what, &serial, &run(Some(degree)));
                }
                // And the process default (whatever MDTASK_THREADS says).
                assert_lf_identical(&format!("{engine:?}/default"), &serial, &run(None));
            }
        }
    }
}

/// Every engine × plan: the PSA Hausdorff matrix, report, and trace are
/// bit-identical at thread counts 2 and 8.
#[test]
fn psa_reports_and_traces_identical_across_thread_counts() {
    mdtask::cluster::set_deterministic_timing(true);
    let (ensemble, cfg) = psa_system();
    for engine in Engine::ALL {
        for plan in plans(death_window(engine)) {
            let run = |threads: Threads| {
                let rc = rc_for(engine, LfApproach::Task2D, plan.clone()).threads(threads);
                run_psa(&rc, Arc::clone(&ensemble), &cfg).map_err(|e| format!("{e:?}"))
            };
            let serial = run(Threads::Serial);
            for degree in DEGREES {
                let what = format!("{engine:?}/{degree}");
                match (&serial, &run(degree)) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(
                            a.distances.as_slice(),
                            b.distances.as_slice(),
                            "{what}: matrix"
                        );
                        assert_eq!(a.report, b.report, "{what}: SimReport (incl. trace)");
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "{what}: error"),
                    (a, b) => panic!(
                        "{what}: outcome diverged: ok={} vs ok={}",
                        a.is_ok(),
                        b.is_ok()
                    ),
                }
            }
        }
    }
}

/// Deliberate memory pressure (both nodes capped at half the fault-free
/// peak) engages spill/evict/recompute paths; their accounting must not
/// depend on the host thread count.
#[test]
fn memory_pressure_accounting_identical_across_thread_counts() {
    mdtask::cluster::set_deterministic_timing(true);
    let (positions, cfg) = lf_system();
    for engine in [Engine::Spark, Engine::Dask, Engine::Pilot] {
        let clean = run_lf(
            &rc_for(engine, LfApproach::Broadcast1D, FaultPlan::none()),
            Arc::clone(&positions),
            &cfg,
        )
        .expect("fault-free");
        let peak = clean
            .report
            .mem_high_water
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(2);
        let plan = FaultPlan::none()
            .shrink_memory(0, 0.0, peak / 2)
            .shrink_memory(1, 0.0, peak / 2);
        let run = |threads: Threads| {
            let rc = rc_for(engine, LfApproach::Broadcast1D, plan.clone()).threads(threads);
            run_lf(&rc, Arc::clone(&positions), &cfg).map_err(|e| format!("{e:?}"))
        };
        let serial = run(Threads::Serial);
        for degree in DEGREES {
            assert_lf_identical(
                &format!("{engine:?}/capped/{degree}"),
                &serial,
                &run(degree),
            );
        }
    }
}

/// The chaos fuzz harness itself (which fans plans out across host
/// threads) produces the same verdicts at every degree.
#[test]
fn chaos_fuzz_verdicts_identical_across_thread_counts() {
    mdtask::cluster::set_deterministic_timing(true);
    let (positions, cfg) = lf_system();
    let run_fuzz = || {
        let mut ccfg = chaos_cfg((0.0, 3.0));
        ccfg.plans = 16;
        ccfg.base_seed = 42;
        netsim::chaos::fuzz(&ccfg, |plan| {
            let rc = rc_for(Engine::Spark, LfApproach::ParallelCC, plan.clone());
            let out = run_lf(&rc, Arc::clone(&positions), &cfg).map_err(|e| format!("{e:?}"))?;
            let mut fp = netsim::chaos::Fingerprint::new();
            for &s in &out.leaflet_sizes {
                fp.write_usize(s);
            }
            fp.write_u64(out.edges_found);
            Ok(netsim::chaos::ChaosOutcome {
                fingerprint: fp.finish(),
                report: out.report,
            })
        })
    };
    let serial = netsim::parallel::with_degree(Threads::Serial, run_fuzz);
    for degree in DEGREES {
        let got = netsim::parallel::with_degree(degree, run_fuzz);
        assert_eq!(serial.runs, got.runs, "{degree}: plans run");
        assert_eq!(
            serial.violations.len(),
            got.violations.len(),
            "{degree}: violation count"
        );
        for (a, b) in serial.violations.iter().zip(&got.violations) {
            assert_eq!(a.seed, b.seed, "{degree}: violation seed");
            assert_eq!(a.message, b.message, "{degree}: violation message");
        }
    }
}
