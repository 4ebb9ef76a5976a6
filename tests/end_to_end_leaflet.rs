//! End-to-end Leaflet Finder: every engine × approach combination must
//! recover the bilayer generator's ground-truth leaflets, and the memory
//! gates must reproduce the paper's failure matrix.

use mdtask::analysis::leaflet;
use mdtask::prelude::*;
use std::sync::Arc;

struct System {
    positions: Arc<Vec<Vec3>>,
    cfg: LfConfig,
    truth: Vec<usize>,
}

fn system() -> System {
    let b = mdtask::sim::bilayer::generate(
        &BilayerSpec {
            n_atoms: 500,
            ..Default::default()
        },
        77,
    );
    let (up, lo) = b.leaflet_sizes();
    let mut truth = vec![up, lo];
    truth.sort_unstable_by(|a, b| b.cmp(a));
    System {
        positions: Arc::new(b.positions),
        cfg: LfConfig {
            cutoff: b.suggested_cutoff,
            partitions: 25,
            paper_atoms: 500,
            charge_io: true,
        },
        truth,
    }
}

fn cluster() -> Cluster {
    Cluster::new(comet(), 2)
}

#[test]
fn every_engine_and_approach_recovers_ground_truth() {
    let s = system();
    for approach in LfApproach::ALL {
        for engine in [Engine::Spark, Engine::Dask] {
            let rc = RunConfig::new(cluster(), engine).approach(approach);
            let out = run_lf(&rc, Arc::clone(&s.positions), &s.cfg).unwrap();
            assert_eq!(out.leaflet_sizes, s.truth, "{engine:?} {approach:?}");
        }
        let rc = RunConfig::new(cluster(), Engine::Mpi)
            .approach(approach)
            .mpi_world(6);
        let mpi = run_lf(&rc, Arc::clone(&s.positions), &s.cfg).unwrap();
        assert_eq!(mpi.leaflet_sizes, s.truth, "mpi {approach:?}");
    }
    let rc = RunConfig::new(cluster(), Engine::Pilot);
    let rp = run_lf(&rc, Arc::clone(&s.positions), &s.cfg).unwrap();
    assert_eq!(rp.leaflet_sizes, s.truth, "pilot approach 2");
}

#[test]
fn paper_scale_memory_failures_reproduce() {
    // Fig. 7's missing bars, driven by cfg.paper_atoms.
    let s = system();
    let c = Cluster::new(wrangler(), 8);
    // Paper-scale runs used 1024 partitions; the gates assume that layout.
    let at = |paper_atoms: usize| LfConfig {
        paper_atoms,
        partitions: 1024,
        ..s.cfg.clone()
    };

    use mdtask::analysis::Engine::*;
    // Approach 1: Dask dies at 524k; Spark/MPI at 4M.
    assert!(leaflet::check_feasible(Dask, LfApproach::Broadcast1D, &at(524_288), &c).is_err());
    assert!(leaflet::check_feasible(Spark, LfApproach::Broadcast1D, &at(524_288), &c).is_ok());
    assert!(leaflet::check_feasible(Spark, LfApproach::Broadcast1D, &at(4_000_000), &c).is_err());
    // Approach 3: Spark/MPI survive 4M (with splitting), Dask does not.
    assert!(leaflet::check_feasible(Spark, LfApproach::ParallelCC, &at(4_000_000), &c).is_ok());
    assert!(leaflet::check_feasible(Dask, LfApproach::ParallelCC, &at(4_000_000), &c).is_err());
    // Approach 4 runs everywhere.
    assert!(leaflet::check_feasible(Dask, LfApproach::TreeSearch, &at(4_000_000), &c).is_ok());

    // And the gates actually fire through the public entry points.
    let big = LfConfig {
        paper_atoms: 4_000_000,
        ..s.cfg.clone()
    };
    let rc = RunConfig::new(c.clone(), Engine::Spark).approach(LfApproach::Task2D);
    let err = run_lf(&rc, Arc::clone(&s.positions), &big);
    assert!(err.is_err(), "approach 2 at 4M paper-scale must refuse");
}

#[test]
fn memory_splitting_increases_task_count() {
    // ParallelCC on a "4M-atom" system must run far more tasks than the
    // target partition count (the paper's 1024 → 42k explosion).
    let s = system();
    let big = LfConfig {
        paper_atoms: 4_000_000,
        partitions: 64,
        ..s.cfg.clone()
    };
    let rc = RunConfig::new(cluster(), Engine::Spark).approach(LfApproach::ParallelCC);
    let out = run_lf(&rc, Arc::clone(&s.positions), &big).unwrap();
    assert!(
        out.tasks > 64 * 10,
        "expected task explosion from memory splitting, got {}",
        out.tasks
    );
    // Science unchanged despite the different decomposition.
    assert_eq!(out.leaflet_sizes, s.truth);
}

#[test]
fn search_strategies_are_interchangeable() {
    // The neighbors crate's three strategies feed the same pipeline.
    let b = mdtask::sim::bilayer::generate(
        &BilayerSpec {
            n_atoms: 200,
            ..Default::default()
        },
        3,
    );
    use mdtask::search::{neighbor_pairs, SearchStrategy};
    let brute = neighbor_pairs(&b.positions, b.suggested_cutoff, SearchStrategy::BruteForce);
    let tree = neighbor_pairs(&b.positions, b.suggested_cutoff, SearchStrategy::BallTree);
    let cells = neighbor_pairs(&b.positions, b.suggested_cutoff, SearchStrategy::CellList);
    assert_eq!(brute, tree);
    assert_eq!(brute, cells);
}
