//! A CPPTraj-equivalent baseline: ensemble 2D-RMSD over MPI with two
//! compiler builds (Fig. 6).
//!
//! CPPTraj (§2.2, §4.2) computes the all-pairs 2D-RMSD between ensemble
//! members in parallel over MPI ("at least one MPI process per ensemble
//! member"), gathers the results, and reduces them to Hausdorff distances.
//! The paper compiled it twice — GNU with no optimization, and Intel with
//! `-Wall -O3` — and measured both against core count.
//!
//! We reproduce the *compiler* contrast with two real kernel builds:
//!
//! * [`KernelBuild::GnuNoOpt`] — a scalar loop threaded through
//!   [`std::hint::black_box`], which suppresses vectorization, unrolling
//!   and fusion exactly the way `-O0` codegen does (the slowness is real,
//!   not a charged constant);
//! * [`KernelBuild::IntelO3`] — the blocked/unrolled kernel from
//!   `linalg`, which the optimizer vectorizes.
//!
//! Both produce identical values (property-tested), differing only in
//! speed, and run under `mpilike`'s virtual-time SPMD communicator.

use linalg::rmsd2d::hausdorff_from_rmsd2d;
use linalg::{DistanceMatrix, Frame, FrameMetric};
use mdsim::Trajectory;
use netsim::{Cluster, RetryPolicy, SimReport};
use std::hint::black_box;
use taskframe::EngineError;

/// Which compiler build of the RMSD kernel to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelBuild {
    /// GNU C++ with no optimization: scalar, no SIMD, no unrolling.
    GnuNoOpt,
    /// Intel `-Wall -O3`: blocked, unrolled, vectorizable.
    IntelO3,
}

impl KernelBuild {
    pub fn label(self) -> &'static str {
        match self {
            KernelBuild::GnuNoOpt => "GNU",
            KernelBuild::IntelO3 => "Intel -Wall -O3",
        }
    }

    /// The frame kernel this build compiles [`linalg::rmsd2d`] with.
    fn metric(self) -> FrameMetric {
        match self {
            KernelBuild::GnuNoOpt => frame_rmsd_noopt,
            KernelBuild::IntelO3 => linalg::frame_rmsd_blocked,
        }
    }
}

/// Frame RMSD compiled "without optimization": every element access and
/// accumulation passes through `black_box`, pinning values to memory the
/// way `-O0` does and defeating auto-vectorization.
pub fn frame_rmsd_noopt(a: &Frame, b: &Frame) -> f64 {
    assert_eq!(a.n_atoms(), b.n_atoms(), "frame_rmsd: atom count mismatch");
    assert!(a.n_atoms() > 0, "frame_rmsd: empty frames");
    let pa = a.positions();
    let pb = b.positions();
    let mut acc = 0.0f64;
    for i in 0..pa.len() {
        let dx = black_box(black_box(pa[i].x) - black_box(pb[i].x)) as f64;
        let dy = black_box(black_box(pa[i].y) - black_box(pb[i].y)) as f64;
        let dz = black_box(black_box(pa[i].z) - black_box(pb[i].z)) as f64;
        acc = black_box(acc + dx * dx + dy * dy + dz * dz);
    }
    (acc / pa.len() as f64).sqrt()
}

/// Result of a CPPTraj-style PSA run.
pub struct CppTrajOutput {
    /// Symmetric Hausdorff distance matrix over the ensemble.
    pub distances: DistanceMatrix,
    pub report: SimReport,
}

/// All-pairs PSA over an ensemble, CPPTraj-style: trajectory pairs are
/// distributed round-robin over `world` MPI ranks, each rank computes its
/// pairs' 2D-RMSD and reduces them to Hausdorff distances locally, and
/// rank 0 gathers the results into the distance matrix.
pub fn ensemble_psa(
    cluster: Cluster,
    world: usize,
    build: KernelBuild,
    ensemble: &[Trajectory],
) -> Result<CppTrajOutput, EngineError> {
    let n = ensemble.len();
    assert!(n >= 1, "ensemble must not be empty");
    // Upper-triangle pairs (i <= j); diagonal is zero by construction but
    // cheap enough to include, matching CPPTraj's all-pairs mode.
    let pairs: Vec<(usize, usize)> = (0..n).flat_map(|i| (i..n).map(move |j| (i, j))).collect();
    let metric = build.metric();
    let mut mpi = mpilike::World::launch(cluster, world)?;
    let ranks = mpi.size();
    let mine: Vec<Vec<(usize, usize)>> = (0..ranks)
        .map(|rank| pairs.iter().copied().skip(rank).step_by(ranks).collect())
        .collect();
    let local: Vec<Vec<(u32, u32, f64)>> = mpi.compute(|rank| {
        mine[rank]
            .iter()
            .map(|&(i, j)| {
                let d = linalg::rmsd2d(&ensemble[i].frames, &ensemble[j].frames, metric);
                (i as u32, j as u32, hausdorff_from_rmsd2d(&d))
            })
            .collect()
    });
    let gathered = mpi.try_gather(0, local);
    let report = mpi.finish(&RetryPolicy::new(1), true)?;
    let mut distances = DistanceMatrix::zeros(n, n);
    for (i, j, h) in gathered?.into_iter().flatten() {
        distances.set(i as usize, j as usize, h);
        distances.set(j as usize, i as usize, h);
    }
    Ok(CppTrajOutput { distances, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::Vec3;
    use mdsim::ChainSpec;
    use netsim::comet;
    use proptest::prelude::*;

    fn small_ensemble(count: usize) -> Vec<Trajectory> {
        let spec = ChainSpec {
            n_atoms: 12,
            n_frames: 6,
            stride: 1,
            ..ChainSpec::default()
        };
        mdsim::chain::generate_ensemble(&spec, count, 7)
    }

    fn cluster() -> Cluster {
        Cluster::new(comet(), 1)
    }

    #[test]
    fn noopt_kernel_matches_optimized() {
        let e = small_ensemble(2);
        let a = &e[0].frames;
        let b = &e[1].frames;
        for fa in a {
            for fb in b {
                let slow = frame_rmsd_noopt(fa, fb);
                let fast = linalg::frame_rmsd_blocked(fa, fb);
                // The builds round differently (f32 vs f64 squaring), just
                // like real -O0 and -O3 binaries of the same source.
                let tol = 1e-5 * (1.0 + fast.abs());
                assert!((slow - fast).abs() < tol, "slow={slow} fast={fast}");
            }
        }
    }

    /// Both builds run the one `linalg::rmsd2d` loop: every cell, and
    /// every Hausdorff distance reduced from them, is bit for bit what a
    /// hand-written row-major sweep of the build's own kernel gives.
    #[test]
    fn each_build_is_a_row_major_sweep_of_its_kernel() {
        let e = small_ensemble(3);
        for (build, kernel) in [
            (KernelBuild::GnuNoOpt, frame_rmsd_noopt as FrameMetric),
            (KernelBuild::IntelO3, linalg::frame_rmsd_blocked),
        ] {
            let psa = ensemble_psa(cluster(), 2, build, &e).unwrap();
            for i in 0..3 {
                for j in i..3 {
                    let (a, b) = (&e[i].frames, &e[j].frames);
                    let mut sweep = DistanceMatrix::zeros(a.len(), b.len());
                    for (r, fa) in a.iter().enumerate() {
                        for (c, fb) in b.iter().enumerate() {
                            sweep.set(r, c, kernel(fa, fb));
                        }
                    }
                    let d = linalg::rmsd2d(a, b, build.metric());
                    let bits = |m: &DistanceMatrix| -> Vec<u64> {
                        m.as_slice().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(&d), bits(&sweep), "{build:?} ({i},{j})");
                    assert_eq!(
                        psa.distances.get(i, j).to_bits(),
                        hausdorff_from_rmsd2d(&sweep).to_bits(),
                        "{build:?} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn builds_agree_on_full_psa() {
        let e = small_ensemble(4);
        let gnu = ensemble_psa(cluster(), 2, KernelBuild::GnuNoOpt, &e).unwrap();
        let intel = ensemble_psa(cluster(), 2, KernelBuild::IntelO3, &e).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let (g, o) = (gnu.distances.get(i, j), intel.distances.get(i, j));
                assert!(
                    (g - o).abs() < 1e-5 * (1.0 + o.abs()),
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn distance_matrix_is_symmetric_with_zero_diagonal() {
        let e = small_ensemble(5);
        let out = ensemble_psa(cluster(), 3, KernelBuild::IntelO3, &e).unwrap();
        for i in 0..5 {
            assert_eq!(out.distances.get(i, i), 0.0);
            for j in 0..5 {
                assert_eq!(out.distances.get(i, j), out.distances.get(j, i));
            }
        }
    }

    #[test]
    fn matches_direct_hausdorff() {
        let e = small_ensemble(3);
        let out = ensemble_psa(cluster(), 2, KernelBuild::IntelO3, &e).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let direct =
                    linalg::hausdorff_naive(&e[i].frames, &e[j].frames, linalg::frame_rmsd);
                assert!(
                    (out.distances.get(i, j) - direct).abs() < 1e-9,
                    "pair ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn world_size_does_not_change_answers() {
        let e = small_ensemble(4);
        let w1 = ensemble_psa(cluster(), 1, KernelBuild::IntelO3, &e).unwrap();
        let w6 = ensemble_psa(cluster(), 6, KernelBuild::IntelO3, &e).unwrap();
        assert_eq!(w1.distances, w6.distances);
    }

    #[test]
    fn more_ranks_reduce_virtual_time() {
        let spec = ChainSpec {
            n_atoms: 60,
            n_frames: 12,
            stride: 1,
            ..ChainSpec::default()
        };
        let e = mdsim::chain::generate_ensemble(&spec, 8, 3);
        // Pin host execution serial: this test compares *measured* closure
        // durations across world sizes, and an oversubscribed host pool
        // (MDTASK_THREADS > host cores) would pollute them with contention.
        let serial = |world| {
            netsim::parallel::with_degree(netsim::parallel::Threads::Serial, || {
                ensemble_psa(cluster(), world, KernelBuild::IntelO3, &e).unwrap()
            })
        };
        let t1 = serial(1).report.makespan_s;
        let t8 = serial(8).report.makespan_s;
        // Discount the fixed 0.5 s mpirun startup before comparing.
        assert!(
            t8 - 0.5 < (t1 - 0.5) * 0.5,
            "8 ranks should be much faster: t1={t1} t8={t8}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The de-optimized kernel is numerically identical to the
        /// optimized one for arbitrary frames.
        #[test]
        fn kernels_numerically_equal(
            coords in prop::collection::vec(
                (-50.0f32..50.0, -50.0f32..50.0, -50.0f32..50.0), 1..40),
            shift in (-3.0f32..3.0, -3.0f32..3.0, -3.0f32..3.0),
        ) {
            let a = Frame::new(coords.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect());
            let b = Frame::new(
                coords.iter()
                    .map(|&(x, y, z)| Vec3::new(x + shift.0, y + shift.1, z + shift.2))
                    .collect());
            let slow = frame_rmsd_noopt(&a, &b);
            let fast = linalg::frame_rmsd(&a, &b);
            prop_assert!((slow - fast).abs() <= 1e-5 * (1.0 + fast.abs()));
        }
    }
}
