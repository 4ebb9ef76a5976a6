//! End-to-end PSA: generate an ensemble, round-trip it through trajectory
//! files (both formats), and verify every engine computes the identical
//! Hausdorff distance matrix from the file-loaded data.

use mdtask::prelude::*;
use std::sync::Arc;

fn ensemble() -> Vec<Trajectory> {
    let spec = ChainSpec {
        n_atoms: 24,
        n_frames: 12,
        stride: 1,
        ..ChainSpec::default()
    };
    mdtask::sim::chain::generate_ensemble(&spec, 6, 1234)
}

fn write_and_reload(e: &[Trajectory], dir: &std::path::Path) -> Vec<Trajectory> {
    std::fs::create_dir_all(dir).unwrap();
    e.iter()
        .enumerate()
        .map(|(i, t)| {
            let path = dir.join(format!("traj-{i:03}.mdt"));
            mdtask::io::write_mdt(&path, &t.frames).unwrap();
            Trajectory {
                frames: mdtask::io::read_mdt(&path).unwrap(),
            }
        })
        .collect()
}

#[test]
fn psa_from_files_identical_across_engines() {
    let dir = std::env::temp_dir().join(format!("mdtask-e2e-psa-{}", std::process::id()));
    let original = ensemble();
    let reloaded = write_and_reload(&original, &dir);
    assert_eq!(original, reloaded, "MDT round-trip must be lossless");

    let reference = psa_serial(&reloaded);
    let cfg = PsaConfig {
        groups: 3,
        charge_io: true,
    };
    let arc = Arc::new(reloaded.clone());
    let cluster = || Cluster::new(wrangler(), 2);

    let outs: Vec<(Engine, DistanceMatrix)> = Engine::ALL
        .into_iter()
        .map(|engine| {
            let rc = RunConfig::new(cluster(), engine).mpi_world(8);
            let out = run_psa(&rc, Arc::clone(&arc), &cfg).expect("fault-free");
            (engine, out.distances)
        })
        .collect();
    for (name, d) in outs {
        let name = name.label();
        for i in 0..reference.rows() {
            for j in 0..reference.cols() {
                assert!(
                    (d.get(i, j) - reference.get(i, j)).abs() < 1e-12,
                    "{name} at ({i},{j})"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn xyz_and_mdt_agree() {
    let dir = std::env::temp_dir().join(format!("mdtask-e2e-xyz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let t = &ensemble()[0];
    let mdt_path = dir.join("t.mdt");
    let xyz_path = dir.join("t.xyz");
    mdtask::io::write_mdt(&mdt_path, &t.frames).unwrap();
    mdtask::io::write_xyz(&xyz_path, &t.frames).unwrap();
    let via_mdt = mdtask::io::read_mdt(&mdt_path).unwrap();
    let via_xyz = mdtask::io::read_xyz(&xyz_path).unwrap();
    assert_eq!(via_mdt.len(), via_xyz.len());
    // XYZ prints full f32 precision; frames must match bit-for-bit.
    for (a, b) in via_mdt.iter().zip(&via_xyz) {
        assert_eq!(a, b);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cpptraj_agrees_with_mdanalysis_path() {
    // The CPPTraj pipeline (2D-RMSD then Hausdorff reduction) and the
    // MDAnalysis-style pipeline (direct Hausdorff) must agree.
    let e = ensemble();
    let reference = psa_serial(&e);
    let out = mdtask::cpp::ensemble_psa(
        Cluster::new(comet(), 1),
        4,
        mdtask::cpp::KernelBuild::IntelO3,
        &e,
    )
    .expect("fault-free");
    for i in 0..e.len() {
        for j in 0..e.len() {
            assert!(
                (out.distances.get(i, j) - reference.get(i, j)).abs() < 1e-9,
                "({i},{j})"
            );
        }
    }
}
