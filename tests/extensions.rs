//! Integration tests for the extension layers: the RMSD-series analyses
//! and speculative execution.

use mdtask::prelude::*;
use std::sync::Arc;

#[test]
fn rmsd_series_parallel_equals_serial() {
    use mdtask::analysis::common::*;
    let spec = ChainSpec {
        n_atoms: 18,
        n_frames: 30,
        stride: 1,
        ..ChainSpec::default()
    };
    let t = Arc::new(mdtask::sim::chain::generate(&spec, 3));
    let reference = rmsd_series_serial(&t, &t.frames[0], RmsdMode::Superposed);
    for engine in Engine::ALL {
        let rc = RunConfig::new(Cluster::new(laptop(), 2), engine);
        let out = rc
            .run_analysis(rmsd_analysis(Arc::clone(&t), AtomSelection::All, 0, 5))
            .unwrap();
        assert_eq!(out.values, reference, "{engine:?}");
    }
    // Superposed RMSD strips global drift: it stays below plain RMSD.
    let plain = rmsd_series_serial(&t, &t.frames[0], RmsdMode::Plain);
    for (s, p) in reference.iter().zip(&plain) {
        assert!(s <= &(p + 1e-5), "QCP convergence tolerance");
    }
}

#[test]
fn speculation_rescues_straggling_stage() {
    let sc = SparkContext::new(Cluster::new(comet(), 1));
    sc.enable_speculation(2.0);
    let rdd = Rdd::from_partitions(sc.clone(), 12, |p, ctx: &TaskCtx| {
        // One pathological task (a straggler node, GC pause, …).
        ctx.charge(if p == 7 { 500.0 } else { 0.5 });
        vec![p as u32]
    });
    let out = rdd.collect();
    assert_eq!(out.len(), 12);
    assert!(
        sc.report().makespan_s < 10.0,
        "speculation should cap the 500 s straggler: {}",
        sc.report().makespan_s
    );
}
