//! Integration tests for the extension layers: EnTK pipelines,
//! Pilot-MapReduce, the RMSD-series analyses, and speculative execution.

use mdtask::prelude::*;
use mdtask::rp::entk::{Pipeline, Stage};
use std::sync::Arc;

#[test]
fn entk_pipeline_runs_md_then_analysis() {
    // The classic EnTK shape: a "simulation" stage producing trajectories,
    // then an "analysis" stage computing RMSD series — on one pilot.
    let session = Session::new(Cluster::new(comet(), 1)).unwrap();
    let spec = ChainSpec {
        n_atoms: 12,
        n_frames: 6,
        stride: 1,
        ..ChainSpec::default()
    };

    let mut simulate = Stage::new("simulate");
    for seed in 0..4u64 {
        let spec = spec.clone();
        simulate = simulate.task(move |_, _| {
            let t = mdtask::sim::chain::generate(&spec, seed);
            t.frames.len() as u64
        });
    }
    let analyze = Stage::new("analyze").task(|_, _| 1u64);
    let out = Pipeline::new("md-campaign")
        .stage(simulate)
        .stage(analyze)
        .run(&session)
        .unwrap();
    assert_eq!(out.stages[0].1, vec![6, 6, 6, 6]);
    assert!(out.report.phase_total("simulate").unwrap() > 0.0);
    assert!(
        out.report
            .phases
            .iter()
            .find(|p| p.name == "analyze")
            .unwrap()
            .start_s
            >= out
                .report
                .phases
                .iter()
                .find(|p| p.name == "simulate")
                .unwrap()
                .end_s
    );
}

#[test]
fn pilot_mapreduce_word_count() {
    let session = Session::new(Cluster::new(comet(), 1)).unwrap();
    let docs: Vec<Vec<u32>> = (0..6).map(|i| vec![i % 3, (i + 1) % 3]).collect();
    let (mut out, report) = mdtask::rp::mapreduce::map_reduce(
        &session,
        docs,
        |doc: Vec<u32>| doc.into_iter().map(|w| (w, 1u64)).collect(),
        3,
        |a, b| a + b,
    )
    .unwrap();
    out.sort_unstable();
    assert_eq!(out, vec![(0, 4), (1, 4), (2, 4)]);
    // The shuffle went through the filesystem — RP's only data path.
    assert!(report.bytes_staged > 0);
}

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
