//! `psa_small` — Path Similarity Analysis (all-pairs Hausdorff) on chains
//! the size of the paper's small ensemble ÷ 16.

use super::{Spec, Workload};
use crate::harness::{layer_of, run_span, Ctx};
use crate::spans::SpanStats;
use linalg::{hausdorff_rmsd_pruned_evals, DistanceMatrix};
use mdio::StagingArea;
use mdsim::{ChainSpec, PsaSize, Trajectory};
use mdtask_core::psa::psa_serial;
use mdtask_core::{codec, run_psa, PsaConfig, RunConfig};
use netsim::{wrangler, Cluster};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use taskframe::Engine;

pub const SPEC: Spec = Spec {
    name: "psa_small",
    why:
        "PSA/Hausdorff, 12 trajectories of 208 atoms x 51 frames on all four engines: linalg does \
          nearly everything, 64 tasks, and only the pilot pays codec and file staging",
    build,
};

const SCALE: usize = 16;
/// How much of the pruned Hausdorff sweep survives depends on the data.
/// Over the 15 distinct pairs of six 102-frame trajectories the number of
/// frame-RMSD evaluations moved 8 % (relative s.d.) from seed to seed;
/// over the 66 pairs of twelve half as long it moves 2 %, at the same
/// cost per iteration.
const TRAJECTORIES: usize = 12;
const FRAMES: usize = 51;
const CORES: usize = 64;

const SCENARIOS: [(Engine, &str); 4] = [
    (Engine::Spark, "psa_small.spark"),
    (Engine::Dask, "psa_small.dask"),
    (Engine::Pilot, "psa_small.pilot"),
    (Engine::Mpi, "psa_small.mpi"),
];

struct PsaSmall {
    ensemble: Arc<Vec<Trajectory>>,
    cfg: PsaConfig,
    reference: DistanceMatrix,
}

fn build(seed: u64, ctx: &mut Ctx) -> Box<dyn Workload> {
    let ensemble = ctx.generate(
        |e: &Vec<Trajectory>| e.iter().map(|t| t.n_atoms() * t.n_frames()).sum(),
        || {
            let spec = ChainSpec {
                n_atoms: PsaSize::Small.paper_atoms() / SCALE,
                n_frames: FRAMES,
                stride: 1,
                ..ChainSpec::default()
            };
            mdsim::chain::generate_ensemble(&spec, TRAJECTORIES, seed)
        },
    );
    // One task per core as in the paper, but never more groups than
    // trajectories.
    let mut cfg = PsaConfig::for_cores(CORES);
    cfg.groups = cfg.groups.min(TRAJECTORIES);
    let reference = psa_serial(&ensemble);
    Box::new(PsaSmall {
        ensemble: Arc::new(ensemble),
        cfg,
        reference,
    })
}

impl Workload for PsaSmall {
    fn units(&self) -> u64 {
        (SCENARIOS.len() * TRAJECTORIES * TRAJECTORIES) as u64
    }

    fn iterate(&mut self, ctx: &mut Ctx) {
        for (engine, scenario) in SCENARIOS {
            let rc = RunConfig::new(Cluster::with_cores(wrangler(), CORES), engine);
            ctx.op(scenario, |ctx| {
                let out = ctx.span(run_span(engine), |_| {
                    run_psa(&rc, Arc::clone(&self.ensemble), &self.cfg)
                });
                match out {
                    Ok(out) => {
                        ctx.check(
                            "distance matrix differs from psa_serial",
                            out.distances.as_slice() == self.reference.as_slice(),
                        );
                        ctx.fingerprint(out.distances.max().to_bits());
                        ctx.report(Some(engine), scenario, out.report);
                    }
                    Err(e) => ctx.check(&format!("{scenario}: {e}"), false),
                }
            });
        }
    }

    fn probe(&mut self, ctx: &mut Ctx) {
        let e = &self.ensemble;
        let evals = ctx.span("linalg.hausdorff", |_| {
            let mut evals = 0;
            for a in e.iter() {
                for b in e.iter() {
                    evals += hausdorff_rmsd_pruned_evals(&a.frames, &b.frames).1;
                }
            }
            evals
        });
        ctx.set("linalg.hausdorff_evals", evals as f64);
        // The pilot's path: the ensemble travels as encoded bytes through
        // per-unit files.
        let refs: Vec<&Trajectory> = e.iter().collect();
        let bytes = ctx.span("core.codec_roundtrip", |_| {
            let bytes = codec::encode_trajectories(&refs);
            black_box(codec::decode_trajectories(&bytes));
            bytes
        });
        // Each of the pilot's units reads its row group and its column
        // group: a quarter of the ensemble at 8 groups.
        let groups = self.cfg.groups;
        let unit_input = &bytes[..bytes.len() * 2 / groups];
        ctx.span("mdio.staging_roundtrip", |_| {
            let area = StagingArea::temp("bench-psa").expect("staging directory under TMPDIR");
            for task in 0..groups * groups {
                area.stage_in(task, "in", unit_input).expect("stage in");
                black_box(area.stage_out(task, "in").expect("stage out"));
            }
            area.cleanup().expect("remove staging directory");
        });
    }

    fn derive(&self, s: &SpanStats, m: &mut BTreeMap<String, f64>) {
        let hausdorff = s.total_s("linalg.hausdorff");
        m.insert("linalg.hausdorff_s".into(), hausdorff);
        m.insert(
            "core.codec_roundtrip_s".into(),
            s.total_s("core.codec_roundtrip"),
        );
        m.insert(
            "mdio.staging_roundtrip_s".into(),
            s.total_s("mdio.staging_roundtrip"),
        );
        for (engine, _) in SCENARIOS {
            m.insert(
                format!("{}.residual_s", layer_of(engine)),
                s.total_s(run_span(engine)) - hausdorff,
            );
        }
    }
}
