//! `lf_8k` — Leaflet Finder on the paper's 131k-atom bilayer ÷ 16.

use super::{Spec, Workload};
use crate::harness::{layer_of, run_span, Ctx};
use crate::spans::SpanStats;
use graphops::{connected_components_uf, merge_partials, partial_components};
use linalg::Vec3;
use mdsim::{lf_dataset, LfDatasetId};
use mdtask_core::leaflet::{block_edges, block_edges_tree, lf_serial};
use mdtask_core::partition::{grid_for_tasks, plan_2d_grid};
use mdtask_core::{codec, run_lf, LfApproach, LfConfig, LfOutput, RunConfig};
use netsim::{wrangler, Cluster};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use taskframe::Engine;

pub const SPEC: Spec = Spec {
    name: "lf_8k",
    why:
        "Leaflet Finder, 8192 atoms in 1024 partitions: neighbors/graphops kernels do most of the \
          work and 1-2k tasks per run show the engines' gather vs tree-reduce paths",
    build,
};

const SCALE: usize = 16;
const PARTITIONS: usize = 1024;
/// The pilot stages a file per unit, and on a disk-backed checkout
/// creating 1035 of them costs several times what the run itself does.
/// One unit per core keeps the filesystem's share of the scenario small.
const PILOT_PARTITIONS: usize = 64;
const CORES: usize = 64;

/// Approach 2 where the driver gathers edges, approach 4 where the engine
/// reduces partial components: one engine of each reduce shape.
const SCENARIOS: [(Engine, LfApproach, usize, &str); 4] = [
    (
        Engine::Dask,
        LfApproach::Task2D,
        PARTITIONS,
        "lf_8k.task2d_dask",
    ),
    (
        Engine::Pilot,
        LfApproach::Task2D,
        PILOT_PARTITIONS,
        "lf_8k.task2d_pilot",
    ),
    (
        Engine::Spark,
        LfApproach::TreeSearch,
        PARTITIONS,
        "lf_8k.treesearch_spark",
    ),
    (
        Engine::Mpi,
        LfApproach::TreeSearch,
        PARTITIONS,
        "lf_8k.treesearch_mpi",
    ),
];

struct Lf8k {
    positions: Arc<Vec<Vec3>>,
    cfg: LfConfig,
    reference: LfOutput,
}

fn build(seed: u64, ctx: &mut Ctx) -> Box<dyn Workload> {
    let system = ctx.generate(
        |b: &mdsim::Bilayer| b.positions.len(),
        || lf_dataset(LfDatasetId::Atoms131k, SCALE, seed),
    );
    let cfg = LfConfig {
        cutoff: system.suggested_cutoff,
        partitions: PARTITIONS,
        paper_atoms: LfDatasetId::Atoms131k.paper_atoms(),
        charge_io: true,
    };
    let reference = lf_serial(&system.positions, cfg.cutoff);
    ctx.add("neighbors.edges_found", reference.edges_found as f64);
    ctx.add("graphops.components_found", reference.n_components as f64);
    Box::new(Lf8k {
        positions: Arc::new(system.positions),
        cfg,
        reference,
    })
}

impl Workload for Lf8k {
    fn units(&self) -> u64 {
        (SCENARIOS.len() * self.positions.len()) as u64
    }

    fn iterate(&mut self, ctx: &mut Ctx) {
        for (engine, approach, partitions, scenario) in SCENARIOS {
            let rc = RunConfig::new(Cluster::with_cores(wrangler(), CORES), engine)
                .approach(approach)
                .mpi_world(CORES);
            let cfg = LfConfig {
                partitions,
                ..self.cfg.clone()
            };
            ctx.op(scenario, |ctx| {
                let out = ctx.span(run_span(engine), |_| {
                    run_lf(&rc, Arc::clone(&self.positions), &cfg)
                });
                match out {
                    Ok(out) => {
                        ctx.check(
                            "leaflets differ from lf_serial",
                            out.leaflet_sizes == self.reference.leaflet_sizes
                                && out.n_components == self.reference.n_components
                                && out.edges_found == self.reference.edges_found,
                        );
                        ctx.fingerprint(out.edges_found);
                        ctx.report(Some(engine), scenario, out.report);
                    }
                    Err(e) => ctx.check(&format!("{scenario}: {e}"), false),
                }
            });
        }
    }

    fn probe(&mut self, ctx: &mut Ctx) {
        let (pos, cutoff) = (&self.positions[..], self.cfg.cutoff);
        let blocks = plan_2d_grid(pos.len(), grid_for_tasks(PARTITIONS));
        let per_block = ctx.span("neighbors.block_edges", |_| {
            blocks
                .iter()
                .map(|&b| block_edges(pos, b, cutoff))
                .collect::<Vec<_>>()
        });
        let per_block_tree = ctx.span("neighbors.block_edges_tree", |_| {
            blocks
                .iter()
                .map(|&b| block_edges_tree(pos, b, cutoff))
                .collect::<Vec<_>>()
        });
        let all: Vec<(u32, u32)> = per_block.iter().flatten().copied().collect();
        ctx.span("graphops.components", |_| {
            black_box(connected_components_uf(pos.len(), &all));
        });
        ctx.span("graphops.partial_merge", |_| {
            let parts: Vec<_> = per_block_tree
                .iter()
                .map(|e| partial_components(e))
                .collect();
            black_box(merge_partials(&parts));
        });
        // What the pilot's units read and write: coordinates as staged bytes.
        ctx.span("core.codec_roundtrip", |_| {
            black_box(codec::decode_points(&codec::encode_points(pos)).0);
        });
    }

    fn derive(&self, s: &SpanStats, m: &mut BTreeMap<String, f64>) {
        let brute = s.total_s("neighbors.block_edges");
        let tree = s.total_s("neighbors.block_edges_tree");
        let cc = s.total_s("graphops.components");
        let merge = s.total_s("graphops.partial_merge");
        m.insert("neighbors.block_edges_s".into(), brute);
        m.insert("neighbors.block_edges_tree_s".into(), tree);
        m.insert("graphops.components_s".into(), cc);
        m.insert("graphops.partial_merge_s".into(), merge);
        m.insert(
            "core.codec_roundtrip_s".into(),
            s.total_s("core.codec_roundtrip"),
        );
        for (engine, approach, _, _) in SCENARIOS {
            let kernels = match approach {
                LfApproach::Task2D => brute + cc,
                _ => tree + merge,
            };
            m.insert(
                format!("{}.residual_s", layer_of(engine)),
                s.total_s(run_span(engine)) - kernels,
            );
        }
    }
}
