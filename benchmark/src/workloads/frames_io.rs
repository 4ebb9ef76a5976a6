//! `frames_io` — read → analyse → write, as a pmda user would.

use super::{Spec, Workload};
use crate::harness::{layer_of, run_span, Ctx};
use crate::spans::SpanStats;
use linalg::{rmsd_superposed, Frame};
use mdio::mdt::{decode_mdt, encode_mdt};
use mdio::xtcq::{decode_xtcq, encode_xtcq};
use mdio::xyz::{decode_xyz, encode_xyz};
use mdio::StagingArea;
use mdsim::{ChainSpec, Trajectory};
use mdtask_core::{contacts_analysis, rmsd_analysis, AtomSelection, FrameSeries, RunConfig};
use neighbors::{neighbor_pairs, SearchStrategy};
use netsim::{laptop, Cluster};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use taskframe::{Engine, EngineError};

pub const SPEC: Spec = Spec {
    name: "frames_io",
    why: "decode MDT/XTCQ/XYZ, stage, per-frame RMSD and contacts on four engines, re-encode, export: \
          mdio and AtomSelection::gather dominate here and are idle elsewhere; encode sits beside decode",
    build,
};

const ATOMS: usize = 3_341;
const FRAMES: usize = 204;
const XYZ_FRAMES: usize = 20;
const INV_PREC: f32 = 1000.0;
const BLOBS: usize = 16;
const SLICES: usize = 16;
const RMSD_SELECT: AtomSelection = AtomSelection::Stride(4);
const CONTACTS_SELECT: AtomSelection = AtomSelection::Stride(8);
const CONTACT_CUTOFF: f32 = 6.0;

struct FramesIo {
    frames: Vec<Frame>,
    mdt: Vec<u8>,
    xtcq: Vec<u8>,
    xyz: String,
    rmsd_reference: Vec<f64>,
    contacts_reference: Vec<u64>,
    /// Bytes of Chrome trace exported per iteration.
    chrome_bytes: usize,
}

fn build(seed: u64, ctx: &mut Ctx) -> Box<dyn Workload> {
    let spec = ChainSpec {
        n_atoms: ATOMS,
        n_frames: FRAMES,
        stride: 1,
        ..ChainSpec::default()
    };
    let traj = ctx.generate(
        |t: &Trajectory| t.n_atoms() * t.n_frames(),
        || mdsim::chain::generate(&spec, seed),
    );
    let frames = traj.frames;
    let reference = Frame::new(RMSD_SELECT.gather(&frames[0]));
    let rmsd_reference = frames
        .iter()
        .map(|f| rmsd_superposed(&Frame::new(RMSD_SELECT.gather(f)), &reference))
        .collect();
    let contacts_reference = frames
        .iter()
        .map(|f| {
            let pts = CONTACTS_SELECT.gather(f);
            neighbor_pairs(&pts, CONTACT_CUTOFF, SearchStrategy::BruteForce).len() as u64
        })
        .collect();
    Box::new(FramesIo {
        mdt: encode_mdt(&frames).expect("generated frames encode"),
        xtcq: encode_xtcq(&frames, INV_PREC).expect("generated frames encode"),
        xyz: encode_xyz(&frames[..XYZ_FRAMES]),
        frames,
        rmsd_reference,
        contacts_reference,
        chrome_bytes: 0,
    })
}

/// Largest coordinate difference between two frame lists of equal shape;
/// infinite if the shapes differ.
fn max_abs_diff(a: &[Frame], b: &[Frame]) -> f32 {
    if a.len() != b.len() || a.iter().zip(b).any(|(x, y)| x.n_atoms() != y.n_atoms()) {
        return f32::INFINITY;
    }
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| x.positions().iter().zip(y.positions()))
        .map(|(p, q)| {
            (p.x - q.x)
                .abs()
                .max((p.y - q.y).abs())
                .max((p.z - q.z).abs())
        })
        .fold(0.0, f32::max)
}

impl FramesIo {
    fn read(&self, ctx: &mut Ctx) -> Option<Vec<Frame>> {
        let decoded = ctx.op("frames_io.read_mdt", |ctx| {
            let out = ctx.span("mdio.decode_mdt", |_| decode_mdt(&self.mdt)).ok();
            ctx.check(
                "MDT does not round-trip",
                out.as_ref() == Some(&self.frames),
            );
            out
        });
        ctx.op("frames_io.read_xtcq", |ctx| {
            let out = ctx.span("mdio.decode_xtcq", |_| decode_xtcq(&self.xtcq));
            // Quantized to 1/INV_PREC Å: half a step of rounding, plus f32
            // representation error at these magnitudes.
            let ok =
                out.is_ok_and(|f: Vec<Frame>| max_abs_diff(&f, &self.frames) <= 0.6 / INV_PREC);
            ctx.check("XTCQ decodes beyond its precision", ok);
        });
        ctx.op("frames_io.read_xyz", |ctx| {
            let out = ctx.span("mdio.decode_xyz", |_| decode_xyz(&self.xyz));
            let ok =
                out.is_ok_and(|f: Vec<Frame>| max_abs_diff(&f, &self.frames[..XYZ_FRAMES]) <= 1e-3);
            ctx.check("XYZ decodes beyond its printed digits", ok);
        });
        ctx.op("frames_io.staging", |ctx| {
            let back = ctx.span("mdio.staging_roundtrip", |_| -> mdio::Result<Vec<u8>> {
                let area = StagingArea::temp("bench-frames")?;
                let chunk = self.mdt.len().div_ceil(BLOBS);
                for (i, blob) in self.mdt.chunks(chunk).enumerate() {
                    area.stage_in(i, "mdt", blob)?;
                }
                let mut back = Vec::with_capacity(self.mdt.len());
                for i in 0..self.mdt.chunks(chunk).len() {
                    back.extend_from_slice(&area.stage_out(i, "mdt")?);
                }
                area.cleanup()?;
                Ok(back)
            });
            ctx.check("staged bytes differ", back.is_ok_and(|b| b == self.mdt));
        });
        decoded
    }

    fn analyse(&mut self, ctx: &mut Ctx, traj: &Arc<Trajectory>) {
        self.chrome_bytes = 0;
        for engine in Engine::ALL {
            let rc = RunConfig::new(Cluster::new(laptop(), 2), engine).trace(true);
            let (rmsd_op, contacts_op) = match engine {
                Engine::Spark => ("frames_io.rmsd_spark", "frames_io.contacts_spark"),
                Engine::Dask => ("frames_io.rmsd_dask", "frames_io.contacts_dask"),
                Engine::Pilot => ("frames_io.rmsd_pilot", "frames_io.contacts_pilot"),
                Engine::Mpi => ("frames_io.rmsd_mpi", "frames_io.contacts_mpi"),
            };
            ctx.op(rmsd_op, |ctx| {
                let out = ctx.span(run_span(engine), |_| {
                    rc.run_analysis(rmsd_analysis(Arc::clone(traj), RMSD_SELECT, 0, SLICES))
                });
                self.file(ctx, engine, rmsd_op, out, |w| &w.rmsd_reference);
            });
            ctx.op(contacts_op, |ctx| {
                let out = ctx.span(run_span(engine), |_| {
                    rc.run_analysis(contacts_analysis(
                        Arc::clone(traj),
                        CONTACTS_SELECT,
                        CONTACT_CUTOFF,
                        SLICES,
                    ))
                });
                self.file(ctx, engine, contacts_op, out, |w| &w.contacts_reference);
            });
        }
    }

    /// Check one analysis run against its direct-kernel reference, export
    /// its trace as a user would, and file its report.
    fn file<T: PartialEq>(
        &mut self,
        ctx: &mut Ctx,
        engine: Engine,
        op: &str,
        out: Result<FrameSeries<T>, EngineError>,
        reference: fn(&Self) -> &Vec<T>,
    ) {
        let series = match out {
            Ok(series) => series,
            Err(e) => return ctx.check(&format!("{op}: {e}"), false),
        };
        ctx.check(
            "series differs from the direct kernel",
            &series.values == reference(self),
        );
        let json = ctx.span("netsim.chrome_export", |_| {
            series.report.trace.as_ref().map(|t| t.to_chrome_json())
        });
        ctx.check("traced run carries no trace", json.is_some());
        self.chrome_bytes += json.map_or(0, |j| j.len());
        ctx.report(Some(engine), op, series.report);
    }

    fn write(&self, ctx: &mut Ctx, frames: &[Frame]) {
        ctx.op("frames_io.write_mdt", |ctx| {
            let out = ctx.span("mdio.encode_mdt", |_| encode_mdt(frames));
            ctx.check("MDT bytes changed", out.is_ok_and(|b| b == self.mdt));
        });
        ctx.op("frames_io.write_xtcq", |ctx| {
            let out = ctx.span("mdio.encode_xtcq", |_| encode_xtcq(frames, INV_PREC));
            ctx.check("XTCQ bytes changed", out.is_ok_and(|b| b == self.xtcq));
        });
        ctx.op("frames_io.write_xyz", |ctx| {
            let out = ctx.span("mdio.encode_xyz", |_| encode_xyz(&frames[..XYZ_FRAMES]));
            ctx.check("XYZ text changed", out == self.xyz);
        });
    }
}

impl Workload for FramesIo {
    fn units(&self) -> u64 {
        // Frames decoded (three formats) plus frames analysed (two
        // analyses on four engines).
        (2 * FRAMES + XYZ_FRAMES + 2 * Engine::ALL.len() * FRAMES) as u64
    }

    fn iterate(&mut self, ctx: &mut Ctx) {
        let Some(frames) = self.read(ctx) else { return };
        let traj = Arc::new(Trajectory { frames });
        self.analyse(ctx, &traj);
        self.write(ctx, &traj.frames);
    }

    fn probe(&mut self, ctx: &mut Ctx) {
        let frames = &self.frames;
        let (for_rmsd, for_contacts) = ctx.span("core.select_gather", |_| {
            let a: Vec<Frame> = frames
                .iter()
                .map(|f| Frame::new(RMSD_SELECT.gather(f)))
                .collect();
            let b: Vec<_> = frames.iter().map(|f| CONTACTS_SELECT.gather(f)).collect();
            (a, b)
        });
        ctx.span("linalg.rmsd_superposed", |_| {
            for f in &for_rmsd {
                black_box(rmsd_superposed(f, &for_rmsd[0]));
            }
        });
        ctx.span("neighbors.celllist", |_| {
            for pts in &for_contacts {
                black_box(neighbor_pairs(
                    pts,
                    CONTACT_CUTOFF,
                    SearchStrategy::CellList,
                ));
            }
        });
    }

    fn derive(&self, s: &SpanStats, m: &mut BTreeMap<String, f64>) {
        let mb = |bytes: usize| bytes as f64 / 1e6;
        let rate = |amount: f64, span: &str| amount / s.total_s(span);
        m.insert(
            "mdio.decode_mdt_mb_per_s".into(),
            rate(mb(self.mdt.len()), "mdio.decode_mdt"),
        );
        m.insert(
            "mdio.decode_xtcq_mb_per_s".into(),
            rate(mb(self.xtcq.len()), "mdio.decode_xtcq"),
        );
        m.insert(
            "mdio.xyz_decode_mb_per_s".into(),
            rate(mb(self.xyz.len()), "mdio.decode_xyz"),
        );
        m.insert(
            "mdio.encode_mdt_mb_per_s".into(),
            rate(mb(self.mdt.len()), "mdio.encode_mdt"),
        );
        m.insert(
            "mdio.encode_xtcq_mb_per_s".into(),
            rate(mb(self.xtcq.len()), "mdio.encode_xtcq"),
        );
        m.insert(
            "mdio.xyz_encode_mb_per_s".into(),
            rate(mb(self.xyz.len()), "mdio.encode_xyz"),
        );
        m.insert(
            "mdio.staging_roundtrip_s".into(),
            s.total_s("mdio.staging_roundtrip"),
        );
        m.insert(
            "netsim.chrome_export_mb_per_s".into(),
            rate(mb(self.chrome_bytes), "netsim.chrome_export"),
        );
        let gather = s.total_s("core.select_gather");
        let rmsd = s.total_s("linalg.rmsd_superposed");
        let celllist = s.total_s("neighbors.celllist");
        m.insert("core.select_gather_s".into(), gather);
        m.insert("linalg.rmsd_frames_per_s".into(), FRAMES as f64 / rmsd);
        m.insert("neighbors.celllist_s".into(), celllist);
        // Each engine runs both analyses once: the kernels it calls are
        // the three probes.
        for engine in Engine::ALL {
            m.insert(
                format!("{}.residual_s", layer_of(engine)),
                s.total_s(run_span(engine)) - (gather + rmsd + celllist),
            );
        }
    }
}
