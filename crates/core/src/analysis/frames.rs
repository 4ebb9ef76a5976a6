//! Per-frame analyses over a trajectory: the pmda-style
//! `AnalysisFromFunction` adapter plus RMSD and contact-count built-ins.
//!
//! [`AnalysisFromFunction`] lifts any `Fn(&Frame, &AtomSelection) -> T`
//! into a [`ParallelAnalysis`]: the trajectory is broadcast, frame ranges
//! become slices, the closure maps each frame, and the driver reassembles
//! the per-frame series in trajectory order regardless of which engine
//! (and which rank/task interleaving) executed it.

use super::{Gathered, ParallelAnalysis, Plan, Reduce};
use crate::partition::plan_1d;
use crate::Engine;
use linalg::{rmsd_superposed, Frame, Vec3};
use mdsim::Trajectory;
use neighbors::{neighbor_pairs, SearchStrategy};
use netsim::{Cluster, SimReport};
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};
use taskframe::{EngineError, Payload};

/// Which atoms of each frame an analysis reads (MDAnalysis'
/// `select_atoms`, reduced to the shapes the synthetic trajectories
/// need).
#[derive(Clone, Debug)]
pub enum AtomSelection {
    /// Every atom.
    All,
    /// Every `k`-th atom (k ≥ 1).
    Stride(usize),
    /// An explicit index list (shared, so selections clone cheaply into
    /// task closures). An [`AnalysisFromFunction`] refuses an index past
    /// the trajectory's atoms in its `plan`, typed, on every engine.
    Indices(Arc<Vec<u32>>),
}

impl AtomSelection {
    /// Materialize the selected coordinates of one frame.
    pub fn gather(&self, frame: &Frame) -> Vec<Vec3> {
        let pos = frame.positions();
        match self {
            AtomSelection::All => pos.to_vec(),
            AtomSelection::Stride(k) => pos.iter().copied().step_by((*k).max(1)).collect(),
            AtomSelection::Indices(idx) => idx.iter().map(|&i| pos[i as usize]).collect(),
        }
    }
}

/// The per-frame series a frame-mapped analysis produces, in frame order.
#[derive(Clone, Debug, PartialEq)]
pub struct FrameSeries<T> {
    pub values: Vec<T>,
    pub report: SimReport,
}

/// A [`ParallelAnalysis`] built from a per-frame closure (pmda's
/// `AnalysisFromFunction`): `f(frame, selection)` is evaluated for every
/// frame, on whichever engine [`crate::run::RunConfig`] selects, and the
/// results come back as a [`FrameSeries`] in frame order.
pub struct AnalysisFromFunction<T, F> {
    traj: Arc<Trajectory>,
    select: AtomSelection,
    slices: usize,
    cost: super::AnalysisCost,
    /// A frame every map reads besides its own (RMSD's reference).
    reference: Option<usize>,
    f: F,
    _result: PhantomData<fn() -> T>,
}

impl<T, F> AnalysisFromFunction<T, F>
where
    T: Payload + Clone + Send + Sync + 'static,
    F: Fn(&Frame, &AtomSelection) -> T + Send + Sync + 'static,
{
    /// Build the analysis: `slices` frame ranges over `traj`, each frame
    /// reduced by `f` under `select`. `name` labels the analysis at the
    /// call site; the engines do not read it.
    pub fn new(
        _name: &'static str,
        traj: Arc<Trajectory>,
        select: AtomSelection,
        slices: usize,
        f: F,
    ) -> Self {
        assert!(
            !traj.frames.is_empty(),
            "cannot analyse an empty trajectory"
        );
        AnalysisFromFunction {
            traj,
            select,
            slices: slices.max(1),
            cost: super::AnalysisCost::DEFAULT,
            reference: None,
            f,
            _result: PhantomData,
        }
    }

    /// Override the declared cost model (per-frame virtual cost) for this
    /// analysis.
    pub fn with_cost(mut self, cost: super::AnalysisCost) -> Self {
        self.cost = cost;
        self
    }

    fn map_frames(&self, shared: &Trajectory, slice: (u32, u32)) -> Vec<(u32, T)> {
        (slice.0..slice.1)
            .map(|i| (i, (self.f)(&shared.frames[i as usize], &self.select)))
            .collect()
    }
}

impl<T, F> ParallelAnalysis for AnalysisFromFunction<T, F>
where
    T: Payload + Clone + Send + Sync + 'static,
    F: Fn(&Frame, &AtomSelection) -> T + Send + Sync + 'static,
{
    type Shared = Trajectory;
    type Slice = (u32, u32);
    type Item = (u32, T);
    type Wire = Vec<(u32, T)>;
    type Output = FrameSeries<T>;

    fn shared(&self) -> Arc<Trajectory> {
        Arc::clone(&self.traj)
    }

    fn plan(&self, _engine: Engine, _cluster: &Cluster) -> Result<Plan<Self>, EngineError> {
        // An index past the atoms, or a reference past the frames, would
        // panic in a map: refuse the run once, typed, before any task is
        // placed.
        let n_frames = self.traj.n_frames();
        if let Some(r) = self.reference.filter(|&r| r >= n_frames) {
            return Err(EngineError::Unsupported(format!(
                "reference frame {r} of a trajectory with {n_frames} frames (need 0..{n_frames})"
            )));
        }
        if let AtomSelection::Indices(idx) = &self.select {
            let n_atoms = self.traj.n_atoms();
            if let Some(&i) = idx.iter().max().filter(|&&i| i as usize >= n_atoms) {
                return Err(EngineError::Unsupported(format!(
                    "atom index {i} in a selection over {n_atoms} atoms (need 0..{n_atoms})"
                )));
            }
        }
        let slices = plan_1d(n_frames, self.slices);
        Ok(Plan {
            // pmda's posture: the universe ships to the workers once.
            broadcast: true,
            phase: "frame-map",
            // The declared per-frame cost model: frame analyses occupy
            // virtual time proportional to the frames they touch, so
            // fault plans and schedulers see realistic task durations
            // even when the host closure is trivially cheap.
            cost_s: Some(|a, s| (s.1 - s.0) as f64 * a.cost.stream_frame_cost_s),
            ..Plan::new(
                slices,
                Reduce::Gather(|a, shared, s| a.map_frames(shared, s)),
            )
        })
    }

    fn rank_map(&self, shared: &Trajectory, mine: &[(u32, u32)]) -> Vec<(u32, T)> {
        mine.iter()
            .flat_map(|&s| self.map_frames(shared, s))
            .collect()
    }

    fn finalize(
        &self,
        gathered: Gathered<(u32, T), Vec<(u32, T)>>,
        ctx: super::DriverCtx<'_>,
    ) -> Result<FrameSeries<T>, EngineError> {
        let mut pairs = match gathered {
            Gathered::Items(items) => items,
            Gathered::Ranks(wires, _) => wires.into_iter().flatten().collect(),
        };
        // MPI's round-robin rank order interleaves slices; restore frame
        // order before handing the series back.
        pairs.sort_by_key(|&(i, _)| i);
        Ok(FrameSeries {
            values: pairs.into_iter().map(|(_, v)| v).collect(),
            report: ctx.finish(),
        })
    }
}

/// Per-frame RMSD to a reference frame after optimal superposition
/// (MDAnalysis `rms.RMSD` / pmda's `RMSD`), over the selected atoms. The
/// reference is gathered by the first map, after `plan` has checked it
/// and the selection.
pub fn rmsd_analysis(
    traj: Arc<Trajectory>,
    select: AtomSelection,
    reference: usize,
    slices: usize,
) -> AnalysisFromFunction<f64, impl Fn(&Frame, &AtomSelection) -> f64 + Send + Sync + 'static> {
    let (frames, ref_frame) = (Arc::clone(&traj), OnceLock::new());
    let mut analysis =
        AnalysisFromFunction::new("rmsd", traj, select, slices, move |frame, sel| {
            let r = ref_frame.get_or_init(|| Frame::new(sel.gather(&frames.frames[reference])));
            rmsd_superposed(&Frame::new(sel.gather(frame)), r)
        });
    analysis.reference = Some(reference);
    analysis
}

/// Per-frame contact count: pairs of selected atoms within `cutoff`,
/// found with the cell-list search.
pub fn contacts_analysis(
    traj: Arc<Trajectory>,
    select: AtomSelection,
    cutoff: f32,
    slices: usize,
) -> AnalysisFromFunction<u64, impl Fn(&Frame, &AtomSelection) -> u64 + Send + Sync + 'static> {
    AnalysisFromFunction::new("contacts", traj, select, slices, move |frame, sel| {
        let pts = sel.gather(frame);
        neighbor_pairs(&pts, cutoff, SearchStrategy::CellList).len() as u64
    })
}
