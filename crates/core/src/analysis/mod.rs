//! The generic analysis API: one analysis definition, four engines.
//!
//! This is the Rust analogue of pmda's `ParallelAnalysisBase` /
//! `AnalysisFromFunction` (MDAnalysis ecosystem): an analysis declares how
//! to split its input into slices, how to `map` one slice to items, how to
//! reduce, and how to finalize —
//! [`RunConfig::run_analysis`](crate::run::RunConfig::run_analysis)
//! executes it with each engine's native posture:
//!
//! * **Spark** (`sparklet`) — one RDD partition per slice; `Gather`
//!   analyses `collect`, `Tree` analyses `treeReduce` via [`ParallelAnalysis::combine`];
//! * **Dask** (`dasklet`) — one delayed task per slice, gathered, or a
//!   binary combine tree for `Tree` analyses;
//! * **RADICAL-Pilot** (`pilot`) — one Compute-Unit per slice, with
//!   [`ParallelAnalysis::stage`]d inputs really framed through the staging
//!   filesystem;
//! * **MPI** (`mpilike`) — slices round-robin over ranks, one
//!   [`ParallelAnalysis::rank_map`] per rank inside a measured compute
//!   block, results gathered to rank 0.
//!
//! Every analysis gets the engines' whole machinery for free: fault
//! plans, [`netsim::RetryPolicy`], the memory ledger, tracing,
//! partitions/zombie fencing, and host-thread bit-identity. The Leaflet
//! Finder and PSA are themselves [`ParallelAnalysis`] instances (`lf.rs`,
//! `psa_impl.rs`) and nothing else: the per-engine drivers they replaced
//! are deleted, their outputs and reports frozen in
//! `tests/golden_collectives.rs`.

pub(crate) mod engines;
pub mod frames;
pub(crate) mod lf;
pub(crate) mod psa_impl;

pub use frames::{
    contacts_analysis, rmsd_analysis, AnalysisFromFunction, AtomSelection, FrameSeries,
};

use crate::Engine;
use netsim::{Cluster, SimReport};
use std::sync::Arc;
use taskframe::{EngineError, Payload};

/// Declared cost model of an analysis: the constants the engines used to
/// duplicate inline (pilot working-set factors, streaming defaults) now
/// live in one place so the four postures cannot drift apart.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnalysisCost {
    /// Pilot admission control: declared peak working set as a multiple of
    /// the staged input bytes (staged copy + decoded copy + joined
    /// buffer).
    pub staging_working_set_factor: u64,
    /// Declared virtual cost per streamed frame (see
    /// [`crate::run::StreamTuning::frame_cost_s`]).
    pub stream_frame_cost_s: f64,
    /// Resident window-state bytes per streamed frame.
    pub stream_state_bytes_per_frame: u64,
    /// Spark streaming micro-batch size.
    pub stream_micro_batch: usize,
    /// MPI streaming ring-buffer slots.
    pub stream_ring: usize,
}

impl AnalysisCost {
    pub const DEFAULT: AnalysisCost = AnalysisCost {
        staging_working_set_factor: 3,
        stream_frame_cost_s: 0.01,
        stream_state_bytes_per_frame: 1 << 20,
        stream_micro_batch: 4,
        stream_ring: 4,
    };
}

impl Default for AnalysisCost {
    fn default() -> Self {
        AnalysisCost::DEFAULT
    }
}

/// How an analysis's mapped items come back to the driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceShape {
    /// Every item crosses the wire; the driver sees all of them
    /// (`collect` / `gather`). The paper's O(E)-shuffle posture.
    Gather,
    /// Items are pairwise [`ParallelAnalysis::combine`]d engine-side
    /// (Spark `treeReduce`, Dask combine tree); the driver sees one. The
    /// paper's partial-connected-components posture.
    Tree,
}

/// What the engine hands to [`ParallelAnalysis::finalize`].
#[derive(Debug)]
pub enum Gathered<I, W> {
    /// Gather-shaped result: every mapped item, in slice order (Spark,
    /// Dask, Pilot).
    Items(Vec<I>),
    /// Tree-shaped result: the engine-side combine of all items (`None`
    /// when there were no slices).
    Merged(Option<I>),
    /// MPI result: one [`ParallelAnalysis::Wire`] value per rank, in rank
    /// order.
    Ranks(Vec<W>),
}

/// Per-rank virtual clock readings of an MPI run, for phase attribution
/// in [`ParallelAnalysis::finalize`].
#[derive(Clone, Copy, Debug)]
pub struct MpiClocks {
    /// Earliest rank start.
    pub start_min: f64,
    /// Latest end of the broadcast (equals the start when nothing was
    /// broadcast).
    pub bcast_max: f64,
    /// Latest end of the map stage.
    pub map_max: f64,
}

enum Sink<'a> {
    Spark(&'a sparklet::SparkContext),
    Dask(&'a dasklet::DaskClient),
    /// Pilot and MPI hand the report over by value; driver-side charges
    /// append phases directly.
    Owned {
        report: Box<SimReport>,
        cluster: Box<Cluster>,
    },
}

/// Driver-side context handed to [`ParallelAnalysis::finalize`]: charge
/// measured driver work to the virtual clock, attribute phase spans, and
/// surrender the [`SimReport`].
pub struct DriverCtx<'a> {
    engine: Engine,
    tasks: usize,
    clocks: Option<MpiClocks>,
    sink: Sink<'a>,
}

impl<'a> DriverCtx<'a> {
    pub(crate) fn spark(sc: &'a sparklet::SparkContext, tasks: usize) -> Self {
        DriverCtx {
            engine: Engine::Spark,
            tasks,
            clocks: None,
            sink: Sink::Spark(sc),
        }
    }

    pub(crate) fn dask(client: &'a dasklet::DaskClient, tasks: usize) -> Self {
        DriverCtx {
            engine: Engine::Dask,
            tasks,
            clocks: None,
            sink: Sink::Dask(client),
        }
    }

    pub(crate) fn owned(
        engine: Engine,
        tasks: usize,
        clocks: Option<MpiClocks>,
        report: SimReport,
        cluster: Cluster,
    ) -> Self {
        DriverCtx {
            engine,
            tasks,
            clocks,
            sink: Sink::Owned {
                report: Box::new(report),
                cluster: Box::new(cluster),
            },
        }
    }

    /// Which engine executed the map stage.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// How many map slices the engine ran.
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// The cluster the run executed on.
    pub fn cluster(&self) -> &Cluster {
        match &self.sink {
            Sink::Spark(sc) => sc.cluster(),
            Sink::Dask(client) => client.cluster(),
            Sink::Owned { cluster, .. } => cluster,
        }
    }

    /// Per-rank clock extrema (MPI runs only).
    pub fn mpi_clocks(&self) -> Option<MpiClocks> {
        self.clocks
    }

    /// Record a phase span `[start, end)` on the report.
    pub fn push_span(&mut self, label: &str, start: f64, end: f64) {
        match &mut self.sink {
            Sink::Spark(sc) => sc.note_phase(label, start, end),
            Sink::Dask(client) => client.note_phase(label, start, end),
            Sink::Owned { report, .. } => report.push_phase(label, start, end),
        }
    }

    /// Run `f` on the driver, measure its real host time, and charge the
    /// scaled equivalent to the virtual clock under `label` — Spark/Dask
    /// charge the driver, Pilot/MPI extend the makespan.
    pub fn charge_measured<T>(&mut self, label: &str, f: impl FnOnce() -> T) -> T {
        let (value, host_s) = netsim::measure(f);
        match &mut self.sink {
            Sink::Spark(sc) => {
                sc.charge_driver(label, sc.cluster().scale_compute(host_s));
            }
            Sink::Dask(client) => {
                client.charge_driver(label, client.cluster().scale_compute(host_s));
            }
            Sink::Owned { report, cluster } => {
                let secs = cluster.scale_compute(host_s);
                report.push_phase(label, report.makespan_s, report.makespan_s + secs);
                report.makespan_s += secs;
            }
        }
        value
    }

    /// Consume the context, yielding the final [`SimReport`].
    pub fn finish(self) -> SimReport {
        match self.sink {
            Sink::Spark(sc) => sc.report(),
            Sink::Dask(client) => client.report(),
            Sink::Owned { report, .. } => *report,
        }
    }
}

/// An analysis expressed once and executed by any engine.
///
/// The life cycle mirrors pmda: [`prepare`](Self::prepare) →
/// [`map`](Self::map) over every slice → an associative reduce
/// ([`ReduceShape`]) → [`finalize`](Self::finalize). The remaining hooks
/// describe engine-posture details (broadcast vs capture, staged bytes
/// for the pilot, the whole-rank computation for MPI, phase labels and
/// I/O charges) with defaults that fit simple frame-mapped analyses; the
/// built-in Leaflet Finder and PSA instances override them to reproduce
/// each framework's deployment in the paper.
pub trait ParallelAnalysis: Send + Sync {
    /// The input every map task reads (broadcast when
    /// [`broadcast`](Self::broadcast) is true, captured otherwise). Not
    /// `Clone`: every engine shares the one [`shared`](Self::shared)
    /// `Arc`, none copies the input.
    type Shared: Payload + Send + Sync + 'static;
    /// One unit of work (an index range, a 2-D block, …). `Copy` so the
    /// planners can hand slices to closures freely.
    type Slice: Copy + Send + Sync + 'static;
    /// One mapped result element.
    type Item: Payload + Clone + Send + Sync + 'static;
    /// What one MPI rank ships to rank 0 (commonly `Vec<Item>`).
    type Wire: Payload + Send + Sync + 'static;
    /// The finalized analysis result.
    type Output;

    /// Short name (trace labels, diagnostics).
    fn name(&self) -> &'static str;

    /// One-time setup before any engine work (pmda's `_prepare`).
    fn prepare(&self) -> Result<(), EngineError> {
        Ok(())
    }

    /// Feasibility gate, checked before any engine work.
    fn check(&self, _engine: Engine, _cluster: &Cluster) -> Result<(), EngineError> {
        Ok(())
    }

    /// The shared input.
    fn shared(&self) -> Arc<Self::Shared>;

    /// Work decomposition for this engine on this cluster. Must be
    /// non-empty for Spark runs (an RDD needs at least one partition).
    fn slices(&self, engine: Engine, cluster: &Cluster) -> Vec<Self::Slice>;

    /// Ship [`shared`](Self::shared) through the engine's broadcast
    /// primitive (charged per its cost model) instead of capturing it.
    fn broadcast(&self) -> bool {
        false
    }

    /// Phase label of the map stage.
    fn map_phase(&self, _engine: Engine) -> &'static str {
        "map"
    }

    /// Record an explicit phase span around the Spark/Dask map gather.
    fn bracket_map_phase(&self) -> bool {
        false
    }

    /// Bytes a map task must read for `slice`; `None` charges nothing.
    fn io_bytes(&self, _slice: Self::Slice) -> Option<u64> {
        None
    }

    /// Declared virtual compute cost of one slice, charged inside the
    /// engine task on top of measured host time. Zero (the default) for
    /// analyses whose task cost comes purely from measurement; the
    /// frame-mapped analyses declare their per-frame cost model here so
    /// tasks occupy virtual time even when the host closure is trivial.
    fn slice_cost_s(&self, _slice: Self::Slice) -> f64 {
        0.0
    }

    /// Map one slice to its items (gather-shaped analyses).
    fn map(&self, shared: &Self::Shared, slice: Self::Slice) -> Vec<Self::Item>;

    /// Map one slice to a single combinable item (tree-shaped analyses).
    fn map_one(&self, _shared: &Self::Shared, _slice: Self::Slice) -> Self::Item {
        unimplemented!("map_one is required for ReduceShape::Tree analyses")
    }

    /// How mapped items come back to the driver.
    fn reduce_shape(&self) -> ReduceShape {
        ReduceShape::Gather
    }

    /// Associative pairwise combine (tree-shaped analyses). Engines keep
    /// slice order and choose the bracketing, so it need not be
    /// commutative.
    fn combine(&self, _a: Self::Item, _b: Self::Item) -> Self::Item {
        unimplemented!("combine is required for ReduceShape::Tree analyses")
    }

    /// Declared cost model (pilot admission, streaming defaults).
    fn cost(&self) -> AnalysisCost {
        AnalysisCost::DEFAULT
    }

    /// Pilot posture: serialize `slice`'s input for filesystem staging,
    /// returning the staged bytes plus an opaque decode token handed back
    /// to [`map_staged`](Self::map_staged) (e.g. a split offset). `None`
    /// (the default) runs compute-only units that capture the shared
    /// input in memory.
    fn stage(&self, _shared: &Self::Shared, _slice: Self::Slice) -> Option<(Vec<u8>, u64)> {
        None
    }

    /// Map from staged bytes inside a pilot Compute-Unit (required when
    /// [`stage`](Self::stage) returns `Some`).
    fn map_staged(&self, _slice: Self::Slice, _token: u64, _staged: &[u8]) -> Vec<Self::Item> {
        unimplemented!("map_staged is required when stage() returns Some")
    }

    /// MPI posture: the whole per-rank computation over this rank's
    /// slices, executed inside one measured `compute` block.
    fn rank_map(&self, shared: &Self::Shared, mine: &[Self::Slice]) -> Self::Wire;

    /// Bytes an MPI rank must read for its slices before mapping; `None`
    /// charges nothing. Defaults to the sum of per-slice
    /// [`io_bytes`](Self::io_bytes) (no charge when every slice declares
    /// none).
    fn rank_io_bytes(&self, mine: &[Self::Slice]) -> Option<u64> {
        let mut total = 0u64;
        let mut any = false;
        for &s in mine {
            if let Some(b) = self.io_bytes(s) {
                total += b;
                any = true;
            }
        }
        any.then_some(total)
    }

    /// Consume the reduced results and the driver context into the final
    /// output.
    fn finalize(
        &self,
        gathered: Gathered<Self::Item, Self::Wire>,
        ctx: DriverCtx<'_>,
    ) -> Result<Self::Output, EngineError>;
}
