//! The generic analysis API: one analysis definition, four engines.
//!
//! This is the Rust analogue of pmda's `ParallelAnalysisBase` /
//! `AnalysisFromFunction` (MDAnalysis ecosystem): prepare → map → reduce
//! → finalize, with the deployment given as data. An analysis hands out
//! its shared input, a [`Plan`] per engine (the slices, the posture, and
//! the map and its [`Reduce`] as values), the body of one MPI rank, and a
//! finalize; [`RunConfig::run_analysis`](crate::run::RunConfig::run_analysis)
//! executes it with each engine's native posture:
//!
//! * **Spark** (`sparklet`) — one RDD partition per slice;
//!   [`Reduce::Gather`] collects, [`Reduce::Tree`] runs `treeReduce`
//!   with its combine;
//! * **Dask** (`dasklet`) — one delayed task per slice, gathered, or a
//!   binary combine tree;
//! * **RADICAL-Pilot** (`pilot`) — one Compute-Unit per slice, with a
//!   [`Staging`] codec's inputs really framed through the staging
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

/// Declared streaming cost model: the defaults the streaming postures
/// used to duplicate inline live in one place so they cannot drift
/// apart, and [`AnalysisFromFunction::with_cost`] declares a per-frame
/// virtual cost with it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnalysisCost {
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

/// Pilot admission control: a staged unit's declared peak working set as
/// a multiple of its staged bytes (staged copy + decoded copy + joined
/// buffer).
pub const STAGING_WORKING_SET_FACTOR: u64 = 3;

/// Pilot posture: a slice's input serialized for filesystem staging, and
/// the map from the staged bytes. Encode and decode come together, so a
/// staged unit cannot lack its decoder.
#[allow(clippy::type_complexity)]
pub struct Staging<A: ParallelAnalysis + ?Sized> {
    /// The slice's staged bytes plus an opaque token handed back to
    /// [`map`](Self::map) (e.g. a split offset).
    pub encode: fn(&A, &A::Shared, A::Slice) -> (Vec<u8>, u64),
    /// Map the slice from its staged bytes inside a Compute-Unit.
    pub map: fn(&A, A::Slice, u64, &[u8]) -> Vec<A::Item>,
}

/// The map of one slice, and how its items come back to the driver.
#[allow(clippy::type_complexity)]
pub enum Reduce<A: ParallelAnalysis + ?Sized> {
    /// Every item crosses the wire; the driver sees all of them
    /// (`collect` / `gather`). The paper's O(E)-shuffle posture.
    Gather(fn(&A, &A::Shared, A::Slice) -> Vec<A::Item>),
    /// Each slice maps to one leaf item, and leaves are pairwise combined
    /// engine-side (Spark `treeReduce`, Dask combine tree, the pilot's
    /// client fold); the driver sees at most one. Engines keep slice
    /// order and choose the bracketing, so the combine must be
    /// associative but need not be commutative. The paper's
    /// partial-connected-components posture.
    Tree(
        fn(&A, &A::Shared, A::Slice) -> A::Item,
        fn(&A, A::Item, A::Item) -> A::Item,
    ),
}

/// How an analysis is deployed on one engine:
/// [`ParallelAnalysis::plan`]'s value, which the engine runners read.
pub struct Plan<A: ParallelAnalysis + ?Sized> {
    /// Work decomposition. Must be non-empty for Spark runs (an RDD needs
    /// at least one partition).
    pub slices: Vec<A::Slice>,
    /// Ship [`ParallelAnalysis::shared`] through the engine's broadcast
    /// primitive (charged per its cost model) instead of capturing it.
    pub broadcast: bool,
    /// Phase label of the map stage.
    pub phase: &'static str,
    /// Record an explicit phase span around a Spark/Dask gather (a tree
    /// reduce always records one).
    pub bracket: bool,
    /// Bytes a map task reads for its slice, charged as a storage
    /// transfer before the map. An MPI rank pays one read of its slices'
    /// sum, so a rank with no slice still pays the zero-byte request.
    /// `None` charges nothing.
    pub read_bytes: Option<fn(&A, A::Slice) -> u64>,
    /// Declared virtual compute cost of a slice, charged inside the task
    /// on top of measured host time, so tasks occupy virtual time even
    /// when the host closure is trivial. `None` leaves the cost to
    /// measurement alone.
    pub cost_s: Option<fn(&A, A::Slice) -> f64>,
    /// Stage each slice's input through the pilot's filesystem. `None`
    /// runs compute-only units that capture the shared input in memory.
    pub staging: Option<Staging<A>>,
    /// The map, and how its items are reduced.
    pub reduce: Reduce<A>,
}

impl<A: ParallelAnalysis + ?Sized> Plan<A> {
    /// `slices` mapped under the phase label `"map"`: the shared input
    /// captured, nothing declared, nothing staged.
    pub fn new(slices: Vec<A::Slice>, reduce: Reduce<A>) -> Self {
        Plan {
            slices,
            broadcast: false,
            phase: "map",
            bracket: false,
            read_bytes: None,
            cost_s: None,
            staging: None,
            reduce,
        }
    }
}

/// What the engine hands to [`ParallelAnalysis::finalize`].
#[derive(Debug)]
pub enum Gathered<I, W> {
    /// Spark, Dask and Pilot: every mapped item in slice order under
    /// [`Reduce::Gather`]; under [`Reduce::Tree`], the engine-side
    /// combine of all of them (empty when there were no slices).
    Items(Vec<I>),
    /// MPI: one [`ParallelAnalysis::Wire`] value per rank, in rank order,
    /// and the ranks' clock readings.
    Ranks(Vec<W>, MpiClocks),
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
    sink: Sink<'a>,
}

impl<'a> DriverCtx<'a> {
    pub(crate) fn spark(sc: &'a sparklet::SparkContext, tasks: usize) -> Self {
        DriverCtx {
            engine: Engine::Spark,
            tasks,
            sink: Sink::Spark(sc),
        }
    }

    pub(crate) fn dask(client: &'a dasklet::DaskClient, tasks: usize) -> Self {
        DriverCtx {
            engine: Engine::Dask,
            tasks,
            sink: Sink::Dask(client),
        }
    }

    pub(crate) fn owned(engine: Engine, tasks: usize, report: SimReport, cluster: Cluster) -> Self {
        DriverCtx {
            engine,
            tasks,
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
/// The life cycle mirrors pmda: [`plan`](Self::plan) (pmda's `_prepare`,
/// plus the engine posture as one value) → the plan's map over every
/// slice → its [`Reduce`] → [`finalize`](Self::finalize). MPI runs
/// [`rank_map`](Self::rank_map) once per rank instead of the per-slice
/// map. The built-in Leaflet Finder and PSA instances fill in the plan to
/// reproduce each framework's deployment in the paper.
pub trait ParallelAnalysis: Send + Sync {
    /// The input every map task reads (broadcast when
    /// [`Plan::broadcast`] is set, captured otherwise). Not `Clone`:
    /// every engine shares the one [`shared`](Self::shared) `Arc`, none
    /// copies the input.
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

    /// The shared input.
    fn shared(&self) -> Arc<Self::Shared>;

    /// This analysis's deployment on `engine` over `cluster`. An `Err`
    /// (an infeasible configuration) stops the run before any engine
    /// work.
    fn plan(&self, engine: Engine, cluster: &Cluster) -> Result<Plan<Self>, EngineError>;

    /// MPI posture: the whole per-rank computation over this rank's
    /// slices, executed inside one measured `compute` block.
    fn rank_map(&self, shared: &Self::Shared, mine: &[Self::Slice]) -> Self::Wire;

    /// Consume the reduced results and the driver context into the final
    /// output.
    fn finalize(
        &self,
        gathered: Gathered<Self::Item, Self::Wire>,
        ctx: DriverCtx<'_>,
    ) -> Result<Self::Output, EngineError>;
}
