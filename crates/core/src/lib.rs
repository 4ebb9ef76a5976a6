//! `mdtask-core` — task-parallel analysis of molecular dynamics
//! trajectories.
//!
//! This crate is the paper's primary contribution, reimplemented: the two
//! representative MD trajectory-analysis algorithms — **Path Similarity
//! Analysis with the Hausdorff metric** (Algorithm 1) and the **Leaflet
//! Finder** (Algorithm 3) — expressed over four task-parallel engines
//! (`sparklet`, `dasklet`, `pilot`, `mpilike`), together with:
//!
//! * [`partition`] — the 2-D partitioning of Algorithm 2 and the
//!   memory-aware Leaflet Finder block planner;
//! * [`analysis`] — the one way an analysis is written
//!   ([`ParallelAnalysis`]) and [`run`] — the one way it is executed
//!   ([`RunConfig::run_analysis`]; [`run_lf`] and [`run_psa`] are
//!   instances);
//! * [`psa`] — PSA's configuration, output and serial reference;
//! * [`leaflet`] — the Leaflet Finder's four architectural approaches of
//!   Table 2 (broadcast + 1-D; task API + 2-D; parallel connected
//!   components; tree search), its edge kernels, memory gates and serial
//!   reference;
//! * [`decision`] — the conceptual decision framework of Tables 1 and 3,
//!   queryable.
//!
//! Every run on every engine returns both a *real* analysis result
//! (verified identical to the serial reference in tests) and a simulated
//! execution report (`netsim::SimReport`) carrying virtual makespan and
//! communication volumes — the quantities the paper's figures plot.

pub mod analysis;
pub mod clustering;
pub mod codec;
pub mod common;
pub mod decision;
pub mod leaflet;
pub mod partition;
pub mod psa;
pub mod run;

pub use analysis::{
    contacts_analysis, rmsd_analysis, AnalysisCost, AnalysisFromFunction, AtomSelection, DriverCtx,
    FrameSeries, Gathered, MpiClocks, ParallelAnalysis, Plan, Reduce, Staging,
};
pub use leaflet::{LfApproach, LfConfig, LfOutput};
pub use psa::{PsaConfig, PsaOutput};
pub use run::{
    lf_frame_value, run_lf, run_lf_stream, run_psa, run_workload, LfRun, PsaRun, RunConfig,
    StreamTuning, Workload, WorkloadRun,
};
pub use taskframe::Engine;
