//! # mdtask — Task-parallel Analysis of Molecular Dynamics Trajectories
//!
//! Umbrella crate for the reproduction of Paraskevakos et al.,
//! *"Task-parallel Analysis of Molecular Dynamics Trajectories"*
//! (ICPP 2018): re-exports every workspace crate under one roof and hosts
//! the runnable examples (`examples/`) and cross-crate integration tests
//! (`tests/`).
//!
//! ## Layout
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`analysis`] | `mdtask-core` | PSA + Leaflet Finder over all engines, decision framework |
//! | [`math`] | `linalg` | RMSD/dRMS kernels, cdist, Hausdorff distance |
//! | [`sim`] | `mdsim` | synthetic trajectories and lipid bilayers |
//! | [`io`] | `mdio` | MDT/XYZ trajectory formats, staging |
//! | [`search`] | `neighbors` | brute force, BallTree, cell lists |
//! | [`graph`] | `graphops` | union–find, connected components, partial merge |
//! | [`cluster`] | `netsim` | virtual-time cluster simulator, machine profiles |
//! | [`frame`] | `taskframe` | framework profiles, payload accounting |
//! | [`spark`] | `sparklet` | Spark-equivalent engine |
//! | [`dask`] | `dasklet` | Dask-equivalent engine |
//! | [`rp`] | `pilot` | RADICAL-Pilot-equivalent engine |
//! | [`mpi`] | `mpilike` | MPI-equivalent SPMD engine |
//! | [`cpp`] | `cpptraj` | CPPTraj-equivalent baseline |
//! | [`service`] | `mdtaskd` | multi-tenant analysis service: fair share, quotas, backpressure |
//!
//! ## Quickstart
//!
//! ```
//! use mdtask::prelude::*;
//! use std::sync::Arc;
//!
//! // A small ensemble of synthetic trajectories…
//! let spec = ChainSpec { n_atoms: 20, n_frames: 10, stride: 1, ..ChainSpec::default() };
//! let ensemble = Arc::new(mdtask::sim::chain::generate_ensemble(&spec, 4, 42));
//!
//! // …analysed with PSA on a Dask-like engine over a simulated cluster.
//! let run = RunConfig::new(Cluster::new(laptop(), 2), Engine::Dask);
//! let cfg = PsaConfig { groups: 2, charge_io: true };
//! let out = run_psa(&run, ensemble, &cfg).expect("fault-free");
//! assert_eq!(out.distances.rows(), 4);
//! assert!(out.report.makespan_s > 0.0);
//! ```

pub use cpptraj as cpp;
pub use dasklet as dask;
pub use graphops as graph;
pub use linalg as math;
pub use mdio as io;
pub use mdsim as sim;
pub use mdtask_core as analysis;
pub use mdtaskd as service;
pub use mpilike as mpi;
pub use neighbors as search;
pub use netsim as cluster;
pub use pilot as rp;
pub use sparklet as spark;
pub use taskframe as frame;

/// The most common imports in one place.
///
/// `RunConfig` + `run_lf`/`run_psa`/`RunConfig::run_analysis` are the
/// only entry points; there are no per-engine drivers. The serial
/// references (`lf_serial`, `psa_serial`) are oracles for tests, not a
/// second way to run an analysis.
pub mod prelude {
    pub use crate::analysis::leaflet::lf_serial;
    pub use crate::analysis::psa::psa_serial;
    pub use crate::analysis::{
        contacts_analysis, lf_frame_value, rmsd_analysis, run_lf, run_lf_stream, run_psa,
        run_workload, AnalysisCost, AnalysisFromFunction, AtomSelection, Engine, FrameSeries,
        Gathered, LfApproach, LfConfig, LfOutput, LfRun, ParallelAnalysis, Plan, PsaConfig,
        PsaOutput, PsaRun, Reduce, RunConfig, StreamTuning, Workload, WorkloadRun,
    };
    pub use crate::cluster::{
        check_stream_invariants, comet, laptop, wrangler, ChaosConfig, Cluster, CriticalPath,
        DispatchMode, EventKind, FaultPlan, LateDisposition, MachineProfile, Metrics, RetryPolicy,
        SimReport, SourceLog, StreamError, StreamJob, StreamOutput, StreamRun, Threads, Trace,
        TraceEvent, WindowSpec,
    };
    pub use crate::dask::{DaskClient, Delayed};
    pub use crate::frame::{BagEngine, EngineError, FrameworkProfile, Payload, TaskCtx};
    pub use crate::io::StreamSource;
    pub use crate::math::{DistanceMatrix, Frame, Vec3};
    pub use crate::mpi::World;
    pub use crate::rp::{Session, UnitDescription};
    pub use crate::service::{JobRequest, Service, ServiceReport, TenantSpec};
    pub use crate::sim::{BilayerSpec, ChainSpec, LfDatasetId, PsaSize, Trajectory};
    pub use crate::spark::{Rdd, SparkContext};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn umbrella_reexports_line_up() {
        // One symbol per crate, proving the re-export wiring.
        let _ = Vec3::new(0.0, 0.0, 0.0);
        let _ = ChainSpec::default();
        let _ = laptop();
        assert_eq!(Engine::ALL.len(), 4);
        assert_eq!(LfApproach::ALL.len(), 4);
    }
}
