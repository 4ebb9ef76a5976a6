//! Shared substrate for the four task-parallel engines (`sparklet`,
//! `dasklet`, `pilot`, `mpilike`):
//!
//! * [`payload`] — byte-accurate size accounting for everything that
//!   crosses a simulated node boundary (broadcast, shuffle, staging);
//! * [`profile`] — per-framework overhead constants (startup, central
//!   dispatch, worker overhead, serialization tax, broadcast algorithm),
//!   calibrated against the paper's Figures 2, 3 and 8;
//! * [`ctx`] — the task execution context handed to task closures;
//! * [`fold`] — the balanced pairwise fold every host-side tree reduce
//!   (Spark's `reduce`, the pilot's client-side combine) runs;
//! * [`engine`] — a minimal object-safe trait all engines implement for
//!   uniform task-throughput benchmarking (Fig. 2/3); the MD analysis
//!   pipelines use each engine's native API instead, exactly as the paper
//!   wrote one implementation per framework.

pub mod ctx;
pub mod engine;
pub mod fold;
pub mod payload;
pub mod profile;

pub use ctx::TaskCtx;
pub use engine::{BagEngine, BagTask, Engine, EngineError};
pub use fold::fold_pairwise;
pub use payload::Payload;
pub use profile::{dask_profile, mpi_profile, pilot_profile, spark_profile, FrameworkProfile};
