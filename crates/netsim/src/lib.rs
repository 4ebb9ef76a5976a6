//! Virtual-time cluster simulator.
//!
//! The paper's experiments ran on XSEDE Comet and Wrangler with up to 256
//! cores. We reproduce their *scaling shapes* on a laptop by splitting
//! "running a task" into two concerns:
//!
//! 1. **Real execution** — task closures genuinely run on the host and are
//!    timed ([`clock::measure`]); every analysis result is real.
//! 2. **Simulated placement** — measured durations are placed onto
//!    simulated per-core timelines ([`SimExecutor`]) according to each
//!    framework's scheduling semantics, and communication (broadcast,
//!    shuffle, staging) advances virtual time through a [`NetworkModel`].
//!
//! The simulated makespan is what the experiment harness reports; it scales
//! cleanly to 256 virtual cores regardless of host core count.

pub mod broadcast;
pub mod chaos;
pub mod chrome;
pub mod clock;
pub mod cluster;
pub mod critical;
pub mod executor;
pub mod fault;
pub mod metrics;
pub mod parallel;
pub mod policy;
pub mod report;
pub mod stream;
pub mod trace;

pub use broadcast::{broadcast_time, BroadcastAlgo};
pub use chaos::{ChaosConfig, ChaosOutcome, Fingerprint, FuzzReport, Verdict, Violation};
pub use clock::{deterministic_timing, measure, measure_scaled, set_deterministic_timing};
pub use cluster::{comet, laptop, wrangler, Cluster, ClusterBuilder, MachineProfile, NetworkModel};
pub use critical::{CpSegment, CriticalPath};
pub use executor::{RecoveryLog, Redispatch, SimExecutor, TaskOpts, TaskPlacement};
pub use fault::{FaultPlan, FaultPlanError, MemSet, MemShrink, NodeDeath, Straggler};
pub use metrics::{escape_json, Histogram, Metrics, NodeMemory, NodeTraffic, PhaseShare};
pub use parallel::Threads;
pub use policy::{PolicyError, RetryPolicy, BACKOFF_SATURATION_S};
pub use report::{Phase, SimReport};
pub use stream::{
    check_stream_invariants, run_stream, DispatchMode, LateDisposition, LateRecord, SourceLog,
    StreamError, StreamEvent, StreamJob, StreamOutput, StreamRun, StreamSpec, WindowResult,
    WindowSpec,
};
pub use trace::{EventKind, Interner, Sym, Trace, TraceEvent};
