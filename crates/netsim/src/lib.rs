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

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, recovering the guard if a holder panicked and poisoned it.
/// Every engine takes its state locks through here, so a panic inside one
/// task closure surfaces once, where the run re-raises it, and not again
/// at each later lock.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 2);
        // A holder that panics poisons the mutex; the next lock still
        // sees its data.
        let poisoned = std::panic::catch_unwind(|| {
            let mut g = lock(&m);
            *g += 1;
            panic!("holder panics");
        });
        assert!(poisoned.is_err() && m.is_poisoned());
        assert_eq!(*lock(&m), 3);
    }
}
