//! Ring-buffered streaming for the MPI posture.
//!
//! SPMD has no task scheduler to absorb an unbounded stream, so the
//! idiomatic in-situ pattern is a fixed ring buffer: ranks fill `ring`
//! slots with incoming frames and drain them with one synchronous
//! collective step — the next step cannot start until the previous one
//! completed. There is no per-task dispatch overhead (the profile's
//! defining property), but the synchrony shows up as ring-step barriers.

use netsim::stream::{run_stream, DispatchMode, SourceLog, StreamJob, StreamRun};
use netsim::{Cluster, RetryPolicy, SimExecutor};
use taskframe::{mpi_profile, EngineError};

/// Run an event-time windowed streaming job over a delivery schedule with
/// `ring` buffer slots.
///
/// Window close, watermarks, late-frame disposition, backpressure, and
/// per-window lineage replay follow [`netsim::stream::run_stream`]. Pass
/// `RetryPolicy::new(1)` for the classic abort-on-failure posture, or a
/// multi-attempt policy for the checkpoint/restart-style recovery a batch
/// job gets from `World::finish`.
pub fn run_stream_ring(
    cluster: Cluster,
    ring: usize,
    source: &SourceLog,
    job: &StreamJob,
    policy: &RetryPolicy,
    frame_value: &mut dyn FnMut(usize) -> u64,
) -> Result<StreamRun, EngineError> {
    assert!(ring >= 1, "need at least one ring slot");
    let profile = mpi_profile();
    let spec = job.spec(DispatchMode::RingCollective(ring), 0.0);
    let mut exec = SimExecutor::new(cluster);
    // MPI traces are small (ring steps, not a task soup): always record,
    // matching the batch runner's posture.
    exec.enable_trace();
    exec.report_mut().overhead_s += profile.startup_s;
    exec.advance_makespan(profile.startup_s);
    exec.set_phase("stream");
    let output =
        run_stream(&mut exec, source, &spec, policy, frame_value).map_err(EngineError::from)?;
    Ok(StreamRun {
        output,
        report: exec.into_report(),
    })
}
