//! Micro-batched streaming on the Spark driver — the Spark-Streaming
//! posture: buffer incoming frames, dispatch each batch as one stage.

use netsim::lock;
use netsim::stream::{run_stream, DispatchMode, SourceLog, StreamJob, StreamRun};
use taskframe::EngineError;

use crate::SparkContext;

/// Frames per micro-batch when the caller does not say otherwise —
/// roughly one stage per window at the default bench cadence.
pub const DEFAULT_MICRO_BATCH: usize = 4;

impl SparkContext {
    /// Run an event-time windowed streaming job over a delivery schedule.
    ///
    /// Frames are micro-batched: `batch` frames buffer on the driver and
    /// dispatch as one stage (one scheduling overhead per batch, tasks in
    /// parallel). Window close, watermarks, late-frame disposition,
    /// backpressure, and per-window lineage replay follow
    /// [`netsim::stream::run_stream`]; the retry policy is the context's
    /// ([`SparkContext::set_retry_policy`]).
    pub fn run_stream(
        &self,
        source: &SourceLog,
        job: &StreamJob,
        batch: usize,
        frame_value: &mut dyn FnMut(usize) -> u64,
    ) -> Result<StreamRun, EngineError> {
        let overhead = self.inner.profile.central_dispatch_s + self.inner.profile.worker_overhead_s;
        let spec = job.spec(DispatchMode::MicroBatch(batch.max(1)), overhead);
        let mut st = lock(&self.inner.state);
        let policy = st.policy;
        st.exec.set_phase("stream");
        let output = run_stream(&mut st.exec, source, &spec, &policy, frame_value)
            .map_err(EngineError::from)?;
        st.frontier = st.frontier.max(st.exec.all_idle_at());
        let mut report = st.exec.report().clone();
        report.makespan_s = report.makespan_s.max(st.frontier);
        Ok(StreamRun { output, report })
    }
}
