//! The minimal cross-engine interface.
//!
//! The throughput experiments (Fig. 2/3) run the *same* bag of independent
//! tasks on every engine; [`BagEngine`] is that common denominator. The MD
//! analysis pipelines do **not** go through this trait — they are written
//! against each engine's native API (RDDs, delayed graphs, Compute-Units,
//! communicators), mirroring how the paper implemented each algorithm per
//! framework.

use crate::TaskCtx;
use netsim::stream::StreamError;
use netsim::{PolicyError, SimReport};

/// The four reproduced execution frameworks, as data — what a
/// `RunConfig`-style API selects between (the paper's §4 comparison axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// `sparklet`: RDDs, lineage, torrent broadcast (PySpark).
    Spark,
    /// `dasklet`: eager delayed graphs, distributed memory manager
    /// (Dask-distributed).
    Dask,
    /// `pilot`: Compute-Units through a MongoDB-coordinated pilot agent
    /// (RADICAL-Pilot).
    Pilot,
    /// `mpilike`: per-rank clocks in bulk-synchronous supersteps (mpi4py).
    Mpi,
}

impl Engine {
    /// All engines, in the paper's presentation order.
    pub const ALL: [Engine; 4] = [Engine::Spark, Engine::Dask, Engine::Pilot, Engine::Mpi];

    /// Short lowercase name (CLI values, JSON keys, trace labels).
    pub fn label(self) -> &'static str {
        match self {
            Engine::Spark => "spark",
            Engine::Dask => "dask",
            Engine::Pilot => "pilot",
            Engine::Mpi => "mpi",
        }
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "spark" | "sparklet" => Ok(Engine::Spark),
            "dask" | "dasklet" => Ok(Engine::Dask),
            "pilot" | "rp" => Ok(Engine::Pilot),
            "mpi" | "mpilike" => Ok(Engine::Mpi),
            other => Err(format!(
                "unknown engine {other:?} (want spark|dask|pilot|mpi)"
            )),
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A task in a flat bag: runs with a context, returns a small result.
pub type BagTask = Box<dyn Fn(&TaskCtx) -> u64 + Send + Sync>;

/// Errors an engine can surface mid-job.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A task (or the engine's own data structures) exceeded a simulated
    /// node's memory — reproduces the paper's cdist / broadcast failures.
    OutOfMemory {
        node_mem: u64,
        required: u64,
        what: String,
    },
    /// A per-node memory budget (possibly shrunk mid-run by a fault plan)
    /// left the engine no degradation path: nothing further to spill,
    /// evict, chunk, or queue. Unlike [`EngineError::OutOfMemory`] — a
    /// single structure that never fits — this is pressure exhausting the
    /// engine's coping machinery, and it must surface typed, never as a
    /// panic or hang.
    MemoryExhausted {
        node: usize,
        budget: u64,
        required: u64,
        at_s: f64,
        what: String,
    },
    /// The engine refused the workload (e.g. RADICAL-Pilot beyond 16k
    /// tasks, §4.1: "we were not able to scale RADICAL-Pilot to 32k or
    /// more tasks").
    Unsupported(String),
    /// A worker/node died and the engine could not (or by design does not)
    /// recover — MPI aborts the communicator; task engines surface this
    /// only after exhausting `max_attempts`.
    WorkerLost { node: usize, at_s: f64 },
    /// Every attempt allowed by the engine's
    /// [`RetryPolicy`](netsim::RetryPolicy) was killed by a node death.
    RetriesExhausted { attempts: u32, last_failure_s: f64 },
    /// The engine's per-attempt watchdog killed the final allowed attempt.
    TaskTimeout {
        attempt: u32,
        timeout_s: f64,
        at_s: f64,
    },
    /// No attempt could finish before the policy's absolute deadline.
    DeadlineExceeded { deadline_s: f64, at_s: f64 },
    /// Every node that could host work is dead.
    NoSurvivingWorkers { at_s: f64 },
    /// The service refused the submission outright — backpressure, a
    /// tenant quota, or a job no cluster could ever host. Unlike the
    /// recovery errors above, nothing was attempted: rejection is the
    /// admission layer's typed alternative to unbounded queueing.
    Rejected {
        tenant: usize,
        reason: String,
        at_s: f64,
    },
    /// A streaming pipeline stopped making progress — the producer crashed
    /// with windows still open, or backpressure dead-locked with no
    /// scheduled budget change to wait for — and the
    /// [`RetryPolicy`](netsim::RetryPolicy) watchdog fired at `at_s`
    /// instead of letting the run hang. `open_windows` is how many
    /// event-time windows were still waiting on frames.
    StreamStalled { at_s: f64, open_windows: usize },
}

impl From<PolicyError> for EngineError {
    fn from(e: PolicyError) -> Self {
        match e {
            PolicyError::RetriesExhausted {
                attempts,
                last_failure_s,
            } => EngineError::RetriesExhausted {
                attempts,
                last_failure_s,
            },
            PolicyError::Timeout {
                attempt,
                timeout_s,
                at_s,
            } => EngineError::TaskTimeout {
                attempt,
                timeout_s,
                at_s,
            },
            PolicyError::DeadlineExceeded { deadline_s, at_s } => {
                EngineError::DeadlineExceeded { deadline_s, at_s }
            }
            PolicyError::NoSurvivingCore { at_s } => EngineError::NoSurvivingWorkers { at_s },
        }
    }
}

impl From<StreamError> for EngineError {
    fn from(e: StreamError) -> Self {
        match e {
            StreamError::Stalled { at_s, open_windows } => {
                EngineError::StreamStalled { at_s, open_windows }
            }
            StreamError::Policy(p) => p.into(),
            StreamError::Memory {
                node,
                budget,
                required,
                at_s,
            } => EngineError::MemoryExhausted {
                node,
                budget,
                required,
                at_s,
                what: "stream window state".into(),
            },
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::OutOfMemory {
                node_mem,
                required,
                what,
            } => write!(
                f,
                "out of memory: {what} needs {required} bytes, node has {node_mem}"
            ),
            EngineError::MemoryExhausted {
                node,
                budget,
                required,
                at_s,
                what,
            } => write!(
                f,
                "memory exhausted (out of memory): {what} needs {required} bytes on node \
                 {node} but only {budget} remain at {at_s:.3}s"
            ),
            EngineError::Unsupported(m) => write!(f, "unsupported: {m}"),
            EngineError::WorkerLost { node, at_s } => {
                write!(f, "worker lost: node {node} died at {at_s}s")
            }
            EngineError::RetriesExhausted {
                attempts,
                last_failure_s,
            } => write!(
                f,
                "retries exhausted: task failed after {attempts} attempts \
                 (last failure at {last_failure_s:.3}s)"
            ),
            EngineError::TaskTimeout {
                attempt,
                timeout_s,
                at_s,
            } => write!(
                f,
                "task timeout: attempt {attempt} exceeded {timeout_s:.3}s at {at_s:.3}s"
            ),
            EngineError::DeadlineExceeded { deadline_s, at_s } => write!(
                f,
                "deadline exceeded: cannot finish by {deadline_s:.3}s (checked at {at_s:.3}s)"
            ),
            EngineError::NoSurvivingWorkers { at_s } => {
                write!(f, "no surviving workers at {at_s:.3}s (all nodes dead)")
            }
            EngineError::Rejected {
                tenant,
                reason,
                at_s,
            } => write!(f, "rejected: tenant {tenant} at {at_s:.3}s: {reason}"),
            EngineError::StreamStalled { at_s, open_windows } => write!(
                f,
                "stream stalled: no progress possible at {at_s:.3}s with \
                 {open_windows} window(s) still open"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Uniform "run a bag of independent tasks" interface for throughput
/// benchmarking.
pub trait BagEngine {
    fn name(&self) -> &'static str;

    /// Execute all tasks, returning their results (in task order) and the
    /// simulated execution report.
    fn run_bag(&mut self, tasks: Vec<BagTask>) -> Result<(Vec<u64>, SimReport), EngineError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_labels_round_trip() {
        for e in Engine::ALL {
            assert_eq!(e.label().parse::<Engine>().unwrap(), e);
            assert_eq!(e.to_string(), e.label());
        }
        assert_eq!("mpilike".parse::<Engine>().unwrap(), Engine::Mpi);
        assert!("ray".parse::<Engine>().is_err());
    }

    #[test]
    fn error_display() {
        let e = EngineError::OutOfMemory {
            node_mem: 10,
            required: 20,
            what: "cdist".into(),
        };
        assert!(e.to_string().contains("cdist"));
        let u = EngineError::Unsupported("too many tasks".into());
        assert!(u.to_string().contains("too many tasks"));
        let m = EngineError::MemoryExhausted {
            node: 1,
            budget: 512,
            required: 1024,
            at_s: 2.5,
            what: "collective buffer".into(),
        };
        let shown = m.to_string();
        assert!(shown.contains("memory exhausted"));
        assert!(shown.contains("out of memory"));
        assert!(shown.contains("collective buffer"));
    }
}
