//! The unified run API: pick an engine, configure the run once, execute.
//!
//! [`RunConfig`] is one builder for everything a run needs besides its
//! data: engine choice ([`taskframe::Engine`]), Leaflet-Finder approach,
//! [`RetryPolicy`], MPI checkpoint/restart posture, Spark speculative
//! execution, tracing, MPI world size, per-node memory budget and the
//! host-parallelism degree ([`netsim::Threads`]).
//! [`RunConfig::run_analysis`] constructs the engine handle, applies the
//! configuration and executes a [`ParallelAnalysis`]; [`run_lf`] and
//! [`run_psa`] are instances of it, and there is no other way to run
//! either. (The per-engine drivers they replaced are gone; what those
//! returned is frozen in `tests/golden_collectives.rs`.)
//!
//! ```
//! use mdtask_core::run::{run_lf, RunConfig};
//! use mdtask_core::{LfApproach, LfConfig};
//! use netsim::{laptop, Cluster};
//! use std::sync::Arc;
//! use taskframe::Engine;
//!
//! let b = mdsim::bilayer::generate(
//!     &mdsim::BilayerSpec { n_atoms: 200, ..Default::default() }, 7);
//! let cfg = RunConfig::new(Cluster::new(laptop(), 2), Engine::Spark)
//!     .approach(LfApproach::TreeSearch)
//!     .trace(true);
//! let lf = LfConfig { cutoff: b.suggested_cutoff, partitions: 8,
//!                     paper_atoms: 200, charge_io: true };
//! let out = run_lf(&cfg, Arc::new(b.positions), &lf).unwrap();
//! assert_eq!(out.n_components, 2);
//! assert!(out.report.trace.is_some());
//! ```

use crate::analysis::lf::{LfEdges, LfPartials};
use crate::analysis::psa_impl::PsaAnalysis;
use crate::analysis::{
    contacts_analysis, engines, rmsd_analysis, AnalysisCost, AtomSelection, ParallelAnalysis,
};
use crate::leaflet::{LfApproach, LfConfig, LfOutput};
use crate::psa::{PsaConfig, PsaOutput};
use dasklet::DaskClient;
use linalg::Vec3;
use mdio::StreamSource;
use mdsim::Trajectory;
use netsim::fault::mix;
use netsim::stream::{LateDisposition, StreamJob, StreamRun, WindowSpec};
use netsim::{parallel, Cluster, RetryPolicy, Threads};
use pilot::Session;
use sparklet::SparkContext;
use std::sync::Arc;
use taskframe::{Engine, EngineError};

/// Result of a configured Leaflet-Finder run.
pub type LfRun = LfOutput;
/// Result of a configured PSA run.
pub type PsaRun = PsaOutput;

/// Everything a run needs besides the data and the algorithm parameters.
///
/// Defaults: [`LfApproach::Task2D`], no retry policy (each engine's
/// native single-attempt posture), MPI restart-from-barrier on, no
/// speculation, no tracing, one MPI rank per simulated core, and the
/// process-wide host-parallelism degree.
#[derive(Clone, Debug)]
pub struct RunConfig {
    cluster: Cluster,
    engine: Engine,
    approach: LfApproach,
    policy: Option<RetryPolicy>,
    checkpoint_restart: bool,
    speculation: Option<f64>,
    trace: bool,
    trace_stride: u32,
    mpi_world: usize,
    threads: Option<Threads>,
    streaming: Option<StreamTuning>,
}

/// Streaming knobs attached to a [`RunConfig`] by [`RunConfig::streaming`]:
/// the event-time window layout plus the declared per-frame cost model.
#[derive(Clone, Debug)]
pub struct StreamTuning {
    pub window_s: f64,
    pub slide_s: f64,
    pub lateness_s: f64,
    pub late: LateDisposition,
    pub frame_cost_s: f64,
    pub state_bytes_per_frame: u64,
}

impl StreamTuning {
    /// Side-channel late frames and [`AnalysisCost::DEFAULT`]'s per-frame
    /// cost model, over the given window layout.
    fn new(window_s: f64, slide_s: f64, lateness_s: f64) -> Self {
        let cost = AnalysisCost::DEFAULT;
        StreamTuning {
            window_s,
            slide_s,
            lateness_s,
            late: LateDisposition::SideChannel,
            frame_cost_s: cost.stream_frame_cost_s,
            state_bytes_per_frame: cost.stream_state_bytes_per_frame,
        }
    }
}

impl RunConfig {
    /// A run on `engine` over `cluster`, with the defaults above.
    pub fn new(cluster: Cluster, engine: Engine) -> Self {
        let mpi_world = cluster.total_cores();
        RunConfig {
            cluster,
            engine,
            approach: LfApproach::Task2D,
            policy: None,
            checkpoint_restart: true,
            speculation: None,
            trace: false,
            trace_stride: 1,
            mpi_world,
            threads: None,
            streaming: None,
        }
    }

    /// Switch the run into streaming mode: event-time windows of
    /// `window_s`, one opening every `slide_s` (equal values tumble), with
    /// `lateness_s` of allowed lateness before the watermark closes a
    /// window. Late frames default to the side channel
    /// ([`Self::late_disposition`]); per-frame cost and window-state
    /// footprint default to 10 ms / 1 MiB ([`Self::stream_costs`]).
    pub fn streaming(mut self, window_s: f64, slide_s: f64, lateness_s: f64) -> Self {
        // Validates the layout eagerly so misconfiguration fails at build
        // time, not mid-stream.
        let _ = WindowSpec::sliding(window_s, slide_s, lateness_s);
        self.streaming = Some(StreamTuning::new(window_s, slide_s, lateness_s));
        self
    }

    /// What happens to frames arriving behind the watermark. Requires
    /// [`Self::streaming`] first.
    pub fn late_disposition(mut self, late: LateDisposition) -> Self {
        self.tuning_mut().late = late;
        self
    }

    /// Declared virtual cost per streamed frame and resident window-state
    /// bytes per (frame, window). Requires [`Self::streaming`] first.
    pub fn stream_costs(mut self, frame_cost_s: f64, state_bytes_per_frame: u64) -> Self {
        let t = self.tuning_mut();
        t.frame_cost_s = frame_cost_s;
        t.state_bytes_per_frame = state_bytes_per_frame;
        self
    }

    fn tuning_mut(&mut self) -> &mut StreamTuning {
        self.streaming
            .as_mut()
            .expect("call .streaming(window, slide, lateness) first")
    }

    /// Leaflet-Finder architectural approach (Table 2). Ignored by PSA
    /// and by the pilot engine (which implements Approach 2 only).
    pub fn approach(mut self, approach: LfApproach) -> Self {
        self.approach = approach;
        self
    }

    /// Retry policy applied to the engine (task retries on Spark/Dask/
    /// Pilot; job restart attempts on MPI).
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// MPI recovery posture: `true` (default) restarts from the last
    /// completed collective barrier, `false` from scratch. Only observable
    /// with a retry policy allowing more than one attempt; ignored by the
    /// task-parallel engines, which recover per task.
    pub fn checkpoint_restart(mut self, on: bool) -> Self {
        self.checkpoint_restart = on;
        self
    }

    /// Enable Spark speculative execution with the given stragglers
    /// threshold (> 1.0). Ignored by the other engines.
    pub fn speculation(mut self, threshold: f64) -> Self {
        self.speculation = Some(threshold);
        self
    }

    /// Record the event trace into `report.trace`.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Record a *sampled* event trace: only every `stride`-th task attempt
    /// is kept (network/memory events are always complete, so conservation
    /// oracles still hold). Implies [`Self::trace`]; a stride of 1 records
    /// everything. Use for paper-scale runs where a full trace would
    /// dominate memory. The stride is stamped on the trace
    /// ([`netsim::Trace::sample_stride`]) so consumers know counts are
    /// partial. Ignored by the MPI engine, whose traces are always small
    /// (ranks × collectives) and recorded in full.
    pub fn trace_sampled(mut self, stride: u32) -> Self {
        self.trace = true;
        self.trace_stride = stride.max(1);
        self
    }

    /// MPI world size (default: one rank per simulated core). A world of
    /// zero ranks, or of more ranks than cores, fails the run with
    /// [`EngineError::Unsupported`].
    pub fn mpi_world(mut self, world: usize) -> Self {
        self.mpi_world = world;
        self
    }

    /// Host-parallelism degree for the real compute closures. `None`
    /// (default) inherits the process-wide setting
    /// ([`netsim::parallel::set_default_threads`] / `MDTASK_THREADS`).
    pub fn threads(mut self, threads: Threads) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Override the per-node memory budget (bytes) of the cluster profile.
    pub fn mem_budget(mut self, bytes: u64) -> Self {
        self.cluster.profile.mem_per_node = bytes;
        self
    }

    fn scoped<T>(&self, f: impl FnOnce() -> T) -> T {
        match self.threads {
            Some(t) => parallel::with_degree(t, f),
            None => f(),
        }
    }

    /// Execute any [`ParallelAnalysis`] on the configured engine — the
    /// generic entry point [`run_lf`] and [`run_psa`] are built on.
    ///
    /// The analysis runs with the engine's native posture (Spark
    /// map-partitions + `treeReduce`, Dask per-slice task graph + gather,
    /// Pilot one staged Compute-Unit per slice, MPI scatter +
    /// gather/reduce) and inherits everything this config carries: fault
    /// plans on the cluster, the [`RetryPolicy`], tracing, speculation,
    /// MPI world size and checkpoint posture, and the host-parallelism
    /// degree.
    pub fn run_analysis<A: ParallelAnalysis + 'static>(
        &self,
        analysis: A,
    ) -> Result<A::Output, EngineError> {
        let a = Arc::new(analysis);
        self.scoped(|| match self.engine {
            Engine::Spark => engines::run_spark(&spark_handle(self), &a),
            Engine::Dask => engines::run_dask(&dask_handle(self), &a),
            Engine::Pilot => engines::run_pilot(&pilot_handle(self)?, &a),
            Engine::Mpi => engines::run_mpi(
                &self.cluster,
                self.mpi_world,
                &mpi_policy(self),
                self.checkpoint_restart,
                &a,
            ),
        })
    }
}

/// Run the Leaflet Finder as configured.
///
/// An instance of [`RunConfig::run_analysis`]: approaches 1–2 dispatch
/// the edge-gathering analysis, 3–4 the partial-components analysis (the
/// pilot implements approach 2 only).
pub fn run_lf(
    cfg: &RunConfig,
    positions: Arc<Vec<Vec3>>,
    lf: &LfConfig,
) -> Result<LfRun, EngineError> {
    if cfg.engine == Engine::Pilot {
        return cfg.run_analysis(LfEdges::new(positions, lf.clone(), LfApproach::Task2D));
    }
    match cfg.approach {
        LfApproach::Broadcast1D | LfApproach::Task2D => {
            cfg.run_analysis(LfEdges::new(positions, lf.clone(), cfg.approach))
        }
        LfApproach::ParallelCC | LfApproach::TreeSearch => {
            cfg.run_analysis(LfPartials::new(positions, lf.clone(), cfg.approach))
        }
    }
}

/// Run Path Similarity Analysis as configured — an instance of
/// [`RunConfig::run_analysis`].
pub fn run_psa(
    cfg: &RunConfig,
    ensemble: Arc<Vec<Trajectory>>,
    psa: &PsaConfig,
) -> Result<PsaRun, EngineError> {
    cfg.run_analysis(PsaAnalysis::new(ensemble, psa.clone()))
}

/// Per-frame leaflet analysis for streamed trajectories: the lipid
/// contact-pair count within `cutoff`, stride-sampled down to at most 128
/// atoms so a single frame stays cheap, folded into a deterministic
/// fingerprint. This is the real (host-executed) computation behind each
/// streamed frame; its *virtual* cost is declared by
/// [`StreamTuning::frame_cost_s`].
pub fn lf_frame_value(frame: &linalg::Frame, cutoff: f32) -> u64 {
    let pos = frame.positions();
    let stride = pos.len().div_ceil(128).max(1);
    let sampled: Vec<Vec3> = pos.iter().copied().step_by(stride).collect();
    let c2 = cutoff * cutoff;
    let mut contacts = 0u64;
    let mut acc = 0u64;
    for i in 0..sampled.len() {
        for j in (i + 1)..sampled.len() {
            if sampled[i].dist2(sampled[j]) <= c2 {
                contacts += 1;
                acc = mix(acc ^ ((i as u64) << 32 | j as u64));
            }
        }
    }
    mix(acc ^ contacts)
}

/// Run the Leaflet Finder over a *streamed* trajectory as configured.
///
/// Frame `i` of `traj` is delivered on `source`'s schedule (stalls,
/// drops, delays, duplicates and all); each engine consumes it with its
/// own posture — Dask per-frame tasks, Spark micro-batches, Pilot one
/// unit per closing window, MPI ring-buffered collective steps — under
/// the watermark/backpressure/lineage semantics of
/// [`netsim::stream::run_stream`]. Window layout and cost model come from
/// [`RunConfig::streaming`] (defaults: tumbling windows of four frame
/// intervals with one interval of lateness when not set); Spark's
/// micro-batch and MPI's ring size are [`AnalysisCost::DEFAULT`]'s.
pub fn run_lf_stream(
    cfg: &RunConfig,
    traj: Arc<Trajectory>,
    lf: &LfConfig,
    source: &StreamSource,
) -> Result<StreamRun, EngineError> {
    assert!(!traj.frames.is_empty(), "cannot stream an empty trajectory");
    let cost = AnalysisCost::DEFAULT;
    let defaults = StreamTuning::new(
        source.interval_s * 4.0,
        source.interval_s * 4.0,
        source.interval_s,
    );
    let t = cfg.streaming.as_ref().unwrap_or(&defaults);
    let job = StreamJob::new(WindowSpec::sliding(t.window_s, t.slide_s, t.lateness_s))
        .late(t.late)
        .frame_cost(t.frame_cost_s)
        .state_bytes(t.state_bytes_per_frame);
    let schedule = source.schedule();
    let cutoff = lf.cutoff;
    let frames = &traj.frames;
    let mut fv = move |i: usize| lf_frame_value(&frames[i % frames.len()], cutoff);
    cfg.scoped(|| match cfg.engine {
        Engine::Spark => {
            spark_handle(cfg).run_stream(&schedule, &job, cost.stream_micro_batch, &mut fv)
        }
        Engine::Dask => dask_handle(cfg).run_stream(&schedule, &job, &mut fv),
        Engine::Pilot => pilot_handle(cfg)?.run_stream(&schedule, &job, &mut fv),
        Engine::Mpi => mpilike::run_stream_ring(
            cfg.cluster.clone(),
            cost.stream_ring,
            &schedule,
            &job,
            &mpi_policy(cfg),
            &mut fv,
        ),
    })
}

fn spark_handle(cfg: &RunConfig) -> SparkContext {
    let sc = SparkContext::new(cfg.cluster.clone());
    if let Some(p) = &cfg.policy {
        sc.set_retry_policy(*p);
    }
    if let Some(t) = cfg.speculation {
        sc.enable_speculation(t);
    }
    if cfg.trace {
        sc.enable_trace_sampled(cfg.trace_stride);
    }
    sc
}

fn dask_handle(cfg: &RunConfig) -> DaskClient {
    let client = DaskClient::new(cfg.cluster.clone());
    if let Some(p) = &cfg.policy {
        client.set_retry_policy(*p);
    }
    if cfg.trace {
        client.enable_trace_sampled(cfg.trace_stride);
    }
    client
}

fn pilot_handle(cfg: &RunConfig) -> Result<Session, EngineError> {
    let session = Session::new(cfg.cluster.clone())?;
    if let Some(p) = &cfg.policy {
        session.set_retry_policy(*p);
    }
    if cfg.trace {
        session.enable_trace_sampled(cfg.trace_stride);
    }
    Ok(session)
}

/// MPI folds the single-attempt default into the policy knob.
fn mpi_policy(cfg: &RunConfig) -> RetryPolicy {
    cfg.policy.unwrap_or_else(|| RetryPolicy::new(1))
}

/// A self-contained job descriptor for service-style submission: which
/// analysis to run plus the synthetic-input parameters and seed needed to
/// materialize its data at dispatch time.
///
/// The direct entry points ([`run_lf`], [`run_psa`]) take the input data
/// itself (`Arc`'d positions, ensembles); a service holding thousands of
/// queued jobs cannot afford that, so a `Workload` stores only the
/// *recipe* — a few machine words, `Clone` + `PartialEq` + `Send` — and
/// [`run_workload`] generates the inputs when the job finally dispatches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Leaflet-Finder over a generated bilayer.
    Lf {
        n_atoms: usize,
        partitions: usize,
        seed: u64,
    },
    /// Path Similarity Analysis over a generated chain ensemble.
    Psa {
        n_traj: usize,
        n_frames: usize,
        groups: usize,
        seed: u64,
    },
    /// CPPTraj-style ensemble 2-D RMSD (the paper's MPI baseline);
    /// `optimized` picks the Intel `-O3` kernel build over GNU `-O0`.
    Rmsd2d {
        n_traj: usize,
        n_frames: usize,
        optimized: bool,
        seed: u64,
    },
    /// Per-frame RMSD to frame 0 over a generated chain trajectory —
    /// the built-in [`crate::analysis::rmsd_analysis`] on the generic API.
    Rmsd {
        n_atoms: usize,
        n_frames: usize,
        slices: usize,
        seed: u64,
    },
    /// Per-frame contact counts over a generated chain trajectory —
    /// the built-in [`crate::analysis::contacts_analysis`].
    Contacts {
        n_atoms: usize,
        n_frames: usize,
        slices: usize,
        seed: u64,
    },
}

/// Contact cutoff (Å) for the [`Workload::Contacts`] recipe — a little
/// above the chain generator's 3.8 Å bond length so bonded neighbors
/// always count and fluctuating non-bonded pairs flicker in and out.
const CONTACT_CUTOFF: f32 = 6.0;

impl Workload {
    /// Short lowercase name (trace labels, JSON keys).
    pub fn label(&self) -> &'static str {
        match self {
            Workload::Lf { .. } => "lf",
            Workload::Psa { .. } => "psa",
            Workload::Rmsd2d { .. } => "rmsd2d",
            Workload::Rmsd { .. } => "rmsd",
            Workload::Contacts { .. } => "contacts",
        }
    }
}

/// Result of a [`Workload`] run: a bit-exact fingerprint of the analysis
/// output (for determinism oracles) and the simulated execution report.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadRun {
    pub fingerprint: u64,
    pub report: netsim::SimReport,
}

/// Run a [`Workload`] as configured — the unified front door job
/// descriptors dispatch through. LF and PSA honor the full `RunConfig`
/// (engine choice, policy, tracing); the 2-D RMSD baseline is inherently
/// MPI and runs under `mpilike` regardless of `cfg`'s engine, using
/// `cfg.mpi_world` ranks.
pub fn run_workload(cfg: &RunConfig, w: &Workload) -> Result<WorkloadRun, EngineError> {
    match *w {
        Workload::Lf {
            n_atoms,
            partitions,
            seed,
        } => {
            let b = mdsim::bilayer::generate(
                &mdsim::BilayerSpec {
                    n_atoms,
                    ..Default::default()
                },
                seed,
            );
            let lf = LfConfig {
                cutoff: b.suggested_cutoff,
                partitions,
                paper_atoms: n_atoms,
                charge_io: true,
            };
            let out = run_lf(cfg, Arc::new(b.positions), &lf)?;
            let mut fp = netsim::Fingerprint::new();
            fp.write_usize(out.n_components);
            for sz in &out.leaflet_sizes {
                fp.write_usize(*sz);
            }
            fp.write_u64(out.edges_found);
            Ok(WorkloadRun {
                fingerprint: fp.finish(),
                report: out.report,
            })
        }
        Workload::Psa {
            n_traj,
            n_frames,
            groups,
            seed,
        } => {
            let spec = mdsim::ChainSpec {
                n_atoms: 10,
                n_frames,
                stride: 1,
                ..Default::default()
            };
            let ensemble = Arc::new(mdsim::chain::generate_ensemble(&spec, n_traj, seed));
            let psa = PsaConfig {
                groups,
                charge_io: true,
            };
            let out = run_psa(cfg, ensemble, &psa)?;
            let mut fp = netsim::Fingerprint::new();
            for &d in out.distances.as_slice() {
                fp.write_f64(d);
            }
            Ok(WorkloadRun {
                fingerprint: fp.finish(),
                report: out.report,
            })
        }
        Workload::Rmsd {
            n_atoms,
            n_frames,
            slices,
            seed,
        } => {
            let spec = mdsim::ChainSpec {
                n_atoms,
                n_frames,
                stride: 1,
                ..Default::default()
            };
            let traj = Arc::new(mdsim::chain::generate(&spec, seed));
            let out = cfg.run_analysis(rmsd_analysis(traj, AtomSelection::All, 0, slices))?;
            let mut fp = netsim::Fingerprint::new();
            for &v in &out.values {
                fp.write_f64(v);
            }
            Ok(WorkloadRun {
                fingerprint: fp.finish(),
                report: out.report,
            })
        }
        Workload::Contacts {
            n_atoms,
            n_frames,
            slices,
            seed,
        } => {
            let spec = mdsim::ChainSpec {
                n_atoms,
                n_frames,
                stride: 1,
                ..Default::default()
            };
            let traj = Arc::new(mdsim::chain::generate(&spec, seed));
            let out = cfg.run_analysis(contacts_analysis(
                traj,
                AtomSelection::All,
                CONTACT_CUTOFF,
                slices,
            ))?;
            let mut fp = netsim::Fingerprint::new();
            for &v in &out.values {
                fp.write_u64(v);
            }
            Ok(WorkloadRun {
                fingerprint: fp.finish(),
                report: out.report,
            })
        }
        Workload::Rmsd2d {
            n_traj,
            n_frames,
            optimized,
            seed,
        } => {
            let spec = mdsim::ChainSpec {
                n_atoms: 10,
                n_frames,
                stride: 1,
                ..Default::default()
            };
            let ensemble = mdsim::chain::generate_ensemble(&spec, n_traj, seed);
            let build = if optimized {
                cpptraj::KernelBuild::IntelO3
            } else {
                cpptraj::KernelBuild::GnuNoOpt
            };
            let out = cfg.scoped(|| {
                cpptraj::ensemble_psa(cfg.cluster.clone(), cfg.mpi_world, build, &ensemble)
            })?;
            let mut fp = netsim::Fingerprint::new();
            for &d in out.distances.as_slice() {
                fp.write_f64(d);
            }
            Ok(WorkloadRun {
                fingerprint: fp.finish(),
                report: out.report,
            })
        }
    }
}
