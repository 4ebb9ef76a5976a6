//! `chaos_stream` — fault-plan fuzzing, saturated streaming and stream
//! chaos: the recovery paths, the oracles and the window loop.

use super::{Spec, Workload};
use crate::harness::{layer_of, stream_span, Ctx};
use crate::spans::SpanStats;
use linalg::Vec3;
use mdio::StreamSource;
use mdsim::{BilayerSpec, ChainSpec, Trajectory};
use mdtask_core::{run_lf, run_lf_stream, LfApproach, LfConfig, LfOutput, RunConfig};
use netsim::chaos::{fuzz, plan_for_seed, ChaosConfig, ChaosOutcome, Fingerprint};
use netsim::stream::{check_stream_invariants, DispatchMode, StreamJob, StreamRun, WindowSpec};
use netsim::{laptop, Cluster, FaultPlan, RetryPolicy, Threads};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use taskframe::{Engine, EngineError};

pub const SPEC: Spec = Spec {
    name: "chaos_stream",
    why: "seeded fault plans x 4 engines through the chaos oracles, LF streamed at saturation, stream-fault \
          plans through the stream oracles: fault queries, recovery/fencing and the window loop carry the cost",
    build,
};

/// Fuzzed plans per engine. Every pilot run creates a staging directory
/// and a file per unit, which on a disk-backed checkout costs more than
/// the run itself, so the pilot gets fewer.
fn fuzz_plans(engine: Engine) -> usize {
    match engine {
        Engine::Pilot => 10,
        _ => 100,
    }
}
const MPI_WORLD: usize = 16;
const HEARTBEAT_S: f64 = 0.25;
const SUSPICION_TIMEOUT_S: f64 = 0.5;

/// Streaming: `exp_stream`'s saturation point and chaos leg.
const STREAM_SPAN_S: f64 = 24.0;
const SATURATED_INTERVAL_S: f64 = 0.0025;
const WINDOW_S: f64 = 2.0;
const LATENESS_S: f64 = 0.25;
const FRAME_COST_S: f64 = 0.05;
const CHAOS_FRAMES: usize = 96;
const CHAOS_INTERVAL_S: f64 = 0.25;
const STREAM_PLANS: usize = 25;
/// Staleness the oracle tolerates: dispatch overheads, buffering, compute
/// backlog at saturation and death-detection delays.
const STALENESS_SLACK_S: f64 = 600.0;

struct ChaosStream {
    seed: u64,
    positions: Arc<Vec<Vec3>>,
    lf: LfConfig,
    /// Fault-free makespan per engine (indexed like `Engine::ALL`, which is
    /// in declaration order), which the partition windows aim at.
    clean_makespan_s: [f64; 4],
    traj: Arc<Trajectory>,
    stream_lf: LfConfig,
    stream_plans: Vec<FaultPlan>,
}

fn build(seed: u64, ctx: &mut Ctx) -> Box<dyn Workload> {
    let bilayer = ctx.generate(
        |b: &mdsim::Bilayer| b.positions.len(),
        || {
            mdsim::bilayer::generate(
                &BilayerSpec {
                    n_atoms: 200,
                    ..Default::default()
                },
                seed,
            )
        },
    );
    let traj = ctx.generate(
        |t: &Trajectory| t.n_atoms() * t.n_frames(),
        || {
            let spec = ChainSpec {
                n_atoms: 30,
                n_frames: 96,
                stride: 1,
                ..ChainSpec::default()
            };
            mdsim::chain::generate(&spec, seed)
        },
    );
    let mut stream_cfg = ChaosConfig::new(2, 8).with_stream(CHAOS_FRAMES);
    stream_cfg.death_window_s = (0.0, 20.0);
    stream_cfg.mem_shrink_window_s = (0.0, 20.0);
    let mut w = ChaosStream {
        seed,
        positions: Arc::new(bilayer.positions),
        lf: LfConfig {
            cutoff: bilayer.suggested_cutoff,
            partitions: 8,
            paper_atoms: 200,
            charge_io: false,
        },
        clean_makespan_s: [0.0; 4],
        traj: Arc::new(traj),
        stream_lf: LfConfig {
            cutoff: 8.0,
            partitions: 4,
            paper_atoms: 30,
            charge_io: false,
        },
        stream_plans: (0..STREAM_PLANS as u64)
            .map(|i| plan_for_seed(&stream_cfg, seed.wrapping_mul(1000) + i))
            .collect(),
    };
    for (i, engine) in Engine::ALL.into_iter().enumerate() {
        w.clean_makespan_s[i] = w
            .run_batch(engine, &FaultPlan::none())
            .expect("fault-free LF run")
            .report
            .makespan_s;
    }
    Box::new(w)
}

fn lf_fingerprint(out: &LfOutput) -> u64 {
    let mut fp = Fingerprint::new();
    for &s in &out.leaflet_sizes {
        fp.write_usize(s);
    }
    fp.write_usize(out.n_components);
    fp.write_u64(out.edges_found);
    fp.finish()
}

fn dispatch_mode(engine: Engine) -> DispatchMode {
    match engine {
        Engine::Spark => DispatchMode::MicroBatch(4),
        Engine::Dask => DispatchMode::PerFrame,
        Engine::Pilot => DispatchMode::UnitPerWindow,
        Engine::Mpi => DispatchMode::RingCollective(4),
    }
}

/// Errors a chaos plan may legitimately end a streamed run with.
fn typed_stream_failure(e: &EngineError) -> bool {
    matches!(
        e,
        EngineError::StreamStalled { .. }
            | EngineError::DeadlineExceeded { .. }
            | EngineError::MemoryExhausted { .. }
            | EngineError::OutOfMemory { .. }
            | EngineError::WorkerLost { .. }
            | EngineError::NoSurvivingWorkers { .. }
            | EngineError::RetriesExhausted { .. }
    )
}

impl ChaosStream {
    /// One batch LF run under `plan`, with `exp_partition`'s suspicion
    /// policy, each engine on the approach `chaos_sweep` fuzzes it with.
    fn run_batch(&self, engine: Engine, plan: &FaultPlan) -> Result<LfOutput, EngineError> {
        let approach = match engine {
            Engine::Spark => LfApproach::ParallelCC,
            Engine::Dask => LfApproach::Task2D,
            _ => LfApproach::Broadcast1D,
        };
        let policy = RetryPolicy::new(4)
            .with_detection_delay(HEARTBEAT_S)
            .with_suspicion(HEARTBEAT_S, SUSPICION_TIMEOUT_S)
            .with_deadline(10_000.0);
        let rc = RunConfig::new(Cluster::new(laptop(), 2).with_faults(plan.clone()), engine)
            .approach(approach)
            .mpi_world(MPI_WORLD)
            .retry_policy(policy);
        run_lf(&rc, Arc::clone(&self.positions), &self.lf)
    }

    fn chaos_config(&self, engine: Engine) -> ChaosConfig {
        let mut c = ChaosConfig::new(2, 8).with_partitions(2);
        c.plans = fuzz_plans(engine);
        c.base_seed = self.seed.wrapping_mul(1000);
        // Deaths and cuts must land inside the engine's live window.
        c.death_window_s = match engine {
            Engine::Spark | Engine::Dask => (0.0, 3.0),
            Engine::Pilot => (0.0, 40.0),
            Engine::Mpi => (0.0, 1.5),
        };
        let busy_from = if engine == Engine::Pilot { 34.0 } else { 0.05 };
        c.partition_window_s = (busy_from, self.clean_makespan_s[engine as usize]);
        c.partition_len_s = (0.5, 3.0);
        c
    }

    /// Leg (a): `netsim::chaos::fuzz` on one engine.
    fn fuzz_engine(&self, engine: Engine) -> netsim::FuzzReport {
        fuzz(&self.chaos_config(engine), |plan| {
            self.run_batch(engine, plan)
                .map(|out| ChaosOutcome {
                    fingerprint: lf_fingerprint(&out),
                    report: out.report,
                })
                .map_err(|e| format!("{e:?}"))
        })
    }

    fn source(&self, frames: usize, interval_s: f64, plan: &FaultPlan) -> StreamSource {
        StreamSource::new(frames, interval_s)
            .with_latency(0.02)
            .with_jitter(0.05)
            .with_faults(plan.clone())
    }

    fn run_streamed(
        &self,
        engine: Engine,
        frames: usize,
        interval_s: f64,
        plan: &FaultPlan,
    ) -> Result<StreamRun, EngineError> {
        let mut rc = RunConfig::new(Cluster::new(laptop(), 2).with_faults(plan.clone()), engine)
            .streaming(WINDOW_S, WINDOW_S, LATENESS_S)
            .stream_costs(FRAME_COST_S, 1 << 20)
            .retry_policy(
                RetryPolicy::new(4)
                    .with_detection_delay(0.25)
                    .with_deadline(10_000.0),
            );
        if engine == Engine::Mpi {
            rc = rc.mpi_world(8);
        }
        run_lf_stream(
            &rc,
            Arc::clone(&self.traj),
            &self.stream_lf,
            &self.source(frames, interval_s, plan),
        )
    }

    fn stream_oracle(
        &self,
        engine: Engine,
        frames: usize,
        interval_s: f64,
        plan: &FaultPlan,
        run: &StreamRun,
    ) -> Option<String> {
        let spec = StreamJob::new(WindowSpec::sliding(WINDOW_S, WINDOW_S, LATENESS_S))
            .frame_cost(FRAME_COST_S)
            .spec(dispatch_mode(engine), 0.0);
        let log = self.source(frames, interval_s, plan).schedule();
        check_stream_invariants(&log, &spec, &run.output, STALENESS_SLACK_S)
    }

    /// One streamed run under its span; a run that completes must satisfy
    /// the stream oracles. The error, if any, is left to the caller.
    fn streamed(
        &self,
        ctx: &mut Ctx,
        engine: Engine,
        frames: usize,
        interval_s: f64,
        plan: &FaultPlan,
    ) -> Result<StreamRun, EngineError> {
        let out = ctx.span(stream_span(engine), |_| {
            self.run_streamed(engine, frames, interval_s, plan)
        });
        if let Ok(run) = &out {
            let verdict = self.stream_oracle(engine, frames, interval_s, plan, run);
            ctx.check(verdict.as_deref().unwrap_or_default(), verdict.is_none());
            ctx.add(
                "netsim.stream_invariant_failures",
                verdict.is_some() as u8 as f64,
            );
        }
        out
    }
}

fn saturated_frames() -> usize {
    (STREAM_SPAN_S / SATURATED_INTERVAL_S).round() as usize
}

impl Workload for ChaosStream {
    fn units(&self) -> u64 {
        let fuzzed: usize = Engine::ALL.into_iter().map(fuzz_plans).sum();
        (fuzzed + Engine::ALL.len() * (1 + STREAM_PLANS)) as u64
    }

    fn iterate(&mut self, ctx: &mut Ctx) {
        for engine in Engine::ALL {
            let report = ctx.span("netsim.chaos_fuzz", |_| self.fuzz_engine(engine));
            for v in &report.violations {
                ctx.check(&format!("{engine:?} seed {}: {}", v.seed, v.message), false);
            }
            ctx.tally(fuzz_plans(engine) as u64, report.violations.len() as u64);
            ctx.add("netsim.chaos_violations", report.violations.len() as f64);
        }

        let clean = FaultPlan::none().seeded(self.seed);
        for engine in Engine::ALL {
            ctx.op("chaos_stream.saturated", |ctx| {
                let out = self.streamed(
                    ctx,
                    engine,
                    saturated_frames(),
                    SATURATED_INTERVAL_S,
                    &clean,
                );
                match &out {
                    Ok(run) => {
                        let staleness = run
                            .output
                            .windows
                            .iter()
                            .map(|w| (w.close_s - w.end_s).max(0.0))
                            .fold(0.0, f64::max);
                        ctx.max("model.stream_staleness_max_s", staleness);
                        ctx.fingerprint(run.output.frames_accepted as u64);
                        ctx.model(Some(engine), &run.report);
                    }
                    Err(e) => ctx.check(&format!("{engine:?} saturated stream: {e}"), false),
                }
                ctx.same_as_first("saturated stream", out);
            });
        }

        for engine in Engine::ALL {
            for (i, plan) in self.stream_plans.iter().enumerate() {
                ctx.op("chaos_stream.stream_plan", |ctx| {
                    let out = self.streamed(ctx, engine, CHAOS_FRAMES, CHAOS_INTERVAL_S, plan);
                    match &out {
                        Ok(run) => ctx.model(None, &run.report),
                        Err(e) => ctx.check(
                            &format!("{engine:?} stream plan {i}: untyped failure {e}"),
                            typed_stream_failure(e),
                        ),
                    }
                    ctx.same_as_first("stream plan", out);
                });
            }
        }
    }

    fn probe(&mut self, ctx: &mut Ctx) {
        ctx.span("mdio.stream_schedule", |_| {
            black_box(
                self.source(saturated_frames(), SATURATED_INTERVAL_S, &FaultPlan::none())
                    .schedule(),
            );
        });
        // What a second host thread buys the plan sweep (one engine is
        // enough to tell).
        if std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2) {
            for (threads, span) in [
                (Threads::Serial, "netsim.chaos_fuzz_1t"),
                (Threads::Fixed(2), "netsim.chaos_fuzz_2t"),
            ] {
                ctx.span(span, |_| {
                    netsim::parallel::with_degree(threads, || {
                        black_box(self.fuzz_engine(Engine::Dask));
                    })
                });
            }
        }
    }

    fn derive(&self, s: &SpanStats, m: &mut BTreeMap<String, f64>) {
        let fuzzed: usize = Engine::ALL.into_iter().map(fuzz_plans).sum();
        m.insert(
            "netsim.chaos_plans_per_s".into(),
            fuzzed as f64 / s.total_s("netsim.chaos_fuzz"),
        );
        m.insert(
            "mdio.stream_schedule_s".into(),
            s.total_s("mdio.stream_schedule"),
        );
        let streamed = saturated_frames() + STREAM_PLANS * CHAOS_FRAMES;
        let mut stream_s = 0.0;
        for engine in Engine::ALL {
            let t = s.total_s(stream_span(engine));
            stream_s += t;
            m.insert(
                format!("{}.stream_frames_per_s", layer_of(engine)),
                streamed as f64 / t,
            );
            // The per-frame kernel is a 30-atom contact count: the whole
            // streamed run is the window loop, the engine and netsim.
            m.insert(format!("{}.residual_s", layer_of(engine)), t);
        }
        m.insert(
            "netsim.stream_frames_per_s".into(),
            (Engine::ALL.len() * streamed) as f64 / stream_s,
        );
        let two = s.total_s("netsim.chaos_fuzz_2t");
        if two > 0.0 {
            m.insert(
                "netsim.parallel_speedup_2t".into(),
                s.total_s("netsim.chaos_fuzz_1t") / two,
            );
        }
    }
}
