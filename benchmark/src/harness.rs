//! The run protocol: set-up, warm-up, the timed closed loop, the traced
//! run, and the bookkeeping workloads use to check their outputs.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::procfs;
use crate::spans::{SpanStats, Spans};
use crate::stats::{median, min, quantile};
use crate::workloads::{Spec, Workload};
use netsim::chaos::Fingerprint;
use netsim::SimReport;
use std::any::Any;
use std::collections::BTreeMap;
use std::time::Instant;
use taskframe::Engine;

/// Set-ups per run: `setup_s` is their median.
const SETUPS: usize = 3;
/// Warm-up iterations before the clock starts; the first is the cold one
/// that ends each set-up.
const WARMUPS: usize = 3;
/// A timed run never reports on fewer iterations than this, however short
/// `--seconds` is.
const MIN_ITERS: usize = 5;
/// CPU time and throughput are taken over blocks of timed iterations at
/// least this long.
const BLOCK_S: f64 = 1.0;
/// A smoke run stops at this many, whatever `--seconds` says.
const SMOKE_ITERS: usize = 2;

/// The crate that implements an engine — the layer its spans and metrics
/// are filed under.
pub fn layer_of(engine: Engine) -> &'static str {
    match engine {
        Engine::Spark => "sparklet",
        Engine::Dask => "dasklet",
        Engine::Pilot => "pilot",
        Engine::Mpi => "mpilike",
    }
}

/// Span name for a batch run on `engine`.
pub fn run_span(engine: Engine) -> &'static str {
    match engine {
        Engine::Spark => "sparklet.run",
        Engine::Dask => "dasklet.run",
        Engine::Pilot => "pilot.run",
        Engine::Mpi => "mpilike.run",
    }
}

/// Span name for a streamed run on `engine`.
pub fn stream_span(engine: Engine) -> &'static str {
    match engine {
        Engine::Spark => "sparklet.stream",
        Engine::Dask => "dasklet.stream",
        Engine::Pilot => "pilot.stream",
        Engine::Mpi => "mpilike.stream",
    }
}

/// What a workload instance sees while it runs: the span recorder, the
/// operation ledger, and the memory of its own first iteration.
///
/// An **operation** is one scenario execution. It fails if a `check`
/// inside it fails — its output differs from the serial reference, an
/// oracle trips — or if a value handed to `same_as_first` differs from
/// what the same call produced in the instance's first iteration.
pub struct Ctx {
    pub spans: Spans,
    /// The instance's first iteration: values are remembered, counts and
    /// model statistics are taken. Later iterations only compare.
    first: bool,
    baseline: Vec<Box<dyn Any>>,
    cursor: usize,
    pub attempted: u64,
    pub failed: u64,
    op_failed: bool,
    pub failures: Vec<String>,
    /// Counts and virtual-clock statistics, keyed by per-layer metric name.
    values: BTreeMap<String, f64>,
    fingerprint: Fingerprint,
    /// Atom positions `mdsim` generated during set-up (atoms × frames).
    generated_atoms: f64,
}

impl Ctx {
    pub fn new(trace: bool) -> Self {
        Ctx {
            spans: Spans::new(trace),
            first: true,
            baseline: Vec::new(),
            cursor: 0,
            attempted: 0,
            failed: 0,
            op_failed: false,
            failures: Vec::new(),
            values: BTreeMap::new(),
            fingerprint: Fingerprint::new(),
            generated_atoms: 0.0,
        }
    }

    fn begin_iteration(&mut self, first: bool) {
        self.first = first;
        self.cursor = 0;
    }

    /// Run `f` under a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Ctx) -> T) -> T {
        let id = self.spans.open(name);
        let out = f(self);
        self.spans.close(id);
        out
    }

    /// Generate inputs with `mdsim` under its span; `atoms` says how many
    /// atom positions (atoms × frames) came out.
    pub fn generate<T>(&mut self, atoms: impl FnOnce(&T) -> usize, f: impl FnOnce() -> T) -> T {
        let out = self.span("mdsim.generate", |_| f());
        self.generated_atoms += atoms(&out) as f64;
        out
    }

    /// Run one operation under a span; it counts as failed if any check
    /// inside it does.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Ctx) -> T) -> T {
        self.attempted += 1;
        self.op_failed = false;
        let out = self.span(name, f);
        if self.op_failed {
            self.failed += 1;
        }
        out
    }

    /// Count operations the program ran as a batch of its own (a fuzz
    /// sweep over many plans), `failed` of which failed.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.op_failed = true;
            if self.failures.len() < 8 {
                self.failures.push(what.to_string());
            }
        }
    }

    /// Determinism: `value` must equal what this same call site produced
    /// in the instance's first iteration.
    pub fn same_as_first<R: PartialEq + 'static>(&mut self, what: &str, value: R) {
        if self.first {
            self.baseline.push(Box::new(value));
            return;
        }
        let same = self
            .baseline
            .get(self.cursor)
            .and_then(|b| b.downcast_ref::<R>())
            .is_some_and(|b| *b == value);
        self.cursor += 1;
        if !same {
            self.check(&format!("{what}: differs from the first iteration"), false);
        }
    }

    /// Add to a count or model statistic (first iteration only, so the
    /// value is per iteration however long the run is).
    pub fn add(&mut self, metric: &str, v: f64) {
        debug_assert!(crate::metrics::per_layer(metric).is_some(), "{metric}");
        if self.first {
            *self.values.entry(metric.to_string()).or_insert(0.0) += v;
        }
    }

    /// Set a count a probe took (probes run after the first iteration;
    /// what they count is the same every time).
    pub fn set(&mut self, metric: &str, v: f64) {
        debug_assert!(crate::metrics::per_layer(metric).is_some(), "{metric}");
        self.values.insert(metric.to_string(), v);
    }

    /// Raise a statistic to at least `v` (first iteration only).
    pub fn max(&mut self, metric: &str, v: f64) {
        if self.first {
            let e = self.values.entry(metric.to_string()).or_insert(v);
            *e = e.max(v);
        }
    }

    /// Fold output data into `model.fingerprint_u32`.
    pub fn fingerprint(&mut self, v: u64) {
        if self.first {
            self.fingerprint.write_u64(v);
        }
    }

    /// Add a report's virtual-clock statistics to `model.*` and, for an
    /// engine run, its task count to the engine's `sim_tasks`.
    pub fn model(&mut self, engine: Option<Engine>, r: &SimReport) {
        if !self.first {
            return;
        }
        self.add("model.makespan_s_sum", r.makespan_s);
        self.add("model.sim_tasks", r.tasks as f64);
        self.add("model.retries", r.retries as f64);
        self.add("model.bytes_shuffled", r.bytes_shuffled as f64);
        self.add("model.bytes_broadcast", r.bytes_broadcast as f64);
        self.add("model.bytes_staged", r.bytes_staged as f64);
        self.add("model.fenced_results", r.fenced_results as f64);
        if let Some(e) = engine {
            self.add(&format!("{}.sim_tasks", layer_of(e)), r.tasks as f64);
        }
    }

    /// File a finished run's report: its statistics go to `model.*`, and
    /// the whole report must repeat in every later iteration.
    pub fn report(&mut self, engine: Option<Engine>, what: &str, r: SimReport) {
        self.model(engine, &r);
        self.same_as_first(what, r);
    }
}

/// Result of one benchmark process.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Metric name → value; end-to-end metrics for an untraced run,
    /// per-layer metrics for a traced one.
    pub metrics: BTreeMap<String, f64>,
    /// Chrome trace of the harness's spans (traced run only).
    pub spans_json: Option<String>,
}

pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Just prove every workload runs and checks out: two iterations.
    pub smoke: bool,
}

impl RunOpts {
    /// Whether the timed loop goes round again after `done` iterations
    /// and `elapsed_s` seconds.
    fn keep_going(&self, done: usize, elapsed_s: f64) -> bool {
        if self.smoke {
            done < SMOKE_ITERS
        } else {
            done < MIN_ITERS || elapsed_s < self.seconds
        }
    }
}

/// CPU time and throughput over blocks of consecutive timed iterations,
/// each at least [`BLOCK_S`] long: `/proc` counts CPU time in 10 ms ticks,
/// too coarse for one iteration.
struct Blocks {
    start: Instant,
    cpu: procfs::CpuTimes,
    iters: f64,
    cpu_s_per_iter: Vec<f64>,
    iters_per_s: Vec<f64>,
}

impl Blocks {
    fn new() -> Self {
        Blocks {
            start: Instant::now(),
            cpu: procfs::cpu_times(),
            iters: 0.0,
            cpu_s_per_iter: Vec::new(),
            iters_per_s: Vec::new(),
        }
    }

    fn iteration_done(&mut self) {
        self.iters += 1.0;
        if self.start.elapsed().as_secs_f64() >= BLOCK_S {
            self.close();
        }
    }

    fn close(&mut self) {
        let cpu = procfs::cpu_times();
        self.cpu_s_per_iter
            .push((cpu.total_s() - self.cpu.total_s()) / self.iters);
        self.iters_per_s
            .push(self.iters / self.start.elapsed().as_secs_f64());
        (self.start, self.cpu, self.iters) = (Instant::now(), cpu, 0.0);
    }
}

fn iterate(w: &mut dyn Workload, ctx: &mut Ctx, iteration: i32, first: bool) -> f64 {
    ctx.begin_iteration(first);
    ctx.spans.set_iteration(iteration);
    let t = Instant::now();
    ctx.span("bench.iteration", |ctx| w.iterate(ctx));
    t.elapsed().as_secs_f64()
}

/// Build an instance and run its cold first iteration: one set-up.
fn set_up(spec: &Spec, seed: u64, trace: bool) -> (Box<dyn Workload>, Ctx, f64) {
    let t = Instant::now();
    let mut ctx = Ctx::new(trace);
    let mut w = ctx.span("bench.setup", |ctx| (spec.build)(seed, ctx));
    // The cold iteration belongs to set-up time but not to the per-layer
    // statistics, which describe warm iterations.
    ctx.spans.set_enabled(false);
    iterate(w.as_mut(), &mut ctx, crate::spans::SETUP, true);
    (w, ctx, t.elapsed().as_secs_f64())
}

pub fn run(spec: &Spec, opts: &RunOpts) -> RunResult {
    if opts.trace {
        run_traced(spec, opts)
    } else {
        run_untraced(spec, opts)
    }
}

/// The end-to-end run: no spans, nothing but the workload between the two
/// clock reads of an iteration.
///
/// The timing metrics are *quartiles on the fast side*, not medians. On a
/// shared host the noise is one-sided: for a second or three at a time the
/// guest gets a fraction of its CPU and everything — wall and CPU seconds
/// alike — reads two or three times slower. How much of a 12-second run
/// such bursts cover varies from none to over half, which moves a median
/// (and a mean far more) by tens of percent between runs of one binary;
/// the fast quartile stays put until three quarters of the run are hit.
fn run_untraced(spec: &Spec, opts: &RunOpts) -> RunResult {
    let (mut w, mut ctx, secs) = set_up(spec, opts.seed, false);
    let mut setups = vec![secs];
    let (mut attempted, mut failed) = (0, 0);
    for _ in 1..SETUPS {
        attempted += ctx.attempted;
        failed += ctx.failed;
        // One instance at a time, as in a user's process.
        drop((w, ctx));
        let secs;
        (w, ctx, secs) = set_up(spec, opts.seed, false);
        setups.push(secs);
    }
    for _ in 1..WARMUPS {
        iterate(w.as_mut(), &mut ctx, crate::spans::SETUP, false);
    }

    let started = Instant::now();
    let mut walls = Vec::new();
    let mut blocks = Blocks::new();
    while opts.keep_going(walls.len(), started.elapsed().as_secs_f64()) {
        walls.push(iterate(w.as_mut(), &mut ctx, walls.len() as i32, false));
        blocks.iteration_done();
    }
    if blocks.cpu_s_per_iter.is_empty() {
        // A smoke run: one short block is all there is.
        blocks.close();
    }
    let units_per_s: Vec<f64> = blocks
        .iters_per_s
        .iter()
        .map(|i| i * w.units() as f64)
        .collect();

    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s".to_string(), median(&setups));
    metrics.insert("iter_wall_s_p25".to_string(), quantile(&walls, 0.25));
    metrics.insert("units_per_s_p75".to_string(), quantile(&units_per_s, 0.75));
    metrics.insert(
        "cpu_s_per_iter_p25".to_string(),
        quantile(&blocks.cpu_s_per_iter, 0.25),
    );
    debug_assert_eq!(metrics.len(), END_TO_END.len());
    RunResult {
        attempted: attempted + ctx.attempted,
        failed: failed + ctx.failed,
        failures: ctx.failures,
        metrics,
        spans_json: None,
    }
}

/// The traced run: one set-up, then pairs of (untraced, traced) iterations
/// with the direct-kernel probes after each traced one, outside its clock.
fn run_traced(spec: &Spec, opts: &RunOpts) -> RunResult {
    let (mut w, mut ctx, _) = set_up(spec, opts.seed, true);
    for _ in 1..WARMUPS {
        iterate(w.as_mut(), &mut ctx, crate::spans::SETUP, false);
    }

    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut user, mut sys) = (0.0, 0.0);
    while opts.keep_going(traced.len(), started.elapsed().as_secs_f64()) {
        let i = traced.len() as i32;
        ctx.spans.set_enabled(false);
        plain.push(iterate(w.as_mut(), &mut ctx, i, false));
        ctx.spans.set_enabled(true);
        let cpu0 = procfs::cpu_times();
        traced.push(iterate(w.as_mut(), &mut ctx, i, false));
        let cpu1 = procfs::cpu_times();
        user += cpu1.user_s - cpu0.user_s;
        sys += cpu1.sys_s - cpu0.sys_s;
        ctx.span("bench.probes", |ctx| w.probe(ctx));
    }
    let iters = traced.len() as f64;
    let stats = SpanStats::new(ctx.spans.spans());
    eprintln!(
        "{:<34} {:>12} {:>12}",
        "span (s per iteration)", "total", "self"
    );
    for name in stats.names() {
        eprintln!(
            "{name:<34} {:>12.6} {:>12.6}",
            stats.total_s(name),
            stats.self_s(name)
        );
    }

    let mut m: BTreeMap<String, f64> = std::mem::take(&mut ctx.values);
    m.insert("bench.iters".into(), iters);
    m.insert("bench.iter_wall_s_p50".into(), median(&traced));
    m.insert("bench.iter_wall_s_p75".into(), quantile(&traced, 0.75));
    m.insert("bench.iter_wall_s_min".into(), min(&traced));
    m.insert("bench.cpu_user_s_per_iter".into(), user / iters);
    m.insert("bench.cpu_sys_s_per_iter".into(), sys / iters);
    m.insert(
        "bench.span_overhead_ratio".into(),
        quantile(&traced, 0.25) / quantile(&plain, 0.25),
    );
    m.insert(
        "bench.unattributed_share".into(),
        stats.self_s("bench.iteration") / stats.total_s("bench.iteration"),
    );
    m.insert("bench.peak_rss_mib".into(), procfs::peak_rss_mib());
    m.insert(
        "bench.failed_share".into(),
        ctx.failed as f64 / ctx.attempted.max(1) as f64,
    );
    m.insert(
        "model.fingerprint_u32".into(),
        (ctx.fingerprint.finish() as u32) as f64,
    );
    let generate_s = stats.total_s("mdsim.generate");
    m.insert("mdsim.generate_s".into(), generate_s);
    if generate_s > 0.0 {
        m.insert("mdsim.atoms_per_s".into(), ctx.generated_atoms / generate_s);
    }
    for layer in ["mdio", "linalg"] {
        m.insert(format!("{layer}.busy_s"), stats.layer_self_s(layer));
    }
    for engine in Engine::ALL {
        let layer = layer_of(engine);
        let run_s = stats.total_s(run_span(engine)) + stats.total_s(stream_span(engine));
        m.insert(format!("{layer}.run_s"), run_s);
        if run_s > 0.0 {
            let tasks = m.get(&format!("{layer}.sim_tasks")).copied().unwrap_or(0.0);
            m.insert(format!("{layer}.tasks_per_host_s"), tasks / run_s);
        }
    }
    w.derive(&stats, &mut m);

    // Every catalogued metric is reported; a layer the workload never
    // enters reads 0.
    let metrics: BTreeMap<String, f64> = PER_LAYER
        .iter()
        .map(|p| (p.name.to_string(), m.remove(p.name).unwrap_or(0.0)))
        .collect();
    assert!(m.is_empty(), "uncatalogued per-layer metrics: {m:?}");
    RunResult {
        attempted: ctx.attempted,
        failed: ctx.failed,
        failures: std::mem::take(&mut ctx.failures),
        metrics,
        spans_json: Some(ctx.spans.to_chrome_json(spec.name)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_operation_fails_once_however_many_checks_trip() {
        let mut ctx = Ctx::new(false);
        ctx.op("t.ok", |ctx| ctx.check("fine", true));
        ctx.op("t.bad", |ctx| {
            ctx.check("first", false);
            ctx.check("second", false);
        });
        assert_eq!((ctx.attempted, ctx.failed), (2, 1));
        assert_eq!(ctx.failures, vec!["first", "second"]);
    }

    #[test]
    fn later_iterations_are_held_to_the_first() {
        let mut ctx = Ctx::new(false);
        let iteration = |ctx: &mut Ctx, first: bool, a: u32, b: &str| {
            ctx.begin_iteration(first);
            ctx.op("t.a", |ctx| ctx.same_as_first("a", a));
            ctx.op("t.b", |ctx| ctx.same_as_first("b", b.to_string()));
            ctx.add("model.retries", 2.0);
        };
        iteration(&mut ctx, true, 1, "x");
        iteration(&mut ctx, false, 1, "x");
        assert_eq!(ctx.failed, 0);
        iteration(&mut ctx, false, 1, "y");
        assert_eq!((ctx.attempted, ctx.failed), (6, 1));
        // Counts are per iteration: taken once, in the first.
        assert_eq!(ctx.values["model.retries"], 2.0);
    }

    #[test]
    fn a_value_of_another_type_is_a_difference() {
        let mut ctx = Ctx::new(false);
        ctx.begin_iteration(true);
        ctx.same_as_first("v", 1u32);
        ctx.begin_iteration(false);
        ctx.op("t.v", |ctx| ctx.same_as_first("v", 1u64));
        assert_eq!(ctx.failed, 1);
    }
}
