//! The seven workloads. Each stresses a different layer; `why` says which
//! and is what `BENCHMARK.json` records.

use crate::harness::Ctx;
use crate::spans::SpanStats;
use std::collections::BTreeMap;

mod chaos_stream;
mod frames_io;
mod lf;
mod psa;
mod service;
mod tasks;

/// One workload instance: inputs generated, references computed.
pub trait Workload {
    /// Units of work one iteration completes (what `units_per_s` counts).
    fn units(&self) -> u64;

    /// Run every scenario once, each as one `ctx.op`.
    fn iterate(&mut self, ctx: &mut Ctx);

    /// Traced run only: call the kernels directly on the same inputs,
    /// under spans, so engine cost can be had by subtraction.
    fn probe(&mut self, _ctx: &mut Ctx) {}

    /// Traced run only: turn span statistics into per-layer metrics.
    fn derive(&self, _stats: &SpanStats, _metrics: &mut BTreeMap<String, f64>) {}
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Generate the inputs from `seed` and compute the references.
    pub build: fn(seed: u64, ctx: &mut Ctx) -> Box<dyn Workload>,
}

pub const ALL: &[Spec] = &[
    lf::SPEC,
    psa::SPEC,
    tasks::ZERO,
    tasks::TRACED,
    frames_io::SPEC,
    service::SPEC,
    chaos_stream::SPEC,
];

pub fn by_name(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}
