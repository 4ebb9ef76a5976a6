//! Post-run metric summaries derived from a [`SimReport`] and its trace.
//!
//! Where [`SimReport`] accumulates totals *during* a run, [`Metrics`] is
//! computed *after* one: per-phase time shares, per-node traffic, and
//! latency histograms — the numbers a performance investigation reaches
//! for first (cf. the per-rank compute/I-O/communication breakdowns in
//! Khoshlessan et al., arXiv:1907.00097).

use crate::report::SimReport;
use crate::trace::EventKind;

/// Fixed-bucket log₂ histogram for virtual-time latencies. Buckets are
/// powers of two starting at 1 µs (bucket 0 holds everything below);
/// recording is O(1) and quantiles are bucket-upper-bound approximations —
/// exact enough to tell a 50 µs dispatch gap from a 5 ms one.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

const HIST_BASE_S: f64 = 1e-6;
const HIST_BUCKETS: usize = 40; // up to ~5.5e5 s in the last regular bucket

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }
}

impl Histogram {
    /// Bucket index for `v` under the documented semantics: bucket 0 holds
    /// everything below `HIST_BASE_S`; bucket `b ≥ 1` covers the half-open
    /// range `[HIST_BASE_S·2^(b-1), HIST_BASE_S·2^b)`; the last bucket
    /// absorbs everything at or above its lower bound.
    ///
    /// The log₂-of-a-quotient estimate is only within an ulp of the true
    /// value — a wait an ulp under a power-of-two boundary can round *up*
    /// across it (and the division itself can push an exact boundary value
    /// either way) — so the estimate is corrected against the exact bucket
    /// bounds, which are themselves exact (`2f64.powi` of a power of two
    /// times the base is one floating-point product).
    fn bucket_of(v: f64) -> usize {
        // NaN checked explicitly so it also lands in bucket 0.
        if v.is_nan() || v < HIST_BASE_S {
            return 0;
        }
        // Clamp in f64 *before* the cast: for v = ∞ the log is ∞ and a
        // saturating `as i64` followed by `+ 1` would overflow.
        let est = ((v / HIST_BASE_S).log2().floor() + 1.0).clamp(1.0, (HIST_BUCKETS - 1) as f64);
        let mut b = est as usize;
        while b > 1 && v < HIST_BASE_S * 2f64.powi((b - 1) as i32) {
            b -= 1;
        }
        while b < HIST_BUCKETS - 1 && v >= HIST_BASE_S * 2f64.powi(b as i32) {
            b += 1;
        }
        b
    }

    pub fn record(&mut self, v: f64) {
        let v = v.max(0.0);
        let b = Self::bucket_of(v);
        self.counts[b] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    /// Approximate quantile: the upper bound of the first bucket at which
    /// the cumulative count reaches `q × count` (clamped to the observed
    /// max).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                let upper = HIST_BASE_S * 2f64.powi(b as i32);
                return upper.min(self.max);
            }
        }
        self.max
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"mean_s\":{},\"min_s\":{},\"max_s\":{},\"p50_s\":{},\"p90_s\":{},\"p99_s\":{}}}",
            self.count,
            json_num(self.mean()),
            json_num(self.min()),
            json_num(self.max()),
            json_num(self.quantile(0.50)),
            json_num(self.quantile(0.90)),
            json_num(self.quantile(0.99)),
        )
    }
}

/// Total time and share-of-makespan of one named phase.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseShare {
    pub name: String,
    pub total_s: f64,
    /// `total_s / makespan_s` — shares can exceed 1.0 summed, since phases
    /// overlap (a shuffle runs inside a stage).
    pub share: f64,
}

/// Bytes entering and leaving one node over the network, from the trace's
/// fetch and broadcast events. Broadcast payloads are counted as egress
/// from the root only (destination fan-out is algorithm-internal).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeTraffic {
    pub node: usize,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

/// Memory-pressure activity on one node, from the trace's spill/evict/
/// OOM-kill events plus the report's resident high-water mark.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeMemory {
    pub node: usize,
    /// Bytes that overflowed to local scratch disk.
    pub bytes_spilled: u64,
    /// Cached bytes dropped (recoverable by lineage recompute).
    pub bytes_evicted: u64,
    /// Tasks/workers killed for exceeding the budget outright.
    pub oom_kills: usize,
    /// Resident high-water mark (bytes); 0 if the ledger never engaged.
    pub high_water: u64,
}

/// Post-run summary of one [`SimReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct Metrics {
    pub makespan_s: f64,
    pub tasks: usize,
    /// Useful (non-killed) task time / (cores × makespan); falls back to
    /// `compute_s` when no trace was recorded.
    pub utilization: f64,
    /// Occupied core time including killed attempts (trace only; equals
    /// `utilization` without a trace).
    pub busy_fraction: f64,
    /// Phase totals in first-appearance order.
    pub phases: Vec<PhaseShare>,
    /// Per-node traffic, for nodes that moved any bytes.
    pub nodes: Vec<NodeTraffic>,
    /// Per-node memory pressure, for nodes that spilled, evicted, OOM-
    /// killed, or recorded a high-water mark.
    pub memory: Vec<NodeMemory>,
    /// Task queue wait: `start_s - ready_s` per completed task attempt.
    pub queue_wait: Histogram,
    /// Driver/scheduler dispatch cadence: gaps between consecutive task
    /// release times — a serialized dispatcher shows its per-task cost
    /// here (Fig. 2's throughput caps, seen per-task).
    pub dispatch_latency: Histogram,
    /// Service-queue events (mdtaskd): jobs enqueued by tenants.
    pub jobs_enqueued: usize,
    /// Service-queue events: jobs admitted to a cluster by the scheduler.
    pub jobs_admitted: usize,
    /// Service-queue events: jobs refused typed (backpressure/quota).
    pub jobs_rejected: usize,
    /// Streaming ingestion pauses under memory pressure (backpressure
    /// trace events) and the total virtual time spent paused.
    pub backpressure_pauses: usize,
    pub backpressure_wait_s: f64,
}

impl Metrics {
    pub fn from_report(report: &SimReport, n_cores: usize) -> Metrics {
        let makespan = report.makespan_s;
        // Phase totals, first-appearance order.
        let mut order: Vec<String> = Vec::new();
        for p in &report.phases {
            if !order.contains(&p.name) {
                order.push(p.name.clone());
            }
        }
        let phases = order
            .into_iter()
            .map(|name| {
                let total_s = report.phase_total(&name).unwrap_or(0.0);
                PhaseShare {
                    share: if makespan > 0.0 {
                        total_s / makespan
                    } else {
                        0.0
                    },
                    name,
                    total_s,
                }
            })
            .collect();

        let mut queue_wait = Histogram::default();
        let mut dispatch_latency = Histogram::default();
        let (mut jobs_enqueued, mut jobs_admitted, mut jobs_rejected) = (0usize, 0usize, 0usize);
        let (mut backpressure_pauses, mut backpressure_wait_s) = (0usize, 0.0f64);
        let mut traffic: Vec<NodeTraffic> = Vec::new();
        let mut memory: Vec<NodeMemory> = Vec::new();
        fn mem_entry(memory: &mut Vec<NodeMemory>, node: usize) -> &mut NodeMemory {
            let i = memory
                .iter()
                .position(|m| m.node == node)
                .unwrap_or_else(|| {
                    memory.push(NodeMemory {
                        node,
                        ..Default::default()
                    });
                    memory.len() - 1
                });
            &mut memory[i]
        }
        let bump = |node: usize, inb: u64, outb: u64, traffic: &mut Vec<NodeTraffic>| {
            if let Some(t) = traffic.iter_mut().find(|t| t.node == node) {
                t.bytes_in += inb;
                t.bytes_out += outb;
            } else {
                traffic.push(NodeTraffic {
                    node,
                    bytes_in: inb,
                    bytes_out: outb,
                });
            }
        };
        let (utilization, busy_fraction) = match &report.trace {
            Some(trace) => {
                let mut releases: Vec<f64> = Vec::new();
                // Core time held by task attempts, all and useful only,
                // summed in event order from `Iterator::sum`'s neutral
                // element: the bits `Trace::utilization` and
                // `Trace::busy_fraction` give.
                let (mut busy, mut useful) = (-0.0f64, -0.0f64);
                for e in &trace.events {
                    match &e.kind {
                        EventKind::Task { .. } => {
                            let held = e.end_s - e.start_s;
                            busy += held;
                            if !e.killed {
                                useful += held;
                                queue_wait.record(e.start_s - e.ready_s);
                                releases.push(e.ready_s);
                            }
                        }
                        EventKind::Fetch {
                            from_node,
                            to_node,
                            bytes,
                        } => {
                            bump(*from_node, 0, *bytes, &mut traffic);
                            bump(*to_node, *bytes, 0, &mut traffic);
                        }
                        EventKind::Broadcast { bytes, .. } => {
                            bump(0, 0, *bytes, &mut traffic);
                        }
                        EventKind::Recovery { .. } | EventKind::Fenced { .. } => {}
                        EventKind::Spill { node, bytes } => {
                            mem_entry(&mut memory, *node).bytes_spilled += bytes;
                        }
                        EventKind::Evict { node, bytes } => {
                            mem_entry(&mut memory, *node).bytes_evicted += bytes;
                        }
                        EventKind::OomKill { node } => {
                            mem_entry(&mut memory, *node).oom_kills += 1;
                        }
                        EventKind::Enqueue { .. } => jobs_enqueued += 1,
                        EventKind::Admit { .. } => {
                            jobs_admitted += 1;
                            // Service-queue wait: enqueue → admission.
                            queue_wait.record(e.start_s - e.ready_s);
                        }
                        EventKind::Reject { .. } => jobs_rejected += 1,
                        EventKind::Backpressure { .. } => {
                            backpressure_pauses += 1;
                            backpressure_wait_s += e.end_s - e.start_s;
                        }
                    }
                }
                releases.sort_by(f64::total_cmp);
                for w in releases.windows(2) {
                    dispatch_latency.record(w[1] - w[0]);
                }
                (
                    trace.core_share(useful, n_cores),
                    trace.core_share(busy, n_cores),
                )
            }
            None => {
                let u = if makespan > 0.0 && n_cores > 0 {
                    report.compute_s / (n_cores as f64 * makespan)
                } else {
                    0.0
                };
                (u, u)
            }
        };
        // Merge the report's resident high-water marks (the ledger tracks
        // them even when no spill/evict event fired).
        for (node, &hw) in report.mem_high_water.iter().enumerate() {
            if hw > 0 {
                mem_entry(&mut memory, node).high_water = hw;
            }
        }
        traffic.sort_by_key(|t| t.node);
        memory.sort_by_key(|m| m.node);
        Metrics {
            makespan_s: makespan,
            tasks: report.tasks,
            utilization,
            busy_fraction,
            phases,
            nodes: traffic,
            memory,
            queue_wait,
            dispatch_latency,
            jobs_enqueued,
            jobs_admitted,
            jobs_rejected,
            backpressure_pauses,
            backpressure_wait_s,
        }
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "makespan {:.4}s · {} tasks · utilization {:.1}% (busy {:.1}%)\n",
            self.makespan_s,
            self.tasks,
            100.0 * self.utilization,
            100.0 * self.busy_fraction
        ));
        for p in &self.phases {
            out.push_str(&format!(
                "  phase {:<22} {:>9.4}s  {:>5.1}%\n",
                p.name,
                p.total_s,
                100.0 * p.share
            ));
        }
        for n in &self.nodes {
            out.push_str(&format!(
                "  node {:<3} in {:>12} B  out {:>12} B\n",
                n.node, n.bytes_in, n.bytes_out
            ));
        }
        for m in &self.memory {
            out.push_str(&format!(
                "  mem  {:<3} high-water {:>12} B  spilled {:>10} B  evicted {:>10} B  oom-kills {}\n",
                m.node, m.high_water, m.bytes_spilled, m.bytes_evicted, m.oom_kills
            ));
        }
        if self.queue_wait.count() > 0 {
            out.push_str(&format!(
                "  queue wait      p50 {:.6}s  p90 {:.6}s  max {:.6}s\n",
                self.queue_wait.quantile(0.5),
                self.queue_wait.quantile(0.9),
                self.queue_wait.max()
            ));
        }
        if self.dispatch_latency.count() > 0 {
            out.push_str(&format!(
                "  dispatch gap    p50 {:.6}s  p90 {:.6}s  max {:.6}s\n",
                self.dispatch_latency.quantile(0.5),
                self.dispatch_latency.quantile(0.9),
                self.dispatch_latency.max()
            ));
        }
        if self.jobs_enqueued + self.jobs_admitted + self.jobs_rejected > 0 {
            out.push_str(&format!(
                "  service jobs    enqueued {}  admitted {}  rejected {}\n",
                self.jobs_enqueued, self.jobs_admitted, self.jobs_rejected
            ));
        }
        if self.backpressure_pauses > 0 {
            out.push_str(&format!(
                "  backpressure    pauses {}  waited {:.4}s\n",
                self.backpressure_pauses, self.backpressure_wait_s
            ));
        }
        out
    }

    /// JSON object (hand-rolled — the workspace carries no serde).
    pub fn to_json(&self) -> String {
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| {
                format!(
                    "{{\"name\":\"{}\",\"total_s\":{},\"share\":{}}}",
                    escape_json(&p.name),
                    json_num(p.total_s),
                    json_num(p.share)
                )
            })
            .collect();
        let nodes: Vec<String> = self
            .nodes
            .iter()
            .map(|n| {
                format!(
                    "{{\"node\":{},\"bytes_in\":{},\"bytes_out\":{}}}",
                    n.node, n.bytes_in, n.bytes_out
                )
            })
            .collect();
        let memory: Vec<String> = self
            .memory
            .iter()
            .map(|m| {
                format!(
                    "{{\"node\":{},\"high_water\":{},\"bytes_spilled\":{},\"bytes_evicted\":{},\"oom_kills\":{}}}",
                    m.node, m.high_water, m.bytes_spilled, m.bytes_evicted, m.oom_kills
                )
            })
            .collect();
        format!(
            "{{\"makespan_s\":{},\"tasks\":{},\"utilization\":{},\"busy_fraction\":{},\"phases\":[{}],\"nodes\":[{}],\"memory\":[{}],\"queue_wait\":{},\"dispatch_latency\":{},\"jobs_enqueued\":{},\"jobs_admitted\":{},\"jobs_rejected\":{},\"backpressure_pauses\":{},\"backpressure_wait_s\":{}}}",
            json_num(self.makespan_s),
            self.tasks,
            json_num(self.utilization),
            json_num(self.busy_fraction),
            phases.join(","),
            nodes.join(","),
            memory.join(","),
            self.queue_wait.to_json(),
            self.dispatch_latency.to_json(),
            self.jobs_enqueued,
            self.jobs_admitted,
            self.jobs_rejected,
            self.backpressure_pauses,
            json_num(self.backpressure_wait_s),
        )
    }
}

/// Finite JSON number (JSON has no NaN/Inf; those map to 0).
pub(crate) fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// Escape a string for a JSON literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_json_escaped(&mut out, s);
    out
}

/// Append `s` to `out`, escaped for a JSON literal.
pub fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{laptop, Cluster};
    use crate::executor::SimExecutor;

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.record(1e-4);
        }
        for _ in 0..10 {
            h.record(1e-2);
        }
        assert_eq!(h.count(), 100);
        assert!(h.quantile(0.5) >= 1e-4 && h.quantile(0.5) < 1e-3);
        assert!(h.quantile(0.99) >= 1e-2 - 1e-12);
        assert!((h.mean() - (90.0 * 1e-4 + 10.0 * 1e-2) / 100.0).abs() < 1e-12);
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn histogram_boundary_semantics_are_exact() {
        // Regression for the bucketing audit: bucket 0 is [0, base);
        // bucket b ≥ 1 is [base·2^(b-1), base·2^b). Sub-base, exact-
        // boundary, and boundary±ulp values must all land per that spec —
        // the raw log₂ estimate can round across a boundary by an ulp.
        assert_eq!(Histogram::bucket_of(0.0), 0);
        assert_eq!(Histogram::bucket_of(f64::NAN), 0);
        assert_eq!(Histogram::bucket_of(HIST_BASE_S / 2.0), 0);
        let below_base = f64::from_bits(HIST_BASE_S.to_bits() - 1);
        assert_eq!(Histogram::bucket_of(below_base), 0, "base − ulp");
        assert_eq!(Histogram::bucket_of(HIST_BASE_S), 1, "exact base");
        // Every exact power-of-two boundary, plus one ulp to either side.
        for b in 1..HIST_BUCKETS - 1 {
            let bound = HIST_BASE_S * 2f64.powi(b as i32);
            assert_eq!(
                Histogram::bucket_of(bound),
                b + 1,
                "exact boundary base·2^{b} opens bucket {}",
                b + 1
            );
            let lo = f64::from_bits(bound.to_bits() - 1);
            assert_eq!(Histogram::bucket_of(lo), b, "boundary − ulp stays in {b}");
            let hi = f64::from_bits(bound.to_bits() + 1);
            assert_eq!(Histogram::bucket_of(hi), b + 1, "boundary + ulp");
        }
        // Beyond the last regular boundary everything collapses into the
        // final bucket.
        assert_eq!(Histogram::bucket_of(1e12), HIST_BUCKETS - 1);
        assert_eq!(Histogram::bucket_of(f64::INFINITY), HIST_BUCKETS - 1);
        // Recording a boundary value keeps quantiles consistent with the
        // documented ranges: p100 of a single exact-boundary sample is the
        // sample itself (bucket upper bound clamped to the observed max).
        let mut h = Histogram::default();
        h.record(HIST_BASE_S);
        assert_eq!(h.quantile(1.0), HIST_BASE_S);
    }

    #[test]
    fn metrics_from_traced_run() {
        let mut e = SimExecutor::new(Cluster::builder().cores_per_node(2).build());
        e.enable_trace();
        e.run_task(0.0, 1.0);
        e.run_task(0.5, 1.0);
        e.record_fetch(0, 1, 1000, 1.0, 1.25);
        e.record_broadcast(500, 2, 0.0, 0.1);
        e.report_mut().push_phase("map", 0.0, 1.5);
        let m = Metrics::from_report(e.report(), 2);
        assert_eq!(m.tasks, 2);
        assert!((m.utilization - 2.0 / 3.0).abs() < 1e-12);
        let trace = e.report().trace.as_ref().expect("traced");
        assert_eq!(m.utilization.to_bits(), trace.utilization(2).to_bits());
        assert_eq!(m.busy_fraction.to_bits(), trace.busy_fraction(2).to_bits());
        assert_eq!(m.phases.len(), 1);
        assert_eq!(m.phases[0].name, "map");
        assert_eq!(m.queue_wait.count(), 2);
        assert_eq!(m.dispatch_latency.count(), 1);
        // node 0: broadcast 500 out + fetch 1000 out; node 1: 1000 in.
        assert_eq!(m.nodes[0].bytes_out, 1500);
        assert_eq!(m.nodes[1].bytes_in, 1000);
        let json = m.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"phases\":[{\"name\":\"map\""));
        assert!(m.render().contains("phase map"));
    }

    #[test]
    fn metrics_without_trace_falls_back_to_compute_share() {
        let mut e = SimExecutor::new(Cluster::new(laptop(), 1));
        e.run_task(0.0, 4.0);
        let m = Metrics::from_report(e.report(), 8);
        assert!((m.utilization - 4.0 / (8.0 * 4.0)).abs() < 1e-12);
        assert_eq!(m.utilization, m.busy_fraction);
        assert_eq!(m.queue_wait.count(), 0);
    }

    #[test]
    fn metrics_summarize_memory_pressure() {
        use crate::trace::{Trace, TraceEvent};
        let mut trace = Trace::default();
        let shuffle = trace.intern("shuffle");
        let cache = trace.intern("cache");
        let memory = trace.intern("memory");
        trace.record(TraceEvent {
            task: 0,
            core: 0,
            start_s: 0.0,
            end_s: 0.5,
            killed: false,
            ready_s: 0.0,
            phase: shuffle,
            kind: EventKind::Spill {
                node: 1,
                bytes: 4096,
            },
        });
        trace.record(TraceEvent {
            task: 1,
            core: 0,
            start_s: 0.5,
            end_s: 0.5,
            killed: false,
            ready_s: 0.5,
            phase: cache,
            kind: EventKind::Evict {
                node: 1,
                bytes: 1024,
            },
        });
        trace.record(TraceEvent {
            task: 2,
            core: 0,
            start_s: 1.0,
            end_s: 1.0,
            killed: false,
            ready_s: 1.0,
            phase: memory,
            kind: EventKind::OomKill { node: 0 },
        });
        let report = SimReport {
            makespan_s: 1.0,
            bytes_spilled: 4096,
            bytes_evicted: 1024,
            oom_kills: 1,
            mem_high_water: vec![100, 200],
            trace: Some(trace),
            ..Default::default()
        };
        let m = Metrics::from_report(&report, 2);
        assert_eq!(m.memory.len(), 2);
        assert_eq!(m.memory[0].node, 0);
        assert_eq!(m.memory[0].oom_kills, 1);
        assert_eq!(m.memory[0].high_water, 100);
        assert_eq!(m.memory[1].bytes_spilled, 4096);
        assert_eq!(m.memory[1].bytes_evicted, 1024);
        assert_eq!(m.memory[1].high_water, 200);
        let json = m.to_json();
        assert!(json.contains("\"memory\":[{\"node\":0"));
        assert!(json.contains("\"bytes_spilled\":4096"));
        assert!(m.render().contains("high-water"));
    }

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_num(f64::NAN), "0");
    }
}
