//! Deterministic chaos-fuzzing harness with invariant oracles.
//!
//! PR-1 scripted *point* failures by hand; this module tests recovery
//! *adversarially*. From a base seed it generates random [`FaultPlan`]s
//! (node deaths × straggler cores × lost fetches × mid-run memory
//! shrinks), runs a workload under each, and checks invariant oracles
//! against the fault-free run:
//!
//! * **result equivalence** — the workload's result fingerprint must be
//!   bit-identical to the fault-free run (or the engine must surface a
//!   typed error; it must never silently return different data);
//! * **shuffle byte conservation** — lost fetches are re-sent, not
//!   re-counted, so `bytes_shuffled` matches the fault-free run;
//! * **spill byte conservation** — the report's spilled/evicted byte
//!   totals match the sum of `Spill`/`Evict` events in the trace (and
//!   OOM kills match their events), so memory pressure is accounted, not
//!   estimated;
//! * **eviction ⇔ recompute equivalence** — when cached partitions were
//!   evicted under pressure, the lineage-recomputed results must still be
//!   bit-identical to the never-evicted run;
//! * **recovery-accounting consistency** — lost work implies a visible
//!   recovery (`retries`, `recomputed_partitions`), and a `"recovery"`
//!   phase never appears without lost work behind it;
//! * **trace accounting** — completed (non-killed) task events equal the
//!   report's task count (no task is both completed and killed) and no
//!   two task attempts overlap on one core;
//! * **termination** — the run returns (bounded [`RetryPolicy`]s make
//!   this structural) with a finite makespan.
//!
//! On a violation the plan is *shrunk* — scripted faults are greedily
//! dropped and probabilities zeroed or halved while the violation still
//! reproduces — to a minimal counterexample, and the whole
//! [`FuzzReport`] serializes to JSON so CI can attach it as an artifact
//! and a developer can replay it with
//! `Cluster::with_faults(FaultPlan::from_json(..))`.
//!
//! [`fuzz`] is one instance of [`fuzz_with`], the seed → generate →
//! judge → shrink loop every chaos battery runs (`mdtaskd::chaos` too).
//!
//! Everything is deterministic: the same config and seed produce the same
//! plans, the same violations, and the same shrunk counterexamples.

use crate::fault::{
    mix, FaultPlan, FrameDelay, FrameDrop, LinkDegrade, MemShrink, NodeDeath, Partition,
    ProducerStall, Straggler,
};
use crate::metrics::escape_json;
use crate::report::SimReport;
use crate::trace::EventKind;
use std::ops::Range;

/// SplitMix64 sequence: the one deterministic generator every chaos
/// battery draws its inputs from.
pub struct SeedStream(u64);

impl SeedStream {
    pub fn new(seed: u64) -> Self {
        SeedStream(mix(seed))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`; `n == 0` yields 0.
    fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What the chaos generator is allowed to inject, and how the oracles
/// judge the outcome.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Cluster shape the workload runs on (used to draw valid node/core
    /// indices; at least one node always survives).
    pub nodes: usize,
    pub cores_per_node: usize,
    /// First seed of the sweep; plan `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Number of plans to generate and run.
    pub plans: usize,
    /// At most this many node deaths per plan (clamped to `nodes - 1`).
    pub max_deaths: usize,
    /// Death times are drawn uniformly from this window.
    pub death_window_s: (f64, f64),
    /// At most this many straggler cores per plan.
    pub max_stragglers: usize,
    /// Straggler factors are drawn from `[1, straggler_factor_max]`.
    pub straggler_factor_max: f64,
    /// Fetch-loss probability is drawn from `[0, lost_fetch_prob_max]`
    /// (half of all plans keep fetches reliable).
    pub lost_fetch_prob_max: f64,
    /// At most this many mid-run memory shrinks per plan.
    pub max_mem_shrinks: usize,
    /// Memory shrink times are drawn uniformly from this window.
    pub mem_shrink_window_s: (f64, f64),
    /// The per-node memory budget the workload's cluster declares; shrink
    /// targets are fractions of it.
    pub mem_per_node: u64,
    /// Shrink targets are drawn from
    /// `[mem_shrink_frac.0, mem_shrink_frac.1) × mem_per_node`.
    pub mem_shrink_frac: (f64, f64),
    /// Whether a typed error from the workload is an acceptable outcome
    /// (bounded policies may legitimately exhaust under heavy plans).
    /// When `false`, any error is a violation.
    pub allow_typed_errors: bool,
    /// Check trace-level task accounting. Disable for engines whose
    /// report's `tasks` is not an attempt count (mpilike counts ranks).
    pub check_trace_accounting: bool,
    /// Require an *empty* plan to reproduce the baseline report
    /// byte-for-byte. Holds for synthetic fixed-duration workloads;
    /// disable for workloads that re-measure real closure durations each
    /// run (their makespans carry µs-scale measurement jitter).
    pub check_empty_plan_determinism: bool,
    /// Frame count of the streamed workload under test. `0` (the default)
    /// disables stream-fault generation entirely, leaving plans for batch
    /// workloads byte-identical to what older configs produced.
    pub stream_frames: usize,
    /// At most this many producer stalls per plan.
    pub max_producer_stalls: usize,
    /// Stall (and crash) times are drawn uniformly from this window.
    pub producer_stall_window_s: (f64, f64),
    /// Stall lengths are drawn uniformly from this range.
    pub producer_stall_len_s: (f64, f64),
    /// Per-plan probability that the producer also crashes outright.
    pub producer_crash_prob: f64,
    /// At most this many scripted frame drops per plan.
    pub max_frame_drops: usize,
    /// At most this many scripted frame delays per plan.
    pub max_frame_delays: usize,
    /// Scripted frame delays are drawn from `(0, frame_delay_max_s]`.
    pub frame_delay_max_s: f64,
    /// Seeded per-frame drop probability is drawn from
    /// `[0, frame_drop_prob_max]` (half of all plans keep delivery
    /// reliable).
    pub frame_drop_prob_max: f64,
    /// Seeded per-frame duplicate-delivery probability is drawn from
    /// `[0, frame_dup_prob_max]` (half of all plans deliver exactly once).
    pub frame_dup_prob_max: f64,
    /// At most this many scripted network partitions per plan. `0` (the
    /// default) disables partition and link-degradation generation
    /// entirely, leaving plans byte-identical to what older configs
    /// produced for the same `(cfg, seed)`.
    pub max_partitions: usize,
    /// Partition cut times are drawn from this window (successive cuts
    /// are laid out disjoint by construction, so every plan validates).
    pub partition_window_s: (f64, f64),
    /// Cut-to-heal durations are drawn uniformly from this range.
    pub partition_len_s: (f64, f64),
    /// At most this many per-link degradations per plan.
    pub max_link_degrades: usize,
    /// Link latency factors are drawn from `[1, link_factor_max]`.
    pub link_factor_max: f64,
    /// Link loss probability is drawn from `[0, link_loss_prob_max]`
    /// (half of all degraded links stay lossless).
    pub link_loss_prob_max: f64,
}

impl ChaosConfig {
    pub fn new(nodes: usize, cores_per_node: usize) -> Self {
        assert!(nodes >= 1 && cores_per_node >= 1);
        ChaosConfig {
            nodes,
            cores_per_node,
            base_seed: 0,
            plans: 100,
            max_deaths: 1,
            death_window_s: (0.0, 10.0),
            max_stragglers: 2,
            straggler_factor_max: 8.0,
            lost_fetch_prob_max: 0.3,
            max_mem_shrinks: 1,
            mem_shrink_window_s: (0.0, 10.0),
            mem_per_node: 16 * (1 << 30),
            mem_shrink_frac: (0.3, 0.9),
            allow_typed_errors: true,
            check_trace_accounting: true,
            check_empty_plan_determinism: true,
            stream_frames: 0,
            max_producer_stalls: 1,
            producer_stall_window_s: (0.0, 10.0),
            producer_stall_len_s: (0.5, 3.0),
            producer_crash_prob: 0.15,
            max_frame_drops: 2,
            max_frame_delays: 2,
            frame_delay_max_s: 2.0,
            frame_drop_prob_max: 0.1,
            frame_dup_prob_max: 0.1,
            max_partitions: 0,
            partition_window_s: (0.0, 10.0),
            partition_len_s: (0.5, 4.0),
            max_link_degrades: 1,
            link_factor_max: 4.0,
            link_loss_prob_max: 0.2,
        }
    }

    /// Enable stream-fault generation for a streamed workload of
    /// `frames` frames (producer stalls/crashes, scripted drops and
    /// delays, seeded loss and duplicate delivery).
    pub fn with_stream(mut self, frames: usize) -> Self {
        self.stream_frames = frames;
        self
    }

    /// Enable partition generation: up to `max` scripted network cuts
    /// (plus link degradations) per plan. The driver's node 0 is never
    /// isolated alone — cuts strand worker groups, as real split-brain
    /// scenarios do.
    pub fn with_partitions(mut self, max: usize) -> Self {
        self.max_partitions = max;
        self
    }
}

/// Generate the plan for one seed: deaths on distinct nodes (always
/// leaving a survivor), straggler cores, mid-run memory shrinks, and an
/// optional fetch-loss rate. Deterministic in `(cfg, seed)`.
pub fn plan_for_seed(cfg: &ChaosConfig, seed: u64) -> FaultPlan {
    let mut rng = SeedStream::new(seed);
    let max_deaths = cfg.max_deaths.min(cfg.nodes.saturating_sub(1));
    let n_deaths = rng.below(max_deaths + 1);
    let mut nodes: Vec<usize> = (0..cfg.nodes).collect();
    let mut deaths = Vec::with_capacity(n_deaths);
    let (lo, hi) = cfg.death_window_s;
    for i in 0..n_deaths {
        // Partial Fisher–Yates: death nodes are distinct.
        let j = i + rng.below(nodes.len() - i);
        nodes.swap(i, j);
        deaths.push(NodeDeath {
            node: nodes[i],
            at_s: lo + rng.f64() * (hi - lo),
        });
    }
    let n_stragglers = rng.below(cfg.max_stragglers + 1);
    let total_cores = cfg.nodes * cfg.cores_per_node;
    let stragglers = (0..n_stragglers)
        .map(|_| Straggler {
            core: rng.below(total_cores),
            factor: 1.0 + rng.f64() * (cfg.straggler_factor_max - 1.0).max(0.0),
        })
        .collect();
    let n_shrinks = rng.below(cfg.max_mem_shrinks + 1);
    let (mlo, mhi) = cfg.mem_shrink_window_s;
    let (flo, fhi) = cfg.mem_shrink_frac;
    let mem_shrinks = (0..n_shrinks)
        .map(|_| {
            let frac = flo + rng.f64() * (fhi - flo).max(0.0);
            MemShrink {
                node: rng.below(cfg.nodes),
                at_s: mlo + rng.f64() * (mhi - mlo),
                to_bytes: (cfg.mem_per_node as f64 * frac) as u64,
            }
        })
        .collect();
    let lost_fetch_prob = if rng.f64() < 0.5 {
        0.0
    } else {
        rng.f64() * cfg.lost_fetch_prob_max
    };
    let mut plan = FaultPlan {
        deaths,
        stragglers,
        mem_shrinks,
        lost_fetch_prob,
        seed: mix(seed),
        ..FaultPlan::none()
    };
    // A batch config makes no stream or partition draws at all, so its
    // plans stay byte-identical to what pre-streaming harnesses produced
    // for the same (cfg, seed).
    if cfg.stream_frames > 0 {
        stream_draws(cfg, &mut rng, &mut plan);
    }
    if cfg.max_partitions > 0 {
        partition_draws(cfg, &mut rng, &mut plan);
    }
    plan
}

/// Stream-fault draws for [`plan_for_seed`]. Split out so the draw order
/// stays a stable prefix: enabling partitions never changes what a
/// stream-only config would have drawn.
fn stream_draws(cfg: &ChaosConfig, rng: &mut SeedStream, plan: &mut FaultPlan) {
    let n_stalls = rng.below(cfg.max_producer_stalls + 1);
    let (slo, shi) = cfg.producer_stall_window_s;
    let (llo, lhi) = cfg.producer_stall_len_s;
    for _ in 0..n_stalls {
        plan.producer_stalls.push(ProducerStall {
            at_s: slo + rng.f64() * (shi - slo).max(0.0),
            for_s: (llo + rng.f64() * (lhi - llo).max(0.0)).max(1e-3),
        });
    }
    if rng.f64() < cfg.producer_crash_prob {
        plan.producer_stalls.push(ProducerStall {
            at_s: slo + rng.f64() * (shi - slo).max(0.0),
            for_s: f64::INFINITY,
        });
    }
    let n_drops = rng.below(cfg.max_frame_drops + 1);
    plan.frame_drops = (0..n_drops)
        .map(|_| FrameDrop {
            frame: rng.below(cfg.stream_frames),
        })
        .collect();
    let n_delays = rng.below(cfg.max_frame_delays + 1);
    plan.frame_delays = (0..n_delays)
        .map(|_| FrameDelay {
            frame: rng.below(cfg.stream_frames),
            by_s: rng.f64() * cfg.frame_delay_max_s,
        })
        .collect();
    plan.frame_drop_prob = if rng.f64() < 0.5 {
        0.0
    } else {
        rng.f64() * cfg.frame_drop_prob_max
    };
    plan.frame_dup_prob = if rng.f64() < 0.5 {
        0.0
    } else {
        rng.f64() * cfg.frame_dup_prob_max
    };
}

/// Partition and link-degradation draws for [`plan_for_seed`]. Cut
/// windows are laid out left-to-right from a moving cursor, so no two
/// partitions ever overlap in time and every generated plan validates.
fn partition_draws(cfg: &ChaosConfig, rng: &mut SeedStream, plan: &mut FaultPlan) {
    let n_parts = if cfg.nodes >= 2 {
        rng.below(cfg.max_partitions + 1)
    } else {
        0 // a single node has nothing to cut
    };
    let (plo, phi) = cfg.partition_window_s;
    let (llo, lhi) = cfg.partition_len_s;
    let mut cursor = plo;
    for _ in 0..n_parts {
        let from_s = cursor + rng.f64() * (phi - cursor).max(0.0);
        let len = (llo + rng.f64() * (lhi - llo).max(0.0)).max(1e-3);
        let to_s = from_s + len;
        // Isolate a random non-empty set of worker nodes; the driver's
        // node 0 always stays in the implicit remainder group.
        let k = 1 + rng.below(cfg.nodes - 1);
        let mut workers: Vec<usize> = (1..cfg.nodes).collect();
        let mut cut = Vec::with_capacity(k);
        for i in 0..k {
            let j = i + rng.below(workers.len() - i);
            workers.swap(i, j);
            cut.push(workers[i]);
        }
        cut.sort_unstable();
        plan.partitions.push(Partition {
            groups: vec![cut],
            from_s,
            to_s,
        });
        cursor = to_s;
    }
    let n_links = if cfg.nodes >= 2 {
        rng.below(cfg.max_link_degrades + 1)
    } else {
        0
    };
    for _ in 0..n_links {
        let a = rng.below(cfg.nodes);
        let b = (a + 1 + rng.below(cfg.nodes - 1)) % cfg.nodes;
        let latency_factor = 1.0 + rng.f64() * (cfg.link_factor_max - 1.0).max(0.0);
        let loss_prob = if rng.f64() < 0.5 {
            0.0
        } else {
            rng.f64() * cfg.link_loss_prob_max
        };
        let from_s = plo + rng.f64() * (phi - plo).max(0.0);
        let len = (llo + rng.f64() * (lhi - llo).max(0.0)).max(1e-3);
        plan.link_degrades.push(LinkDegrade {
            a,
            b,
            latency_factor,
            loss_prob,
            from_s,
            to_s: from_s + len,
        });
    }
}

/// What one workload run under one plan produced: a fingerprint of the
/// *data* the workload computed (build it with [`Fingerprint`] over
/// results only — never over timings) plus the full [`SimReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosOutcome {
    pub fingerprint: u64,
    pub report: SimReport,
}

/// Order-sensitive 64-bit fingerprint builder for workload results.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0x9e37_79b9_7f4a_7c15)
    }

    pub fn write_u64(&mut self, v: u64) {
        self.0 = mix(self.0 ^ mix(v));
    }

    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Bit-exact: equal fingerprints mean equal f64 bit patterns.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        mix(self.0)
    }
}

/// How one input fared against a battery's oracles.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// It ran to completion with every oracle intact.
    Held,
    /// It ended in a typed error the battery accepts (a bounded policy
    /// may legitimately exhaust under a heavy plan).
    Typed,
    /// It broke an oracle; the message names which.
    Broke(String),
}

/// One broken oracle: the seed that generated the input, the oracle's
/// message, and the input before and after shrinking.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation<S = FaultPlan> {
    pub seed: u64,
    pub message: String,
    pub input: S,
    pub shrunk: S,
}

/// Outcome of a fuzz sweep: of `runs` inputs, `completed` held, `typed`
/// ended in an accepted typed error, and the rest are `violations`.
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzReport<S = FaultPlan> {
    pub runs: usize,
    pub completed: usize,
    pub typed: usize,
    pub violations: Vec<Violation<S>>,
}

impl<S> FuzzReport<S> {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

impl FuzzReport {
    /// JSON artifact for CI: every violation carries its seed, message,
    /// and both the original and minimal replayable plans.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"plans_run\":{},\"passed\":{},\"violations\":[",
            self.runs,
            self.passed()
        );
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seed\":{},\"message\":\"{}\",\"plan\":{},\"shrunk\":{}}}",
                v.seed,
                escape_json(&v.message),
                v.input.to_json(),
                v.shrunk.to_json()
            ));
        }
        out.push_str("]}");
        out
    }
}

/// The loop every chaos battery runs. Each seed `generate`s one input,
/// which `judge` runs against the battery's oracles; an input that broke
/// one is `shrink`ed, given a `still_fails` re-judge, to a smaller input
/// that still breaks one.
///
/// The seeds are independent of each other, so detection fans out across
/// host threads (`parallel::current_degree()` of them); the pool returns
/// per-seed verdicts in seed order, keeping the report identical to the
/// serial sweep. Shrinking — an inherently sequential search — stays
/// serial, and violations are rare.
pub fn fuzz_with<S, G, J, R>(seeds: Range<u64>, generate: G, judge: J, shrink: R) -> FuzzReport<S>
where
    S: Send,
    G: Fn(u64) -> S + Sync,
    J: Fn(&S) -> Verdict + Sync,
    R: Fn(&S, &dyn Fn(&S) -> bool) -> S,
{
    let runs = seeds.end.saturating_sub(seeds.start) as usize;
    let judged = crate::parallel::run_indexed(runs, |i| {
        let seed = seeds.start + i as u64;
        let input = generate(seed);
        let verdict = judge(&input);
        (seed, input, verdict)
    });
    let still_fails = |cand: &S| matches!(judge(cand), Verdict::Broke(_));
    let mut report = FuzzReport {
        runs,
        completed: 0,
        typed: 0,
        violations: Vec::new(),
    };
    for (seed, input, verdict) in judged {
        match verdict {
            Verdict::Held => report.completed += 1,
            Verdict::Typed => report.typed += 1,
            Verdict::Broke(message) => {
                let shrunk = shrink(&input, &still_fails);
                report.violations.push(Violation {
                    seed,
                    message,
                    input,
                    shrunk,
                });
            }
        }
    }
    report
}

/// Check every oracle for one run. `Ok(outcome)` means the workload
/// completed; `Err` is a typed engine error (acceptable when
/// `cfg.allow_typed_errors`). Returns the first violated invariant.
pub fn check_invariants(
    cfg: &ChaosConfig,
    baseline: &ChaosOutcome,
    plan: &FaultPlan,
    result: &Result<ChaosOutcome, String>,
) -> Option<String> {
    let outcome = match result {
        // Bounded failure is an acceptable outcome; the run still
        // terminated with a typed error rather than hanging.
        Err(_) if cfg.allow_typed_errors => return None,
        Err(e) => return Some(format!("workload failed under plan: {e}")),
        Ok(o) => o,
    };
    let r = &outcome.report;
    if outcome.fingerprint != baseline.fingerprint {
        // Eviction ⇔ recompute equivalence: when data was evicted under
        // memory pressure, divergence means the lineage recompute path
        // produced different bits — name the culprit precisely.
        if r.bytes_evicted > 0 {
            return Some(format!(
                "evicted partitions were recomputed to different data \
                 (fingerprint {:#018x} != fault-free {:#018x}, {} bytes evicted)",
                outcome.fingerprint, baseline.fingerprint, r.bytes_evicted
            ));
        }
        return Some(format!(
            "result diverged from fault-free run (fingerprint {:#018x} != {:#018x})",
            outcome.fingerprint, baseline.fingerprint
        ));
    }
    if !r.makespan_s.is_finite() || r.makespan_s < 0.0 {
        return Some(format!("non-finite makespan {}", r.makespan_s));
    }
    // Zombie/fence accounting: zombies exist only under scripted
    // partitions, and a zombie attempt whose stale result was never
    // fenced is a double-count waiting to happen. The fingerprint oracle
    // above already proved no double-count *happened*; these prove the
    // bookkeeping that prevents it is present.
    if !plan.has_partitions() && (r.zombie_attempts > 0 || r.fenced_results > 0) {
        return Some(format!(
            "plan scripts no partition but the report claims {} zombie attempts / {} fenced results",
            r.zombie_attempts, r.fenced_results
        ));
    }
    if r.zombie_attempts > 0 && r.fenced_results == 0 {
        return Some(format!(
            "{} zombie attempts but no fenced result: stale outputs were not rejected",
            r.zombie_attempts
        ));
    }
    if r.zombie_time_s < 0.0 || (r.zombie_attempts == 0 && r.zombie_time_s != 0.0) {
        return Some(format!(
            "inconsistent zombie accounting: {} attempts, {}s wasted",
            r.zombie_attempts, r.zombie_time_s
        ));
    }
    if let Some(trace) = &r.trace {
        if !trace.is_sampled() {
            let fences = trace
                .events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Fenced { .. }))
                .count();
            if fences != r.fenced_results {
                return Some(format!(
                    "fences not conserved: trace records {fences} but the report claims {}",
                    r.fenced_results
                ));
            }
        }
    }
    if r.bytes_shuffled != baseline.report.bytes_shuffled {
        return Some(format!(
            "shuffle bytes not conserved: {} vs fault-free {}",
            r.bytes_shuffled, baseline.report.bytes_shuffled
        ));
    }
    // Spill byte conservation: the report's memory-pressure totals must
    // equal the sum of the typed events in the trace — spills and
    // evictions are accounted where they happen, never estimated.
    if let Some(trace) = &r.trace {
        let (mut spilled, mut evicted, mut ooms) = (0u64, 0u64, 0usize);
        for ev in &trace.events {
            // Per-event well-formedness. `Trace::record` checks these as
            // debug_assert!s only, which release/CI chaos runs never
            // execute — so the oracle re-checks them on every battery run
            // (same 1e-12 ready-time epsilon as the recorder).
            if ev.end_s < ev.start_s {
                return Some(format!(
                    "trace event {} ({} in phase {:?}) ends at {} before its start {}",
                    ev.task,
                    ev.kind.kind_name(),
                    trace.phase_of(ev),
                    ev.end_s,
                    ev.start_s
                ));
            }
            if ev.ready_s > ev.start_s + 1e-12 {
                return Some(format!(
                    "trace event {} ({} in phase {:?}) became ready at {}, after its start {}",
                    ev.task,
                    ev.kind.kind_name(),
                    trace.phase_of(ev),
                    ev.ready_s,
                    ev.start_s
                ));
            }
            match ev.kind {
                EventKind::Spill { bytes, .. } => spilled += bytes,
                EventKind::Evict { bytes, .. } => evicted += bytes,
                EventKind::OomKill { .. } => ooms += 1,
                _ => {}
            }
        }
        if spilled != r.bytes_spilled {
            return Some(format!(
                "spill bytes not conserved: trace records {spilled} but the report claims {}",
                r.bytes_spilled
            ));
        }
        if evicted != r.bytes_evicted {
            return Some(format!(
                "evicted bytes not conserved: trace records {evicted} but the report claims {}",
                r.bytes_evicted
            ));
        }
        if ooms != r.oom_kills {
            return Some(format!(
                "oom kills not conserved: trace records {ooms} but the report claims {}",
                r.oom_kills
            ));
        }
    }
    if cfg.check_empty_plan_determinism && plan.is_empty() && *r != baseline.report {
        return Some("empty plan produced a different report (non-determinism)".into());
    }
    if r.lost_time_s > 0.0 && r.retries == 0 && r.recomputed_partitions == 0 {
        return Some(format!(
            "{:.3}s of work lost but no retry or recompute recorded",
            r.lost_time_s
        ));
    }
    let recovery = r.phase_total("recovery").unwrap_or(0.0);
    if recovery > 0.0 && r.retries == 0 && r.recomputed_partitions == 0 && r.lost_time_s == 0.0 {
        return Some(format!(
            "phantom recovery: {recovery:.3}s of \"recovery\" phase with nothing lost or retried"
        ));
    }
    if cfg.check_trace_accounting {
        if let Some(trace) = &r.trace {
            let mut completed = 0usize;
            let mut spans: Vec<(usize, f64, f64)> = Vec::new();
            for ev in &trace.events {
                if let EventKind::Task { .. } = ev.kind {
                    if !ev.killed {
                        completed += 1;
                        spans.push((ev.core, ev.start_s, ev.end_s));
                    } else if (ev.end_s - ev.start_s) < 0.0 {
                        return Some("killed attempt with negative span".into());
                    }
                }
            }
            // A sampled trace (stride > 1) is deliberately partial:
            // counts cannot be reconciled against report totals, but the
            // overlap check below is still valid (dropping events never
            // creates an overlap).
            if !trace.is_sampled() && completed != r.tasks {
                return Some(format!(
                    "trace has {completed} completed task attempts but the report counts {} \
                     tasks (a task was double-counted as completed and killed, or dropped)",
                    r.tasks
                ));
            }
            spans.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
            for w in spans.windows(2) {
                let (ca, _, ea) = w[0];
                let (cb, sb, _) = w[1];
                if ca == cb && sb < ea - 1e-9 {
                    return Some(format!(
                        "two completed attempts overlap on core {ca}: one ends at {ea:.6}, \
                         the next starts at {sb:.6}"
                    ));
                }
            }
        }
    }
    None
}

/// Below this a probability is snapped to zero rather than halved again —
/// halving forever would never terminate, and no workload distinguishes
/// 1e-18 from 0.
const PROB_FLOOR: f64 = 1e-18;

/// Greedily shrink `plan` to a minimal set of faults for which
/// `still_fails` holds: drop one scripted fault at a time from each list
/// (deaths, stragglers, memory shrinks, memory sets, producer stalls,
/// frame drops, frame delays, partitions, link degradations), halve
/// partition cut-to-heal times, then attack the probabilities — first try zero, then
/// repeatedly *halve* toward zero — to a fixpoint. Halving finds the
/// smallest rate at which the failure still reproduces, which tells the
/// investigator whether the bug needs sustained loss or a single unlucky
/// coin. Bounded: each pass removes something or halves a finite value to
/// the floor, so shrinking a plan with `n` scripted faults re-runs the
/// workload `O(n^2 + log(1/PROB_FLOOR))` times.
pub fn shrink(plan: &FaultPlan, mut still_fails: impl FnMut(&FaultPlan) -> bool) -> FaultPlan {
    let mut cur = plan.clone();
    // One removal pass over a fault list; returns true if it shrank.
    fn remove_pass<T: Clone>(
        cur: &mut FaultPlan,
        get: impl Fn(&mut FaultPlan) -> &mut Vec<T>,
        still_fails: &mut impl FnMut(&FaultPlan) -> bool,
    ) -> bool {
        for i in 0..get(cur).len() {
            let mut cand = cur.clone();
            get(&mut cand).remove(i);
            if still_fails(&cand) {
                *cur = cand;
                return true;
            }
        }
        false
    }
    // Zero-then-halve a probability; returns true if it shrank at all.
    fn prob_pass(
        cur: &mut FaultPlan,
        get: impl Fn(&mut FaultPlan) -> &mut f64,
        still_fails: &mut impl FnMut(&FaultPlan) -> bool,
    ) -> bool {
        let mut shrunk = false;
        if *get(cur) > 0.0 {
            let mut cand = cur.clone();
            *get(&mut cand) = 0.0;
            if still_fails(&cand) {
                *cur = cand;
                return true;
            }
        }
        while *get(cur) > PROB_FLOOR {
            let mut cand = cur.clone();
            *get(&mut cand) /= 2.0;
            if !still_fails(&cand) {
                break;
            }
            *cur = cand;
            shrunk = true;
        }
        shrunk
    }
    // Halve one partition's cut-to-heal duration (heal-time halving):
    // finds the shortest cut that still reproduces, which tells the
    // investigator whether the bug needs a sustained split or a blip.
    // Floored at 1 ms so the pass terminates.
    fn heal_pass(cur: &mut FaultPlan, still_fails: &mut impl FnMut(&FaultPlan) -> bool) -> bool {
        for i in 0..cur.partitions.len() {
            let dur = cur.partitions[i].to_s - cur.partitions[i].from_s;
            if dur <= 1e-3 {
                continue;
            }
            let mut cand = cur.clone();
            cand.partitions[i].to_s = cand.partitions[i].from_s + dur / 2.0;
            if still_fails(&cand) {
                *cur = cand;
                return true;
            }
        }
        false
    }
    loop {
        if remove_pass(&mut cur, |p| &mut p.deaths, &mut still_fails)
            || remove_pass(&mut cur, |p| &mut p.stragglers, &mut still_fails)
            || remove_pass(&mut cur, |p| &mut p.mem_shrinks, &mut still_fails)
            || remove_pass(&mut cur, |p| &mut p.mem_sets, &mut still_fails)
            || remove_pass(&mut cur, |p| &mut p.producer_stalls, &mut still_fails)
            || remove_pass(&mut cur, |p| &mut p.frame_drops, &mut still_fails)
            || remove_pass(&mut cur, |p| &mut p.frame_delays, &mut still_fails)
            || remove_pass(&mut cur, |p| &mut p.partitions, &mut still_fails)
            || remove_pass(&mut cur, |p| &mut p.link_degrades, &mut still_fails)
            || heal_pass(&mut cur, &mut still_fails)
            || prob_pass(&mut cur, |p| &mut p.lost_fetch_prob, &mut still_fails)
            || prob_pass(&mut cur, |p| &mut p.frame_drop_prob, &mut still_fails)
            || prob_pass(&mut cur, |p| &mut p.frame_dup_prob, &mut still_fails)
        {
            continue;
        }
        return cur;
    }
}

/// Run the full sweep: a fault-free baseline, then `cfg.plans` seeded
/// plans through [`fuzz_with`], checking every oracle and shrinking each
/// violation to a minimal counterexample. The workload closure runs the
/// *same* job under the given plan and fingerprints its results; it sees
/// the baseline first, then each plan once, and after those only shrink
/// candidates.
pub fn fuzz<F>(cfg: &ChaosConfig, run: F) -> FuzzReport
where
    F: Fn(&FaultPlan) -> Result<ChaosOutcome, String> + Sync,
{
    let baseline = match run(&FaultPlan::none()) {
        Ok(o) => o,
        Err(e) => {
            return FuzzReport {
                runs: 0,
                completed: 0,
                typed: 0,
                violations: vec![Violation {
                    seed: cfg.base_seed,
                    message: format!("fault-free baseline failed: {e}"),
                    input: FaultPlan::none(),
                    shrunk: FaultPlan::none(),
                }],
            };
        }
    };
    fuzz_with(
        cfg.base_seed..cfg.base_seed + cfg.plans as u64,
        |seed| plan_for_seed(cfg, seed),
        |plan| {
            let result = run(plan);
            match check_invariants(cfg, &baseline, plan, &result) {
                Some(message) => Verdict::Broke(message),
                None if result.is_err() => Verdict::Typed,
                None => Verdict::Held,
            }
        },
        |plan, still_fails| shrink(plan, still_fails),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::executor::SimExecutor;
    use crate::policy::RetryPolicy;

    fn cfg() -> ChaosConfig {
        let mut c = ChaosConfig::new(3, 2);
        c.plans = 40;
        c.death_window_s = (0.1, 4.0);
        c.max_deaths = 2;
        c
    }

    /// A deterministic synthetic workload: 12 fixed-duration tasks under a
    /// bounded policy. `break_recovery` models a buggy recovery path whose
    /// re-run produces *different data* — the canary the harness must
    /// catch.
    fn workload(plan: &FaultPlan, break_recovery: bool) -> Result<ChaosOutcome, String> {
        let mut exec = SimExecutor::new(
            Cluster::builder()
                .nodes(3)
                .cores_per_node(2)
                .fault_plan(plan.clone())
                .build(),
        );
        exec.enable_trace();
        // Suspicion is only consulted under scripted partitions, so
        // partition-free plans keep their exact legacy schedules.
        let policy = RetryPolicy::new(4)
            .with_detection_delay(0.2)
            .with_backoff(0.1, 2.0, 2.0)
            .with_suspicion(0.2, 0.4);
        let mut fp = Fingerprint::new();
        for i in 0..12u64 {
            let dur = 0.5 + (i % 4) as f64 * 0.25;
            let before = exec.report().retries;
            exec.run_task_policied(0.0, dur, &policy)
                .map_err(|e| e.to_string())?;
            let retried = exec.report().retries > before;
            // The task's "result" is pure data — unless the broken canary
            // recovery recomputes it wrongly after a retry.
            let result = if break_recovery && retried {
                i + 1000
            } else {
                i * i
            };
            fp.write_u64(result);
        }
        Ok(ChaosOutcome {
            fingerprint: fp.finish(),
            report: exec.into_report(),
        })
    }

    #[test]
    fn plans_are_deterministic_and_bounded() {
        let c = cfg();
        for i in 0..200 {
            let seed = c.base_seed + i;
            let p = plan_for_seed(&c, seed);
            assert_eq!(p, plan_for_seed(&c, seed), "same seed, same plan");
            assert!(p.deaths().len() <= 2, "at most max_deaths deaths");
            let mut nodes: Vec<usize> = p.deaths().iter().map(|d| d.node).collect();
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(nodes.len(), p.deaths().len(), "death nodes are distinct");
            assert!(nodes.iter().all(|&n| n < 3), "valid node ids");
            for d in p.deaths() {
                assert!((0.1..=4.0).contains(&d.at_s));
            }
            assert!(p.stragglers().len() <= 2);
            for s in p.stragglers() {
                assert!(s.core < 6);
                assert!((1.0..=8.0).contains(&s.factor));
            }
            assert!(p.mem_shrinks().len() <= c.max_mem_shrinks);
            for m in p.mem_shrinks() {
                assert!(m.node < 3, "valid shrink node");
                let (lo, hi) = c.mem_shrink_window_s;
                assert!((lo..=hi).contains(&m.at_s));
                let (flo, fhi) = c.mem_shrink_frac;
                let frac = m.to_bytes as f64 / c.mem_per_node as f64;
                assert!(frac >= flo - 1e-9 && frac <= fhi + 1e-9);
            }
            assert!((0.0..=0.3).contains(&p.lost_fetch_prob()));
        }
        // Different seeds explore different plans.
        assert_ne!(plan_for_seed(&c, 1), plan_for_seed(&c, 2));
    }

    #[test]
    fn fingerprint_is_order_and_value_sensitive() {
        let mut a = Fingerprint::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fingerprint::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fingerprint::new();
        c.write_f64(1.0);
        let mut d = Fingerprint::new();
        d.write_f64(1.0 + f64::EPSILON);
        assert_ne!(c.finish(), d.finish(), "bit-exact, not approximate");
        let mut e = Fingerprint::new();
        e.write_f64(1.0);
        assert_eq!(c.finish(), e.finish());
    }

    #[test]
    fn correct_recovery_passes_the_sweep() {
        let report = fuzz(&cfg(), |plan| workload(plan, false));
        assert!(
            report.passed(),
            "correct workload must satisfy every oracle: {:?}",
            report.violations.first().map(|v| &v.message)
        );
        assert_eq!(report.runs, 40);
    }

    #[test]
    fn broken_canary_is_found_and_shrunk_to_a_minimal_plan() {
        let report = fuzz(&cfg(), |plan| workload(plan, true));
        assert!(
            !report.passed(),
            "a recovery path that corrupts data must be caught"
        );
        let baseline = workload(&FaultPlan::none(), true).unwrap();
        let fails = |plan: &FaultPlan| {
            check_invariants(&cfg(), &baseline, plan, &workload(plan, true)).is_some()
        };
        for v in &report.violations {
            assert!(v.message.contains("diverged"), "oracle: {}", v.message);
            // The broken path only fires on a retry, so a death must remain.
            assert!(!v.shrunk.deaths().is_empty());
            // 1-minimality: removing any remaining fault stops the
            // reproduction (a straggler may legitimately survive shrinking
            // when it is what stretches a task into the death window).
            for i in 0..v.shrunk.deaths().len() {
                let mut cand = v.shrunk.clone();
                cand.deaths.remove(i);
                assert!(!fails(&cand), "death {i} is redundant in the shrunk plan");
            }
            for i in 0..v.shrunk.stragglers().len() {
                let mut cand = v.shrunk.clone();
                cand.stragglers.remove(i);
                assert!(
                    !fails(&cand),
                    "straggler {i} is redundant in the shrunk plan"
                );
            }
            // The shrunk plan still reproduces, and round-trips through the
            // JSON artifact to an identical replay.
            let replayed = FaultPlan::from_json(&v.shrunk.to_json()).unwrap();
            assert_eq!(replayed, v.shrunk);
            assert!(fails(&replayed), "replayed shrunk plan reproduces");
        }
        // At least one counterexample boils down to a single death with
        // nothing else — the canonical minimal trigger for the canary.
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.shrunk.deaths().len() == 1
                    && v.shrunk.stragglers().is_empty()
                    && v.shrunk.lost_fetch_prob() == 0.0),
            "some violation shrinks to exactly one death"
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = fuzz(&cfg(), |plan| workload(plan, true));
        let b = fuzz(&cfg(), |plan| workload(plan, true));
        assert_eq!(a.to_json(), b.to_json(), "byte-identical fuzz reports");
        let run = |plan: &FaultPlan| workload(plan, false).unwrap().report;
        let p = plan_for_seed(&cfg(), 17);
        assert_eq!(run(&p), run(&p), "byte-identical SimReport per plan");
    }

    #[test]
    fn the_loop_reports_identically_at_1_2_and_8_host_threads() {
        // Detection fans out, shrinking is serial: the whole report —
        // counts, violations and shrunk plans — must not depend on how
        // many host threads judged the seeds.
        let mut c = cfg();
        c.max_deaths = 3;
        let baseline = workload(&FaultPlan::none(), true).unwrap();
        let sweep = || {
            fuzz_with(
                0..48,
                |seed| plan_for_seed(&c, seed),
                |plan| {
                    let result = workload(plan, true);
                    match check_invariants(&c, &baseline, plan, &result) {
                        Some(message) => Verdict::Broke(message),
                        None if result.is_err() => Verdict::Typed,
                        None => Verdict::Held,
                    }
                },
                |plan, still_fails| shrink(plan, still_fails),
            )
        };
        let serial = crate::parallel::with_degree(crate::Threads::Serial, sweep);
        assert!(serial.completed > 0 && !serial.violations.is_empty());
        assert_eq!(
            serial.completed + serial.typed + serial.violations.len(),
            serial.runs
        );
        for n in [2, 8] {
            let got = crate::parallel::with_degree(crate::Threads::Fixed(n), sweep);
            assert_eq!(got, serial, "{n} host threads");
        }
    }

    #[test]
    fn oracles_catch_phantom_recovery_and_lost_work() {
        let c = cfg();
        let base = workload(&FaultPlan::none(), false).unwrap();
        // Phantom recovery: a "recovery" phase with nothing lost.
        let mut phantom = base.clone();
        phantom.report.push_phase("recovery", 0.0, 1.0);
        let plan = plan_for_seed(&c, 3);
        let got = check_invariants(&c, &base, &plan, &Ok(phantom));
        assert!(got.is_some_and(|m| m.contains("phantom")));
        // Lost work with no recovery recorded.
        let mut silent = base.clone();
        silent.report.lost_time_s = 2.0;
        let got = check_invariants(&c, &base, &plan, &Ok(silent));
        assert!(got.is_some_and(|m| m.contains("lost")));
        // Byte conservation.
        let mut leaky = base.clone();
        leaky.report.bytes_shuffled += 4096;
        let got = check_invariants(&c, &base, &plan, &Ok(leaky));
        assert!(got.is_some_and(|m| m.contains("conserved")));
    }

    #[test]
    fn oracles_catch_malformed_trace_events() {
        // `Trace::record` only debug_asserts these invariants, so a buggy
        // engine shipping a malformed event would sail through release/CI
        // runs — the oracle must catch it. Events are pushed directly onto
        // the trace to bypass the recorder's debug checks.
        use crate::trace::TraceEvent;
        let c = cfg();
        let base = workload(&FaultPlan::none(), false).unwrap();
        let plan = plan_for_seed(&c, 7);
        let event = |start_s: f64, end_s: f64, ready_s: f64| TraceEvent {
            task: 0,
            core: 0,
            start_s,
            end_s,
            killed: false,
            ready_s,
            phase: 0,
            kind: EventKind::Recovery { label: 0 },
        };
        // Ends before it starts.
        let mut inverted = base.clone();
        let trace = inverted.report.trace.as_mut().unwrap();
        trace.events.push(event(2.0, 1.0, 2.0));
        let got = check_invariants(&c, &base, &plan, &Ok(inverted));
        assert!(
            got.as_ref().is_some_and(|m| m.contains("before its start")),
            "{got:?}"
        );
        // Ready after start (beyond the recorder's 1e-12 epsilon).
        let mut unready = base.clone();
        let trace = unready.report.trace.as_mut().unwrap();
        trace.events.push(event(1.0, 2.0, 1.5));
        let got = check_invariants(&c, &base, &plan, &Ok(unready));
        assert!(
            got.as_ref().is_some_and(|m| m.contains("after its start")),
            "{got:?}"
        );
        // A ready time within the epsilon is legitimate float jitter, and
        // these probes must not trip the other oracles.
        let mut jitter = base.clone();
        let trace = jitter.report.trace.as_mut().unwrap();
        trace.events.push(event(1.0, 2.0, 1.0 + 1e-13));
        assert_eq!(check_invariants(&c, &base, &plan, &Ok(jitter)), None);
    }

    #[test]
    fn sampled_traces_skip_task_count_reconciliation() {
        // A sampled trace records only a subset of task events, so the
        // completed-count oracle must not fire on the mismatch — but the
        // other trace oracles (well-formedness, overlap) still apply.
        let c = cfg();
        let base = workload(&FaultPlan::none(), false).unwrap();
        let plan = plan_for_seed(&c, 9);
        let mut sampled = base.clone();
        {
            let trace = sampled.report.trace.as_mut().unwrap();
            trace.set_sample_stride(4);
            let keep: Vec<_> = trace
                .events
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 4 == 0)
                .map(|(_, e)| *e)
                .collect();
            trace.events = keep;
        }
        // The baseline comparison sees a different trace, so compare the
        // sampled run against itself (empty-plan determinism is off for
        // this probe).
        let mut c2 = c.clone();
        c2.check_empty_plan_determinism = false;
        let self_base = ChaosOutcome {
            fingerprint: base.fingerprint,
            report: sampled.report.clone(),
        };
        assert_eq!(
            check_invariants(&c2, &self_base, &plan, &Ok(sampled)),
            None,
            "sampled trace must not trip the count reconciliation"
        );
    }

    #[test]
    fn typed_errors_are_acceptable_only_when_allowed() {
        let mut c = cfg();
        let base = workload(&FaultPlan::none(), false).unwrap();
        let plan = plan_for_seed(&c, 5);
        let failed: Result<ChaosOutcome, String> = Err("task failed after 3 attempts".into());
        assert!(check_invariants(&c, &base, &plan, &failed).is_none());
        c.allow_typed_errors = false;
        assert!(check_invariants(&c, &base, &plan, &failed).is_some());
    }

    #[test]
    fn shrink_reaches_a_fixpoint_without_oracle_calls_blowing_up() {
        // A violation that only needs one specific death: shrink must strip
        // everything else and keep exactly that death.
        let plan = FaultPlan::none()
            .kill_node(0, 1.0)
            .kill_node(1, 2.0)
            .slow_core(3, 5.0)
            .shrink_memory(2, 3.0, 1 << 30)
            .set_memory(2, 4.0, 1 << 29)
            .lose_fetches(0.25, 9);
        let mut calls = 0;
        let shrunk = shrink(&plan, |cand| {
            calls += 1;
            cand.deaths().iter().any(|d| d.node == 1)
        });
        assert_eq!(shrunk.deaths().len(), 1);
        assert_eq!(shrunk.deaths()[0].node, 1);
        assert!(shrunk.stragglers().is_empty());
        assert!(shrunk.mem_shrinks().is_empty());
        assert!(shrunk.mem_sets().is_empty());
        assert_eq!(shrunk.lost_fetch_prob(), 0.0);
        assert!(calls < 25, "greedy shrink stays quadratic, ran {calls}");
    }

    #[test]
    fn shrink_keeps_the_mem_set_a_failure_needs() {
        let plan = FaultPlan::none()
            .set_memory(0, 1.0, 1 << 20)
            .kill_node(1, 2.0);
        let fails = |p: &FaultPlan| !p.mem_sets().is_empty();
        let shrunk = shrink(&plan, fails);
        assert!(fails(&shrunk), "the shrunk plan still fails");
        assert_eq!(shrunk.mem_sets(), plan.mem_sets());
        assert!(shrunk.deaths().is_empty(), "the death is irrelevant");
    }

    #[test]
    fn stream_plans_appear_only_when_asked_and_stay_bounded() {
        let batch = cfg();
        let streamed = cfg().with_stream(64);
        for seed in 0..200 {
            // A batch config never draws stream faults, and its plans are
            // byte-identical to pre-streaming harness output.
            let b = plan_for_seed(&batch, seed);
            assert!(b.producer_stalls().is_empty());
            assert!(b.frame_drops().is_empty() && b.frame_delays().is_empty());
            assert_eq!(b.frame_drop_prob(), 0.0);
            assert_eq!(b.frame_dup_prob(), 0.0);
            let s = plan_for_seed(&streamed, seed);
            // The batch half of a streamed plan matches the batch plan
            // exactly: stream draws append after every existing draw.
            assert_eq!(s.deaths(), b.deaths());
            assert_eq!(s.stragglers(), b.stragglers());
            assert_eq!(s.mem_shrinks(), b.mem_shrinks());
            assert_eq!(s.lost_fetch_prob(), b.lost_fetch_prob());
            assert!(s.producer_stalls().len() <= streamed.max_producer_stalls + 1);
            for stall in s.producer_stalls() {
                assert!(stall.at_s >= 0.0 && stall.for_s > 0.0);
            }
            assert!(s.frame_drops().len() <= streamed.max_frame_drops);
            assert!(s.frame_delays().len() <= streamed.max_frame_delays);
            for d in s.frame_drops() {
                assert!(d.frame < 64);
            }
            for d in s.frame_delays() {
                assert!(d.frame < 64 && (0.0..=streamed.frame_delay_max_s).contains(&d.by_s));
            }
            assert!((0.0..=streamed.frame_drop_prob_max).contains(&s.frame_drop_prob()));
            assert!((0.0..=streamed.frame_dup_prob_max).contains(&s.frame_dup_prob()));
            assert_eq!(s, plan_for_seed(&streamed, seed), "plans are deterministic");
        }
        // Across 200 seeds a streamed config exercises every fault class.
        let any =
            |f: &dyn Fn(&FaultPlan) -> bool| (0..200).any(|s| f(&plan_for_seed(&streamed, s)));
        assert!(any(&|p| p.producer_stalls().iter().any(|s| s.is_crash())));
        assert!(any(&|p| p.producer_stalls().iter().any(|s| !s.is_crash())));
        assert!(any(&|p| !p.frame_drops().is_empty()));
        assert!(any(&|p| !p.frame_delays().is_empty()));
        assert!(any(&|p| p.frame_drop_prob() > 0.0));
        assert!(any(&|p| p.frame_dup_prob() > 0.0));
    }

    #[test]
    fn partition_plans_appear_only_when_asked_and_validate() {
        let batch = cfg();
        let parted = cfg().with_partitions(2);
        for seed in 0..200 {
            // The partition knob off keeps plans byte-identical (covered
            // elsewhere); on, the batch prefix still matches exactly.
            let b = plan_for_seed(&batch, seed);
            assert!(b.partitions().is_empty() && b.link_degrades().is_empty());
            let p = plan_for_seed(&parted, seed);
            assert_eq!(p.deaths(), b.deaths());
            assert_eq!(p.stragglers(), b.stragglers());
            assert_eq!(p.mem_shrinks(), b.mem_shrinks());
            assert_eq!(p.lost_fetch_prob(), b.lost_fetch_prob());
            assert!(p.partitions().len() <= 2);
            assert!(p.link_degrades().len() <= parted.max_link_degrades);
            for part in p.partitions() {
                assert!(part.from_s >= 0.0 && part.to_s > part.from_s);
                assert_eq!(part.groups.len(), 1, "one cut group, driver in remainder");
                assert!(!part.groups[0].is_empty());
                assert!(part.groups[0].iter().all(|&n| (1..3).contains(&n)));
            }
            // Successive cuts are disjoint by construction.
            for w in p.partitions().windows(2) {
                assert!(w[1].from_s >= w[0].to_s, "cut windows never overlap");
            }
            for l in p.link_degrades() {
                assert!(l.a < 3 && l.b < 3 && l.a != l.b);
                assert!(l.latency_factor >= 1.0 && (0.0..=1.0).contains(&l.loss_prob));
            }
            p.validate(3, 6).expect("every generated plan validates");
            assert_eq!(p, plan_for_seed(&parted, seed), "plans are deterministic");
        }
        let any = |f: &dyn Fn(&FaultPlan) -> bool| (0..200).any(|s| f(&plan_for_seed(&parted, s)));
        assert!(any(&|p| !p.partitions().is_empty()));
        assert!(any(&|p| p.partitions().len() == 2));
        assert!(any(&|p| !p.link_degrades().is_empty()));
        assert!(any(&|p| p
            .link_degrades()
            .iter()
            .any(|l| l.loss_prob > 0.0)));
    }

    #[test]
    fn partition_chaos_sweep_passes_and_fences_zombies() {
        // The full battery under scripted partitions: every oracle holds
        // (no double-count, no hang, fences conserved), and the sweep
        // actually exercised the zombie path somewhere.
        let mut c = cfg().with_partitions(2);
        c.partition_window_s = (0.1, 3.0);
        c.partition_len_s = (0.5, 3.0);
        let report = fuzz(&c, |plan| workload(plan, false));
        assert!(
            report.passed(),
            "partition chaos must satisfy every oracle: {:?}",
            report.violations.first().map(|v| &v.message)
        );
        let mut zombies = 0usize;
        let mut fences = 0usize;
        for seed in 0..c.plans as u64 {
            let plan = plan_for_seed(&c, c.base_seed + seed);
            if let Ok(out) = workload(&plan, false) {
                zombies += out.report.zombie_attempts;
                fences += out.report.fenced_results;
            }
        }
        assert!(zombies > 0, "the sweep produced at least one zombie");
        assert!(fences >= zombies, "every zombie's stale result was fenced");
    }

    #[test]
    fn shrink_strips_partitions_and_halves_heal_times() {
        // Only a sustained (≥ 1 s) cut isolating node 1 matters; the
        // death, the link degradation, and the second partition must all
        // be stripped, and the surviving cut's heal halved to within a
        // factor of two of the 1 s boundary — a strictly smaller
        // counterexample on both axes.
        let plan = FaultPlan::none()
            .kill_node(2, 2.0)
            .seeded(13)
            .partition(vec![vec![1]], 1.0, 9.0)
            .partition(vec![vec![2]], 10.0, 11.0)
            .degrade_link(0, 2, 3.0, 0.1, 0.5, 4.0);
        let fails = |cand: &FaultPlan| {
            cand.partitions()
                .iter()
                .any(|p| p.separates(0, 1) && (p.to_s - p.from_s) >= 1.0)
        };
        assert!(fails(&plan), "original plan reproduces");
        let shrunk = shrink(&plan, fails);
        assert!(shrunk.deaths().is_empty(), "death is irrelevant");
        assert!(shrunk.link_degrades().is_empty(), "link is irrelevant");
        assert_eq!(shrunk.partitions().len(), 1, "one cut survives");
        let p = &shrunk.partitions()[0];
        assert!(p.separates(0, 1));
        let dur = p.to_s - p.from_s;
        assert!(
            (1.0..2.0).contains(&dur),
            "heal halving lands within 2x of the boundary, got {dur}"
        );
        assert!(
            dur < 8.0,
            "strictly smaller counterexample than the original 8 s cut"
        );
        assert!(fails(&shrunk), "shrunk plan still reproduces");
        // And it round-trips through the JSON artifact for replay.
        let replayed = FaultPlan::from_json(&shrunk.to_json()).unwrap();
        assert_eq!(replayed, shrunk);
    }

    #[test]
    fn shrink_halves_probabilities_to_a_strictly_smaller_counterexample() {
        // A failure that reproduces whenever seeded frame loss is at least
        // 5%: zeroing the probability kills the repro, so the shrinker must
        // *halve* 0.8 down until one more halving would cross the
        // threshold. The shrunk plan is strictly smaller than the original
        // and still within a factor of two of the true boundary.
        let plan = FaultPlan::none()
            .seeded(3)
            .stall_producer(1.0, 2.0)
            .drop_frames(0.8);
        let shrunk = shrink(&plan, |cand| cand.frame_drop_prob() >= 0.05);
        assert!(shrunk.producer_stalls().is_empty(), "stall is irrelevant");
        assert!(
            shrunk.frame_drop_prob() < plan.frame_drop_prob(),
            "strictly smaller counterexample"
        );
        assert!(
            (0.05..0.1).contains(&shrunk.frame_drop_prob()),
            "halving lands within 2x of the boundary, got {}",
            shrunk.frame_drop_prob()
        );
        // Same machinery on the batch-side probability: lost_fetch_prob
        // halves from 0.6 to just above a 0.1 threshold.
        let plan = FaultPlan::none().lose_fetches(0.6, 3);
        let shrunk = shrink(&plan, |cand| cand.lost_fetch_prob() >= 0.1);
        assert!((0.1..0.2).contains(&shrunk.lost_fetch_prob()));
    }

    #[test]
    fn shrink_strips_irrelevant_stream_faults() {
        // Only the producer crash matters; every scripted and seeded
        // stream fault around it must be stripped.
        let plan = FaultPlan::none()
            .kill_node(0, 4.0)
            .lose_fetches(0.2, 11)
            .stall_producer(1.0, 2.0)
            .crash_producer(5.0)
            .drop_frame(3)
            .drop_frame(9)
            .delay_frame(4, 1.5)
            .drop_frames(0.05)
            .duplicate_frames(0.07);
        let shrunk = shrink(&plan, |cand| {
            cand.producer_stalls().iter().any(|s| s.is_crash())
        });
        assert_eq!(shrunk.producer_stalls().len(), 1);
        assert!(shrunk.producer_stalls()[0].is_crash());
        assert!(shrunk.deaths().is_empty());
        assert!(shrunk.frame_drops().is_empty());
        assert!(shrunk.frame_delays().is_empty());
        assert_eq!(shrunk.lost_fetch_prob(), 0.0);
        assert_eq!(shrunk.frame_drop_prob(), 0.0);
        assert_eq!(shrunk.frame_dup_prob(), 0.0);
    }

    #[test]
    fn memory_oracles_catch_unaccounted_pressure() {
        let c = cfg();
        let base = workload(&FaultPlan::none(), false).unwrap();
        let plan = plan_for_seed(&c, 7);
        // Spilled bytes claimed in the report with no Spill events behind
        // them: conservation violation.
        let mut leaky = base.clone();
        leaky.report.bytes_spilled += 4096;
        let got = check_invariants(&c, &base, &plan, &Ok(leaky));
        assert!(got.is_some_and(|m| m.contains("spill bytes not conserved")));
        // Divergent results after eviction name the recompute path.
        let mut diverged = base.clone();
        diverged.fingerprint ^= 1;
        diverged.report.bytes_evicted = 2048;
        // Keep the conservation oracle quiet: the fingerprint check runs
        // first, so the eviction-specific message wins.
        let got = check_invariants(&c, &base, &plan, &Ok(diverged));
        assert!(got.is_some_and(|m| m.contains("evicted partitions were recomputed")));
        // A memory shrink alone is a valid plan that still satisfies every
        // oracle for a workload that never caches.
        let shrink_only = FaultPlan::none().shrink_memory(1, 2.0, 1 << 28);
        let got = check_invariants(&c, &base, &shrink_only, &workload(&shrink_only, false));
        assert!(got.is_none(), "shrink-only plan passes: {got:?}");
    }
}
