//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] scripts the failures a simulated run must survive:
//! nodes dying at a virtual time, cores running slow (stragglers), and
//! shuffle fetches lost on the wire. The plan is attached to a
//! [`Cluster`](crate::Cluster) and consulted by
//! [`SimExecutor`](crate::SimExecutor) at placement time, so every engine
//! sees the same failure script without any engine-API changes — each
//! engine then applies its own recovery semantics (lineage recompute,
//! rescheduling, DB re-enqueue, or whole-job abort).
//!
//! Everything is deterministic: deaths and slowdowns are explicit, and
//! lost fetches are decided by a seeded hash of `(map, reduce, attempt)`,
//! so two runs with the same plan observe identical failures.

use std::fmt::{self, Write};

/// A node that disappears at a virtual time: every core it hosts kills its
/// running task at `at_s` and accepts no further placements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeDeath {
    pub node: usize,
    pub at_s: f64,
}

/// A persistently slow core: task durations on it are multiplied by
/// `factor` (≥ 1) — the straggler pattern PMDA reports dominating variance
/// at scale.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Straggler {
    pub core: usize,
    pub factor: f64,
}

/// A node whose usable memory budget drops to `to_bytes` at virtual time
/// `at_s` — co-tenant pressure, a leaking sidecar, or an administrator
/// capping a cgroup. Engines consult the shrunk budget through
/// [`Cluster::mem_budget`](crate::Cluster::mem_budget) and must degrade
/// gracefully (spill, evict + recompute, admission-control, or a typed
/// `MemoryExhausted` error) — never panic or hang.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemShrink {
    pub node: usize,
    pub at_s: f64,
    pub to_bytes: u64,
}

/// A node whose usable memory budget is *replaced* with `to_bytes` at
/// virtual time `at_s` — unlike a [`MemShrink`], a set may raise the
/// budget back up (a co-tenant leaving, capacity returned after
/// maintenance). The latest-fired set wins; shrinks that fire after it
/// still tighten it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemSet {
    pub node: usize,
    pub at_s: f64,
    pub to_bytes: u64,
}

/// The trajectory producer pauses at virtual time `at_s` for `for_s`
/// seconds: frames it would have emitted during the pause are emitted late
/// (their *event* time — the simulation clock stamped on the frame — is
/// unchanged; only delivery shifts). An infinite `for_s` is a producer
/// *crash*: frames past the stall point are never delivered, and a
/// streaming consumer waiting on them must surface a typed
/// `StreamStalled` under its deadline instead of hanging.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProducerStall {
    pub at_s: f64,
    pub for_s: f64,
}

impl ProducerStall {
    /// True when this stall never ends — the producer crashed.
    pub fn is_crash(&self) -> bool {
        self.for_s.is_infinite()
    }
}

/// A scripted frame that is lost on the wire and never delivered (the
/// probabilistic twin is [`FaultPlan::frame_dropped`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrameDrop {
    pub frame: usize,
}

/// A scripted frame whose delivery is delayed by `by_s` seconds past its
/// nominal arrival — large delays past the allowed lateness turn the frame
/// into a *late* frame the watermark machinery must classify.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrameDelay {
    pub frame: usize,
    pub by_s: f64,
}

/// A scripted network partition: between `from_s` (inclusive) and `to_s`
/// (exclusive, the *heal* time) nodes listed in different groups cannot
/// exchange messages — no fetches, no heartbeats, no collectives. Nodes
/// not listed in any group form one implicit extra group of their own.
///
/// A partitioned node is *alive*: tasks already running on it keep
/// computing in virtual time. Only communication across the cut fails,
/// which is exactly what lets a suspicion-based failure detector
/// false-positive and create zombie attempts.
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    pub groups: Vec<Vec<usize>>,
    pub from_s: f64,
    pub to_s: f64,
}

impl Partition {
    /// Which side of this partition `node` is on: `Some(i)` for an
    /// explicitly listed group, `None` for the implicit remainder group.
    fn group_of(&self, node: usize) -> Option<usize> {
        self.groups.iter().position(|g| g.contains(&node))
    }

    /// True while this partition is in effect at `at_s` (half-open
    /// window: cut at `from_s`, healed at `to_s`).
    fn active_at(&self, at_s: f64) -> bool {
        self.from_s <= at_s && at_s < self.to_s
    }

    /// True if this partition separates `a` and `b` while active.
    pub fn separates(&self, a: usize, b: usize) -> bool {
        a != b && self.group_of(a) != self.group_of(b)
    }

    /// Every node this partition explicitly lists.
    fn listed_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.groups.iter().flatten().copied()
    }
}

/// Degraded (but not cut) connectivity between nodes `a` and `b` during
/// `[from_s, to_s)`: transfer latency is inflated by `latency_factor`
/// (≥ 1) and each message is independently lost with `loss_prob`
/// (re-sent by the transport, costing another round). The link is
/// symmetric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkDegrade {
    pub a: usize,
    pub b: usize,
    pub latency_factor: f64,
    pub loss_prob: f64,
    pub from_s: f64,
    pub to_s: f64,
}

impl LinkDegrade {
    /// True while this degradation is in effect at `at_s`.
    fn active_at(&self, at_s: f64) -> bool {
        self.from_s <= at_s && at_s < self.to_s
    }

    /// True if this degradation covers the (unordered) link `x`–`y`.
    pub fn covers(&self, x: usize, y: usize) -> bool {
        (self.a == x && self.b == y) || (self.a == y && self.b == x)
    }
}

/// Why a serialized or assembled [`FaultPlan`] was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultPlanError {
    /// The JSON text could not be parsed against the plan schema.
    Parse(String),
    /// A death, shrink, or straggler is scheduled at a negative time.
    NegativeTime { what: &'static str, at_s: f64 },
    /// A straggler factor below 1 (that would be a speedup).
    SubUnitFactor { core: usize, factor: f64 },
    /// A probability outside `[0, 1]`.
    InvalidProbability { prob: f64 },
    /// The same node is killed more than once — ambiguous at best,
    /// usually a generator bug.
    DuplicateDeath { node: usize },
    /// A node id at or beyond the cluster's node count.
    NodeOutOfRange {
        what: &'static str,
        node: usize,
        nodes: usize,
    },
    /// A core id at or beyond the cluster's core count.
    CoreOutOfRange { core: usize, cores: usize },
    /// A JSON key the schema does not know, at the plan level or inside a
    /// nested record. Rejected loudly (not skipped) so a plan written by a
    /// newer serializer — e.g. one carrying stream faults — can never be
    /// silently mis-read as a weaker plan by an older reader.
    UnknownField { context: &'static str, key: String },
    /// A partition or link-degrade window that heals at or before its cut
    /// (`to_s <= from_s`): the fault would never be in effect, which is
    /// always a generator or serialization bug.
    HealBeforeCut {
        what: &'static str,
        from_s: f64,
        to_s: f64,
    },
    /// The same node appears on two sides of concurrently active
    /// partitions (two groups of one partition, or two partitions whose
    /// windows overlap in time). Reachability would be ambiguous.
    OverlappingPartition { node: usize },
    /// A link latency factor below 1 (that would be a speedup).
    SubUnitLinkFactor { a: usize, b: usize, factor: f64 },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::Parse(msg) => write!(f, "malformed fault plan: {msg}"),
            FaultPlanError::NegativeTime { what, at_s } => {
                write!(f, "negative {what} time {at_s}")
            }
            FaultPlanError::SubUnitFactor { core, factor } => {
                write!(f, "straggler factor {factor} on core {core} is below 1")
            }
            FaultPlanError::InvalidProbability { prob } => {
                write!(f, "probability {prob} outside [0, 1]")
            }
            FaultPlanError::DuplicateDeath { node } => {
                write!(f, "node {node} is killed more than once")
            }
            FaultPlanError::NodeOutOfRange { what, node, nodes } => {
                write!(f, "{what} node {node} out of range for {nodes} nodes")
            }
            FaultPlanError::CoreOutOfRange { core, cores } => {
                write!(f, "straggler core {core} out of range for {cores} cores")
            }
            FaultPlanError::UnknownField { context, key } => {
                write!(f, "unknown {context} key {key:?}")
            }
            FaultPlanError::HealBeforeCut { what, from_s, to_s } => {
                write!(f, "{what} heals at {to_s} at or before its {from_s} cut")
            }
            FaultPlanError::OverlappingPartition { node } => {
                write!(f, "node {node} is in overlapping partition groups")
            }
            FaultPlanError::SubUnitLinkFactor { a, b, factor } => {
                write!(f, "link {a}-{b} latency factor {factor} is below 1")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A scripted set of failures for one simulated run. The chaos generator
/// and shrinker build and edit plans through the fields directly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    pub(crate) deaths: Vec<NodeDeath>,
    pub(crate) stragglers: Vec<Straggler>,
    pub(crate) mem_shrinks: Vec<MemShrink>,
    pub(crate) mem_sets: Vec<MemSet>,
    pub(crate) producer_stalls: Vec<ProducerStall>,
    pub(crate) frame_drops: Vec<FrameDrop>,
    pub(crate) frame_delays: Vec<FrameDelay>,
    pub(crate) partitions: Vec<Partition>,
    pub(crate) link_degrades: Vec<LinkDegrade>,
    pub(crate) lost_fetch_prob: f64,
    pub(crate) frame_drop_prob: f64,
    pub(crate) frame_dup_prob: f64,
    pub(crate) seed: u64,
}

impl FaultPlan {
    /// The empty plan: no failures (what `Cluster`s carry by default).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True if this plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.deaths.is_empty()
            && self.stragglers.is_empty()
            && self.mem_shrinks.is_empty()
            && self.mem_sets.is_empty()
            && self.producer_stalls.is_empty()
            && self.frame_drops.is_empty()
            && self.frame_delays.is_empty()
            && self.partitions.is_empty()
            && self.link_degrades.is_empty()
            && self.lost_fetch_prob <= 0.0
            && self.frame_drop_prob <= 0.0
            && self.frame_dup_prob <= 0.0
    }

    /// Kill `node` (all its cores) at virtual time `at_s`.
    pub fn kill_node(mut self, node: usize, at_s: f64) -> Self {
        assert!(at_s >= 0.0, "death time must be non-negative");
        self.deaths.push(NodeDeath { node, at_s });
        self
    }

    /// Slow every task on `core` by `factor` (≥ 1).
    pub fn slow_core(mut self, core: usize, factor: f64) -> Self {
        assert!(factor >= 1.0, "straggler factor must be >= 1");
        self.stragglers.push(Straggler { core, factor });
        self
    }

    /// Shrink `node`'s memory budget to `to_bytes` at virtual time `at_s`.
    /// Multiple shrinks on one node compose: the smallest budget in effect
    /// wins (budgets only ever tighten).
    pub fn shrink_memory(mut self, node: usize, at_s: f64, to_bytes: u64) -> Self {
        assert!(at_s >= 0.0, "shrink time must be non-negative");
        self.mem_shrinks.push(MemShrink {
            node,
            at_s,
            to_bytes,
        });
        self
    }

    /// Replace `node`'s memory budget with `to_bytes` at virtual time
    /// `at_s`. Unlike [`Self::shrink_memory`] a set may *raise* the budget
    /// (a co-tenant leaving, capacity returned after maintenance), which
    /// admission control can wait for. The latest-fired set wins; shrinks
    /// firing at or after the winning set still tighten it.
    pub fn set_memory(mut self, node: usize, at_s: f64, to_bytes: u64) -> Self {
        assert!(at_s >= 0.0, "set time must be non-negative");
        self.mem_sets.push(MemSet {
            node,
            at_s,
            to_bytes,
        });
        self
    }

    /// Make each shuffle fetch attempt fail independently with probability
    /// `prob`, decided deterministically from `seed`.
    pub fn lose_fetches(mut self, prob: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability must be in [0, 1]");
        self.lost_fetch_prob = prob;
        self.seed = seed;
        self
    }

    /// Set the seed deciding probabilistic faults (lost fetches, frame
    /// drops, frame duplicates) without touching any probability.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pause the trajectory producer at virtual time `at_s` for `for_s`
    /// seconds. Frames due during the pause are delivered late; their
    /// event-time stamps are unchanged.
    pub fn stall_producer(mut self, at_s: f64, for_s: f64) -> Self {
        assert!(at_s >= 0.0, "stall time must be non-negative");
        assert!(for_s > 0.0, "stall length must be positive");
        self.producer_stalls.push(ProducerStall { at_s, for_s });
        self
    }

    /// Crash the trajectory producer at virtual time `at_s`: frames not
    /// yet emitted are never delivered (an infinite [`ProducerStall`]).
    pub fn crash_producer(mut self, at_s: f64) -> Self {
        assert!(at_s >= 0.0, "crash time must be non-negative");
        self.producer_stalls.push(ProducerStall {
            at_s,
            for_s: f64::INFINITY,
        });
        self
    }

    /// Lose the delivery of one scripted frame outright.
    pub fn drop_frame(mut self, frame: usize) -> Self {
        self.frame_drops.push(FrameDrop { frame });
        self
    }

    /// Delay the delivery of one scripted frame by `by_s` seconds past its
    /// nominal arrival. Multiple delays on one frame accumulate.
    pub fn delay_frame(mut self, frame: usize, by_s: f64) -> Self {
        assert!(by_s >= 0.0, "frame delay must be non-negative");
        self.frame_delays.push(FrameDelay { frame, by_s });
        self
    }

    /// Cut the network between `groups` of nodes from `from_s` until the
    /// partition *heals* at `to_s`. Nodes in different groups (or not
    /// listed at all — the implicit remainder group) cannot exchange any
    /// message while the cut is in effect; tasks already running on a
    /// partitioned node keep computing. Overlap with other partitions of
    /// the same node is rejected by [`Self::from_json`]; builders trust
    /// the caller.
    pub fn partition(mut self, groups: Vec<Vec<usize>>, from_s: f64, to_s: f64) -> Self {
        assert!(from_s >= 0.0, "partition cut time must be non-negative");
        assert!(to_s > from_s, "partition must heal after its cut");
        self.partitions.push(Partition {
            groups,
            from_s,
            to_s,
        });
        self
    }

    /// Degrade the link between `a` and `b` during `[from_s, to_s)`:
    /// latency inflated by `latency_factor` (≥ 1), each message lost with
    /// `loss_prob` (decided by the plan seed) and re-sent.
    pub fn degrade_link(
        mut self,
        a: usize,
        b: usize,
        latency_factor: f64,
        loss_prob: f64,
        from_s: f64,
        to_s: f64,
    ) -> Self {
        assert!(latency_factor >= 1.0, "link latency factor must be >= 1");
        assert!(
            (0.0..=1.0).contains(&loss_prob),
            "probability must be in [0, 1]"
        );
        assert!(from_s >= 0.0, "degrade time must be non-negative");
        assert!(to_s > from_s, "degrade must end after it starts");
        self.link_degrades.push(LinkDegrade {
            a,
            b,
            latency_factor,
            loss_prob,
            from_s,
            to_s,
        });
        self
    }

    /// Drop each streamed frame independently with probability `prob`,
    /// decided deterministically from the plan seed (set it with
    /// [`Self::seeded`] or [`Self::lose_fetches`]).
    pub fn drop_frames(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability must be in [0, 1]");
        self.frame_drop_prob = prob;
        self
    }

    /// Deliver each streamed frame a second time with probability `prob`
    /// (duplicate delivery — at-least-once transports do this), decided
    /// deterministically from the plan seed.
    pub fn duplicate_frames(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability must be in [0, 1]");
        self.frame_dup_prob = prob;
        self
    }

    /// Earliest death time of `node`, if the plan kills it.
    pub fn node_death(&self, node: usize) -> Option<f64> {
        self.deaths
            .iter()
            .filter(|d| d.node == node)
            .map(|d| d.at_s)
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.min(t))))
    }

    /// Duration multiplier for tasks on `core` (1.0 if not a straggler;
    /// factors compose multiplicatively if listed twice).
    pub fn slowdown(&self, core: usize) -> f64 {
        self.stragglers
            .iter()
            .filter(|s| s.core == core)
            .map(|s| s.factor)
            .product()
    }

    /// The scripted node deaths, in insertion order.
    pub fn deaths(&self) -> &[NodeDeath] {
        &self.deaths
    }

    /// The scripted straggler cores, in insertion order.
    pub fn stragglers(&self) -> &[Straggler] {
        &self.stragglers
    }

    /// The scripted memory shrinks, in insertion order.
    pub fn mem_shrinks(&self) -> &[MemShrink] {
        &self.mem_shrinks
    }

    /// The scripted memory sets, in insertion order.
    pub fn mem_sets(&self) -> &[MemSet] {
        &self.mem_sets
    }

    /// The scripted producer stalls, in insertion order.
    pub fn producer_stalls(&self) -> &[ProducerStall] {
        &self.producer_stalls
    }

    /// The scripted frame drops, in insertion order.
    pub fn frame_drops(&self) -> &[FrameDrop] {
        &self.frame_drops
    }

    /// The scripted frame delays, in insertion order.
    pub fn frame_delays(&self) -> &[FrameDelay] {
        &self.frame_delays
    }

    /// The scripted network partitions, in insertion order.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// The scripted link degradations, in insertion order.
    pub fn link_degrades(&self) -> &[LinkDegrade] {
        &self.link_degrades
    }

    /// Fast gate for the partition-aware placement path: plans without
    /// partitions never ask for a core's reachability and keep the exact
    /// legacy schedule, bit for bit.
    pub fn has_partitions(&self) -> bool {
        !self.partitions.is_empty()
    }

    /// Can `a` and `b` exchange a message at `at_s`? False while any
    /// active partition separates them. A node can always reach itself.
    pub fn can_reach(&self, a: usize, b: usize, at_s: f64) -> bool {
        a == b
            || !self
                .partitions
                .iter()
                .any(|p| p.active_at(at_s) && p.separates(a, b))
    }

    /// The partition window separating `a` and `b` at `at_s`, if any.
    /// Plans validated against overlap have at most one.
    pub fn cut_between(&self, a: usize, b: usize, at_s: f64) -> Option<(f64, f64)> {
        self.partitions
            .iter()
            .filter(|p| p.active_at(at_s) && p.separates(a, b))
            .map(|p| (p.from_s, p.to_s))
            .fold(None, |acc: Option<(f64, f64)>, w| {
                Some(acc.map_or(w, |a| if w.1 > a.1 { w } else { a }))
            })
    }

    /// Earliest cut separating `a` and `b` that begins strictly after
    /// `after_s`, as a `(cut_s, heal_s)` window.
    pub fn next_cut_after(&self, a: usize, b: usize, after_s: f64) -> Option<(f64, f64)> {
        self.partitions
            .iter()
            .filter(|p| p.from_s > after_s && p.separates(a, b))
            .map(|p| (p.from_s, p.to_s))
            .fold(None, |acc: Option<(f64, f64)>, w| {
                Some(acc.map_or(w, |a| if w.0 < a.0 { w } else { a }))
            })
    }

    /// Earliest time ≥ `at_s` at which `a` can reach `b`, walking
    /// through (possibly back-to-back) partition windows. Partitions are
    /// finite, so this always terminates and returns a finite time.
    pub fn earliest_reach(&self, a: usize, b: usize, at_s: f64) -> f64 {
        let mut t = at_s;
        while let Some((_, heal)) = self.cut_between(a, b, t) {
            t = heal;
        }
        t
    }

    /// Latency multiplier for a transfer on the link `a`–`b` at `at_s`
    /// (1.0 on a healthy link; concurrent degradations compose).
    pub fn link_latency_factor(&self, a: usize, b: usize, at_s: f64) -> f64 {
        self.link_degrades
            .iter()
            .filter(|d| d.active_at(at_s) && d.covers(a, b))
            .map(|d| d.latency_factor)
            .product()
    }

    /// Whether the `attempt`-th send over link `a`–`b` at `at_s` is lost
    /// to link degradation (the transport pays for it and re-sends).
    /// Deterministic in the plan's seed; the link is symmetric so the
    /// coin is too.
    pub fn link_lost(&self, a: usize, b: usize, attempt: usize, at_s: f64) -> bool {
        let prob: f64 = self
            .link_degrades
            .iter()
            .filter(|d| d.active_at(at_s) && d.covers(a, b))
            .map(|d| d.loss_prob)
            .fold(0.0, |acc, p| 1.0 - (1.0 - acc) * (1.0 - p));
        if prob <= 0.0 {
            return false;
        }
        let (lo, hi) = (a.min(b) as u64, a.max(b) as u64);
        let key = mix(self.seed ^ mix(0x1a7e_917c))
            ^ mix(lo)
            ^ mix(hi << 20)
            ^ mix((attempt as u64) << 40);
        let u = (mix(key) >> 11) as f64 / (1u64 << 53) as f64;
        u < prob
    }

    /// Total scripted delivery delay for `frame` (0 if none).
    pub fn frame_delay(&self, frame: usize) -> f64 {
        self.frame_delays
            .iter()
            .filter(|d| d.frame == frame)
            .map(|d| d.by_s)
            .sum()
    }

    /// Memory budget cap in effect on `node` at time `at_s` (`None` if the
    /// node's memory is untouched so far). The latest-fired *set*
    /// establishes the base (sets may grow the budget back); shrinks that
    /// fired at or after that set — or all fired shrinks, when no set has
    /// fired — compose on top of it, smallest wins (shrinks only tighten).
    pub fn mem_limit(&self, node: usize, at_s: f64) -> Option<u64> {
        let latest_set = self
            .mem_sets
            .iter()
            .filter(|m| m.node == node && m.at_s <= at_s)
            .max_by(|a, b| a.at_s.total_cmp(&b.at_s));
        let since = latest_set.map(|m| m.at_s);
        let shrink = self
            .mem_shrinks
            .iter()
            .filter(|m| m.node == node && m.at_s <= at_s)
            .filter(|m| since.is_none_or(|t| m.at_s >= t))
            .map(|m| m.to_bytes)
            .min();
        match (latest_set.map(|m| m.to_bytes), shrink) {
            (Some(s), Some(k)) => Some(s.min(k)),
            (Some(s), None) => Some(s),
            (None, k) => k,
        }
    }

    /// Earliest virtual time strictly after `after_s` at which any node's
    /// memory budget changes (a shrink or a set fires). Admission control
    /// uses this to *wait* for a budget that will grow rather than refusing
    /// a unit that only fails to fit right now; `None` means the budgets
    /// are final and a refusal is forever.
    pub fn next_mem_change_after(&self, after_s: f64) -> Option<f64> {
        self.mem_shrinks
            .iter()
            .map(|m| m.at_s)
            .chain(self.mem_sets.iter().map(|m| m.at_s))
            .filter(|&t| t > after_s)
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.min(t))))
    }

    /// Per-fetch loss probability (0 when fetches are reliable).
    pub fn lost_fetch_prob(&self) -> f64 {
        self.lost_fetch_prob
    }

    /// Per-frame probabilistic drop probability (0 when delivery is
    /// reliable apart from scripted drops).
    pub fn frame_drop_prob(&self) -> f64 {
        self.frame_drop_prob
    }

    /// Per-frame duplicate-delivery probability.
    pub fn frame_dup_prob(&self) -> f64 {
        self.frame_dup_prob
    }

    /// Seed deciding which fetches are lost.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Check every node/core id against an actual cluster shape. Parsing
    /// ([`Self::from_json`]) cannot do this — the JSON carries no cluster
    /// size — so callers replaying external plans should validate before
    /// attaching them.
    pub fn validate(&self, nodes: usize, cores: usize) -> Result<(), FaultPlanError> {
        for d in &self.deaths {
            if d.node >= nodes {
                return Err(FaultPlanError::NodeOutOfRange {
                    what: "death",
                    node: d.node,
                    nodes,
                });
            }
        }
        for s in &self.stragglers {
            if s.core >= cores {
                return Err(FaultPlanError::CoreOutOfRange {
                    core: s.core,
                    cores,
                });
            }
        }
        for m in &self.mem_shrinks {
            if m.node >= nodes {
                return Err(FaultPlanError::NodeOutOfRange {
                    what: "mem_shrink",
                    node: m.node,
                    nodes,
                });
            }
        }
        for m in &self.mem_sets {
            if m.node >= nodes {
                return Err(FaultPlanError::NodeOutOfRange {
                    what: "mem_set",
                    node: m.node,
                    nodes,
                });
            }
        }
        for p in &self.partitions {
            if let Some(node) = p.listed_nodes().find(|&n| n >= nodes) {
                return Err(FaultPlanError::NodeOutOfRange {
                    what: "partition",
                    node,
                    nodes,
                });
            }
        }
        for d in &self.link_degrades {
            if let Some(node) = [d.a, d.b].into_iter().find(|&n| n >= nodes) {
                return Err(FaultPlanError::NodeOutOfRange {
                    what: "link",
                    node,
                    nodes,
                });
            }
        }
        Ok(())
    }

    /// Serialize to JSON so shrunk chaos counterexamples can be attached
    /// to CI runs and replayed. The workspace deliberately carries no
    /// serde dependency (it is built offline), so this is hand-rolled —
    /// floats use Rust's shortest round-trip formatting.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write_json(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    fn write_json(&self, out: &mut String) -> fmt::Result {
        /// `head` then `[item,item,…]`, each item written straight into
        /// `out`.
        fn list<T>(
            out: &mut String,
            head: &str,
            items: &[T],
            mut item: impl FnMut(&mut String, &T) -> fmt::Result,
        ) -> fmt::Result {
            out.push_str(head);
            out.push('[');
            for (i, x) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                item(out, x)?;
            }
            out.push(']');
            Ok(())
        }
        list(out, "{\"deaths\":", &self.deaths, |o, d| {
            write!(o, "{{\"node\":{},\"at_s\":{:?}}}", d.node, d.at_s)
        })?;
        list(out, ",\"stragglers\":", &self.stragglers, |o, s| {
            write!(o, "{{\"core\":{},\"factor\":{:?}}}", s.core, s.factor)
        })?;
        list(out, ",\"mem_shrinks\":", &self.mem_shrinks, |o, m| {
            write!(
                o,
                "{{\"node\":{},\"at_s\":{:?},\"to_bytes\":{}}}",
                m.node, m.at_s, m.to_bytes
            )
        })?;
        list(out, ",\"mem_sets\":", &self.mem_sets, |o, m| {
            write!(
                o,
                "{{\"node\":{},\"at_s\":{:?},\"to_bytes\":{}}}",
                m.node, m.at_s, m.to_bytes
            )
        })?;
        list(
            out,
            ",\"producer_stalls\":",
            &self.producer_stalls,
            |o, s| {
                // JSON has no Infinity literal: a crash (an endless stall) is
                // written as the sentinel -1.0.
                let for_s = if s.is_crash() { -1.0 } else { s.for_s };
                write!(o, "{{\"at_s\":{:?},\"for_s\":{for_s:?}}}", s.at_s)
            },
        )?;
        list(out, ",\"frame_drops\":", &self.frame_drops, |o, d| {
            write!(o, "{}", d.frame)
        })?;
        list(out, ",\"frame_delays\":", &self.frame_delays, |o, d| {
            write!(o, "{{\"frame\":{},\"by_s\":{:?}}}", d.frame, d.by_s)
        })?;
        list(out, ",\"partitions\":", &self.partitions, |o, p| {
            list(o, "{\"groups\":", &p.groups, |o, g| {
                list(o, "", g, |o, n| write!(o, "{n}"))
            })?;
            write!(o, ",\"from_s\":{:?},\"to_s\":{:?}}}", p.from_s, p.to_s)
        })?;
        list(out, ",\"links\":", &self.link_degrades, |o, d| {
            write!(
                o,
                "{{\"a\":{},\"b\":{},\"latency_factor\":{:?},\"loss_prob\":{:?},\"from_s\":{:?},\"to_s\":{:?}}}",
                d.a, d.b, d.latency_factor, d.loss_prob, d.from_s, d.to_s
            )
        })?;
        write!(
            out,
            ",\"lost_fetch_prob\":{:?},\"frame_drop_prob\":{:?},\"frame_dup_prob\":{:?},\"seed\":{}}}",
            self.lost_fetch_prob, self.frame_drop_prob, self.frame_dup_prob, self.seed
        )
    }

    /// Parse a plan previously written by [`Self::to_json`] (whitespace
    /// and key order are flexible; unknown and repeated keys are rejected,
    /// ids and byte counts must be exact unsigned integers and every other
    /// number finite). Beyond the grammar, the plan itself is validated:
    /// negative times, sub-unit straggler factors, out-of-range
    /// probabilities and duplicate node deaths are rejected with a typed
    /// [`FaultPlanError`] instead of being silently accepted. Node/core
    /// *range* checks need a cluster shape — use [`Self::validate`] for
    /// those.
    pub fn from_json(json: &str) -> Result<FaultPlan, FaultPlanError> {
        let plan = Self::from_json_grammar(json)?;
        for prob in [
            plan.lost_fetch_prob,
            plan.frame_drop_prob,
            plan.frame_dup_prob,
        ] {
            if !(0.0..=1.0).contains(&prob) {
                return Err(FaultPlanError::InvalidProbability { prob });
            }
        }
        if let Some(d) = plan.deaths.iter().find(|d| d.at_s < 0.0) {
            return Err(FaultPlanError::NegativeTime {
                what: "death",
                at_s: d.at_s,
            });
        }
        if let Some(m) = plan.mem_shrinks.iter().find(|m| m.at_s < 0.0) {
            return Err(FaultPlanError::NegativeTime {
                what: "mem_shrink",
                at_s: m.at_s,
            });
        }
        if let Some(m) = plan.mem_sets.iter().find(|m| m.at_s < 0.0) {
            return Err(FaultPlanError::NegativeTime {
                what: "mem_set",
                at_s: m.at_s,
            });
        }
        if let Some(s) = plan.stragglers.iter().find(|s| s.factor < 1.0) {
            return Err(FaultPlanError::SubUnitFactor {
                core: s.core,
                factor: s.factor,
            });
        }
        if let Some(s) = plan.producer_stalls.iter().find(|s| s.at_s < 0.0) {
            return Err(FaultPlanError::NegativeTime {
                what: "producer_stall",
                at_s: s.at_s,
            });
        }
        if let Some(s) = plan.producer_stalls.iter().find(|s| s.for_s <= 0.0) {
            return Err(FaultPlanError::NegativeTime {
                what: "producer_stall length",
                at_s: s.for_s,
            });
        }
        if let Some(d) = plan.frame_delays.iter().find(|d| d.by_s < 0.0) {
            return Err(FaultPlanError::NegativeTime {
                what: "frame_delay",
                at_s: d.by_s,
            });
        }
        for (i, d) in plan.deaths.iter().enumerate() {
            if plan.deaths[..i].iter().any(|e| e.node == d.node) {
                return Err(FaultPlanError::DuplicateDeath { node: d.node });
            }
        }
        for p in &plan.partitions {
            if p.from_s < 0.0 {
                return Err(FaultPlanError::NegativeTime {
                    what: "partition",
                    at_s: p.from_s,
                });
            }
            if p.to_s <= p.from_s {
                return Err(FaultPlanError::HealBeforeCut {
                    what: "partition",
                    from_s: p.from_s,
                    to_s: p.to_s,
                });
            }
            // A node listed in two groups of the same partition would sit
            // on both sides of its own cut.
            for (gi, g) in p.groups.iter().enumerate() {
                for &n in g {
                    if p.groups[..gi].iter().any(|h| h.contains(&n))
                        || g.iter().filter(|&&m| m == n).count() > 1
                    {
                        return Err(FaultPlanError::OverlappingPartition { node: n });
                    }
                }
            }
        }
        // Two partitions whose windows overlap in time must not list the
        // same node — reachability would be ambiguous.
        for (i, p) in plan.partitions.iter().enumerate() {
            for q in &plan.partitions[..i] {
                if p.from_s < q.to_s && q.from_s < p.to_s {
                    if let Some(n) = p.listed_nodes().find(|&n| q.listed_nodes().any(|m| m == n)) {
                        return Err(FaultPlanError::OverlappingPartition { node: n });
                    }
                }
            }
        }
        for d in &plan.link_degrades {
            if d.from_s < 0.0 {
                return Err(FaultPlanError::NegativeTime {
                    what: "link",
                    at_s: d.from_s,
                });
            }
            if d.to_s <= d.from_s {
                return Err(FaultPlanError::HealBeforeCut {
                    what: "link",
                    from_s: d.from_s,
                    to_s: d.to_s,
                });
            }
            if d.latency_factor < 1.0 {
                return Err(FaultPlanError::SubUnitLinkFactor {
                    a: d.a,
                    b: d.b,
                    factor: d.latency_factor,
                });
            }
            if !(0.0..=1.0).contains(&d.loss_prob) {
                return Err(FaultPlanError::InvalidProbability { prob: d.loss_prob });
            }
        }
        Ok(plan)
    }

    /// The grammar half of [`Self::from_json`]: one walk over the parsed
    /// document, record by record, with no semantic validation. Unknown
    /// keys — at the plan level or inside any nested record — surface as
    /// [`FaultPlanError::UnknownField`] so newer plans fail loudly in older
    /// readers.
    fn from_json_grammar(json: &str) -> Result<FaultPlan, FaultPlanError> {
        let doc = Value::parse(json)?;
        let keys = [
            "deaths",
            "stragglers",
            "mem_shrinks",
            "mem_sets",
            "producer_stalls",
            "frame_drops",
            "frame_delays",
            "partitions",
            "links",
            "lost_fetch_prob",
            "frame_drop_prob",
            "frame_dup_prob",
            "seed",
        ];
        let plan = Record::new(&doc, "plan", &keys)?;
        let prob = |key| plan.opt(key).map_or(Ok(0.0), Value::num);
        Ok(FaultPlan {
            deaths: plan.list("deaths", |v| {
                let r = Record::new(v, "death", &["node", "at_s"])?;
                Ok(NodeDeath {
                    node: r.get("node")?.int()?,
                    at_s: r.get("at_s")?.num()?,
                })
            })?,
            stragglers: plan.list("stragglers", |v| {
                let r = Record::new(v, "straggler", &["core", "factor"])?;
                Ok(Straggler {
                    core: r.get("core")?.int()?,
                    factor: r.get("factor")?.num()?,
                })
            })?,
            mem_shrinks: plan.list("mem_shrinks", |v| {
                let r = Record::new(v, "mem_shrink", &["node", "at_s", "to_bytes"])?;
                Ok(MemShrink {
                    node: r.get("node")?.int()?,
                    at_s: r.get("at_s")?.num()?,
                    to_bytes: r.get("to_bytes")?.int()?,
                })
            })?,
            mem_sets: plan.list("mem_sets", |v| {
                let r = Record::new(v, "mem_set", &["node", "at_s", "to_bytes"])?;
                Ok(MemSet {
                    node: r.get("node")?.int()?,
                    at_s: r.get("at_s")?.num()?,
                    to_bytes: r.get("to_bytes")?.int()?,
                })
            })?,
            producer_stalls: plan.list("producer_stalls", |v| {
                let r = Record::new(v, "producer_stall", &["at_s", "for_s"])?;
                // Exactly -1.0 is the written form of a crash's endless
                // stall; any other negative length is rejected by
                // `from_json`.
                let for_s = r.get("for_s")?.num()?;
                Ok(ProducerStall {
                    at_s: r.get("at_s")?.num()?,
                    for_s: if for_s == -1.0 { f64::INFINITY } else { for_s },
                })
            })?,
            frame_drops: plan.list("frame_drops", |v| Ok(FrameDrop { frame: v.int()? }))?,
            frame_delays: plan.list("frame_delays", |v| {
                let r = Record::new(v, "frame_delay", &["frame", "by_s"])?;
                Ok(FrameDelay {
                    frame: r.get("frame")?.int()?,
                    by_s: r.get("by_s")?.num()?,
                })
            })?,
            partitions: plan.list("partitions", |v| {
                let r = Record::new(v, "partition", &["groups", "from_s", "to_s"])?;
                Ok(Partition {
                    groups: r.get("groups")?.list(|g| g.list(Value::int))?,
                    from_s: r.get("from_s")?.num()?,
                    to_s: r.get("to_s")?.num()?,
                })
            })?,
            link_degrades: plan.list("links", |v| {
                let keys = ["a", "b", "latency_factor", "loss_prob", "from_s", "to_s"];
                let r = Record::new(v, "link", &keys)?;
                Ok(LinkDegrade {
                    a: r.get("a")?.int()?,
                    b: r.get("b")?.int()?,
                    latency_factor: r.get("latency_factor")?.num()?,
                    loss_prob: r.get("loss_prob")?.num()?,
                    from_s: r.get("from_s")?.num()?,
                    to_s: r.get("to_s")?.num()?,
                })
            })?,
            lost_fetch_prob: prob("lost_fetch_prob")?,
            frame_drop_prob: prob("frame_drop_prob")?,
            frame_dup_prob: prob("frame_dup_prob")?,
            seed: plan.opt("seed").map_or(Ok(0), Value::int)?,
        })
    }

    /// Whether the `attempt`-th fetch of map output `map_part` by reducer
    /// `reduce_part` is lost. Deterministic in the plan's seed.
    pub fn fetch_lost(&self, map_part: usize, reduce_part: usize, attempt: usize) -> bool {
        if self.lost_fetch_prob <= 0.0 {
            return false;
        }
        let key = mix(self.seed)
            ^ mix(map_part as u64)
            ^ mix((reduce_part as u64) << 20)
            ^ mix((attempt as u64) << 40);
        let u = (mix(key) >> 11) as f64 / (1u64 << 53) as f64;
        u < self.lost_fetch_prob
    }

    /// Whether streamed frame `frame` is probabilistically lost in
    /// transit. Deterministic in the plan's seed; independent of
    /// [`Self::fetch_lost`] and [`Self::frame_duplicated`] by salting.
    pub fn frame_dropped(&self, frame: usize) -> bool {
        self.frame_coin(frame, 0x5ead_f0a1, self.frame_drop_prob)
    }

    /// Whether streamed frame `frame` is delivered a second time.
    /// Deterministic in the plan's seed.
    pub fn frame_duplicated(&self, frame: usize) -> bool {
        self.frame_coin(frame, 0xd0b1_e77e, self.frame_dup_prob)
    }

    /// Deterministic per-frame transit jitter in `[0, max_s)`, seeded like
    /// the frame coins (and salted independently of them).
    pub fn frame_jitter(&self, frame: usize, max_s: f64) -> f64 {
        if max_s <= 0.0 {
            return 0.0;
        }
        let key = mix(self.seed ^ mix(0x717e_4a2b)) ^ mix(frame as u64);
        let u = (mix(key) >> 11) as f64 / (1u64 << 53) as f64;
        u * max_s
    }

    fn frame_coin(&self, frame: usize, salt: u64, prob: f64) -> bool {
        if prob <= 0.0 {
            return false;
        }
        let key = mix(self.seed ^ mix(salt)) ^ mix(frame as u64);
        let u = (mix(key) >> 11) as f64 / (1u64 << 53) as f64;
        u < prob
    }
}

fn parse_error(msg: impl Into<String>) -> FaultPlanError {
    FaultPlanError::Parse(msg.into())
}

/// Containers nest at most this deep in a plan: plan → partitions →
/// partition → groups → group.
const MAX_DEPTH: usize = 5;

/// One JSON value of the plan grammar, borrowing the text it was read
/// from. Numbers stay text until the schema says whether a field is an
/// exact integer or a float.
enum Value<'a> {
    Num(&'a str),
    Arr(Vec<Value<'a>>),
    Obj(Vec<(&'a str, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// Parse a whole document: one value and nothing after it. The grammar
    /// is what the plan schema needs — objects with escape-free string
    /// keys, arrays and numbers — and no more.
    fn parse(text: &'a str) -> Result<Self, FaultPlanError> {
        let mut p = Parser { text, pos: 0 };
        let value = p.value(0)?;
        match p.peek() {
            None => Ok(value),
            Some(_) => Err(parse_error(format!("trailing input at byte {}", p.pos))),
        }
    }

    fn list<T>(
        &self,
        item: impl FnMut(&Value<'a>) -> Result<T, FaultPlanError>,
    ) -> Result<Vec<T>, FaultPlanError> {
        match self {
            Value::Arr(items) => items.iter().map(item).collect(),
            _ => Err(parse_error("expected an array")),
        }
    }

    fn text(&self) -> Result<&'a str, FaultPlanError> {
        match self {
            Value::Num(text) => Ok(text),
            _ => Err(parse_error("expected a number")),
        }
    }

    /// A time, factor or probability: any finite float.
    fn num(&self) -> Result<f64, FaultPlanError> {
        let text = self.text()?;
        text.parse()
            .ok()
            .filter(|v: &f64| v.is_finite())
            .ok_or_else(|| parse_error(format!("{text:?} is not a finite number")))
    }

    /// An id, byte count or seed: an exact unsigned integer (u64 seeds
    /// exceed f64's 53-bit mantissa, so none of these pass through a float).
    fn int<T: std::str::FromStr>(&self) -> Result<T, FaultPlanError> {
        let text = self.text()?;
        text.parse()
            .ok()
            .ok_or_else(|| parse_error(format!("{text:?} is not an unsigned integer")))
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    /// The next byte after any whitespace, not consumed.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), FaultPlanError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(parse_error(format!(
                "expected {:?} at byte {}",
                c as char, self.pos
            )))
        }
    }

    /// One value inside `depth` enclosing containers.
    fn value(&mut self, depth: usize) -> Result<Value<'a>, FaultPlanError> {
        let close = match self.peek() {
            Some(b'[') => b']',
            Some(b'{') => b'}',
            _ => return self.number(),
        };
        if depth == MAX_DEPTH {
            return Err(parse_error(format!(
                "nested deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.pos += 1;
        let (mut items, mut fields) = (Vec::new(), Vec::new());
        if !self.eat(close) {
            loop {
                if close == b'}' {
                    let key = self.key()?;
                    self.expect(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                } else {
                    items.push(self.value(depth + 1)?);
                }
                if self.eat(close) {
                    break;
                }
                self.expect(b',')?;
            }
        }
        Ok(if close == b'}' {
            Value::Obj(fields)
        } else {
            Value::Arr(items)
        })
    }

    /// An object key: a string without escapes (the schema needs none).
    fn key(&mut self) -> Result<&'a str, FaultPlanError> {
        self.expect(b'"')?;
        let rest = &self.text[self.pos..];
        match rest.find(['"', '\\']) {
            Some(end) if rest.as_bytes()[end] == b'"' => {
                self.pos += end + 1;
                Ok(&rest[..end])
            }
            _ => Err(parse_error(format!(
                "unterminated or escaped key at byte {}",
                self.pos
            ))),
        }
    }

    fn number(&mut self) -> Result<Value<'a>, FaultPlanError> {
        let start = self.pos;
        let len = self.text.as_bytes()[start..]
            .iter()
            .take_while(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            .count();
        if len == 0 {
            return Err(parse_error(format!("expected a value at byte {start}")));
        }
        self.pos += len;
        Ok(Value::Num(&self.text[start..self.pos]))
    }
}

/// One object of the plan schema with its keys checked: each is a key the
/// schema knows for `context`, and none is repeated.
struct Record<'v, 'a> {
    context: &'static str,
    fields: &'v [(&'a str, Value<'a>)],
}

impl<'v, 'a> Record<'v, 'a> {
    fn new(
        value: &'v Value<'a>,
        context: &'static str,
        keys: &[&str],
    ) -> Result<Self, FaultPlanError> {
        let Value::Obj(fields) = value else {
            return Err(parse_error(format!("{context} is not an object")));
        };
        for (i, (key, _)) in fields.iter().enumerate() {
            if !keys.contains(key) {
                return Err(FaultPlanError::UnknownField {
                    context,
                    key: key.to_string(),
                });
            }
            if fields[..i].iter().any(|(k, _)| k == key) {
                return Err(parse_error(format!("repeated {context} key {key:?}")));
            }
        }
        Ok(Record { context, fields })
    }

    fn opt(&self, key: &str) -> Option<&'v Value<'a>> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    fn get(&self, key: &str) -> Result<&'v Value<'a>, FaultPlanError> {
        self.opt(key)
            .ok_or_else(|| parse_error(format!("{} missing {key:?}", self.context)))
    }

    /// A list field. An absent list reads as empty, so plans written before
    /// the field existed still parse.
    fn list<T>(
        &self,
        key: &str,
        item: impl FnMut(&Value<'a>) -> Result<T, FaultPlanError>,
    ) -> Result<Vec<T>, FaultPlanError> {
        self.opt(key).map_or(Ok(Vec::new()), |v| v.list(item))
    }
}

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.node_death(0), None);
        assert_eq!(p.slowdown(3), 1.0);
        assert!(!p.fetch_lost(0, 0, 0));
    }

    #[test]
    fn builders_accumulate() {
        let p = FaultPlan::none()
            .kill_node(1, 5.0)
            .kill_node(1, 3.0)
            .slow_core(2, 4.0)
            .slow_core(2, 2.0);
        assert!(!p.is_empty());
        assert_eq!(p.node_death(1), Some(3.0), "earliest death wins");
        assert_eq!(p.node_death(0), None);
        assert_eq!(p.slowdown(2), 8.0, "factors compose");
        assert_eq!(p.slowdown(0), 1.0);
    }

    #[test]
    fn lost_fetches_are_deterministic_and_roughly_calibrated() {
        let p = FaultPlan::none().lose_fetches(0.25, 42);
        let q = FaultPlan::none().lose_fetches(0.25, 42);
        let mut lost = 0;
        let n = 4000;
        for i in 0..n {
            let a = p.fetch_lost(i, i / 7, 0);
            assert_eq!(a, q.fetch_lost(i, i / 7, 0), "same seed, same outcome");
            lost += usize::from(a);
        }
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.05, "loss rate {rate} far from 0.25");
        // Retry attempts are independent coin flips, not a replay.
        assert!((0..64).any(|i| p.fetch_lost(i, 0, 0) != p.fetch_lost(i, 0, 1)));
    }

    #[test]
    #[should_panic]
    fn sub_unit_straggler_rejected() {
        FaultPlan::none().slow_core(0, 0.5);
    }

    // ---- JSON round-trip ----

    #[test]
    fn json_round_trips_exactly() {
        let p = FaultPlan::none()
            .kill_node(3, 1.5)
            .kill_node(0, 0.1 + 0.2) // a value with no short decimal form
            .slow_core(2, 4.75)
            .lose_fetches(0.12345678901234567, 0xdead_beef);
        let json = p.to_json();
        let q = FaultPlan::from_json(&json).unwrap();
        assert_eq!(p, q, "round-trip must be exact, bit-for-bit");
        assert_eq!(q.to_json(), json, "re-serialization is stable");
    }

    #[test]
    fn empty_plan_round_trips() {
        let p = FaultPlan::none();
        let q = FaultPlan::from_json(&p.to_json()).unwrap();
        assert!(q.is_empty());
        assert_eq!(p, q);
    }

    #[test]
    fn json_tolerates_whitespace_and_key_order() {
        let json = r#" {
            "seed": 7,
            "stragglers": [ { "factor": 2.0, "core": 1 } ],
            "lost_fetch_prob": 0.5,
            "deaths": [ { "at_s": 3.25, "node": 0 } ]
        } "#;
        let p = FaultPlan::from_json(json).unwrap();
        assert_eq!(p.seed(), 7);
        assert_eq!(p.lost_fetch_prob(), 0.5);
        assert_eq!(
            p.deaths(),
            &[NodeDeath {
                node: 0,
                at_s: 3.25
            }]
        );
        assert_eq!(
            p.stragglers(),
            &[Straggler {
                core: 1,
                factor: 2.0
            }]
        );
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(FaultPlan::from_json("").is_err());
        assert!(FaultPlan::from_json("{}").unwrap().is_empty());
        assert!(FaultPlan::from_json("{\"bogus\":1}").is_err());
        assert!(FaultPlan::from_json("{\"lost_fetch_prob\":2.0,\"seed\":0}").is_err());
        assert!(
            FaultPlan::from_json("{\"deaths\":[{\"node\":0,\"at_s\":-1.0}]}").is_err(),
            "negative death times are invalid"
        );
        assert!(
            FaultPlan::from_json("{\"seed\":1}{").is_err(),
            "trailing input"
        );
        // Ids and byte counts are exact unsigned integers and every other
        // number is finite — never cast or saturated — and no key repeats;
        // only exactly -1.0 is a crash.
        for bad in [
            "{\"deaths\":[{\"node\":-3,\"at_s\":1.0}]}",
            "{\"deaths\":[{\"node\":1.7,\"at_s\":1.0}]}",
            "{\"deaths\":[{\"node\":1e300,\"at_s\":1.0}]}",
            "{\"stragglers\":[{\"core\":-3,\"factor\":2.0}]}",
            "{\"stragglers\":[{\"core\":1.7,\"factor\":2.0}]}",
            "{\"frame_delays\":[{\"frame\":-3,\"by_s\":1.0}]}",
            "{\"links\":[{\"a\":0,\"b\":1.7,\"latency_factor\":1.0,\"loss_prob\":0.0,\
             \"from_s\":0.0,\"to_s\":1.0}]}",
            "{\"mem_shrinks\":[{\"node\":0,\"at_s\":1.0,\"to_bytes\":-5}]}",
            "{\"stragglers\":[{\"core\":0,\"factor\":1e999}]}",
            "{\"deaths\":[{\"node\":0,\"at_s\":1e999}]}",
            "{\"seed\":1,\"seed\":2}",
            "{\"deaths\":[],\"deaths\":[{\"node\":0,\"at_s\":1.0}]}",
            "{\"deaths\":[{\"node\":0,\"node\":1,\"at_s\":1.0}]}",
            "{\"producer_stalls\":[{\"at_s\":1.0,\"for_s\":-0.5}]}",
        ] {
            assert!(FaultPlan::from_json(bad).is_err(), "{bad} must be rejected");
        }
        // Nesting is bounded, so hostile depth is an error, not a stack
        // overflow.
        let deep = format!("{{\"partitions\":{}", "[".repeat(1 << 16));
        assert!(FaultPlan::from_json(&deep).is_err());
    }

    // ---- memory shrinks ----

    #[test]
    fn mem_shrinks_tighten_monotonically() {
        let p = FaultPlan::none()
            .shrink_memory(0, 2.0, 1 << 30)
            .shrink_memory(0, 5.0, 1 << 32) // later but *larger*: ignored
            .shrink_memory(1, 0.0, 1 << 20);
        assert!(!p.is_empty());
        assert_eq!(p.mem_limit(0, 1.0), None, "before the first shrink");
        assert_eq!(p.mem_limit(0, 2.0), Some(1 << 30));
        assert_eq!(p.mem_limit(0, 10.0), Some(1 << 30), "smallest budget wins");
        assert_eq!(p.mem_limit(1, 0.0), Some(1 << 20));
        assert_eq!(p.mem_limit(2, 100.0), None);
        assert_eq!(p.mem_shrinks().len(), 3);
    }

    #[test]
    fn mem_sets_can_grow_budgets_back() {
        // A set replaces the budget wholesale — later sets win, and a set
        // may *raise* the budget a shrink took away.
        let p = FaultPlan::none()
            .shrink_memory(0, 1.0, 1 << 20)
            .set_memory(0, 5.0, 1 << 30) // capacity returns at t=5
            .set_memory(0, 9.0, 1 << 28); // ...and is re-capped at t=9
        assert_eq!(p.mem_limit(0, 0.5), None, "nothing fired yet");
        assert_eq!(p.mem_limit(0, 1.0), Some(1 << 20), "shrink in effect");
        assert_eq!(
            p.mem_limit(0, 5.0),
            Some(1 << 30),
            "set overrides the shrink"
        );
        assert_eq!(p.mem_limit(0, 9.5), Some(1 << 28), "latest set wins");
        // A shrink firing after the winning set still tightens it.
        let q = FaultPlan::none()
            .set_memory(1, 2.0, 1 << 30)
            .shrink_memory(1, 4.0, 1 << 22);
        assert_eq!(q.mem_limit(1, 3.0), Some(1 << 30));
        assert_eq!(q.mem_limit(1, 4.0), Some(1 << 22), "later shrink tightens");
        assert!(!q.is_empty());
    }

    #[test]
    fn next_mem_change_walks_the_schedule() {
        let p = FaultPlan::none()
            .shrink_memory(0, 2.0, 1 << 20)
            .set_memory(1, 5.0, 1 << 30);
        assert_eq!(p.next_mem_change_after(0.0), Some(2.0));
        assert_eq!(p.next_mem_change_after(2.0), Some(5.0), "strictly after");
        assert_eq!(p.next_mem_change_after(5.0), None, "schedule exhausted");
        assert_eq!(FaultPlan::none().next_mem_change_after(0.0), None);
    }

    #[test]
    fn mem_sets_round_trip_in_json_and_validate() {
        let p = FaultPlan::none()
            .set_memory(2, 1.5, 1 << 33)
            .shrink_memory(0, 0.25, 1 << 20);
        let json = p.to_json();
        assert!(json.contains("\"mem_sets\""));
        let q = FaultPlan::from_json(&json).unwrap();
        assert_eq!(p, q);
        assert_eq!(q.to_json(), json);
        // Plans serialized before mem_sets existed still parse.
        let legacy = "{\"deaths\":[],\"stragglers\":[],\"mem_shrinks\":[],\"lost_fetch_prob\":0.0,\"seed\":1}";
        assert!(FaultPlan::from_json(legacy).unwrap().mem_sets().is_empty());
        // Validation: negative times and out-of-range nodes are typed.
        match FaultPlan::from_json("{\"mem_sets\":[{\"node\":0,\"at_s\":-1.0,\"to_bytes\":1}]}") {
            Err(FaultPlanError::NegativeTime {
                what: "mem_set", ..
            }) => {}
            other => panic!("expected NegativeTime, got {other:?}"),
        }
        assert_eq!(
            FaultPlan::none().set_memory(9, 0.0, 1).validate(4, 32),
            Err(FaultPlanError::NodeOutOfRange {
                what: "mem_set",
                node: 9,
                nodes: 4
            })
        );
    }

    #[test]
    fn mem_shrinks_round_trip_in_json() {
        let p = FaultPlan::none()
            .kill_node(1, 0.5)
            .shrink_memory(0, 1.25, 17_179_869_184); // 16 GiB
        let json = p.to_json();
        assert!(json.contains("\"mem_shrinks\""));
        let q = FaultPlan::from_json(&json).unwrap();
        assert_eq!(p, q);
        assert_eq!(q.to_json(), json);
    }

    // ---- typed validation (hardened from_json) ----

    #[test]
    fn from_json_rejects_duplicate_node_deaths() {
        let json = "{\"deaths\":[{\"node\":1,\"at_s\":1.0},{\"node\":1,\"at_s\":2.0}]}";
        assert_eq!(
            FaultPlan::from_json(json),
            Err(FaultPlanError::DuplicateDeath { node: 1 })
        );
    }

    #[test]
    fn from_json_errors_are_typed() {
        match FaultPlan::from_json("{\"deaths\":[{\"node\":0,\"at_s\":-1.0}]}") {
            Err(FaultPlanError::NegativeTime { what: "death", .. }) => {}
            other => panic!("expected NegativeTime, got {other:?}"),
        }
        match FaultPlan::from_json("{\"mem_shrinks\":[{\"node\":0,\"at_s\":-2.0,\"to_bytes\":1}]}")
        {
            Err(FaultPlanError::NegativeTime {
                what: "mem_shrink", ..
            }) => {}
            other => panic!("expected NegativeTime, got {other:?}"),
        }
        match FaultPlan::from_json("{\"lost_fetch_prob\":2.0,\"seed\":0}") {
            Err(FaultPlanError::InvalidProbability { prob }) => assert_eq!(prob, 2.0),
            other => panic!("expected InvalidProbability, got {other:?}"),
        }
        match FaultPlan::from_json("{\"stragglers\":[{\"core\":3,\"factor\":0.5}]}") {
            Err(FaultPlanError::SubUnitFactor { core: 3, .. }) => {}
            other => panic!("expected SubUnitFactor, got {other:?}"),
        }
        match FaultPlan::from_json("{\"bogus\":1}") {
            Err(FaultPlanError::UnknownField {
                context: "plan",
                key,
            }) => {
                assert_eq!(key, "bogus")
            }
            other => panic!("expected UnknownField, got {other:?}"),
        }
        for (bad, what) in [
            ("{\"deaths\":[{\"node\":-3,\"at_s\":1.0}]}", "\"-3\""),
            (
                "{\"mem_sets\":[{\"node\":0,\"at_s\":1.0,\"to_bytes\":-5}]}",
                "\"-5\"",
            ),
            (
                "{\"links\":[{\"a\":1e300,\"b\":1,\"latency_factor\":1.0,\"loss_prob\":0.0,\
              \"from_s\":0.0,\"to_s\":1.0}]}",
                "\"1e300\"",
            ),
            (
                "{\"stragglers\":[{\"core\":0,\"factor\":1e999}]}",
                "\"1e999\"",
            ),
            (
                "{\"partitions\":[{\"groups\":[],\"from_s\":0.0,\"to_s\":1e999}]}",
                "\"1e999\"",
            ),
            ("{\"seed\":1,\"seed\":2}", "repeated plan key"),
            (
                "{\"frame_delays\":[{\"frame\":0,\"by_s\":1.0,\"by_s\":2.0}]}",
                "repeated frame_delay key",
            ),
        ] {
            match FaultPlan::from_json(bad) {
                Err(FaultPlanError::Parse(msg)) => assert!(msg.contains(what), "{msg}"),
                other => panic!("expected Parse for {bad}, got {other:?}"),
            }
        }
        // Only exactly -1.0 is a crash; any other negative length is typed.
        match FaultPlan::from_json("{\"producer_stalls\":[{\"at_s\":1.0,\"for_s\":-0.5}]}") {
            Err(FaultPlanError::NegativeTime { at_s, .. }) => assert_eq!(at_s, -0.5),
            other => panic!("expected NegativeTime, got {other:?}"),
        }
        // Errors render through Display/Error.
        let e = FaultPlanError::DuplicateDeath { node: 7 };
        assert!(e.to_string().contains("node 7"));
    }

    // ---- stream faults ----

    #[test]
    fn stream_builders_accumulate_and_query() {
        let p = FaultPlan::none()
            .stall_producer(2.0, 1.5)
            .crash_producer(10.0)
            .drop_frame(7)
            .delay_frame(3, 0.5)
            .delay_frame(3, 0.25);
        assert!(!p.is_empty());
        assert_eq!(p.producer_stalls().len(), 2);
        assert!(p.producer_stalls()[1].is_crash());
        assert_eq!(p.producer_stalls()[1].at_s, 10.0);
        assert_eq!(p.frame_drops(), &[FrameDrop { frame: 7 }]);
        assert_eq!(p.frame_delay(3), 0.75, "delays accumulate");
        assert_eq!(p.frame_delay(4), 0.0);
        assert!(FaultPlan::none().producer_stalls().is_empty());
    }

    #[test]
    fn frame_coins_are_deterministic_and_independent() {
        let p = FaultPlan::none()
            .seeded(99)
            .drop_frames(0.3)
            .duplicate_frames(0.3);
        let q = p.clone();
        let (mut drops, mut dups) = (0, 0);
        let n = 4000;
        for i in 0..n {
            assert_eq!(p.frame_dropped(i), q.frame_dropped(i));
            assert_eq!(p.frame_duplicated(i), q.frame_duplicated(i));
            drops += usize::from(p.frame_dropped(i));
            dups += usize::from(p.frame_duplicated(i));
        }
        let (dr, du) = (drops as f64 / n as f64, dups as f64 / n as f64);
        assert!((dr - 0.3).abs() < 0.05, "drop rate {dr} far from 0.3");
        assert!((du - 0.3).abs() < 0.05, "dup rate {du} far from 0.3");
        // The two coins are salted apart: the outcomes differ somewhere.
        assert!((0..64).any(|i| p.frame_dropped(i) != p.frame_duplicated(i)));
        // A plan without the probabilities never fires either coin.
        let clean = FaultPlan::none().seeded(99);
        assert!((0..64).all(|i| !clean.frame_dropped(i) && !clean.frame_duplicated(i)));
    }

    #[test]
    fn stream_faults_round_trip_in_json() {
        let p = FaultPlan::none()
            .stall_producer(1.5, 2.25)
            .crash_producer(30.0) // infinite for_s: the -1.0 sentinel path
            .drop_frame(4)
            .drop_frame(19)
            .delay_frame(6, 1.75)
            .seeded(77)
            .drop_frames(0.125)
            .duplicate_frames(0.0625);
        let json = p.to_json();
        assert!(json.contains("\"producer_stalls\""));
        assert!(json.contains("\"for_s\":-1.0"), "crash serialized as -1");
        let q = FaultPlan::from_json(&json).unwrap();
        assert_eq!(p, q, "round-trip must be exact, including the crash");
        assert!(q.producer_stalls()[1].is_crash());
        assert_eq!(q.to_json(), json, "re-serialization is stable");
        // Plans serialized before stream faults existed still parse.
        let legacy = "{\"deaths\":[],\"stragglers\":[],\"mem_shrinks\":[],\"mem_sets\":[],\"lost_fetch_prob\":0.0,\"seed\":1}";
        let old = FaultPlan::from_json(legacy).unwrap();
        assert!(old.producer_stalls().is_empty());
        assert_eq!(old.frame_drop_prob(), 0.0);
    }

    #[test]
    fn stream_fault_json_validation_is_typed() {
        match FaultPlan::from_json("{\"producer_stalls\":[{\"at_s\":-1.0,\"for_s\":2.0}]}") {
            Err(FaultPlanError::NegativeTime {
                what: "producer_stall",
                ..
            }) => {}
            other => panic!("expected NegativeTime, got {other:?}"),
        }
        assert!(
            FaultPlan::from_json("{\"producer_stalls\":[{\"at_s\":1.0,\"for_s\":0.0}]}").is_err(),
            "zero-length stalls are invalid"
        );
        match FaultPlan::from_json("{\"frame_delays\":[{\"frame\":0,\"by_s\":-0.5}]}") {
            Err(FaultPlanError::NegativeTime {
                what: "frame_delay",
                ..
            }) => {}
            other => panic!("expected NegativeTime, got {other:?}"),
        }
        match FaultPlan::from_json("{\"frame_drop_prob\":1.5}") {
            Err(FaultPlanError::InvalidProbability { prob }) => assert_eq!(prob, 1.5),
            other => panic!("expected InvalidProbability, got {other:?}"),
        }
    }

    #[test]
    fn unknown_fields_are_a_typed_error_at_every_level() {
        // A stream-fault plan read by a reader that predates the schema
        // must fail loudly with the offending key, not silently skip it.
        match FaultPlan::from_json(
            "{\"producer_stalls\":[{\"at_s\":0.5,\"for_s\":1.0,\"retries\":3}]}",
        ) {
            Err(FaultPlanError::UnknownField { context, key }) => {
                assert_eq!(context, "producer_stall");
                assert_eq!(key, "retries");
            }
            other => panic!("expected UnknownField, got {other:?}"),
        }
        match FaultPlan::from_json("{\"deaths\":[{\"node\":0,\"at_s\":1.0,\"blast_radius\":2}]}") {
            Err(FaultPlanError::UnknownField {
                context: "death",
                key,
            }) => {
                assert_eq!(key, "blast_radius")
            }
            other => panic!("expected UnknownField, got {other:?}"),
        }
        let e = FaultPlanError::UnknownField {
            context: "plan",
            key: "bogus".into(),
        };
        assert!(e.to_string().contains("bogus"));
    }

    #[test]
    fn validate_checks_node_and_core_ranges() {
        let p = FaultPlan::none().kill_node(2, 1.0);
        assert!(p.validate(4, 32).is_ok());
        assert_eq!(
            p.validate(2, 32),
            Err(FaultPlanError::NodeOutOfRange {
                what: "death",
                node: 2,
                nodes: 2
            })
        );
        let s = FaultPlan::none().slow_core(40, 2.0);
        assert_eq!(
            s.validate(4, 32),
            Err(FaultPlanError::CoreOutOfRange {
                core: 40,
                cores: 32
            })
        );
        let m = FaultPlan::none().shrink_memory(9, 0.0, 1);
        assert_eq!(
            m.validate(4, 32),
            Err(FaultPlanError::NodeOutOfRange {
                what: "mem_shrink",
                node: 9,
                nodes: 4
            })
        );
        assert!(FaultPlan::none().validate(1, 1).is_ok());
    }

    // ---- partitions and link degradation ----

    #[test]
    fn partition_reachability_semantics() {
        let p = FaultPlan::none().partition(vec![vec![0, 1], vec![2, 3]], 10.0, 20.0);
        assert!(p.has_partitions());
        assert!(!p.is_empty());
        // Same side of the cut, or outside the window: reachable.
        assert!(p.can_reach(0, 1, 15.0));
        assert!(p.can_reach(2, 3, 15.0));
        assert!(p.can_reach(0, 2, 9.99));
        assert!(p.can_reach(0, 2, 20.0), "heal bound is half-open");
        // Across the cut while active: unreachable.
        assert!(!p.can_reach(0, 2, 10.0));
        assert!(!p.can_reach(3, 1, 19.99));
        // Self-loops always reach.
        assert!(p.can_reach(2, 2, 15.0));
        assert_eq!(p.cut_between(0, 2, 15.0), Some((10.0, 20.0)));
        assert_eq!(p.cut_between(0, 1, 15.0), None);
        assert_eq!(p.next_cut_after(0, 2, 5.0), Some((10.0, 20.0)));
        assert_eq!(p.next_cut_after(0, 2, 10.0), None, "strictly after");
        assert_eq!(p.earliest_reach(0, 2, 15.0), 20.0);
        assert_eq!(p.earliest_reach(0, 2, 3.0), 3.0);
    }

    #[test]
    fn unlisted_nodes_form_the_remainder_group() {
        // Node 4 is unlisted: it sits outside every group and is cut off
        // from all listed groups (it has no group, so `group_of` is None
        // for it but Some for listed nodes).
        let p = FaultPlan::none().partition(vec![vec![0], vec![1]], 0.0, 5.0);
        assert!(!p.can_reach(0, 4, 1.0));
        assert!(!p.can_reach(1, 4, 1.0));
        // Two unlisted nodes share the remainder group.
        assert!(p.can_reach(4, 5, 1.0));
    }

    #[test]
    fn earliest_reach_walks_heal_chains() {
        let p = FaultPlan::none()
            .partition(vec![vec![0], vec![1]], 1.0, 2.0)
            .partition(vec![vec![0], vec![1]], 2.0, 4.0);
        // At t=1.5 the first cut is live; its heal at 2.0 lands inside
        // the second cut, so reachability only resumes at 4.0.
        assert_eq!(p.earliest_reach(0, 1, 1.5), 4.0);
    }

    #[test]
    fn link_degradation_inflates_latency_and_flips_loss_coins() {
        let p = FaultPlan::none()
            .degrade_link(0, 2, 3.0, 0.5, 5.0, 15.0)
            .seeded(99);
        assert_eq!(p.link_latency_factor(0, 2, 10.0), 3.0);
        assert_eq!(p.link_latency_factor(2, 0, 10.0), 3.0, "symmetric");
        assert_eq!(p.link_latency_factor(0, 2, 4.0), 1.0);
        assert_eq!(p.link_latency_factor(0, 1, 10.0), 1.0);
        // Coin is deterministic in (plan seed, link, attempt) and roughly
        // calibrated to the configured probability.
        let mut lost = 0;
        let n = 4000;
        for i in 0..n {
            let a = p.link_lost(0, 2, i, 10.0);
            assert_eq!(a, p.link_lost(2, 0, i, 10.0), "symmetric coin");
            lost += usize::from(a);
        }
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.05, "loss rate {rate} far from 0.5");
        assert!(!p.link_lost(0, 2, 0, 20.0), "no loss outside the window");
    }

    #[test]
    fn partition_json_round_trips_exactly() {
        let p = FaultPlan::none()
            .partition(vec![vec![0, 1], vec![2]], 1.5, 7.25)
            .degrade_link(0, 3, 2.5, 0.125, 0.5, 9.0)
            .kill_node(1, 3.0);
        let json = p.to_json();
        let q = FaultPlan::from_json(&json).unwrap();
        assert_eq!(p, q, "round-trip must be exact, bit-for-bit");
        assert_eq!(q.to_json(), json, "re-serialization is stable");
    }

    #[test]
    fn legacy_plans_without_partition_fields_still_parse() {
        let json = "{\"deaths\":[{\"node\":0,\"at_s\":1.0}],\"seed\":3}";
        let p = FaultPlan::from_json(json).unwrap();
        assert!(p.partitions().is_empty());
        assert!(p.link_degrades().is_empty());
        assert!(!p.has_partitions());
    }

    #[test]
    fn partition_json_rejects_bad_plans_with_typed_errors() {
        // Heal at or before the cut.
        match FaultPlan::from_json(
            "{\"partitions\":[{\"groups\":[[0],[1]],\"from_s\":5.0,\"to_s\":5.0}]}",
        ) {
            Err(FaultPlanError::HealBeforeCut {
                what: "partition",
                from_s,
                to_s,
            }) => {
                assert_eq!((from_s, to_s), (5.0, 5.0));
            }
            other => panic!("expected HealBeforeCut, got {other:?}"),
        }
        // One node in two groups of the same partition.
        match FaultPlan::from_json(
            "{\"partitions\":[{\"groups\":[[0,1],[1]],\"from_s\":0.0,\"to_s\":5.0}]}",
        ) {
            Err(FaultPlanError::OverlappingPartition { node: 1 }) => {}
            other => panic!("expected OverlappingPartition, got {other:?}"),
        }
        // Two time-overlapping partitions claiming the same node.
        match FaultPlan::from_json(
            "{\"partitions\":[{\"groups\":[[0],[1]],\"from_s\":0.0,\"to_s\":5.0},\
             {\"groups\":[[1],[2]],\"from_s\":4.0,\"to_s\":6.0}]}",
        ) {
            Err(FaultPlanError::OverlappingPartition { node: 1 }) => {}
            other => panic!("expected OverlappingPartition, got {other:?}"),
        }
        // Disjoint windows over the same node are fine.
        assert!(FaultPlan::from_json(
            "{\"partitions\":[{\"groups\":[[0],[1]],\"from_s\":0.0,\"to_s\":5.0},\
             {\"groups\":[[1],[2]],\"from_s\":5.0,\"to_s\":6.0}]}",
        )
        .is_ok());
        // Sub-unit latency factor on a link.
        match FaultPlan::from_json(
            "{\"links\":[{\"a\":0,\"b\":1,\"latency_factor\":0.5,\"loss_prob\":0.0,\
             \"from_s\":0.0,\"to_s\":1.0}]}",
        ) {
            Err(FaultPlanError::SubUnitLinkFactor { a: 0, b: 1, factor }) => {
                assert_eq!(factor, 0.5);
            }
            other => panic!("expected SubUnitLinkFactor, got {other:?}"),
        }
        // Unknown fields stay typed at the new levels.
        match FaultPlan::from_json(
            "{\"partitions\":[{\"groups\":[[0]],\"from_s\":0.0,\"to_s\":1.0,\"mode\":1}]}",
        ) {
            Err(FaultPlanError::UnknownField {
                context: "partition",
                key,
            }) => assert_eq!(key, "mode"),
            other => panic!("expected UnknownField, got {other:?}"),
        }
        match FaultPlan::from_json(
            "{\"links\":[{\"a\":0,\"b\":1,\"latency_factor\":1.0,\"loss_prob\":0.0,\
             \"from_s\":0.0,\"to_s\":1.0,\"jitter\":0.1}]}",
        ) {
            Err(FaultPlanError::UnknownField {
                context: "link",
                key,
            }) => assert_eq!(key, "jitter"),
            other => panic!("expected UnknownField, got {other:?}"),
        }
    }

    #[test]
    fn partition_validate_checks_node_ranges() {
        let p = FaultPlan::none().partition(vec![vec![0], vec![5]], 0.0, 1.0);
        assert!(p.validate(6, 8).is_ok());
        assert_eq!(
            p.validate(4, 8),
            Err(FaultPlanError::NodeOutOfRange {
                what: "partition",
                node: 5,
                nodes: 4
            })
        );
        let l = FaultPlan::none().degrade_link(0, 7, 2.0, 0.0, 0.0, 1.0);
        assert_eq!(
            l.validate(4, 8),
            Err(FaultPlanError::NodeOutOfRange {
                what: "link",
                node: 7,
                nodes: 4
            })
        );
    }

    // ---- hostile plan text ----

    fn every_fault_kind() -> FaultPlan {
        FaultPlan::none()
            .kill_node(3, 0.1 + 0.2)
            .slow_core(5, 2.5)
            .shrink_memory(1, 1.25, 17_179_869_184)
            .set_memory(1, 4.5, 1 << 33)
            .lose_fetches(0.125, u64::MAX)
            .stall_producer(1e-7, 2.25)
            .crash_producer(1e16)
            .drop_frame(4)
            .delay_frame(6, 1.75)
            .drop_frames(0.125)
            .duplicate_frames(0.0625)
            .partition(vec![vec![0, 1], vec![2]], 1.5, 7.25)
            .degrade_link(0, 3, 2.5, 0.125, 0.5, 9.0)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Truncated, byte-flipped and self-spliced plan text, optionally
        /// with a non-ASCII key inserted into some record first, is either
        /// read or rejected with a typed error — never a panic — and a plan
        /// that is read writes back to text that reads back to it.
        #[test]
        fn mangled_plan_text_is_read_or_rejected_never_a_panic(
            key in prop::sample::select(vec!["", "nœud", "ключ", "🦀", "at_s", "seed"]),
            brace in 0usize..64,
            op in 0u8..4,
            at in 0usize..4096,
            from in 0usize..4096,
            len in 0usize..48,
            byte in any::<u8>(),
        ) {
            let mut text = every_fault_kind().to_json();
            if !key.is_empty() {
                let braces: Vec<usize> = text.match_indices('{').map(|(i, _)| i + 1).collect();
                let pos = braces[brace % braces.len()];
                text.insert_str(pos, &format!("\"{key}\":{len},"));
            }
            let mut bytes = text.into_bytes();
            let n = bytes.len();
            let (at, from) = (at % n, from % n);
            match op {
                0 => bytes.truncate(at),
                1 => bytes[at] = byte,
                2 => {
                    let piece = bytes[from..(from + len).min(n)].to_vec();
                    bytes.splice(at..at, piece);
                }
                _ => {
                    bytes.splice(at..at, std::iter::repeat_n(b'[', len));
                }
            }
            let mangled = String::from_utf8_lossy(&bytes);
            if let Ok(plan) = FaultPlan::from_json(&mangled) {
                prop_assert_eq!(FaultPlan::from_json(&plan.to_json()), Ok(plan));
            }
        }
    }
}
