//! Simulated core timelines with list scheduling.

use crate::cluster::Cluster;
use crate::policy::{PolicyError, RetryPolicy};
use crate::report::SimReport;
use crate::trace::{EventKind, Sym, Trace, TraceEvent};

/// Where and when a simulated task ran.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaskPlacement {
    pub core: usize,
    pub start: f64,
    pub end: f64,
}

/// What became of one placement attempt (private: callers see the
/// recovery loop's verdict, not its attempts).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Attempt {
    /// The attempt ran to completion.
    Done(TaskPlacement),
    /// The attempt was lost at `at_s`; the core it ran on is blacklisted
    /// for the next one.
    Failed {
        core: usize,
        at_s: f64,
        cause: Cause,
    },
}

/// Why an attempt was lost, which is also who observes the loss.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Cause {
    /// The node died mid-task: the work from `start` to the death is lost
    /// and the death is noticed one `detection_delay_s` later.
    Death,
    /// The watchdog killed it at `start + timeout_s`; the watchdog is its
    /// own observer, so the kill is seen at once.
    Watchdog { timeout_s: f64 },
    /// The node was cut off from the driver mid-attempt and the suspicion
    /// detector false-positived at `at_s`: the node is *alive* and the
    /// attempt runs to completion (its core genuinely busy — wasted work,
    /// accounted as `zombie_time_s`), but the scheduler gave up on it. The
    /// orphaned result arrives at `deliver_at`, after heal, carrying a
    /// stale attempt epoch, and is fenced exactly once.
    Suspected { deliver_at: f64 },
}

impl Cause {
    /// The recovery label of a loss observed this way.
    fn label(self) -> &'static str {
        match self {
            Cause::Death => "death-detect",
            Cause::Watchdog { .. } => "timeout",
            Cause::Suspected { .. } => "suspicion",
        }
    }
}

/// Per-task placement options. Which core an attempt must avoid is not
/// among them: the blacklist is the recovery loop's own state.
#[derive(Clone, Copy, Debug, Default)]
pub struct TaskOpts {
    /// Speculative-execution bound: an attempt observed still running at
    /// `start + cap` gets a backup copy launched on another core (chosen
    /// by the scheduler, avoiding the straggler's core). The backup
    /// *occupies* that core; the earlier finisher wins and the loser is
    /// killed (and shows in the trace as a killed attempt). If no other
    /// core is free — or the backup would not finish earlier, or would not
    /// survive its own node's death or the watchdog — no backup is
    /// launched and the straggler runs on. Not modelled under scripted
    /// partitions, where the cap is ignored.
    pub speculation_cap: Option<f64>,
}

/// What differs between engines when a lost attempt comes back: the price
/// of re-dispatch and the names it is recorded under. Everything else —
/// the attempt budget, the blacklist, observation, backoff, the deadline —
/// is [`SimExecutor::run_task_recovering`]'s.
pub struct Redispatch<F> {
    /// Maps the earliest instant the next attempt could go out (observation
    /// plus backoff) to the instant the scheduler releases it: the
    /// identity, `+ central_dispatch_s`, a database round-trip.
    pub at: F,
    /// Scheduler work charged to `overhead_s` for each re-dispatch.
    pub overhead_s: f64,
    /// The mechanism that rejects a zombie's stale result
    /// (`"stale-shuffle-epoch"`, `"superseded-key"`, `"db-generation"`, …).
    pub fence: &'static str,
    /// How each lost attempt's recovery window is recorded.
    pub log: RecoveryLog,
}

/// How the window from a lost attempt to its re-dispatch is recorded. A
/// watchdog kill is recorded as a `"timeout"` recovery in every mode.
#[derive(Clone, Copy, Debug)]
pub enum RecoveryLog {
    /// One recovery event named after what observed the loss
    /// (`"death-detect"`, `"timeout"`, `"suspicion"`) and one `"recovery"`
    /// phase, per lost attempt.
    ByCause,
    /// One recovery event under the engine's own label per lost attempt;
    /// the caller adds a single phase from the first loss to success.
    Labelled(&'static str),
    /// Nothing per lost attempt: the caller records one window from the
    /// first loss to success.
    Caller,
}

/// The bare executor's re-dispatch: no scheduler in the way, so it costs
/// nothing.
fn redispatch_for_free(log: RecoveryLog) -> Redispatch<impl FnMut(f64) -> f64> {
    Redispatch {
        at: |t| t,
        overhead_s: 0.0,
        fence: "suspect-fence",
        log,
    }
}

/// Tournament tree over per-core free times: the earliest-free-core index
/// that replaces the linear scan on the placement hot path.
///
/// A complete binary tree over `leaves` (next power of two ≥ core count)
/// slots. Each leaf holds its core's *key* and its *cap*, the node's
/// scripted death time (`+∞` when the node never dies, `-∞` for padding).
/// The key is the core's free time while the core is *open*, `+∞` once it
/// is closed: by admission control, or because it is free no earlier than
/// its cap (a dead core, which the leaf test below would reject on every
/// later pick anyway, since each start it could offer is `≥ free ≥ cap`),
/// and for padding slots. [`Self::key`] is the one place that rule lives.
/// Internal nodes hold `min(key)` and `max(cap)` of their subtrees.
///
/// [`Self::pick`] finds the eligible core with the least `(start, id)` —
/// the linear scan's earliest start, ties to the lowest id — in one
/// best-first descent over a fixed-size stack. A subtree's optimistic
/// bound is `max(min_key, ready)`; the child with the smaller bound is
/// taken first (ties left), the other is stacked. A subtree is dropped
/// when:
/// * its `min_key` is `+∞`: it holds no open core;
/// * its `max_cap ≤ ready`: it is entirely dead by the release;
/// * `(bound, first id)` is not below the incumbent's `(start, id)`: no
///   leaf under it starts earlier than its bound or has an id below its
///   first leaf's, so none can win.
///
/// At a leaf the bound is exact for the core alone; the caller's `reach`
/// turns it into the start the driver can actually dispatch at (the
/// identity, or the heal of the cut the core's node sits behind). `reach`
/// must never answer earlier than it is asked (`reach(c, t) ≥ t`) and must
/// be monotone in `t`, so the subtree bound stays optimistic under it. A
/// leaf survives only if it can start before its cap (`start < died_at`)
/// — the same "node gone before the task could begin" rule the linear
/// scan applies. The descent returns at the first surviving leaf whose
/// start equals the root's bound: no core starts earlier, and a lower id
/// with the same start would sit in a left subtree of bound equal to the
/// root's, which ties-left order visits first. On a saturated backlog
/// that is the first leaf reached, so a pick touches `log2(leaves) + 1`
/// tree nodes.
#[derive(Clone, Debug)]
struct CoreIndex {
    leaves: usize,
    min_key: Vec<f64>,
    max_cap: Vec<f64>,
    /// Tree nodes popped by [`Self::pick`] so far.
    #[cfg(test)]
    examined: u64,
}

impl CoreIndex {
    /// An index over open cores free at `core_free`, core `c` dying at
    /// `caps(c)`.
    fn new(core_free: &[f64], caps: impl Fn(usize) -> f64) -> CoreIndex {
        let leaves = core_free.len().next_power_of_two().max(1);
        let mut idx = CoreIndex {
            leaves,
            min_key: vec![f64::INFINITY; 2 * leaves],
            max_cap: vec![f64::NEG_INFINITY; 2 * leaves],
            #[cfg(test)]
            examined: 0,
        };
        for (c, &free) in core_free.iter().enumerate() {
            idx.max_cap[leaves + c] = caps(c);
            idx.min_key[leaves + c] = idx.key(c, free, true);
        }
        for n in (1..leaves).rev() {
            idx.min_key[n] = idx.min_key[2 * n].min(idx.min_key[2 * n + 1]);
            idx.max_cap[n] = idx.max_cap[2 * n].max(idx.max_cap[2 * n + 1]);
        }
        idx
    }

    /// Core `c`'s key when it is free at `free`: `free` while the core is
    /// admitted and free before its cap, `+∞` (closed) otherwise.
    fn key(&self, c: usize, free: f64, admitted: bool) -> f64 {
        if admitted && free < self.max_cap[self.leaves + c] {
            free
        } else {
            f64::INFINITY
        }
    }

    /// Re-key core `c` (free at `free`, admitted or not) and re-aggregate
    /// its ancestors.
    fn update(&mut self, c: usize, free: f64, admitted: bool) {
        let mut n = self.leaves + c;
        self.min_key[n] = self.key(c, free, admitted);
        while n > 1 {
            n /= 2;
            let m = self.min_key[2 * n].min(self.min_key[2 * n + 1]);
            if self.min_key[n] == m {
                break;
            }
            self.min_key[n] = m;
        }
    }

    fn pick(
        &mut self,
        ready: f64,
        avoid: Option<usize>,
        reach: impl Fn(usize, f64) -> f64,
    ) -> Option<(usize, f64)> {
        let (min_key, max_cap) = (&self.min_key, &self.max_cap);
        // A subtree's optimistic start, or `None` when it holds no open
        // core alive after the release.
        let bound = |n: usize| {
            let key = min_key[n];
            (key != f64::INFINITY && max_cap[n] > ready).then_some(if key > ready {
                key
            } else {
                ready
            })
        };
        let floor = bound(1)?;
        let levels = self.leaves.ilog2();
        let mut best: Option<(usize, f64)> = None;
        // Stacked subtrees sit at strictly increasing depths, so one slot
        // per tree level suffices.
        let mut stack = [(0usize, 0.0); usize::BITS as usize];
        let mut depth = 0;
        let mut next = Some((1, floor));
        loop {
            let (n, b) = match next.take() {
                Some(top) => top,
                None if depth > 0 => {
                    depth -= 1;
                    stack[depth]
                }
                None => return best,
            };
            #[cfg(test)]
            {
                self.examined += 1;
            }
            if let Some((bc, bs)) = best {
                let first = (n << (levels - n.ilog2())) - self.leaves;
                if b > bs || (b == bs && first >= bc) {
                    continue; // no leaf below comes before the incumbent
                }
            }
            if n >= self.leaves {
                let c = n - self.leaves;
                if Some(c) == avoid {
                    continue;
                }
                let start = reach(c, b);
                let wins = best.is_none_or(|(bc, bs)| start < bs || (start == bs && c < bc));
                if start < max_cap[n] && wins {
                    if start == floor {
                        return Some((c, start)); // nothing can come before it
                    }
                    best = Some((c, start));
                }
                continue;
            }
            let (l, r) = (2 * n, 2 * n + 1);
            next = match (bound(l), bound(r)) {
                (Some(bl), Some(br)) => {
                    let (near, far) = if br < bl {
                        ((r, br), (l, bl))
                    } else {
                        ((l, bl), (r, br))
                    };
                    stack[depth] = far;
                    depth += 1;
                    Some(near)
                }
                (Some(bl), None) => Some((l, bl)),
                (None, br) => br.map(|br| (r, br)),
            };
        }
    }
}

/// Greedy list scheduler over the cluster's simulated cores.
///
/// Each core tracks the virtual time at which it becomes free. A task with
/// release time `ready` and duration `dur` is placed on the core giving the
/// earliest start (`max(ready, core_free)`), ties broken by lowest core id
/// — the behaviour of a work-conserving task scheduler with an idle worker
/// pool, which is what Spark executors, Dask workers and pilot agents all
/// approximate.
///
/// The cluster's [`FaultPlan`](crate::FaultPlan) is consulted at placement
/// time: cores on a node that has already died are never chosen, straggler
/// cores stretch task durations, and an attempt whose interval crosses its
/// node's death time is lost and comes back through the recovery loop
/// ([`Self::run_task_recovering`]).
///
/// When tracing is enabled ([`Self::enable_trace`]) every placement is
/// recorded as a typed [`TraceEvent`] stamped with the current phase
/// ([`Self::set_phase`]) and task label ([`Self::set_task_label`]); engines
/// additionally record network-side events via [`Self::record_fetch`],
/// [`Self::record_broadcast`] and [`Self::record_recovery`]. The trace
/// lives inside the [`SimReport`] so it survives `report()` clones. Phase
/// and label strings are interned once per [`Self::set_phase`] /
/// [`Self::set_task_label`] call, so recording an event allocates nothing.
#[derive(Clone, Debug)]
pub struct SimExecutor {
    cluster: Cluster,
    core_free: Vec<f64>,
    /// Earliest-free-core tournament tree kept in lockstep with
    /// `core_free` (and admission limits) by [`Self::set_core_free`] /
    /// [`Self::set_node_core_limit`].
    index: CoreIndex,
    /// Incrementally maintained `max(core_free)`: every write to a core's
    /// free time is monotone non-decreasing, so the running max equals the
    /// fold the old O(cores) [`Self::all_idle_at`] computed.
    max_free: f64,
    /// Core choices made so far, counting each tree descent or scan once.
    #[cfg(test)]
    picks: u64,
    report: SimReport,
    phase: String,
    task_label: String,
    /// Interned ids of `phase` / `task_label` in the report's trace;
    /// meaningful only while tracing is enabled.
    phase_sym: Sym,
    label_sym: Sym,
    /// Count of task-event record opportunities, for trace sampling.
    trace_seq: u64,
    /// Record every n-th task event (1 = all; network/memory events are
    /// never sampled so byte-conservation oracles stay exact).
    trace_stride: u32,
    /// Resident bytes per node (cached partitions, broadcast replicas,
    /// shuffle buffers, in-flight working sets — whatever the engine
    /// reserves). The high-water mark lives in `report.mem_high_water`.
    mem_resident: Vec<u64>,
    /// Usable cores per node (admission control): core `c` is schedulable
    /// only while `c % cores_per_node < node_core_limit[node]`. Pilot-style
    /// engines shrink this when declared working sets exceed the budget.
    node_core_limit: Vec<usize>,
    /// Host-parallelism degree captured from
    /// [`parallel::current_degree`](crate::parallel::current_degree) when
    /// this executor was created: how many host threads the owning engine
    /// may use to run real task closures. Purely a host-side knob — it
    /// never affects virtual-time placement.
    host_threads: usize,
}

impl SimExecutor {
    pub fn new(cluster: Cluster) -> Self {
        let cores = cluster.total_cores();
        let nodes = cluster.nodes;
        let per_node = cluster.profile.cores_per_node;
        let report = SimReport {
            mem_high_water: vec![0; nodes],
            ..SimReport::default()
        };
        let core_free = vec![0.0; cores];
        let index = CoreIndex::new(&core_free, |c| {
            cluster
                .faults()
                .node_death(cluster.node_of_core(c))
                .unwrap_or(f64::INFINITY)
        });
        SimExecutor {
            cluster,
            core_free,
            index,
            max_free: 0.0,
            #[cfg(test)]
            picks: 0,
            report,
            phase: String::new(),
            task_label: "task".into(),
            phase_sym: 0,
            label_sym: 0,
            trace_seq: 0,
            trace_stride: 1,
            mem_resident: vec![0; nodes],
            node_core_limit: vec![per_node; nodes],
            host_threads: crate::parallel::current_degree(),
        }
    }

    /// How many host threads the owning engine may use for real closure
    /// execution (≥ 1; 1 = serial, the historical behavior).
    pub fn host_threads(&self) -> usize {
        self.host_threads
    }

    /// Start recording a schedule trace (typed per-event records).
    pub fn enable_trace(&mut self) {
        self.enable_trace_sampled(1);
    }

    /// Start recording a schedule trace keeping only every `stride`-th
    /// task attempt (clamped to ≥ 1; 1 = record everything, the
    /// [`Self::enable_trace`] behaviour). Network and memory events are
    /// always recorded — byte-conservation oracles need all of them — so
    /// sampling bounds trace memory on task-dominated runs without
    /// breaking accounting. The stride is stamped onto the trace
    /// ([`Trace::sample_stride`]) so consumers know counts are partial.
    pub fn enable_trace_sampled(&mut self, stride: u32) {
        let stride = stride.max(1);
        let trace = self.report.trace.get_or_insert_with(Trace::default);
        trace.set_sample_stride(stride);
        self.trace_stride = stride;
        self.phase_sym = trace.intern(&self.phase);
        self.label_sym = trace.intern(&self.task_label);
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.report.trace.as_ref()
    }

    /// Set the phase name stamped onto subsequently recorded events.
    pub fn set_phase(&mut self, phase: &str) {
        if phase != self.phase {
            self.phase.clear();
            self.phase.push_str(phase);
            if let Some(trace) = &mut self.report.trace {
                self.phase_sym = trace.intern(phase);
            }
        }
    }

    /// Set the label stamped onto subsequently placed task attempts.
    pub fn set_task_label(&mut self, label: &str) {
        if label != self.task_label {
            self.task_label.clear();
            self.task_label.push_str(label);
            if let Some(trace) = &mut self.report.trace {
                self.label_sym = trace.intern(label);
            }
        }
    }

    /// The label currently stamped onto placed task attempts.
    pub fn task_label(&self) -> &str {
        &self.task_label
    }

    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Death time of the node hosting `core`, if the fault plan kills it.
    fn death_of(&self, core: usize) -> Option<f64> {
        self.cluster
            .faults()
            .node_death(self.cluster.node_of_core(core))
    }

    /// Whether admission control lets core `c` accept new work: its index
    /// within the node must fall below the node's usable-core limit.
    fn core_admitted(&self, c: usize) -> bool {
        let per_node = self.cluster.profile.cores_per_node;
        self.node_core_limit
            .get(c / per_node)
            .is_none_or(|&limit| c % per_node < limit)
    }

    /// Advance core `c`'s free time. Every placement/kill writes through
    /// here so the earliest-free-core index and the `max_free` cache stay
    /// in lockstep with `core_free`. Writes are monotone non-decreasing
    /// (a core is never un-busied), which is what makes the running max
    /// valid.
    fn set_core_free(&mut self, c: usize, t: f64) {
        debug_assert!(t >= self.core_free[c], "core free time moved backwards");
        self.core_free[c] = t;
        self.index.update(c, t, self.core_admitted(c));
        if t > self.max_free {
            self.max_free = t;
        }
    }

    /// Whether an attempt on `core` spanning `[start, end)` becomes a
    /// zombie: a partition cuts its node off from the driver mid-attempt
    /// and the policy's suspicion detector fires before the cut heals, so
    /// the scheduler falsely declares the (alive, still-computing) node
    /// dead. Returns `(suspected_at, deliver_at)` — when recovery starts
    /// and when the orphaned result arrives to be fenced. `None` when no
    /// partition crosses the attempt, no detector is configured, or the
    /// cut heals before the detector times out (a near-miss, not a false
    /// positive: the result is merely delivered late).
    fn zombie_outcome(
        &self,
        core: usize,
        start: f64,
        end: f64,
        policy: &RetryPolicy,
    ) -> Option<(f64, f64)> {
        let faults = self.cluster.faults();
        if !faults.has_partitions() {
            return None;
        }
        let node = self.cluster.node_of_core(core);
        if node == 0 {
            return None; // driver-local: never cut off from itself
        }
        let (cut, heal) = faults.next_cut_after(0, node, start)?;
        if cut >= end {
            return None; // finished (and reported) before contact was lost
        }
        let det = policy.detector()?;
        let suspect = det.suspect_time(cut);
        if suspect >= heal {
            return None; // heard from again before the timeout expired
        }
        Some((suspect, faults.earliest_reach(0, node, end)))
    }

    /// One core choice for one attempt — earliest start, ties to the lowest
    /// id, skipping cores whose node is dead by the time the task could
    /// start and cores closed off by admission control; `None` when no
    /// eligible core survives. Under a scripted partition the driver
    /// (node 0) cannot dispatch across an active cut, so a core's start is
    /// pushed to [`FaultPlan::earliest_reach`](crate::FaultPlan::earliest_reach)
    /// of its node; partition-free plans pick bit-identically to before.
    fn pick(&mut self, ready: f64, avoid: Option<usize>, cut_aware: bool) -> Option<(usize, f64)> {
        #[cfg(test)]
        {
            self.picks += 1;
        }
        let cluster = &self.cluster;
        if cut_aware {
            self.index.pick(ready, avoid, |c, t| {
                cluster
                    .faults()
                    .earliest_reach(0, cluster.node_of_core(c), t)
            })
        } else {
            self.index.pick(ready, avoid, |_, t| t)
        }
    }

    /// Place one attempt of a task released at `release` and say what
    /// became of it. Nothing is placed when the attempt could not finish
    /// by the policy's deadline.
    fn attempt(
        &mut self,
        release: f64,
        dur: f64,
        policy: &RetryPolicy,
        opts: TaskOpts,
        avoid: Option<usize>,
        cut_aware: bool,
    ) -> Result<Attempt, PolicyError> {
        // The blacklist is advisory, not fatal: when the blacklisted core
        // is the *only* survivor, scheduling on nothing would deadlock the
        // job, so the scheduler re-admits it — and traces that decision so
        // the concession is visible, rather than silently re-picking the
        // core it just blamed.
        let picked = match self.pick(release, avoid, cut_aware) {
            some @ Some(_) => some,
            None => avoid
                .and_then(|_| self.pick(release, None, cut_aware))
                .inspect(|&(_, start)| {
                    self.record_recovery("blacklist-fallback", release, release.max(start));
                }),
        };
        let Some((core, start)) = picked else {
            return Err(PolicyError::NoSurvivingCore { at_s: release });
        };
        let eff = dur * self.cluster.faults().slowdown(core);
        let end = start + eff;
        // The attempt is lost at the earlier of its node's death and the
        // watchdog firing.
        let timeout = policy.attempt_timeout_s;
        let death = self
            .death_of(core)
            .filter(|&d| end > d)
            .map(|d| (d, Cause::Death));
        let watchdog = timeout
            .filter(|&t| eff > t)
            .map(|t| (start + t, Cause::Watchdog { timeout_s: t }));
        let lost = match (death, watchdog) {
            (Some(d), Some(w)) => Some(if w.0 <= d.0 { w } else { d }),
            (d, w) => d.or(w),
        };

        // Speculative execution: the scheduler notices the attempt still
        // running at `start + cap` and launches a fresh copy of `dur` on
        // another core — which it genuinely occupies. The earlier finisher
        // wins; the loser is killed where it stands. A backup only
        // launches if the original is still running at detection time and
        // a core exists on which the copy would survive (its node's death
        // and the watchdog) and finish earlier.
        if let Some(cap) = opts.speculation_cap.filter(|_| !cut_aware) {
            let detect = start + cap;
            let running_at_detect = lost.is_none_or(|(t, _)| t > detect);
            if eff > cap && running_at_detect {
                if let Some((bcore, bstart)) = self.pick(detect, Some(core), false) {
                    let bdur = dur * self.cluster.faults().slowdown(bcore);
                    let bend = bstart + bdur;
                    let backup_survives = self.death_of(bcore).is_none_or(|d| bend <= d)
                        && timeout.is_none_or(|t| bdur <= t);
                    if backup_survives && bend < end {
                        policy.deadline_gate(bstart, bend)?;
                        // Original killed when the backup finishes (or
                        // lost first — whichever comes sooner).
                        let orig_stop = lost.map_or(bend, |(t, _)| t.min(bend));
                        self.set_core_free(core, orig_stop);
                        self.report.lost_time_s += orig_stop - start;
                        self.report.retries += 1;
                        self.record_task_event(core, release, start, orig_stop, true, false);
                        return Ok(Attempt::Done(
                            self.place(bcore, detect, bstart, bdur, true, bend),
                        ));
                    }
                }
            }
        }

        policy.deadline_gate(start, end)?;
        if let Some((at_s, cause)) = lost {
            // The core was busy until the loss and that work is gone.
            self.set_core_free(core, at_s);
            self.report.lost_time_s += at_s - start;
            self.record_task_event(core, release, start, at_s, true, false);
            return Ok(Attempt::Failed { core, at_s, cause });
        }
        let mut visible_end = end;
        if cut_aware {
            // Survived death and watchdog — but under a scripted partition
            // the attempt may still be a zombie: alive, complete, and
            // falsely given up on.
            if let Some((at_s, deliver_at)) = self.zombie_outcome(core, start, end, policy) {
                self.set_core_free(core, end);
                self.report.zombie_attempts += 1;
                self.report.zombie_time_s += end - start;
                self.record_task_event(core, release, start, end, true, false);
                let cause = Cause::Suspected { deliver_at };
                return Ok(Attempt::Failed { core, at_s, cause });
            }
            // Completed behind a cut that heals before the detector gives
            // up: the result is simply late. The core frees at compute
            // end; only the driver-visible completion moves to the heal.
            let node = self.cluster.node_of_core(core);
            visible_end = self.cluster.faults().earliest_reach(0, node, end);
            policy.deadline_gate(start, visible_end)?;
        }
        Ok(Attempt::Done(self.place(
            core,
            release,
            start,
            eff,
            false,
            visible_end,
        )))
    }

    /// Schedule a task and bring it back from every lost attempt: the one
    /// recovery loop under [`Self::run_task`], [`Self::run_task_policied`]
    /// and the task engines. It owns the attempt budget, the blacklist
    /// (the core an attempt was lost on is avoided by the next), when a
    /// loss is observed (a death one `detection_delay_s` late; a watchdog
    /// kill and a suspicion at once), the backoff, the deadline gate on
    /// the re-dispatch, `retries`, and the fencing of a zombie's stale
    /// result. The caller supplies only what re-dispatch costs and what it
    /// is called ([`Redispatch`]).
    ///
    /// Returns the placement and, if any attempt was lost, when the first
    /// one was. Never panics and never loops forever — exhaustion surfaces
    /// as a typed [`PolicyError`].
    pub fn run_task_recovering(
        &mut self,
        ready: f64,
        dur: f64,
        policy: &RetryPolicy,
        opts: TaskOpts,
        mut redispatch: Redispatch<impl FnMut(f64) -> f64>,
    ) -> Result<(TaskPlacement, Option<f64>), PolicyError> {
        assert!(dur >= 0.0 && ready >= 0.0, "negative time");
        // Scripted partitions make the pick reachability-aware and arm the
        // zombie path; partition-free plans stay bit-identical to the
        // pre-partition scheduler.
        let cut_aware = self.cluster.faults().has_partitions();
        let mut release = ready;
        let mut attempt: u32 = 1;
        let mut avoid = None;
        let mut first_lost_s = None;
        loop {
            let (core, at_s, cause) =
                match self.attempt(release, dur, policy, opts, avoid, cut_aware)? {
                    Attempt::Done(placement) => return Ok((placement, first_lost_s)),
                    Attempt::Failed { core, at_s, cause } => (core, at_s, cause),
                };
            let observed = match cause {
                Cause::Death => at_s + policy.detection_delay_s,
                Cause::Watchdog { .. } | Cause::Suspected { .. } => at_s,
            };
            if attempt >= policy.max_attempts {
                return Err(match cause {
                    Cause::Watchdog { timeout_s } => PolicyError::Timeout {
                        attempt,
                        timeout_s,
                        at_s,
                    },
                    Cause::Death | Cause::Suspected { .. } => PolicyError::RetriesExhausted {
                        attempts: attempt,
                        last_failure_s: observed,
                    },
                });
            }
            attempt += 1;
            // Without the blacklist a watchdog-killed straggler core would
            // win the tie-break again.
            avoid = Some(core);
            first_lost_s.get_or_insert(at_s);
            let next = release.max((redispatch.at)(observed + policy.backoff_before(attempt)));
            // Gate the backoff against the deadline *before* sleeping: a
            // redispatch already past the deadline fails right at the
            // observation, instead of burning the backoff in virtual time
            // and only noticing at the next placement.
            policy.deadline_gate(observed, next)?;
            if let Cause::Suspected { deliver_at } = cause {
                // The stale result is rejected by its attempt epoch when
                // it finally crosses the healed cut.
                self.record_fenced(redispatch.fence, at_s, deliver_at);
            }
            let label = match (cause, redispatch.log) {
                (Cause::Watchdog { .. }, _) | (_, RecoveryLog::ByCause) => Some(cause.label()),
                (_, RecoveryLog::Labelled(label)) => Some(label),
                (_, RecoveryLog::Caller) => None,
            };
            if let Some(label) = label {
                self.record_recovery(label, at_s, next);
            }
            if matches!(redispatch.log, RecoveryLog::ByCause) {
                self.report.push_phase("recovery", at_s, next);
            }
            self.report.retries += 1;
            self.report.overhead_s += redispatch.overhead_s;
            release = next;
        }
    }

    /// Schedule a task on the best core, retrying transparently until an
    /// attempt survives: no budget, no backoff, every death seen as it
    /// happens, nothing recorded but the retry count. `dur` is in simulated
    /// seconds (already scaled by the machine profile). Panics when every
    /// node is dead.
    pub fn run_task(&mut self, ready: f64, dur: f64) -> TaskPlacement {
        let unbounded = RetryPolicy::new(u32::MAX);
        self.run_task_recovering(
            ready,
            dur,
            &unbounded,
            TaskOpts::default(),
            redispatch_for_free(RecoveryLog::Caller),
        )
        .expect("no surviving core can run the task (all nodes dead)")
        .0
    }

    /// Schedule a task under a [`RetryPolicy`]: bounded retries with
    /// exponential backoff in simulated time, heartbeat-delayed death
    /// detection, a per-attempt watchdog timeout, and an optional absolute
    /// deadline. Unlike [`Self::run_task`], this never panics — exhaustion
    /// surfaces as a typed [`PolicyError`].
    ///
    /// Each lost attempt is charged as lost work, traced as a killed
    /// task, and followed by a `"recovery"` phase + [`EventKind::Recovery`]
    /// window covering detection and backoff, so the cost of the policy is
    /// visible to the critical-path and metrics tooling. Re-dispatch itself
    /// is free here; an engine that pays for it calls
    /// [`Self::run_task_recovering`] with its own price.
    pub fn run_task_policied(
        &mut self,
        ready: f64,
        dur: f64,
        policy: &RetryPolicy,
    ) -> Result<TaskPlacement, PolicyError> {
        let free = redispatch_for_free(RecoveryLog::ByCause);
        self.run_task_recovering(ready, dur, policy, TaskOpts::default(), free)
            .map(|(placement, _)| placement)
    }

    /// The core the `k`-th task of a batch released at time `at` will land
    /// on, assuming all surviving cores are idle by `at` (the post-barrier
    /// dispatch pattern): surviving cores ordered by (free time, id),
    /// wrapping if the batch exceeds the core count. Engines use this to
    /// predict reduce-task placement for locality attribution.
    pub fn nth_free_core(&self, at: f64, k: usize) -> usize {
        let mut order: Vec<(f64, usize)> = self
            .core_free
            .iter()
            .enumerate()
            .filter(|&(c, &free)| {
                self.core_admitted(c)
                    && self
                        .death_of(c)
                        .is_none_or(|died_at| free.max(at) < died_at)
            })
            .map(|(c, &free)| (free.max(at), c))
            .collect();
        assert!(!order.is_empty(), "no surviving cores");
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        order[k % order.len()].1
    }

    /// Book a completed attempt: its core is busy until the compute end
    /// `start + dur`; the driver sees the result at `visible_end`, which is
    /// later than that only behind a cut.
    fn place(
        &mut self,
        core: usize,
        ready: f64,
        start: f64,
        dur: f64,
        speculative: bool,
        visible_end: f64,
    ) -> TaskPlacement {
        let end = start + dur;
        self.set_core_free(core, end);
        self.record_task_event(core, ready, start, end, false, speculative);
        self.report.tasks += 1;
        self.report.compute_s += dur;
        self.report.makespan_s = self.report.makespan_s.max(visible_end);
        TaskPlacement {
            core,
            start,
            end: visible_end,
        }
    }

    fn record_task_event(
        &mut self,
        core: usize,
        ready: f64,
        start: f64,
        end: f64,
        killed: bool,
        speculative: bool,
    ) {
        let Some(trace) = &mut self.report.trace else {
            return;
        };
        let seq = self.trace_seq;
        self.trace_seq += 1;
        if self.trace_stride > 1 && !seq.is_multiple_of(self.trace_stride as u64) {
            return;
        }
        trace.record(TraceEvent {
            task: trace.next_id(),
            core,
            start_s: start,
            end_s: end,
            killed,
            ready_s: ready.min(start),
            phase: self.phase_sym,
            kind: EventKind::Task {
                label: self.label_sym,
                speculative,
            },
        });
    }

    fn record_network_event(
        &mut self,
        kind: EventKind,
        track: usize,
        start_s: f64,
        end_s: f64,
        killed: bool,
    ) {
        if let Some(trace) = &mut self.report.trace {
            trace.record(TraceEvent {
                task: trace.next_id(),
                core: track,
                start_s,
                end_s: end_s.max(start_s),
                killed,
                ready_s: start_s,
                phase: self.phase_sym,
                kind,
            });
        }
    }

    /// Record a point-to-point transfer (shuffle fetch, staging, gather
    /// leg). No core is occupied. No-op unless tracing is enabled.
    pub fn record_fetch(
        &mut self,
        from_node: usize,
        to_node: usize,
        bytes: u64,
        start_s: f64,
        end_s: f64,
    ) {
        self.record_network_event(
            EventKind::Fetch {
                from_node,
                to_node,
                bytes,
            },
            to_node,
            start_s,
            end_s,
            false,
        );
    }

    /// Record a transfer lost on the wire (paid for, then re-sent).
    pub fn record_fetch_lost(
        &mut self,
        from_node: usize,
        to_node: usize,
        bytes: u64,
        start_s: f64,
        end_s: f64,
    ) {
        self.record_network_event(
            EventKind::Fetch {
                from_node,
                to_node,
                bytes,
            },
            to_node,
            start_s,
            end_s,
            true,
        );
    }

    /// Record one broadcast round to `dest_nodes` destinations.
    pub fn record_broadcast(&mut self, bytes: u64, dest_nodes: usize, start_s: f64, end_s: f64) {
        self.record_network_event(
            EventKind::Broadcast { bytes, dest_nodes },
            0,
            start_s,
            end_s,
            false,
        );
    }

    /// Record a recovery window (failure detection, re-enqueue, recompute
    /// dispatch) labelled for critical-path attribution.
    pub fn record_recovery(&mut self, label: &str, start_s: f64, end_s: f64) {
        let Some(trace) = &mut self.report.trace else {
            return;
        };
        let label = trace.intern(label);
        self.record_network_event(EventKind::Recovery { label }, 0, start_s, end_s, false);
    }

    /// Record a stale result rejected by fencing: a zombie attempt's
    /// delivery (suspicion at `start_s`, arrival at `end_s`) discarded by
    /// its attempt epoch / generation number. Bumps
    /// `report.fenced_results` whether or not tracing is on — the
    /// exactly-once oracle counts fences, not trace events — and, when
    /// tracing, records an [`EventKind::Fenced`] window labelled with the
    /// engine's fencing mechanism (`"stale-shuffle-epoch"`,
    /// `"db-generation"`, …).
    pub fn record_fenced(&mut self, label: &str, start_s: f64, end_s: f64) {
        self.report.fenced_results += 1;
        let Some(trace) = &mut self.report.trace else {
            return;
        };
        let label = trace.intern(label);
        self.record_network_event(EventKind::Fenced { label }, 0, start_s, end_s, false);
    }

    // ---- per-node memory model ----

    /// Resident bytes currently reserved on `node`.
    pub fn mem_resident(&self, node: usize) -> u64 {
        self.mem_resident[node]
    }

    /// Effective memory budget of `node` at virtual time `at_s` (profile
    /// limit, shrunk by any fault-plan memory fault in effect by then).
    pub fn mem_budget(&self, node: usize, at_s: f64) -> u64 {
        self.cluster.mem_budget(node, at_s)
    }

    /// Try to reserve `bytes` of resident memory on `node` against the
    /// budget in effect at `at_s`. On success the node's high-water mark is
    /// advanced and `true` is returned; on failure nothing changes and the
    /// engine must degrade (spill, evict, queue, chunk, or fail typed).
    pub fn try_reserve_memory(&mut self, node: usize, bytes: u64, at_s: f64) -> bool {
        let budget = self.cluster.mem_budget(node, at_s);
        let want = self.mem_resident[node].saturating_add(bytes);
        if want > budget {
            return false;
        }
        self.mem_resident[node] = want;
        self.note_high_water(node);
        true
    }

    /// Reserve `bytes` on `node` unconditionally (engines that model their
    /// own thresholds — Dask's memory manager — track overshoot and react
    /// to it themselves). The high-water mark still advances.
    pub fn force_reserve_memory(&mut self, node: usize, bytes: u64) {
        self.mem_resident[node] = self.mem_resident[node].saturating_add(bytes);
        self.note_high_water(node);
    }

    /// Release `bytes` of resident memory on `node` (saturating).
    pub fn release_memory(&mut self, node: usize, bytes: u64) {
        self.mem_resident[node] = self.mem_resident[node].saturating_sub(bytes);
    }

    fn note_high_water(&mut self, node: usize) {
        if self.report.mem_high_water[node] < self.mem_resident[node] {
            self.report.mem_high_water[node] = self.mem_resident[node];
        }
    }

    /// Record `bytes` spilled to local disk on `node` over
    /// `[start_s, end_s)` (the caller charges the disk time itself via
    /// [`MachineProfile::disk_time`](crate::MachineProfile::disk_time)).
    pub fn record_spill(&mut self, node: usize, bytes: u64, start_s: f64, end_s: f64) {
        self.report.bytes_spilled += bytes;
        self.record_network_event(
            EventKind::Spill { node, bytes },
            node,
            start_s,
            end_s,
            false,
        );
    }

    /// Record `bytes` of cached state evicted from `node` at `at_s` and
    /// release them from the resident ledger.
    pub fn record_evict(&mut self, node: usize, bytes: u64, at_s: f64) {
        self.release_memory(node, bytes);
        self.report.bytes_evicted += bytes;
        self.record_network_event(EventKind::Evict { node, bytes }, node, at_s, at_s, false);
    }

    /// Record a streaming ingestion pause on `node` from `start_s` to
    /// `end_s`: resident window state hit the memory budget and the
    /// pipeline waited for a scheduled budget change instead of OOMing
    /// (the backpressure contract).
    pub fn record_backpressure(&mut self, node: usize, start_s: f64, end_s: f64) {
        self.record_network_event(
            EventKind::Backpressure { node },
            node,
            start_s,
            end_s,
            false,
        );
    }

    /// Record a worker on `node` being OOM-killed at `at_s` (Dask's
    /// terminate threshold, a pilot agent shot by the batch system).
    pub fn record_oom_kill(&mut self, node: usize, at_s: f64) {
        self.report.oom_kills += 1;
        self.record_network_event(EventKind::OomKill { node }, node, at_s, at_s, true);
    }

    // ---- service-queue events (mdtaskd) ----

    /// Record a job entering `tenant`'s service queue at `at_s`.
    pub fn record_enqueue(&mut self, tenant: usize, job: usize, at_s: f64) {
        self.record_network_event(EventKind::Enqueue { tenant, job }, 0, at_s, at_s, false);
    }

    /// Record a queued job being admitted to the cluster at `at_s`; the
    /// event's ready time is the enqueue time, so `start_s - ready_s` is
    /// the job's queue wait (surfaced by [`crate::Metrics`]).
    pub fn record_admit(&mut self, tenant: usize, job: usize, enqueued_s: f64, at_s: f64) {
        if let Some(trace) = &mut self.report.trace {
            trace.record(TraceEvent {
                task: trace.next_id(),
                core: 0,
                start_s: at_s,
                end_s: at_s,
                killed: false,
                ready_s: enqueued_s.min(at_s),
                phase: self.phase_sym,
                kind: EventKind::Admit { tenant, job },
            });
        }
    }

    /// Record a job refused typed (backpressure, quota, or capacity) at
    /// `at_s` instead of being queued or run.
    pub fn record_reject(&mut self, tenant: usize, job: usize, at_s: f64) {
        self.record_network_event(EventKind::Reject { tenant, job }, 0, at_s, at_s, true);
    }

    /// Cap the cores on `node` that admission control lets run tasks
    /// (pilot-style: concurrency bounded by declared working-set size).
    /// The cap is clamped to the node's physical core count.
    pub fn set_node_core_limit(&mut self, node: usize, limit: usize) {
        let per_node = self.cluster.profile.cores_per_node;
        let limit = limit.min(per_node);
        self.node_core_limit[node] = limit;
        // Re-key the node's cores in the index: closed cores read +∞ (never
        // picked), re-opened ones resume at their tracked free time (or stay
        // closed if that is past their node's death).
        let base = node * per_node;
        for i in 0..per_node {
            let c = base + i;
            if c >= self.core_free.len() {
                break;
            }
            self.index.update(c, self.core_free[c], i < limit);
        }
    }

    /// Virtual time when every core is idle again (O(1): maintained
    /// incrementally by [`Self::set_core_free`]).
    pub fn all_idle_at(&self) -> f64 {
        self.max_free
    }

    /// Advance the simulation's observed makespan to at least `t` (used for
    /// driver-side phases such as a final reduce or job teardown).
    pub fn advance_makespan(&mut self, t: f64) {
        self.report.makespan_s = self.report.makespan_s.max(t);
    }

    /// Mutable access to the accumulated report (engines add comm/overhead
    /// charges and phases).
    pub fn report_mut(&mut self) -> &mut SimReport {
        &mut self.report
    }

    /// Finish and return the report.
    pub fn into_report(self) -> SimReport {
        self.report
    }

    pub fn report(&self) -> &SimReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::fault::FaultPlan;

    fn exec(cores: usize) -> SimExecutor {
        SimExecutor::new(Cluster::builder().cores_per_node(cores).build())
    }

    /// `nodes` nodes of `cores` cores each, with a fault plan.
    fn faulty(cores: usize, nodes: usize, plan: FaultPlan) -> SimExecutor {
        SimExecutor::new(
            Cluster::builder()
                .nodes(nodes)
                .cores_per_node(cores)
                .fault_plan(plan)
                .build(),
        )
    }

    /// One attempt outside the recovery loop, as the engines' tasks see it:
    /// no policy beyond the defaults, an optional speculation cap.
    fn attempt(e: &mut SimExecutor, ready: f64, dur: f64, cap: Option<f64>) -> Attempt {
        let opts = TaskOpts {
            speculation_cap: cap,
        };
        e.attempt(ready, dur, &RetryPolicy::default(), opts, None, false)
            .expect("a core survives")
    }

    /// The placement of a speculated 1 s task released at t = 0.
    fn speculated(e: &mut SimExecutor, cap: f64) -> TaskPlacement {
        match attempt(e, 0.0, 1.0, Some(cap)) {
            Attempt::Done(p) => p,
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn fills_idle_cores_first() {
        let mut e = exec(2);
        let a = e.run_task(0.0, 1.0);
        let b = e.run_task(0.0, 1.0);
        let c = e.run_task(0.0, 1.0);
        assert_ne!(a.core, b.core);
        assert_eq!(a.start, 0.0);
        assert_eq!(b.start, 0.0);
        assert_eq!(c.start, 1.0, "third task waits for a free core");
        assert_eq!(e.report().makespan_s, 2.0);
    }

    #[test]
    fn respects_ready_time() {
        let mut e = exec(4);
        let p = e.run_task(5.0, 1.0);
        assert_eq!(p.start, 5.0);
        assert_eq!(p.end, 6.0);
    }

    #[test]
    fn perfect_speedup_for_divisible_work() {
        // 64 unit tasks on 8 cores -> makespan 8; on 16 cores -> 4.
        let mut e8 = exec(8);
        for _ in 0..64 {
            e8.run_task(0.0, 1.0);
        }
        let mut e16 = exec(16);
        for _ in 0..64 {
            e16.run_task(0.0, 1.0);
        }
        assert_eq!(e8.report().makespan_s, 8.0);
        assert_eq!(e16.report().makespan_s, 4.0);
    }

    #[test]
    fn makespan_monotone() {
        let mut e = exec(2);
        let mut last = 0.0;
        for i in 0..20 {
            e.run_task(0.0, 0.1 * (i % 3) as f64);
            assert!(e.report().makespan_s >= last);
            last = e.report().makespan_s;
        }
    }

    #[test]
    fn trace_records_placements() {
        let mut e = exec(2);
        e.enable_trace();
        e.run_task(0.0, 1.0);
        e.run_task(0.0, 2.0);
        let t = e.trace().unwrap();
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.span(), 2.0);
        assert!(t.gantt(2, 8).contains('#'));
    }

    #[test]
    fn trace_events_carry_phase_and_label() {
        let mut e = exec(1);
        e.enable_trace();
        e.set_phase("edge-discovery");
        e.set_task_label("strip");
        e.run_task(0.5, 1.0);
        let t = e.trace().unwrap();
        let ev = &t.events[0];
        assert_eq!(t.phase_of(ev), "edge-discovery");
        assert_eq!(t.label_of(ev), "strip");
        assert_eq!(ev.ready_s, 0.5);
    }

    #[test]
    fn phase_and_label_set_before_tracing_survive_enable() {
        let mut e = exec(1);
        e.set_phase("warmup");
        e.set_task_label("probe");
        e.enable_trace();
        e.run_task(0.0, 1.0);
        let t = e.trace().unwrap();
        assert_eq!(t.phase_of(&t.events[0]), "warmup");
        assert_eq!(t.label_of(&t.events[0]), "probe");
    }

    #[test]
    fn sampled_trace_keeps_every_nth_task_but_all_network_events() {
        let mut e = exec(4);
        e.enable_trace_sampled(4);
        for _ in 0..16 {
            e.run_task(0.0, 1.0);
        }
        e.record_fetch(0, 0, 64, 0.0, 0.5);
        e.record_broadcast(32, 1, 0.0, 0.25);
        let t = e.trace().unwrap();
        assert!(t.is_sampled());
        assert_eq!(t.sample_stride(), 4);
        let tasks = t.events.iter().filter(|ev| ev.occupies_core()).count();
        assert_eq!(tasks, 4, "every 4th of 16 attempts");
        let network = t.events.iter().filter(|ev| !ev.occupies_core()).count();
        assert_eq!(network, 2, "network events are never sampled");
        // The report still counts everything.
        assert_eq!(e.report().tasks, 16);
    }

    #[test]
    fn untraced_run_still_counts_everything() {
        let mut e = exec(2);
        for _ in 0..8 {
            e.run_task(0.0, 1.0);
        }
        e.record_fetch(0, 0, 64, 0.0, 0.5);
        assert!(e.trace().is_none());
        assert_eq!(e.report().tasks, 8);
        assert_eq!(e.report().makespan_s, 4.0);
    }

    #[test]
    fn network_events_record_without_occupying_cores() {
        let mut e = exec(1);
        e.enable_trace();
        e.run_task(0.0, 1.0);
        e.record_fetch(0, 1, 4096, 1.0, 1.5);
        e.record_broadcast(1024, 2, 0.0, 0.25);
        e.record_recovery("recompute", 1.0, 1.25);
        let t = e.trace().unwrap();
        assert_eq!(t.events.len(), 4);
        assert_eq!(e.core_free[0], 1.0, "network events hold no core");
        // The trace lives in the report, so clones keep it.
        assert!(e.report().trace.is_some());
    }

    #[test]
    fn advance_makespan_only_grows() {
        let mut e = exec(1);
        e.run_task(0.0, 2.0);
        e.advance_makespan(1.0);
        assert_eq!(e.report().makespan_s, 2.0);
        e.advance_makespan(3.0);
        assert_eq!(e.report().makespan_s, 3.0);
    }

    // ---- fault injection ----

    #[test]
    fn attempt_crossing_node_death_is_killed() {
        // 2 nodes × 1 core; node 0 dies at t=1, task needs [0, 2).
        let mut e = faulty(1, 2, FaultPlan::none().kill_node(0, 1.0));
        assert_eq!(
            attempt(&mut e, 0.0, 2.0, None),
            Attempt::Failed {
                core: 0,
                at_s: 1.0,
                cause: Cause::Death
            }
        );
        assert_eq!(e.report().lost_time_s, 1.0);
        assert_eq!(
            e.report().tasks,
            0,
            "killed attempts are not completed tasks"
        );
        // The dead node accepts no further placements: the retry wrapper
        // lands the rerun on node 1.
        let p = e.run_task(1.0, 2.0);
        assert_eq!(p.core, 1);
    }

    #[test]
    fn run_task_retries_until_done_and_counts() {
        let mut e = faulty(1, 2, FaultPlan::none().kill_node(0, 1.0));
        let p = e.run_task(0.0, 2.0);
        assert_eq!(p.core, 1, "rerun lands on the surviving node");
        assert_eq!(p.start, 1.0, "rerun starts when the death is observed");
        assert_eq!(e.report().retries, 1);
        assert_eq!(e.report().lost_time_s, 1.0);
        assert_eq!(e.report().tasks, 1);
    }

    #[test]
    fn dead_node_is_never_chosen_after_death() {
        let mut e = faulty(2, 2, FaultPlan::none().kill_node(0, 5.0));
        for _ in 0..6 {
            let p = e.run_task(6.0, 1.0);
            assert_eq!(e.cluster().node_of_core(p.core), 1);
        }
    }

    #[test]
    fn straggler_core_stretches_tasks() {
        let mut e = faulty(2, 1, FaultPlan::none().slow_core(0, 4.0));
        let a = e.run_task(0.0, 1.0); // core 0: 4× slower
        let b = e.run_task(0.0, 1.0); // core 1: nominal
        assert_eq!(a.end - a.start, 4.0);
        assert_eq!(b.end - b.start, 1.0);
    }

    #[test]
    fn speculative_backup_occupies_its_core_and_kills_the_straggler() {
        // 2 cores, core 0 slowed 10×. Cap 2.0: detected at t=2, backup
        // runs [2, 3) on core 1 and wins; the original is killed at t=3.
        let plan = FaultPlan::none().slow_core(0, 10.0);
        let mut capped = faulty(2, 1, plan.clone());
        capped.enable_trace();
        let p = speculated(&mut capped, 2.0);
        assert_eq!(p.core, 1, "backup avoids the straggler core");
        assert_eq!(p.start, 2.0, "backup launches at detection time");
        assert_eq!(p.end, 3.0);
        assert_eq!(capped.report().retries, 1, "the backup attempt is a retry");
        // Both cores were genuinely occupied: the straggler until its kill,
        // the backup until it finished.
        assert_eq!(capped.core_free[0], 3.0);
        assert_eq!(capped.core_free[1], 3.0);
        assert_eq!(capped.report().lost_time_s, 3.0);
        let t = capped.trace().unwrap();
        assert_eq!(t.events.len(), 2, "both attempts appear in the trace");
        assert!(t.events[0].killed, "the losing original is killed");
        let EventKind::Task { speculative, .. } = &t.events[1].kind else {
            panic!("expected a task event");
        };
        assert!(*speculative, "the winner is marked speculative");

        let mut uncapped = faulty(2, 1, plan);
        let p = uncapped.run_task(0.0, 1.0);
        assert_eq!(p.end, 10.0);
        assert_eq!(uncapped.report().retries, 0);
    }

    #[test]
    fn speculation_without_a_spare_core_runs_to_completion() {
        // Single core: there is nowhere to launch a backup, so the
        // straggler finishes at its stretched duration and no phantom
        // retry is counted.
        let mut e = faulty(1, 1, FaultPlan::none().slow_core(0, 10.0));
        let p = speculated(&mut e, 2.0);
        assert_eq!(p.end, 10.0);
        assert_eq!(e.report().retries, 0);
    }

    #[test]
    fn backup_only_launches_when_it_would_finish_earlier() {
        // Core 1 is slower than the remaining straggler time: launching a
        // backup there would lose, so none launches.
        let plan = FaultPlan::none().slow_core(0, 3.0).slow_core(1, 10.0);
        let mut e = faulty(2, 1, plan);
        let p = speculated(&mut e, 2.0);
        assert_eq!(p.core, 0);
        assert_eq!(p.end, 3.0);
        assert_eq!(e.report().retries, 0);
        assert_eq!(e.core_free[1], 0.0, "no phantom backup occupancy");
    }

    #[test]
    fn blacklisted_core_is_avoided() {
        let mut e = exec(2);
        let got = e
            .attempt(
                0.0,
                1.0,
                &RetryPolicy::default(),
                TaskOpts::default(),
                Some(0),
                false,
            )
            .unwrap();
        match got {
            Attempt::Done(p) => assert_eq!(p.core, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nth_free_core_orders_survivors() {
        // 2 nodes × 2 cores, node 1 (cores 2-3) dead at t=1.
        let e = faulty(2, 2, FaultPlan::none().kill_node(1, 1.0));
        // Before the death every core is available in id order.
        assert_eq!(e.nth_free_core(0.0, 0), 0);
        assert_eq!(e.nth_free_core(0.0, 2), 2);
        // After the death only cores 0-1 remain, and the batch wraps.
        assert_eq!(e.nth_free_core(2.0, 0), 0);
        assert_eq!(e.nth_free_core(2.0, 1), 1);
        assert_eq!(e.nth_free_core(2.0, 2), 0);
    }

    #[test]
    fn killed_attempts_appear_in_trace() {
        let mut e = faulty(1, 2, FaultPlan::none().kill_node(0, 1.0));
        e.enable_trace();
        e.run_task(0.0, 2.0);
        let t = e.trace().unwrap();
        assert_eq!(t.events.len(), 2);
        assert!(t.events[0].killed);
        assert!(!t.events[1].killed);
    }

    #[test]
    #[should_panic]
    fn all_nodes_dead_panics() {
        let mut e = faulty(1, 1, FaultPlan::none().kill_node(0, 1.0));
        e.run_task(2.0, 1.0);
    }

    // ---- earliest-free-core index vs. linear-scan oracle ----
    //
    // The tournament tree must pick the *identical* (core, start) pair as
    // the retired linear scan in every reachable state — randomized free
    // times, node deaths, admission limits, and avoid sets. The linear
    // scan lives here as the oracle.

    /// Deterministic splitmix64, the same generator the chaos harness
    /// seeds its plans with.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn unit(state: &mut u64) -> f64 {
        (mix(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The retired O(cores) scan, kept verbatim as the oracle for the
    /// tournament-tree index.
    fn try_pick_core_linear(
        e: &SimExecutor,
        ready: f64,
        avoid: Option<usize>,
    ) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (c, &free) in e.core_free.iter().enumerate() {
            if Some(c) == avoid || !e.core_admitted(c) {
                continue;
            }
            let start = free.max(ready);
            if let Some(died_at) = e.death_of(c) {
                if start >= died_at {
                    continue; // node gone before the task could begin
                }
            }
            if best.is_none_or(|(_, s)| start < s) {
                best = Some((c, start));
                if start <= ready {
                    break; // cannot start earlier than the release time
                }
            }
        }
        best
    }

    #[test]
    fn index_matches_linear_scan_on_randomized_states() {
        for seed in 0..40u64 {
            let mut rng = seed.wrapping_mul(0x5851f42d4c957f2d) + 1;
            let nodes = 1 + (mix(&mut rng) % 5) as usize;
            let per_node = 1 + (mix(&mut rng) % 7) as usize;
            let mut plan = FaultPlan::none();
            for node in 0..nodes {
                if unit(&mut rng) < 0.4 {
                    plan = plan.kill_node(node, unit(&mut rng) * 8.0);
                }
            }
            for c in 0..nodes * per_node {
                if unit(&mut rng) < 0.2 {
                    plan = plan.slow_core(c, 1.0 + unit(&mut rng) * 4.0);
                }
            }
            let mut e = faulty(per_node, nodes, plan);
            // Random admission limits on some nodes.
            for node in 0..nodes {
                if unit(&mut rng) < 0.3 {
                    e.set_node_core_limit(node, (mix(&mut rng) % (per_node as u64 + 1)) as usize);
                }
            }
            // Random busy state, written through the tracked path.
            let cores = nodes * per_node;
            for _ in 0..cores * 2 {
                let c = (mix(&mut rng) % cores as u64) as usize;
                let bump = e.core_free[c] + unit(&mut rng) * 6.0;
                e.set_core_free(c, bump);
            }
            // Compare picks across a grid of release times and avoid sets.
            for _ in 0..64 {
                let ready = unit(&mut rng) * 10.0;
                let avoid = if unit(&mut rng) < 0.5 {
                    Some((mix(&mut rng) % cores as u64) as usize)
                } else {
                    None
                };
                let fast = e.pick(ready, avoid, false);
                let slow = try_pick_core_linear(&e, ready, avoid);
                assert_eq!(
                    fast, slow,
                    "seed {seed}: index and linear scan disagree at \
                     ready={ready}, avoid={avoid:?}"
                );
            }
        }
    }

    /// The retired O(cores) partition-aware scan, kept verbatim as the
    /// oracle for the cut-aware indexed pick: a core's earliest start is
    /// its node's `earliest_reach` from the driver (node 0).
    fn pick_reachable_linear(
        e: &SimExecutor,
        ready: f64,
        avoid: Option<usize>,
    ) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (c, &free) in e.core_free.iter().enumerate() {
            if Some(c) == avoid || !e.core_admitted(c) {
                continue;
            }
            let node = e.cluster.node_of_core(c);
            let start = e.cluster.faults().earliest_reach(0, node, free.max(ready));
            if let Some(died_at) = e.death_of(c) {
                if start >= died_at {
                    continue; // node gone before the task could begin
                }
            }
            if best.is_none_or(|(_, s)| start < s) {
                best = Some((c, start));
            }
        }
        best
    }

    #[test]
    fn cut_aware_index_matches_linear_reachable_scan_on_randomized_states() {
        let mut compared = 0;
        let mut pushed_by_a_cut = 0;
        for seed in 0..120u64 {
            let mut rng = seed.wrapping_mul(0x5851f42d4c957f2d) + 7;
            let nodes = 1 + (mix(&mut rng) % 6) as usize;
            let per_node = 1 + (mix(&mut rng) % 7) as usize;
            let cores = nodes * per_node;
            let mut plan = FaultPlan::none();
            for node in 0..nodes {
                if unit(&mut rng) < 0.3 {
                    plan = plan.kill_node(node, unit(&mut rng) * 10.0);
                }
            }
            // 0–3 cuts. Each isolates a random set of nodes, the driver
            // alone (every peer is behind the cut), or continues the
            // previous window at the instant it heals; windows may also
            // overlap, which the builder allows.
            let mut last: Option<(Vec<Vec<usize>>, f64)> = None;
            for _ in 0..mix(&mut rng) % 4 {
                let (groups, from_s) = match (&last, mix(&mut rng) % 4) {
                    (Some((groups, heal)), 0) => (groups.clone(), *heal),
                    (_, 1) => (vec![vec![0]], unit(&mut rng) * 8.0),
                    _ => {
                        let cut: Vec<usize> = (0..nodes).filter(|_| unit(&mut rng) < 0.5).collect();
                        (vec![cut], unit(&mut rng) * 8.0)
                    }
                };
                let to_s = from_s + 0.25 + unit(&mut rng) * 4.0;
                plan = plan.partition(groups.clone(), from_s, to_s);
                last = Some((groups, to_s));
            }
            let cut_aware = plan.has_partitions();
            let mut e = faulty(per_node, nodes, plan);
            for node in 0..nodes {
                if unit(&mut rng) < 0.3 {
                    e.set_node_core_limit(node, (mix(&mut rng) % (per_node as u64 + 1)) as usize);
                }
            }
            for _ in 0..cores * 2 {
                let c = (mix(&mut rng) % cores as u64) as usize;
                let bump = e.core_free[c] + unit(&mut rng) * 5.0;
                e.set_core_free(c, bump);
            }
            for _ in 0..64 {
                let ready = unit(&mut rng) * 12.0;
                let avoid = (unit(&mut rng) < 0.5).then(|| (mix(&mut rng) % cores as u64) as usize);
                let fast = e.pick(ready, avoid, cut_aware);
                let slow = pick_reachable_linear(&e, ready, avoid);
                assert_eq!(
                    fast, slow,
                    "seed {seed}: index and reachable scan disagree at \
                     ready={ready}, avoid={avoid:?}"
                );
                compared += 1;
                if let Some((c, start)) = fast {
                    pushed_by_a_cut += (start > e.core_free[c].max(ready)) as usize;
                }
            }
        }
        assert_eq!(compared, 120 * 64);
        assert!(pushed_by_a_cut > 200, "cuts rarely bit: {pushed_by_a_cut}");
    }

    /// One randomized state on a 0.5 s grid — deaths, free-time bumps and
    /// admission limits — so many cores tie exactly on their start; with
    /// `cut` a group of nodes sits behind one partition, so their
    /// `earliest_reach` answers the same heal time.
    fn tied_state(seed: u64, cut: bool) -> (SimExecutor, u64) {
        let grid = |rng: &mut u64, steps: u64| (mix(rng) % (steps + 1)) as f64 * 0.5;
        let mut rng = seed.wrapping_mul(0x5851f42d4c957f2d) + 11;
        let nodes = 1 + (mix(&mut rng) % 6) as usize;
        let per_node = 1 + (mix(&mut rng) % 12) as usize;
        let mut plan = FaultPlan::none();
        for node in 0..nodes {
            if unit(&mut rng) < 0.4 {
                plan = plan.kill_node(node, grid(&mut rng, 12));
            }
        }
        if cut {
            // One or two windows over the same group of nodes; the second
            // may continue the first at its heal.
            let group: Vec<usize> = (1..nodes).filter(|_| unit(&mut rng) < 0.7).collect();
            let from_s = grid(&mut rng, 8);
            let to_s = from_s + 0.5 + grid(&mut rng, 6);
            plan = plan.partition(vec![group.clone()], from_s, to_s);
            if unit(&mut rng) < 0.5 {
                let again = if unit(&mut rng) < 0.5 {
                    to_s
                } else {
                    grid(&mut rng, 10)
                };
                plan = plan.partition(vec![group], again, again + 0.5 + grid(&mut rng, 4));
            }
        }
        let mut e = faulty(per_node, nodes, plan);
        for node in 0..nodes {
            if unit(&mut rng) < 0.3 {
                e.set_node_core_limit(node, (mix(&mut rng) % (per_node as u64 + 1)) as usize);
            }
        }
        let cores = nodes * per_node;
        for _ in 0..cores * 2 {
            let c = (mix(&mut rng) % cores as u64) as usize;
            let bump = e.core_free[c] + grid(&mut rng, 2);
            e.set_core_free(c, bump);
        }
        (e, rng)
    }

    /// Best-first order may reach a tied core in a right subtree before a
    /// lower id in a left one: on states where starts tie exactly the index
    /// must still pick what the linear scans pick, reachable or not.
    #[test]
    fn index_matches_linear_scan_on_tied_states() {
        for cut in [false, true] {
            let oracle = if cut {
                pick_reachable_linear
            } else {
                try_pick_core_linear
            };
            let mut ties = 0;
            for seed in 0..300u64 {
                let (mut e, mut rng) = tied_state(seed, cut);
                let cores = e.core_free.len() as u64;
                for _ in 0..32 {
                    let ready = (mix(&mut rng) % 5) as f64 * 0.5;
                    // No core to avoid, a random one, or the core the scan
                    // chooses, as a retry of that pick would ask.
                    let avoid = match mix(&mut rng) % 3 {
                        0 => None,
                        1 => Some((mix(&mut rng) % cores) as usize),
                        _ => oracle(&e, ready, None).map(|(c, _)| c),
                    };
                    let fast = e.pick(ready, avoid, cut);
                    let slow = oracle(&e, ready, avoid);
                    assert_eq!(
                        fast, slow,
                        "seed {seed}, cut {cut}: index and linear scan disagree at \
                         ready={ready}, avoid={avoid:?}"
                    );
                    if let Some((c, start)) = slow.filter(|_| avoid.is_none()) {
                        ties +=
                            oracle(&e, ready, Some(c)).is_some_and(|(_, s)| s == start) as usize;
                    }
                }
            }
            assert!(ties > 1_000, "cut {cut}: starts rarely tied: {ties}");
        }
    }

    /// Tree nodes examined per core pick on the benchmark's saturated
    /// backlog (128 × 32 cores, every task released at 0, 0.5–1.5 s each),
    /// fault-free and with a node dying mid-run: a pick descends one
    /// root-to-leaf path, give or take a retry's detour around the core it
    /// must avoid.
    #[test]
    fn saturated_picks_examine_one_path() {
        for dies in [false, true] {
            let plan = FaultPlan::none();
            let mut e = faulty(32, 128, if dies { plan.kill_node(5, 2.0) } else { plan });
            for i in 0..20_000u64 {
                let h = (i ^ 7u64.rotate_left(17)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
                e.run_task(0.0, 0.5 + (h % 1000 + 1) as f64 * 1e-3);
            }
            assert_eq!(e.report().retries > 0, dies, "the death falls mid-run");
            let bound = (e.index.leaves.ilog2() + 2) as f64;
            let mean = e.index.examined as f64 / e.picks as f64;
            assert!(
                mean <= bound,
                "{mean} nodes examined per pick, bound {bound}"
            );
        }
    }

    #[test]
    fn index_tracks_admission_limit_changes() {
        let mut e = exec(4);
        e.set_core_free(0, 5.0);
        e.set_node_core_limit(0, 1); // only core 0 admitted, busy until 5
        assert_eq!(e.pick(0.0, None, false), Some((0, 5.0)));
        assert_eq!(e.pick(0.0, Some(0), false), None, "sole core avoided");
        e.set_node_core_limit(0, 2); // core 1 re-opens, idle
        assert_eq!(e.pick(0.0, None, false), Some((1, 0.0)));
        e.set_node_core_limit(0, 0); // everything closed
        assert_eq!(e.pick(0.0, None, false), None);
    }

    /// A saturated backlog (every task released at 0, 0.5–1.5 s each —
    /// the regime the benchmark's `tasks_zero` workload times) under a node death, two stragglers and node 0's
    /// admission halved, on a shallow and a deep tree: before each
    /// placement the index must choose what the scan chooses — for the
    /// task, and for the retry a death at 40 s on that core would ask for.
    #[test]
    fn index_matches_linear_scan_through_a_faulty_saturated_backlog() {
        for cores in [256, 4096] {
            let plan = FaultPlan::none()
                .kill_node(1, 40.0)
                .slow_core(3, 3.0)
                .slow_core(cores / 2, 6.0);
            let mut e = faulty(32, cores / 32, plan);
            e.set_node_core_limit(0, 16);
            for i in 0..20_000u64 {
                let want = try_pick_core_linear(&e, 0.0, None);
                assert_eq!(e.pick(0.0, None, false), want, "{cores} cores, task {i}");
                let avoid = want.map(|(c, _)| c);
                assert_eq!(
                    e.pick(40.0, avoid, false),
                    try_pick_core_linear(&e, 40.0, avoid),
                    "{cores} cores, retry of task {i}"
                );
                e.run_task(
                    0.0,
                    0.5 + (i.wrapping_mul(2654435761) % 1000 + 1) as f64 * 1e-3,
                );
            }
            // 20 000 s of work on 240 admitted cores outlasts the death.
            assert_eq!(e.report().retries > 0, cores == 256, "{cores} cores");
        }
    }

    #[test]
    fn all_idle_at_matches_fold_over_core_free() {
        let mut e = faulty(2, 2, FaultPlan::none().kill_node(1, 3.0));
        assert_eq!(e.all_idle_at(), 0.0);
        for i in 0..10 {
            e.run_task(0.0, 0.5 + (i % 4) as f64 * 0.25);
            let fold = (0..4).map(|c| e.core_free[c]).fold(0.0, f64::max);
            assert_eq!(e.all_idle_at(), fold);
        }
    }

    // ---- retry policies ----

    use crate::policy::{PolicyError, RetryPolicy};

    #[test]
    fn policied_run_is_plain_placement_without_faults() {
        let mut e = exec(2);
        let p = e.run_task_policied(0.0, 1.0, &RetryPolicy::new(3)).unwrap();
        assert_eq!(p.start, 0.0);
        assert_eq!(p.end, 1.0);
        assert_eq!(e.report().retries, 0);
        assert_eq!(e.report().phase_total("recovery"), None);
    }

    #[test]
    fn policied_run_retries_with_detection_delay_and_backoff() {
        // Node 0 dies at t=1 mid-task; detection takes 0.5s and the first
        // backoff is 0.25s, so the rerun releases at 1.75 on node 1.
        let mut e = faulty(1, 2, FaultPlan::none().kill_node(0, 1.0));
        let policy = RetryPolicy::new(3)
            .with_detection_delay(0.5)
            .with_backoff(0.25, 2.0, 10.0);
        let p = e.run_task_policied(0.0, 2.0, &policy).unwrap();
        assert_eq!(p.core, 1);
        assert_eq!(p.start, 1.75);
        assert_eq!(e.report().retries, 1);
        assert_eq!(e.report().lost_time_s, 1.0);
        // The recovery phase covers death -> re-dispatch.
        assert!((e.report().phase_total("recovery").unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn policied_exhaustion_is_a_typed_error_not_a_panic() {
        // Node 0 dies at t=1, node 1 at t=2: both attempts of a 5s task
        // are killed, and with max_attempts = 2 that exhausts the policy.
        let plan = FaultPlan::none().kill_node(0, 1.0).kill_node(1, 2.0);
        let mut e = faulty(1, 2, plan);
        let got = e.run_task_policied(0.0, 5.0, &RetryPolicy::new(2));
        match got {
            Err(PolicyError::RetriesExhausted {
                attempts,
                last_failure_s,
            }) => {
                assert_eq!(attempts, 2);
                assert_eq!(last_failure_s, 2.0);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert_eq!(e.report().retries, 1, "only the re-dispatch counts");
    }

    #[test]
    fn policied_all_dead_is_a_typed_error() {
        let mut e = faulty(1, 1, FaultPlan::none().kill_node(0, 1.0));
        let got = e.run_task_policied(2.0, 1.0, &RetryPolicy::new(3));
        assert!(matches!(got, Err(PolicyError::NoSurvivingCore { .. })));
    }

    #[test]
    fn watchdog_kills_straggler_attempt_and_retry_succeeds() {
        // Core 0 is 10x slow: the 1s task would take 10s, the 2s watchdog
        // kills it at t=2 (observed immediately) and the rerun lands on
        // core 1 at nominal speed.
        let mut e = faulty(2, 1, FaultPlan::none().slow_core(0, 10.0));
        let policy = RetryPolicy::new(3).with_timeout(2.0);
        let p = e.run_task_policied(0.0, 1.0, &policy).unwrap();
        assert_eq!(p.core, 1);
        assert_eq!(p.start, 2.0, "watchdog kills are observed instantly");
        assert_eq!(e.report().retries, 1);
        assert_eq!(e.report().lost_time_s, 2.0);
    }

    #[test]
    fn watchdog_exhaustion_surfaces_as_timeout() {
        // Both cores 10x slow: every attempt times out.
        let plan = FaultPlan::none().slow_core(0, 10.0).slow_core(1, 10.0);
        let mut e = faulty(2, 1, plan);
        let policy = RetryPolicy::new(2).with_timeout(2.0);
        match e.run_task_policied(0.0, 1.0, &policy) {
            Err(PolicyError::Timeout { attempt, .. }) => assert_eq!(attempt, 2),
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    // ---- blacklist fallback audit (ISSUE-6 satellite) ----

    #[test]
    fn blacklisted_sole_survivor_is_readmitted_not_starved() {
        // 2 nodes × 1 core; node 1 dies at t=0 so core 0 — a 3× straggler
        // — is the only survivor. The watchdog kills attempt 1 and
        // blacklists core 0; with nowhere else to go, the scheduler must
        // fall back to it (and keep timing out) instead of failing with
        // NoSurvivingCore.
        let plan = FaultPlan::none().slow_core(0, 3.0).kill_node(1, 0.0);
        let mut e = faulty(1, 2, plan);
        e.enable_trace();
        let policy = RetryPolicy::new(3).with_timeout(2.0);
        match e.run_task_policied(0.0, 1.0, &policy) {
            Err(PolicyError::Timeout { attempt, .. }) => {
                assert_eq!(attempt, 3, "all attempts ran on the sole survivor");
            }
            other => panic!("expected a timeout on the sole survivor, got {other:?}"),
        }
        assert_eq!(e.report().retries, 2);
        // The concession is visible: one fallback record per re-pick of
        // the blacklisted core (attempts 2 and 3).
        let t = e.trace().unwrap();
        let fallbacks = t
            .events
            .iter()
            .filter(|ev| {
                matches!(ev.kind, EventKind::Recovery { .. })
                    && t.label_of(ev) == "blacklist-fallback"
            })
            .count();
        assert_eq!(fallbacks, 2);
    }

    #[test]
    fn blacklisted_sole_survivor_can_still_finish_the_job() {
        // Same sole-survivor shape, but the attempt dies to a *node death*
        // (core 0's node dies at t=1.5 under a 4s task) and the rerun —
        // after fallback — fits before... no second death, so it completes.
        // 2 nodes × 2 cores: node 1 dead at t=0; node 0 healthy. Core 0
        // straggles 5×, watchdog 2s. Attempt 1 → core 0 (earliest id),
        // killed at t=2, blacklisted. Attempt 2 → core 1 (no fallback
        // needed, a sibling survives) finishes at 3.
        let plan = FaultPlan::none().slow_core(0, 5.0).kill_node(1, 0.0);
        let mut e = faulty(2, 2, plan);
        e.enable_trace();
        let policy = RetryPolicy::new(3).with_timeout(2.0);
        let p = e.run_task_policied(0.0, 1.0, &policy).unwrap();
        assert_eq!(p.core, 1, "sibling survivor preferred over fallback");
        let t = e.trace().unwrap();
        assert!(
            !t.events
                .iter()
                .any(|ev| t.label_of(ev) == "blacklist-fallback"),
            "no fallback is recorded when a non-blacklisted core survives"
        );
    }

    #[test]
    fn deadline_fails_fast_without_placing() {
        let mut e = exec(1);
        let policy = RetryPolicy::new(3).with_deadline(1.0);
        let got = e.run_task_policied(0.0, 2.0, &policy);
        assert!(matches!(got, Err(PolicyError::DeadlineExceeded { .. })));
        assert_eq!(e.report().tasks, 0);
        assert_eq!(e.report().lost_time_s, 0.0, "nothing ran, nothing lost");
    }

    #[test]
    fn deadline_expiring_mid_backoff_fails_at_observation() {
        // Regression (ISSUE-7 satellite): node 0 kills the 2s attempt at
        // t=1, observed at t=1.5 (0.5s heartbeat). The 2s backoff would
        // redispatch at 3.5 — past the 3.0 deadline — so the policy must
        // fail *at the observation* (t=1.5), not sleep the backoff, record
        // a phantom recovery window, and discover the deadline at the next
        // placement.
        let plan = FaultPlan::none().kill_node(0, 1.0);
        let mut e = faulty(1, 2, plan);
        let policy = RetryPolicy::new(3)
            .with_detection_delay(0.5)
            .with_backoff(2.0, 2.0, 10.0)
            .with_deadline(3.0);
        match e.run_task_policied(0.0, 2.0, &policy) {
            Err(PolicyError::DeadlineExceeded { deadline_s, at_s }) => {
                assert_eq!(deadline_s, 3.0);
                assert_eq!(at_s, 1.5, "fails when the loss is observed");
            }
            other => panic!("expected prompt DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(e.report().retries, 0, "the doomed retry never dispatched");
        assert_eq!(
            e.report().phase_total("recovery"),
            None,
            "no recovery window for a backoff that never slept"
        );
        assert_eq!(
            e.report().lost_time_s,
            1.0,
            "the killed attempt is still charged"
        );
        // A deadline the backoff *does* fit keeps the retry path intact.
        let mut ok = faulty(1, 2, FaultPlan::none().kill_node(0, 1.0));
        let relaxed = RetryPolicy::new(3)
            .with_detection_delay(0.5)
            .with_backoff(2.0, 2.0, 10.0)
            .with_deadline(6.0);
        let p = ok.run_task_policied(0.0, 2.0, &relaxed).unwrap();
        assert_eq!(p.start, 3.5, "redispatch after detection + backoff");
        assert_eq!(ok.report().retries, 1);
    }

    #[test]
    fn policied_run_is_deterministic() {
        let plan = FaultPlan::none().kill_node(0, 1.0).slow_core(2, 3.0);
        let run = || {
            let mut e = faulty(2, 2, plan.clone());
            e.enable_trace();
            let policy = RetryPolicy::new(4)
                .with_detection_delay(0.3)
                .with_backoff(0.1, 2.0, 5.0);
            for i in 0..8 {
                e.run_task_policied(0.0, 0.5 + 0.25 * (i % 3) as f64, &policy)
                    .unwrap();
            }
            e.into_report()
        };
        assert_eq!(run(), run(), "same plan, byte-identical report");
    }

    // ---- speculation x faults interaction audit ----
    //
    // ISSUE-3 satellite: pin `lost_time_s` / `retries` accounting when the
    // speculative backup's own core is straggled or killed.

    #[test]
    fn straggled_backup_still_wins_and_accounting_is_exact() {
        // Core 0 slowed 10x, core 1 slowed 4x. Cap 2.0: the backup runs
        // [2, 6) on core 1 and still beats the original's t=10 finish, so
        // the original is killed at t=6. Lost work = [0, 6), one retry.
        let plan = FaultPlan::none().slow_core(0, 10.0).slow_core(1, 4.0);
        let mut e = faulty(2, 1, plan);
        let p = speculated(&mut e, 2.0);
        assert_eq!(p.core, 1);
        assert_eq!(p.end, 6.0, "backup pays its own straggler factor");
        assert_eq!(e.report().retries, 1);
        assert_eq!(e.report().lost_time_s, 6.0, "original occupied [0, 6)");
        assert_eq!(e.core_free[0], 6.0);
        assert_eq!(e.core_free[1], 6.0);
    }

    #[test]
    fn backup_on_a_dying_node_is_never_launched() {
        // 2 nodes x 1 core; core 0 (node 0) slowed 10x, node 1 dies at
        // t=2.5 — before the would-be backup's [2, 3) run finishes. The
        // scheduler must not launch a backup that cannot survive: the
        // straggler runs to completion and no phantom retry or lost work
        // appears.
        let plan = FaultPlan::none().slow_core(0, 10.0).kill_node(1, 2.5);
        let mut e = faulty(1, 2, plan);
        let p = speculated(&mut e, 2.0);
        assert_eq!(p.core, 0);
        assert_eq!(p.end, 10.0);
        assert_eq!(e.report().retries, 0, "no retry for an unlaunched backup");
        assert_eq!(e.report().lost_time_s, 0.0);
        assert_eq!(e.core_free[1], 0.0, "dying node never occupied");
    }

    #[test]
    fn original_dying_under_a_winning_backup_charges_only_to_its_death() {
        // Core 0 (node 0) slowed 10x and node 0 dies at t=4; backup runs
        // [2, 3) on node 1 and wins. The original is stopped at
        // min(death, backup end) = 3, so lost work is [0, 3) even though
        // its node lives until t=4.
        let plan = FaultPlan::none().slow_core(0, 10.0).kill_node(0, 4.0);
        let mut e = faulty(1, 2, plan);
        let p = speculated(&mut e, 2.0);
        assert_eq!(p.core, 1);
        assert_eq!(p.start, 2.0);
        assert_eq!(p.end, 3.0);
        assert_eq!(e.report().retries, 1);
        assert_eq!(e.report().lost_time_s, 3.0);
        assert_eq!(e.core_free[0], 3.0, "straggler core freed at the kill");
    }

    #[test]
    fn original_dying_before_backup_launch_charges_to_its_death() {
        // Node 0 dies at t=2.5, after the t=2 detection: the backup
        // launches (original alive at detection), the original dies at
        // 2.5 < backup end 3.0, so lost work is [0, 2.5).
        let plan = FaultPlan::none().slow_core(0, 10.0).kill_node(0, 2.5);
        let mut e = faulty(1, 2, plan);
        let p = speculated(&mut e, 2.0);
        assert_eq!((p.core, p.end), (1, 3.0));
        assert_eq!(e.report().retries, 1);
        assert_eq!(e.report().lost_time_s, 2.5);
        assert_eq!(e.core_free[0], 2.5);
    }

    // ---- one attempt, one loop ----

    /// An engine-priced task: every re-dispatch costs 0.125 s of scheduler
    /// time, and the engine logs its own recovery window.
    fn engine_task(
        e: &mut SimExecutor,
        dur: f64,
        policy: &RetryPolicy,
    ) -> (TaskPlacement, Option<f64>) {
        let redispatch = Redispatch {
            at: |t| t + 0.125,
            overhead_s: 0.125,
            fence: "test-fence",
            log: RecoveryLog::Caller,
        };
        e.run_task_recovering(0.0, dur, policy, TaskOpts::default(), redispatch)
            .unwrap()
    }

    #[test]
    fn each_attempt_costs_exactly_one_core_pick() {
        let mut clean = exec(4);
        engine_task(&mut clean, 1.0, &RetryPolicy::default());
        assert_eq!(clean.picks, 1, "a fault-free task descends the tree once");

        let mut killed = faulty(1, 2, FaultPlan::none().kill_node(0, 1.0));
        let (p, first_lost_s) = engine_task(&mut killed, 2.0, &RetryPolicy::default());
        assert_eq!(p.core, 1);
        assert_eq!(first_lost_s, Some(1.0));
        assert_eq!(killed.picks, 2, "one pick per attempt, lost or not");
    }

    #[test]
    fn engine_pays_its_redispatch_price_once_per_lost_attempt() {
        let mut e = faulty(1, 2, FaultPlan::none().kill_node(0, 1.0));
        e.enable_trace();
        let policy = RetryPolicy::new(3)
            .with_detection_delay(0.5)
            .with_backoff(0.25, 2.0, 10.0);
        let (p, _) = engine_task(&mut e, 2.0, &policy);
        assert_eq!(p.start, 1.875, "death + detection + backoff + dispatch");
        assert_eq!(e.report().overhead_s, 0.125);
        assert_eq!(e.report().retries, 1);
        // The engine records its own window: the loop logged nothing.
        assert_eq!(e.report().phase_total("recovery"), None);
        let t = e.trace().unwrap();
        assert!(t.events.iter().all(|ev| ev.occupies_core()));
    }

    #[test]
    fn watchdog_firing_is_named_even_when_the_engine_logs_recovery() {
        let mut e = faulty(2, 1, FaultPlan::none().slow_core(0, 10.0));
        e.enable_trace();
        let (p, first_lost_s) = engine_task(&mut e, 1.0, &RetryPolicy::new(3).with_timeout(2.0));
        assert_eq!((p.core, p.start), (1, 2.125));
        assert_eq!(first_lost_s, Some(2.0));
        let t = e.trace().unwrap();
        let recoveries: Vec<&str> = t
            .events
            .iter()
            .filter(|ev| matches!(ev.kind, EventKind::Recovery { .. }))
            .map(|ev| t.label_of(ev))
            .collect();
        assert_eq!(recoveries, ["timeout"]);
    }

    #[test]
    fn watchdog_and_speculation_compose() {
        let opts = TaskOpts {
            speculation_cap: Some(2.0),
        };
        // The watchdog fires before the scheduler would notice the
        // straggler: no backup, the attempt is lost to the timeout.
        let plan = FaultPlan::none().slow_core(0, 10.0);
        let mut early = faulty(2, 1, plan.clone());
        let tight = RetryPolicy::new(3).with_timeout(1.5);
        assert_eq!(
            early.attempt(0.0, 1.0, &tight, opts, None, false),
            Ok(Attempt::Failed {
                core: 0,
                at_s: 1.5,
                cause: Cause::Watchdog { timeout_s: 1.5 }
            })
        );
        // A later watchdog lets the backup launch; the backup fits its own
        // timeout, wins, and the original is stopped when it finishes.
        let mut late = faulty(2, 1, plan);
        let loose = RetryPolicy::new(3).with_timeout(4.0);
        match late.attempt(0.0, 1.0, &loose, opts, None, false) {
            Ok(Attempt::Done(p)) => assert_eq!((p.core, p.start, p.end), (1, 2.0, 3.0)),
            other => panic!("expected the backup to win, got {other:?}"),
        }
        assert_eq!(late.report().lost_time_s, 3.0);
        // A backup that would itself time out is never launched.
        let plan = FaultPlan::none().slow_core(0, 10.0).slow_core(1, 5.0);
        let mut doomed = faulty(2, 1, plan);
        assert_eq!(
            doomed.attempt(0.0, 1.0, &loose, opts, None, false),
            Ok(Attempt::Failed {
                core: 0,
                at_s: 4.0,
                cause: Cause::Watchdog { timeout_s: 4.0 }
            })
        );
        assert_eq!(doomed.core_free[1], 0.0, "no phantom backup occupancy");
    }

    #[test]
    fn result_delivered_after_the_deadline_fails_before_placing() {
        // Node 1 is cut off over [0.5, 3): its 1 s task finishes at 1 but
        // the driver only hears of it at the heal, past the 2 s deadline.
        // No detector is configured, so the cut is simply waited out.
        let plan = FaultPlan::none()
            .kill_node(0, 0.0)
            .partition(vec![vec![1]], 0.5, 3.0);
        let mut e = faulty(1, 2, plan.clone());
        let got = e.run_task_policied(0.0, 1.0, &RetryPolicy::new(3).with_deadline(2.0));
        assert_eq!(
            got,
            Err(PolicyError::DeadlineExceeded {
                deadline_s: 2.0,
                at_s: 0.0
            })
        );
        assert_eq!(e.report().tasks, 0);
        // Without the deadline the same task completes, late.
        let mut e = faulty(1, 2, plan);
        let p = e.run_task_policied(0.0, 1.0, &RetryPolicy::new(3)).unwrap();
        assert_eq!((p.start, p.end), (0.0, 3.0));
        assert_eq!(e.core_free[1], 1.0, "the core frees at compute end");
    }

    // ---- per-node memory model ----

    /// `nodes` nodes of `cores` cores, small memory, with a fault plan.
    fn small_mem(cores: usize, nodes: usize, mem: u64, plan: FaultPlan) -> SimExecutor {
        SimExecutor::new(
            Cluster::builder()
                .nodes(nodes)
                .cores_per_node(cores)
                .mem_budget(mem)
                .fault_plan(plan)
                .build(),
        )
    }

    #[test]
    fn reserve_tracks_high_water_per_node() {
        let mut e = small_mem(1, 2, 1000, FaultPlan::none());
        assert!(e.try_reserve_memory(0, 600, 0.0));
        assert!(e.try_reserve_memory(0, 400, 0.0));
        assert!(!e.try_reserve_memory(0, 1, 0.0), "budget exhausted");
        e.release_memory(0, 500);
        assert_eq!(e.mem_resident(0), 500);
        assert!(e.try_reserve_memory(1, 300, 0.0));
        assert_eq!(e.report().mem_high_water, vec![1000, 300]);
    }

    #[test]
    fn mem_shrink_fault_tightens_the_budget_mid_run() {
        let plan = FaultPlan::none().shrink_memory(0, 5.0, 400);
        let mut e = small_mem(1, 1, 1000, plan);
        assert!(e.try_reserve_memory(0, 500, 0.0), "full budget before");
        e.release_memory(0, 500);
        assert!(!e.try_reserve_memory(0, 500, 5.0), "shrunk budget after");
        assert!(e.try_reserve_memory(0, 400, 5.0));
    }

    #[test]
    fn spill_evict_oom_events_hit_trace_and_report() {
        let mut e = small_mem(1, 2, 1000, FaultPlan::none());
        e.enable_trace();
        e.force_reserve_memory(1, 800);
        e.record_spill(1, 300, 1.0, 1.5);
        e.record_evict(1, 200, 2.0);
        e.record_oom_kill(0, 3.0);
        assert_eq!(e.mem_resident(1), 600, "eviction releases residency");
        assert_eq!(e.report().bytes_spilled, 300);
        assert_eq!(e.report().bytes_evicted, 200);
        assert_eq!(e.report().oom_kills, 1);
        assert_eq!(e.report().mem_high_water, vec![0, 800]);
        let t = e.trace().unwrap();
        assert_eq!(t.events.len(), 3);
        assert!(matches!(
            t.events[0].kind,
            EventKind::Spill {
                node: 1,
                bytes: 300
            }
        ));
        assert!(matches!(
            t.events[1].kind,
            EventKind::Evict {
                node: 1,
                bytes: 200
            }
        ));
        assert!(matches!(t.events[2].kind, EventKind::OomKill { node: 0 }));
    }

    #[test]
    fn admission_limit_bounds_concurrency_per_node() {
        // 2 nodes x 4 cores; node 0 capped to 1 usable core. Eight unit
        // tasks: node 0 runs them serially on core 0 while node 1 runs
        // four wide, so placements never touch cores 1-3.
        let mut e = faulty(4, 2, FaultPlan::none());
        e.set_node_core_limit(0, 1);
        for _ in 0..8 {
            let p = e.run_task(0.0, 1.0);
            assert!(p.core == 0 || p.core >= 4, "cores 1-3 are closed");
        }
        assert_eq!(e.core_free[1], 0.0);
        assert_eq!(e.node_core_limit[0], 1);
        assert_eq!(e.node_core_limit[1], 4);
        // nth_free_core sees only admitted survivors.
        assert_eq!(e.nth_free_core(10.0, 1), 4);
    }
}
