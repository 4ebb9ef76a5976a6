//! The scheduling state of one [`Service::run`]: stride accounting,
//! per-tenant queues, the slot and memory ledgers, and the virtual-time
//! event loop that drives them.
//!
//! The loop is indexed so that an event costs `O(tenants + nodes)` however
//! long the backlog is (DESIGN.md §5i, "Scheduling cost"):
//!
//! * **time advance** pops a min-heap of completion events keyed
//!   `(end_s, job)` — an entry is stale, and dropped when it surfaces, once
//!   its job was killed, evicted, zombified or had its delivery deferred —
//!   and a second heap of requeue eligibility times;
//! * **admission** reads per-node free-slot counts, and within one
//!   [`SchedState::admit_all`] pass remembers the smallest working set that
//!   found no host: [`SchedState::find_slot`] is monotone in the working
//!   set and a pass only ever takes capacity, so every later entry at or
//!   above that watermark is skipped with one comparison, and a watermark of
//!   zero (no free slot anywhere) ends the pass;
//! * the partition and budget passes run only on clusters whose fault plan
//!   has partitions, or a budget change at `now`.

use crate::{JobOutcome, JobRequest, Service, ServiceReport, TenantSpec, TenantStats};
use netsim::trace::TraceEvent;
use netsim::{Cluster, EventKind, FaultPlan, SimExecutor};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use taskframe::EngineError;

/// Stride-scheduling numerator: a tenant of weight `w` advances its pass
/// by `STRIDE_K / w` per admission, so long-run admission counts are
/// proportional to weights. Wide enough that integer truncation is
/// negligible even for extreme weight ratios: at `w = u32::MAX` the stride
/// is still ≥ 256, and the relative truncation error is below `2^-8` (at
/// the old `1 << 20` a weight of 1000 already mis-shared by 0.05%).
const STRIDE_K: u64 = 1 << 40;

/// The stride accumulators of one service run: per-tenant pass values,
/// lowest-pass-first admission order. Kept overflow-free by rebasing —
/// subtracting the global minimum pass whenever it goes positive — which
/// preserves admission order exactly (only differences ever matter) while
/// bounding every pass by one maximal stride above zero. Without
/// rebasing a weight-1 tenant would wrap `u64` after `2^24` admissions.
#[derive(Clone, Debug)]
struct StrideSched {
    pass: Vec<u64>,
    stride: Vec<u64>,
}

impl StrideSched {
    fn new(weights: &[u32]) -> Self {
        StrideSched {
            pass: vec![0; weights.len()],
            stride: weights
                .iter()
                .map(|&w| (STRIDE_K / w.max(1) as u64).max(1))
                .collect(),
        }
    }

    /// The sort key for admission order: lowest pass first.
    fn pass(&self, tenant: usize) -> u64 {
        self.pass[tenant]
    }

    /// Charge one admission to `tenant`, then rebase.
    fn charge(&mut self, tenant: usize) {
        self.pass[tenant] = self.pass[tenant].saturating_add(self.stride[tenant]);
        if let Some(&m) = self.pass.iter().min() {
            if m > 0 {
                for p in &mut self.pass {
                    *p -= m;
                }
            }
        }
    }

    /// A tenant whose queue drained long ago wakes with a stale low pass;
    /// left alone it would monopolize admissions until it "caught up" on
    /// credit it never queued for, starving everyone else (the classic
    /// stride sleeper flood). Re-join at the current front instead:
    /// lift the waker's pass to the minimum among runnable tenants.
    fn wake(&mut self, tenant: usize, runnable: impl Iterator<Item = usize>) {
        if let Some(m) = runnable
            .filter(|&t| t != tenant)
            .map(|t| self.pass[t])
            .min()
        {
            self.pass[tenant] = self.pass[tenant].max(m);
        }
    }
}

/// A virtual time as a heap and queue key: `f64` under its total order.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Time(f64);

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A queued job: `eligible_s` is its earliest admissible time (submit
/// time, or observation + backoff after a kill).
#[derive(Clone, Copy, Debug)]
struct QEntry {
    job: usize,
    eligible_s: f64,
    enqueued_s: f64,
}

/// An executing job.
#[derive(Clone, Copy, Debug)]
struct InFlight {
    job: usize,
    cluster: usize,
    node: usize,
    slot: usize,
    start_s: f64,
    end_s: f64,
    ws: u64,
    /// Admission sequence number: passes that visit several attempts at
    /// one instant visit them in admission order.
    seq: u64,
}

pub(crate) struct SchedState<'a> {
    svc: &'a Service,
    tenants: &'a [TenantSpec],
    jobs: &'a [JobRequest],
    /// Virtual duration + output fingerprint at `job * clusters + cluster`.
    measured: &'a [(f64, u64)],
    control: SimExecutor,
    execs: Vec<SimExecutor>,
    /// Submissions in time order (stable: ties keep batch order), and how
    /// many of them have arrived.
    order: Vec<usize>,
    next_sub: usize,
    /// Per-tenant queues, kept in (priority desc, deadline asc, seq asc)
    /// order.
    queues: Vec<Vec<QEntry>>,
    /// Future `eligible_s` of requeued entries. Never stale: an entry
    /// leaves its queue only once it is eligible.
    wakeups: BinaryHeap<Reverse<Time>>,
    /// The executing attempt of each job, if any.
    running: Vec<Option<InFlight>>,
    n_running: usize,
    /// Jobs executing on each (cluster, node), in admission order.
    residents: Vec<Vec<Vec<usize>>>,
    /// Completion events `(end_s, job)`. An entry is live while `running`
    /// holds that job with that `end_s`; anything else is dropped when it
    /// reaches the top.
    completions: BinaryHeap<Reverse<(Time, usize)>>,
    admissions: u64,
    /// Stride-scheduling accumulators (pass per tenant, rebased).
    stride: StrideSched,
    /// Attempts started per job.
    attempts: Vec<u32>,
    /// (cluster, node) liveness, busy slots, the count of free ones, and
    /// the free slots of all live nodes together.
    alive: Vec<Vec<bool>>,
    slots: Vec<Vec<Vec<bool>>>,
    free: Vec<Vec<usize>>,
    open_slots: usize,
    /// Within one admission pass: the smallest working set that found no
    /// host (0: no live, reachable node has a free slot).
    blocked_ws: Option<u64>,
    /// All scripted deaths, sorted by time, and how many are processed.
    deaths: Vec<(f64, usize, usize)>,
    next_death: usize,
    has_partitions: bool,
    /// Attempts the control plane gave up on while their node was merely
    /// cut off: `(attempt, suspected_s, heal_s)`. The attempt is still
    /// computing behind the cut; at heal its stale result arrives and is
    /// fenced, and its slot/ledger are finally reclaimed.
    zombies: Vec<(InFlight, f64, f64)>,
    /// Per cluster, the next scripted budget change not yet applied.
    next_mem_change: Vec<Option<f64>>,
    /// Tenant resident bytes (quota accounting).
    tenant_resident: Vec<u64>,
    outcomes: Vec<JobOutcome>,
    stats: Vec<TenantStats>,
    peak_concurrent: usize,
    last_event_s: f64,
    /// Index work done: node probes, queue entries examined, heap pushes
    /// and pops. A count, so the scaling guard below can gate in CI.
    #[cfg(test)]
    probes: std::cell::Cell<u64>,
}

impl<'a> SchedState<'a> {
    pub(crate) fn new(
        svc: &'a Service,
        tenants: &'a [TenantSpec],
        jobs: &'a [JobRequest],
        measured: &'a [(f64, u64)],
    ) -> Self {
        let mk_exec = |cluster: Cluster| {
            let mut e = SimExecutor::new(cluster);
            if svc.trace {
                e.enable_trace();
            }
            e.set_phase("service");
            e
        };
        let control = mk_exec(svc.clusters[0].clone().with_faults(FaultPlan::none()));
        let execs: Vec<SimExecutor> = svc.clusters.iter().map(|c| mk_exec(c.clone())).collect();
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| jobs[a].submit_s.total_cmp(&jobs[b].submit_s));
        let mut deaths: Vec<(f64, usize, usize)> = Vec::new();
        for (c, cluster) in svc.clusters.iter().enumerate() {
            for d in cluster.faults().deaths() {
                if d.node < cluster.nodes {
                    deaths.push((d.at_s, c, d.node));
                }
            }
        }
        deaths.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let free: Vec<Vec<usize>> = svc
            .clusters
            .iter()
            .map(|c| vec![c.profile.cores_per_node; c.nodes])
            .collect();
        let outcomes = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| JobOutcome {
                job: i,
                tenant: j.tenant,
                submit_s: j.submit_s,
                admit_s: None,
                end_s: None,
                cluster: None,
                retries: 0,
                result: Err(EngineError::Unsupported("job never resolved".into())),
            })
            .collect();
        SchedState {
            svc,
            tenants,
            jobs,
            measured,
            control,
            execs,
            order,
            next_sub: 0,
            queues: vec![Vec::new(); tenants.len()],
            wakeups: BinaryHeap::new(),
            running: vec![None; jobs.len()],
            n_running: 0,
            residents: svc
                .clusters
                .iter()
                .map(|c| vec![Vec::new(); c.nodes])
                .collect(),
            completions: BinaryHeap::new(),
            admissions: 0,
            stride: StrideSched::new(&tenants.iter().map(|t| t.weight).collect::<Vec<_>>()),
            attempts: vec![0; jobs.len()],
            alive: svc.clusters.iter().map(|c| vec![true; c.nodes]).collect(),
            slots: svc
                .clusters
                .iter()
                .map(|c| vec![vec![false; c.profile.cores_per_node]; c.nodes])
                .collect(),
            open_slots: free.iter().flatten().sum(),
            free,
            blocked_ws: None,
            deaths,
            next_death: 0,
            has_partitions: svc.clusters.iter().any(|c| c.faults().has_partitions()),
            zombies: Vec::new(),
            next_mem_change: svc
                .clusters
                .iter()
                .map(|c| c.next_mem_change_after(0.0))
                .collect(),
            tenant_resident: vec![0; tenants.len()],
            outcomes,
            stats: vec![TenantStats::default(); tenants.len()],
            peak_concurrent: 0,
            last_event_s: 0.0,
            #[cfg(test)]
            probes: std::cell::Cell::new(0),
        }
    }

    /// Run the deterministic virtual-time event loop dry.
    pub(crate) fn run(&mut self) {
        let mut now = 0.0f64;
        while let Some(t_next) = self.next_event_after(now) {
            // Events at t=now (admissions freed by the last turn) are
            // handled by this one; otherwise advance.
            now = now.max(t_next);
            self.turn(now);
            if self.drained() {
                break;
            }
        }
        // Nothing in flight, nothing scheduled, nothing ever changing
        // again: whatever is still queued can never run.
        self.fail_stalled(now);
        self.last_event_s = self.last_event_s.max(now);
    }

    /// Next event: submission, completion, requeue eligibility, node
    /// death, partition suspicion/heal, or budget change.
    fn next_event_after(&mut self, now: f64) -> Option<f64> {
        let mut t = f64::INFINITY;
        if let Some(&job) = self.order.get(self.next_sub) {
            t = t.min(self.jobs[job].submit_s);
        }
        while let Some(&Reverse((Time(end_s), job))) = self.completions.peek() {
            if self.running[job].is_some_and(|f| f.end_s == end_s) {
                t = t.min(end_s);
                break;
            }
            self.completions.pop();
            self.count_probe();
        }
        while let Some(&Reverse(Time(eligible_s))) = self.wakeups.peek() {
            if eligible_s > now {
                t = t.min(eligible_s);
                break;
            }
            self.wakeups.pop();
            self.count_probe();
        }
        if let Some(d) = self.deaths[self.next_death..].iter().find(|d| d.0 > now) {
            t = t.min(d.0);
        }
        if let Some(p) = self.next_partition_event_after(now) {
            t = t.min(p);
        }
        for m in self.next_mem_change.iter().flatten() {
            t = t.min(*m);
        }
        t.is_finite().then_some(t)
    }

    /// Everything that happens at `now`, in the order that keeps a turn
    /// deterministic: faults first, then completions, arrivals, admission.
    fn turn(&mut self, now: f64) {
        self.process_deaths(now);
        self.process_partitions(now);
        self.process_mem_changes(now);
        self.process_completions(now);
        while let Some(&job) = self.order.get(self.next_sub) {
            let submit_s = self.jobs[job].submit_s;
            if submit_s > now {
                break;
            }
            self.submit(job, now.max(submit_s));
            self.next_sub += 1;
        }
        self.admit_all(now);
    }

    /// Every submission has arrived and left the system again.
    fn drained(&self) -> bool {
        self.next_sub >= self.order.len()
            && self.n_running == 0
            && self.zombies.is_empty()
            && self.queues.iter().all(Vec::is_empty)
    }

    fn count_probe(&self) {
        #[cfg(test)]
        self.probes.set(self.probes.get() + 1);
    }

    /// Largest budget any node could ever offer a job's working set —
    /// the "can this ever run" admission question.
    fn ever_hostable(&self, ws: u64) -> bool {
        if ws == 0 {
            return true;
        }
        self.svc.clusters.iter().any(|c| {
            let cap = c.profile.mem_per_node;
            // A scripted *set* may raise a shrunk budget back, but never
            // above hardware capacity.
            ws <= cap
        })
    }

    fn reject(&mut self, job: usize, at_s: f64, reason: String) {
        let tenant = self.jobs[job].tenant;
        self.control.record_reject(tenant, job, at_s);
        self.stats[tenant].rejected += 1;
        self.outcomes[job].end_s = Some(at_s);
        self.outcomes[job].result = Err(EngineError::Rejected {
            tenant,
            reason,
            at_s,
        });
        self.last_event_s = self.last_event_s.max(at_s);
    }

    /// A submission arrives: backpressure and feasibility checks, then
    /// into the tenant's queue.
    fn submit(&mut self, job: usize, at_s: f64) {
        let req = &self.jobs[job];
        let tenant = req.tenant;
        self.stats[tenant].submitted += 1;
        let spec = &self.tenants[tenant];
        if self.queues[tenant].len() >= spec.max_pending {
            self.reject(
                job,
                at_s,
                format!(
                    "queue full: {} jobs pending, tenant allows {}",
                    self.queues[tenant].len(),
                    spec.max_pending
                ),
            );
            return;
        }
        if req.working_set_bytes > spec.quota_bytes {
            self.reject(
                job,
                at_s,
                format!(
                    "working set {} exceeds tenant quota {}",
                    req.working_set_bytes, spec.quota_bytes
                ),
            );
            return;
        }
        if !self.ever_hostable(req.working_set_bytes) {
            self.reject(
                job,
                at_s,
                format!(
                    "working set {} exceeds every node's capacity",
                    req.working_set_bytes
                ),
            );
            return;
        }
        self.control.record_enqueue(tenant, job, at_s);
        self.enqueue(QEntry {
            job,
            eligible_s: at_s,
            enqueued_s: at_s,
        });
    }

    /// Insert preserving (priority desc, deadline asc, seq asc).
    fn enqueue(&mut self, e: QEntry) {
        let tenant = self.jobs[e.job].tenant;
        if self.queues[tenant].is_empty() {
            let queues = &self.queues;
            self.stride
                .wake(tenant, (0..queues.len()).filter(|&t| !queues[t].is_empty()));
        }
        let key = |j: usize| {
            let req = &self.jobs[j];
            (
                Reverse(req.priority),
                Time(req.policy.deadline_s.unwrap_or(f64::INFINITY)),
                j,
            )
        };
        let ke = key(e.job);
        let pos = self.queues[tenant].partition_point(|q| key(q.job) < ke);
        self.queues[tenant].insert(pos, e);
    }

    /// Take `job`'s executing attempt off the books (its slot and ledger
    /// bytes stay held until [`Self::release`]).
    fn take_running(&mut self, job: usize) -> InFlight {
        let f = self.running[job]
            .take()
            .expect("only executing jobs are taken off the books");
        self.n_running -= 1;
        self.residents[f.cluster][f.node].retain(|&j| j != job);
        f
    }

    /// Kill every resident job on nodes that die at `now`.
    fn process_deaths(&mut self, now: f64) {
        while let Some(&(at_s, c, node)) = self.deaths.get(self.next_death) {
            if at_s > now {
                break;
            }
            self.next_death += 1;
            if std::mem::replace(&mut self.alive[c][node], false) {
                self.open_slots -= self.free[c][node];
            }
            for job in self.residents[c][node].clone() {
                let v = self.take_running(job);
                self.release(&v, at_s);
                self.record_attempt(&v, at_s, true);
                self.execs[c].report_mut().lost_time_s += at_s - v.start_s;
                let policy = self.jobs[v.job].policy;
                self.requeue_killed(v.job, at_s + policy.detection_delay_s);
            }
        }
    }

    /// Can the control plane reach `node` of cluster `c` at `t`? Node 0 is
    /// each cluster's control ingress; a scripted partition that separates
    /// a node from it makes the node unschedulable (and its resident jobs
    /// suspectable) until heal.
    fn reachable(&self, c: usize, node: usize, t: f64) -> bool {
        let faults = self.svc.clusters[c].faults();
        !faults.has_partitions() || faults.can_reach(0, node, t)
    }

    /// The cuts behind which attempt `f`'s detector gives up before they
    /// heal, as `(suspect_s, heal_s)` in plan order.
    fn suspicions(&self, f: InFlight) -> impl Iterator<Item = (f64, f64)> + '_ {
        let det = self.jobs[f.job].policy.detector();
        let partitions = self.svc.clusters[f.cluster].faults().partitions();
        partitions.iter().filter_map(move |p| {
            if !p.separates(0, f.node) || p.from_s < f.start_s || p.from_s >= f.end_s {
                return None;
            }
            let suspect = det?.suspect_time(p.from_s);
            (suspect < p.to_s).then_some((suspect, p.to_s))
        })
    }

    /// The executing attempts on clusters with scripted partitions.
    fn running_behind_cuts(&self) -> impl Iterator<Item = InFlight> + '_ {
        let cut = |c: usize| self.svc.clusters[c].faults().has_partitions();
        let nodes = self
            .residents
            .iter()
            .enumerate()
            .filter(move |&(c, _)| cut(c));
        nodes
            .flat_map(|(_, nodes)| nodes.iter().flatten())
            .filter_map(|&job| self.running[job])
    }

    /// Suspicion and reconciliation across scripted network partitions.
    ///
    /// A node behind a cut is *alive*: its resident jobs keep computing,
    /// but their results cannot reach the control plane and their
    /// heartbeats stop. When a job's detector fires while the cut is still
    /// up (a false positive), the control plane requeues the job elsewhere
    /// and the original attempt becomes a zombie holding its slot and
    /// ledger bytes. At heal the zombie's stale completion arrives and is
    /// fenced — counted, never applied — and its resources are reclaimed.
    /// A cut the detector outlives is ridden out: delivery is merely
    /// delayed (see [`Self::process_completions`]).
    fn process_partitions(&mut self, now: f64) {
        if !self.has_partitions {
            return;
        }
        // Suspicion pass: zombify in-flight victims whose detector fired,
        // in admission order.
        let mut behind_cuts: Vec<InFlight> = self.running_behind_cuts().collect();
        behind_cuts.sort_by_key(|f| f.seq);
        for f in behind_cuts {
            let fired = self.suspicions(f).find(|&(suspect, _)| suspect <= now);
            let Some((suspect, heal)) = fired else {
                continue;
            };
            let v = self.take_running(f.job);
            self.record_attempt(&v, suspect, true);
            let rep = self.execs[v.cluster].report_mut();
            rep.zombie_attempts += 1;
            rep.zombie_time_s += v.end_s.min(heal) - v.start_s;
            self.zombies.push((v, suspect, heal));
            self.requeue_killed(v.job, suspect);
        }
        // Heal pass: reclaim each zombie's slot/ledger and fence its
        // stale result, exactly once.
        let mut z = 0;
        while z < self.zombies.len() {
            let (v, suspect, heal) = self.zombies[z];
            if heal > now {
                z += 1;
                continue;
            }
            self.zombies.remove(z);
            self.release(&v, heal);
            self.control
                .record_fenced("stale-completion", suspect, heal);
        }
    }

    /// Earliest future partition-driven event: a detector firing on an
    /// in-flight job behind a cut, or a heal owing a zombie its fence.
    fn next_partition_event_after(&self, now: f64) -> Option<f64> {
        if !self.has_partitions {
            return None;
        }
        let suspects = self
            .running_behind_cuts()
            .flat_map(|f| self.suspicions(f))
            .map(|(suspect, _)| suspect);
        let heals = self.zombies.iter().map(|&(_, _, heal)| heal);
        suspects
            .chain(heals)
            .filter(|&t| t > now)
            .min_by(f64::total_cmp)
    }

    /// Evict the newest jobs on any node whose budget no longer holds its
    /// residents (scripted shrinks; scripted sets may instead make queued
    /// work admissible — the admission pass handles that side). Budgets
    /// are constant between scripted changes and every reservation was
    /// checked against the budget of its time, so only a cluster with a
    /// change at `now` can be over budget.
    fn process_mem_changes(&mut self, now: f64) {
        for c in 0..self.svc.clusters.len() {
            if self.next_mem_change[c].is_none_or(|t| t > now) {
                continue;
            }
            self.next_mem_change[c] = self.svc.clusters[c].next_mem_change_after(now);
            for node in 0..self.svc.clusters[c].nodes {
                if !self.alive[c][node] {
                    continue;
                }
                while self.execs[c].mem_resident(node) > self.execs[c].mem_budget(node, now) {
                    // Newest admission on the node is evicted first.
                    let victim = self.residents[c][node]
                        .iter()
                        .filter_map(|&job| self.running[job])
                        .filter(|f| f.ws > 0)
                        .max_by(|a, b| a.start_s.total_cmp(&b.start_s).then(a.job.cmp(&b.job)));
                    let Some(victim) = victim else {
                        break; // residue is not ours to evict
                    };
                    let v = self.take_running(victim.job);
                    self.release(&v, now);
                    self.record_attempt(&v, now, true);
                    self.execs[c].report_mut().lost_time_s += now - v.start_s;
                    self.requeue_killed(v.job, now);
                }
            }
        }
    }

    /// Put a killed job back in its queue (bounded attempts, prompt
    /// deadline gate) or fail it typed.
    fn requeue_killed(&mut self, job: usize, observed_s: f64) {
        let req = &self.jobs[job];
        let policy = req.policy;
        let attempts = self.attempts[job];
        if attempts >= policy.max_attempts {
            self.fail(
                job,
                observed_s,
                EngineError::RetriesExhausted {
                    attempts,
                    last_failure_s: observed_s,
                },
            );
            return;
        }
        let eligible = observed_s + policy.backoff_before(attempts + 1);
        if let Err(e) = policy.deadline_gate(observed_s, eligible) {
            self.fail(job, observed_s, EngineError::from(e));
            return;
        }
        self.control
            .record_recovery("requeue", observed_s, eligible);
        self.control.report_mut().retries += 1;
        self.outcomes[job].retries += 1;
        self.wakeups.push(Reverse(Time(eligible)));
        self.count_probe();
        self.enqueue(QEntry {
            job,
            eligible_s: eligible,
            enqueued_s: observed_s,
        });
    }

    fn fail(&mut self, job: usize, at_s: f64, err: EngineError) {
        let tenant = self.jobs[job].tenant;
        self.stats[tenant].failed += 1;
        self.outcomes[job].end_s = Some(at_s);
        self.outcomes[job].result = Err(err);
        self.last_event_s = self.last_event_s.max(at_s);
    }

    /// Release a job's slot and ledger reservation.
    fn release(&mut self, f: &InFlight, at_s: f64) {
        self.slots[f.cluster][f.node][f.slot] = false;
        self.free[f.cluster][f.node] += 1;
        if self.alive[f.cluster][f.node] {
            self.open_slots += 1;
        }
        if f.ws > 0 {
            self.execs[f.cluster].release_memory(f.node, f.ws);
            let tenant = self.jobs[f.job].tenant;
            self.tenant_resident[tenant] -= f.ws;
        }
        self.last_event_s = self.last_event_s.max(at_s);
    }

    /// Record one execution interval as a task event on the cluster's
    /// data-plane trace.
    fn record_attempt(&mut self, f: &InFlight, end_s: f64, killed: bool) {
        let exec = &mut self.execs[f.cluster];
        let core = f.node * self.svc.clusters[f.cluster].profile.cores_per_node + f.slot;
        let rep = exec.report_mut();
        if let Some(trace) = &mut rep.trace {
            let label = trace.intern(self.jobs[f.job].workload.label());
            let phase = trace.intern("service");
            trace.record(TraceEvent {
                task: trace.next_id(),
                core,
                start_s: f.start_s,
                end_s,
                killed,
                ready_s: f.start_s,
                phase,
                kind: EventKind::Task {
                    label,
                    speculative: false,
                },
            });
        }
    }

    /// Admit as many queued jobs as capacity allows, one at a time, in
    /// stride-scheduled tenant order.
    fn admit_all(&mut self, now: f64) {
        self.blocked_ws = None;
        while self.blocked_ws != Some(0) {
            // Tenants in stride order: lowest pass first, id tie-break. A
            // blocked tenant (quota, no slot) does not block the others —
            // the scan falls through to the next pass.
            let mut order: Vec<usize> = (0..self.tenants.len())
                .filter(|&t| self.queues[t].iter().any(|e| e.eligible_s <= now))
                .collect();
            order.sort_by_key(|&t| (self.stride.pass(t), t));
            // An admission shifts the pass values: re-derive the order.
            if !order.into_iter().any(|t| self.try_admit_tenant(t, now)) {
                break;
            }
        }
    }

    /// Try to admit the best admissible entry of one tenant's queue.
    fn try_admit_tenant(&mut self, tenant: usize, now: f64) -> bool {
        let spec = &self.tenants[tenant];
        for qi in 0..self.queues[tenant].len() {
            if self.blocked_ws == Some(0) {
                return false; // no free slot anywhere: the pass is over
            }
            self.count_probe();
            let e = self.queues[tenant][qi];
            if e.eligible_s > now {
                continue;
            }
            let req = &self.jobs[e.job];
            let ws = req.working_set_bytes;
            if self.tenant_resident[tenant].saturating_add(ws) > spec.quota_bytes {
                continue; // quota: wait for the tenant's own jobs to drain
            }
            if self.blocked_ws.is_some_and(|blocked| ws >= blocked) {
                continue; // a smaller working set already found no host
            }
            let (c, node, slot) = match self.find_slot(ws, now) {
                Ok(host) => host,
                Err(unhostable) => {
                    let floor = self.blocked_ws.map_or(unhostable, |b| b.min(unhostable));
                    self.blocked_ws = Some(floor);
                    continue;
                }
            };
            // Deadline gate at admission: a job that cannot finish by its
            // deadline fails now instead of occupying a slot uselessly.
            let (dur, fp) = self.measured[e.job * self.svc.clusters.len() + c];
            if let Some(deadline) = req.policy.deadline_s {
                if now + dur > deadline {
                    self.queues[tenant].remove(qi);
                    self.fail(
                        e.job,
                        now,
                        EngineError::DeadlineExceeded {
                            deadline_s: deadline,
                            at_s: now,
                        },
                    );
                    return true; // progress was made (the queue shrank)
                }
            }
            self.queues[tenant].remove(qi);
            self.slots[c][node][slot] = true;
            self.free[c][node] -= 1;
            self.open_slots -= 1;
            if ws > 0 {
                let ok = self.execs[c].try_reserve_memory(node, ws, now);
                debug_assert!(ok, "find_slot pre-checked the reservation");
                self.tenant_resident[tenant] += ws;
                let st = &mut self.stats[tenant];
                st.mem_high_water = st.mem_high_water.max(self.tenant_resident[tenant]);
            }
            self.attempts[e.job] += 1;
            if self.outcomes[e.job].admit_s.is_none() {
                self.outcomes[e.job].admit_s = Some(now);
                self.stats[tenant].queue_wait_s += now - req.submit_s;
            }
            self.control.record_admit(tenant, e.job, e.enqueued_s, now);
            let f = InFlight {
                job: e.job,
                cluster: c,
                node,
                slot,
                start_s: now,
                end_s: now + dur,
                ws,
                seq: self.admissions,
            };
            self.admissions += 1;
            self.running[e.job] = Some(f);
            self.n_running += 1;
            self.residents[c][node].push(e.job);
            self.completions.push(Reverse((Time(f.end_s), e.job)));
            self.count_probe();
            self.peak_concurrent = self.peak_concurrent.max(self.n_running);
            // Stash the fingerprint for completion time.
            self.outcomes[e.job].cluster = Some(c);
            self.outcomes[e.job].result = Ok(fp);
            self.stride.charge(tenant);
            return true;
        }
        false
    }

    /// First (cluster, node, slot) that can host `ws` bytes right now. On
    /// failure, the smallest working set this probe shows unhostable:
    /// `ws` itself, or 0 when no live, reachable node has a free slot.
    /// Monotone: if `ws` finds no host, no larger working set does.
    fn find_slot(&self, ws: u64, now: f64) -> Result<(usize, usize, usize), u64> {
        if self.open_slots == 0 {
            return Err(0);
        }
        let mut unhostable = 0;
        for c in 0..self.svc.clusters.len() {
            for node in 0..self.svc.clusters[c].nodes {
                self.count_probe();
                if self.free[c][node] == 0 || !self.alive[c][node] || !self.reachable(c, node, now)
                {
                    continue;
                }
                unhostable = ws;
                if ws > 0 {
                    let budget = self.execs[c].mem_budget(node, now);
                    if self.execs[c].mem_resident(node).saturating_add(ws) > budget {
                        continue;
                    }
                }
                let slot = self.slots[c][node]
                    .iter()
                    .position(|busy| !busy)
                    .expect("a node with a positive free count has a free slot");
                return Ok((c, node, slot));
            }
        }
        Err(unhostable)
    }

    /// Complete every in-flight job whose end time has passed, in
    /// (end, job) order.
    fn process_completions(&mut self, now: f64) {
        while let Some(&Reverse((Time(end_s), job))) = self.completions.peek() {
            if end_s > now {
                break;
            }
            self.completions.pop();
            self.count_probe();
            let Some(f) = self.running[job].filter(|f| f.end_s == end_s) else {
                continue; // killed, evicted, zombified or deferred since
            };
            // A result computed behind an active cut cannot reach the
            // control plane until the cut heals: defer delivery, keeping
            // the job in flight (and suspectable) until then.
            let faults = self.svc.clusters[f.cluster].faults();
            if faults.has_partitions() {
                let reach = faults.earliest_reach(0, f.node, end_s);
                if reach > end_s {
                    self.running[job] = Some(InFlight { end_s: reach, ..f });
                    self.completions.push(Reverse((Time(reach), job)));
                    self.count_probe();
                    continue;
                }
            }
            let f = self.take_running(job);
            self.release(&f, end_s);
            self.record_attempt(&f, end_s, false);
            let tenant = self.jobs[job].tenant;
            self.stats[tenant].completed += 1;
            self.outcomes[job].end_s = Some(end_s);
            let rep = self.execs[f.cluster].report_mut();
            rep.tasks += 1;
            rep.compute_s += end_s - f.start_s;
            rep.makespan_s = rep.makespan_s.max(end_s);
        }
    }

    /// Fail every still-queued job: nothing can ever admit them.
    fn fail_stalled(&mut self, now: f64) {
        for t in 0..self.queues.len() {
            let entries: Vec<QEntry> = std::mem::take(&mut self.queues[t]);
            for e in entries {
                self.reject(
                    e.job,
                    now,
                    "stalled: no node can ever admit this job".to_string(),
                );
            }
        }
    }

    pub(crate) fn finish(mut self) -> ServiceReport {
        debug_assert!(self.n_running == 0, "jobs left in flight");
        let makespan = self.last_event_s;
        self.control.report_mut().makespan_s = makespan;
        self.control.report_mut().tasks = self.outcomes.iter().filter(|o| o.result.is_ok()).count();
        ServiceReport {
            control: self.control.into_report(),
            clusters: self
                .execs
                .into_iter()
                .map(SimExecutor::into_report)
                .collect(),
            jobs: self.outcomes,
            tenants: self.stats,
            makespan_s: makespan,
            peak_concurrent: self.peak_concurrent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdtask_core::run::Workload;
    use netsim::chaos::SeedStream;
    use netsim::RetryPolicy;
    use taskframe::Engine;

    const MIB: u64 = 1 << 20;
    const GIB: u64 = 1 << 30;

    /// Never executed: these tests hand `SchedState` synthetic durations.
    const ANY: Workload = Workload::Lf {
        n_atoms: 96,
        partitions: 2,
        seed: 1,
    };

    #[test]
    fn a_million_admissions_share_exactly_at_weight_1_vs_1000() {
        // Drive the stride accumulators directly for a million
        // admissions at the most truncation-hostile ratio in service
        // configs. Regression for two accumulator bugs: integer
        // truncation of `STRIDE_K / w` skewing long-run shares (0.05%
        // at the old `1 << 20`), and unbounded pass growth overflowing
        // `u64` on long-lived services.
        let mut s = StrideSched::new(&[1, 1000]);
        let total = 1_000_000usize;
        let mut admitted = [0usize; 2];
        let mut last_light = 0usize;
        let mut max_gap = 0usize;
        for i in 0..total {
            let t = (0..2).min_by_key(|&t| (s.pass(t), t)).unwrap();
            admitted[t] += 1;
            if t == 0 {
                max_gap = max_gap.max(i - last_light);
                last_light = i;
            }
            s.charge(t);
            // Overflow-free: rebasing keeps every pass within one
            // maximal stride of zero, at any horizon.
            assert!(s.pass(0) <= STRIDE_K && s.pass(1) <= STRIDE_K);
        }
        let exact_light = total as f64 / 1001.0;
        assert!(
            (admitted[0] as f64 - exact_light).abs() < 2.0,
            "weight-1 tenant got {} admissions, exact share is {exact_light:.3}",
            admitted[0]
        );
        // Starvation-free: the light tenant is served every ~1001
        // admissions, never pushed to the end of the run.
        assert!(
            max_gap <= 1002,
            "light tenant starved for {max_gap} consecutive admissions"
        );
    }

    #[test]
    fn a_waking_tenant_rejoins_at_the_front_instead_of_flooding() {
        // Tenant 0 sleeps while tenant 1 absorbs 100 admissions; waking
        // with its stale pass it would win the next 100 in a row.
        let mut s = StrideSched::new(&[1, 1]);
        for _ in 0..100 {
            s.charge(1);
        }
        s.wake(0, [1].into_iter());
        let mut streak = 0usize;
        let mut worst = 0usize;
        for _ in 0..200 {
            let t = (0..2).min_by_key(|&t| (s.pass(t), t)).unwrap();
            if t == 0 {
                streak += 1;
                worst = worst.max(streak);
            } else {
                streak = 0;
            }
            s.charge(t);
        }
        assert!(
            worst <= 1,
            "woken tenant flooded {worst} consecutive admissions"
        );
    }

    /// The index structures against what they index, and `find_slot`'s
    /// monotonicity, at one instant of a run.
    fn check_indexes(st: &SchedState, now: f64, rng: &mut SeedStream) {
        let (mut listed, mut open) = (0, 0);
        for (c, cluster) in st.svc.clusters.iter().enumerate() {
            for node in 0..cluster.nodes {
                let busy = st.slots[c][node].iter().filter(|&&b| b).count();
                assert_eq!(
                    st.free[c][node],
                    cluster.profile.cores_per_node - busy,
                    "free-slot count of ({c}, {node}) drifted from its flags"
                );
                let zombies = st
                    .zombies
                    .iter()
                    .filter(|(z, _, _)| (z.cluster, z.node) == (c, node));
                assert_eq!(st.residents[c][node].len() + zombies.count(), busy);
                for &job in &st.residents[c][node] {
                    let f = st.running[job].expect("a resident job is running");
                    assert_eq!((f.cluster, f.node), (c, node));
                    assert!(st.slots[c][node][f.slot]);
                }
                listed += st.residents[c][node].len();
                if st.alive[c][node] {
                    open += st.free[c][node];
                }
            }
        }
        assert_eq!(listed, st.n_running);
        assert_eq!(open, st.open_slots);
        assert_eq!(st.running.iter().flatten().count(), st.n_running);
        // Once a working set finds no host, no larger one does; and the
        // probe reports 0 exactly when no working set at all is hostable.
        let mut sizes: Vec<u64> = (0..8).map(|_| rng.range(0, 1200) as u64 * MIB).collect();
        sizes.push(0);
        sizes.sort_unstable();
        let mut blocked = None;
        for ws in sizes {
            match (st.find_slot(ws, now), blocked) {
                (Ok(_), Some(smaller)) => panic!("{ws} hosted after {smaller} was not"),
                (Ok(_), None) => {}
                (Err(floor), _) => {
                    assert!(floor == ws || floor == 0);
                    assert_eq!(floor == 0, st.find_slot(0, now).is_err());
                    blocked = Some(ws);
                }
            }
        }
    }

    #[test]
    fn indexes_match_a_recount_and_find_slot_is_monotone_on_random_runs() {
        for seed in 0..150 {
            let mut rng = SeedStream::new(seed);
            let clusters: Vec<Cluster> = (0..rng.range(1, 2))
                .map(|_| {
                    let nodes = rng.range(1, 4);
                    let mut plan = FaultPlan::none();
                    if nodes > 1 && rng.f64() < 0.5 {
                        plan = plan.kill_node(rng.range(1, nodes - 1), rng.f64() * 2.0);
                    }
                    if rng.f64() < 0.5 {
                        let (node, at_s) = (rng.range(0, nodes - 1), rng.f64() * 2.0);
                        plan = plan.shrink_memory(node, at_s, 256 * MIB);
                        if rng.f64() < 0.5 {
                            plan = plan.set_memory(node, at_s + rng.f64(), GIB);
                        }
                    }
                    if nodes > 1 && rng.f64() < 0.5 {
                        let cut_s = rng.f64();
                        let side: Vec<usize> = (1..nodes).collect();
                        plan = plan.partition(vec![vec![0], side], cut_s, cut_s + 0.05 + rng.f64());
                    }
                    Cluster::builder()
                        .nodes(nodes)
                        .cores_per_node(rng.range(1, 4))
                        .mem_budget(GIB)
                        .fault_plan(plan)
                        .build()
                })
                .collect();
            let n_clusters = clusters.len();
            let svc = Service::new(clusters, Engine::Dask);
            let tenants = [
                TenantSpec::new("a", 3, 2 * GIB, 64),
                TenantSpec::new("b", 1, GIB, 64),
            ];
            let jobs: Vec<JobRequest> = (0..rng.range(5, 40))
                .map(|_| {
                    let mut policy = RetryPolicy::new(rng.range(1, 3) as u32)
                        .with_detection_delay(0.05)
                        .with_backoff(0.05, 2.0, 0.5);
                    if rng.f64() < 0.5 {
                        policy = policy.with_suspicion(0.05, 0.1);
                    }
                    JobRequest::new(rng.range(0, 1), rng.f64() * 2.0, ANY)
                        .working_set(rng.range(0, 6) as u64 * 150 * MIB)
                        .priority(rng.range(0, 2) as u8)
                        .policy(policy)
                })
                .collect();
            let measured: Vec<(f64, u64)> = (0..jobs.len() * n_clusters)
                .map(|i| (0.05 + rng.f64() * 0.5, i as u64))
                .collect();
            let mut st = SchedState::new(&svc, &tenants, &jobs, &measured);
            let mut now = 0.0f64;
            while let Some(t_next) = st.next_event_after(now) {
                now = now.max(t_next);
                st.turn(now);
                check_indexes(&st, now, &mut rng);
                if st.drained() {
                    break;
                }
            }
            st.fail_stalled(now);
            let report = st.finish();
            assert!(
                report.jobs.iter().all(|j| j.end_s.is_some()),
                "seed {seed} left a job unresolved"
            );
        }
    }

    #[test]
    fn small_working_sets_backfill_past_blocked_large_ones_in_the_same_pass() {
        // One node, six slots, 1 GiB. `a` queues two 800 MiB jobs ahead of
        // a 100 MiB one and an empty one; `b` a 900 MiB job ahead of a
        // 50 MiB one. The first 800 MiB fits; the second sets the
        // watermark, which must block `b`'s 900 MiB and nothing smaller.
        let cluster = Cluster::builder()
            .nodes(1)
            .cores_per_node(6)
            .mem_budget(GIB)
            .build();
        let svc = Service::new(vec![cluster], Engine::Dask);
        let tenants = [
            TenantSpec::new("a", 1, 4 * GIB, 8),
            TenantSpec::new("b", 1, 4 * GIB, 8),
        ];
        let job = |tenant, mib: u64, priority| {
            JobRequest::new(tenant, 0.0, ANY)
                .working_set(mib * MIB)
                .priority(priority)
        };
        let jobs = [
            job(0, 800, 9),
            job(0, 800, 8),
            job(0, 100, 1),
            job(0, 0, 0),
            job(1, 900, 9),
            job(1, 50, 0),
        ];
        let measured = vec![(1.0, 7); jobs.len()];
        let mut st = SchedState::new(&svc, &tenants, &jobs, &measured);
        st.run();
        let report = st.finish();
        let admitted: Vec<f64> = report.jobs.iter().map(|j| j.admit_s.unwrap()).collect();
        assert_eq!(admitted, [0.0, 2.0, 0.0, 0.0, 1.0, 0.0]);
    }

    /// Index work of the `service_burst` shape: 8 tenants burst `n_jobs`
    /// jobs 1 µs apart onto two clusters of 32 × 24 slots.
    fn burst_probes(n_jobs: usize) -> u64 {
        let big = || {
            Cluster::builder()
                .nodes(32)
                .cores_per_node(24)
                .mem_budget(64 * GIB)
                .build()
        };
        let svc = Service::new(vec![big(), big()], Engine::Dask);
        let tenants: Vec<TenantSpec> = (0..8)
            .map(|t| TenantSpec::new(&format!("t{t}"), 1 + (t % 4) as u32, 8 * GIB, n_jobs))
            .collect();
        let jobs: Vec<JobRequest> = (0..n_jobs)
            .map(|i| {
                JobRequest::new(i % 8, i as f64 * 1e-6, ANY)
                    .working_set(16 * MIB)
                    .priority((i % 3) as u8)
            })
            .collect();
        let measured: Vec<(f64, u64)> = (0..n_jobs * 2)
            .map(|i| (0.2 + (i / 2 % 3) as f64 * 0.01, 0))
            .collect();
        let mut st = SchedState::new(&svc, &tenants, &jobs, &measured);
        st.run();
        let probes = st.probes.get();
        let report = st.finish();
        assert_eq!(
            report.tenants.iter().map(|t| t.completed).sum::<usize>(),
            n_jobs
        );
        assert_eq!(report.peak_concurrent, 1536);
        probes
    }

    #[test]
    fn index_work_grows_with_the_jobs_not_with_the_backlog() {
        // 864 jobs queue behind the 1 536 slots in the first burst, 3 264
        // in the second. The loop this one replaced re-probed every node
        // for every queued entry at every event and did ~13x the work on
        // the second; an indexed loop does about twice.
        let (small, large) = (burst_probes(2_400), burst_probes(4_800));
        assert!(
            large as f64 <= 2.5 * small as f64,
            "{large} probes for 4 800 jobs against {small} for 2 400"
        );
    }
}
