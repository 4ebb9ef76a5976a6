//! `mdtaskd`: multi-tenant analysis-as-a-service in virtual time.
//!
//! The paper evaluates one analysis job at a time; the service shape the
//! roadmap aims at is different — *thousands* of concurrent LF / PSA /
//! 2-D-RMSD jobs from many tenants sharing simulated clusters, where (as
//! "Parallel Performance of Molecular Dynamics Trajectory Analysis"
//! observes) contention and stragglers dominate, not kernel speed. This
//! crate is that admission/fair-share layer:
//!
//! * **job descriptors** — a [`JobRequest`] wraps a
//!   [`Workload`](mdtask_core::run::Workload) recipe (not its data) plus
//!   tenant, priority, declared working set and an optional
//!   [`RetryPolicy`] whose `deadline_s` both orders the queue and bounds
//!   the job;
//! * **per-tenant quotas** — enforced through the PR-4 memory ledger:
//!   a tenant's resident working sets never exceed its
//!   [`TenantSpec::quota_bytes`], and per-node reservations go through
//!   [`SimExecutor::try_reserve_memory`];
//! * **weighted fair share** — stride scheduling over tenants
//!   ([`TenantSpec::weight`]), priority-then-deadline-then-FIFO within a
//!   tenant;
//! * **admission control** — generalized from the pilot's working-set
//!   scheme: a job no node can host *now* waits for the next scripted
//!   budget change; only a job no budget can *ever* host is refused;
//! * **backpressure** — bounded per-tenant queues surface
//!   [`EngineError::Rejected`] instead of queueing without bound;
//! * **fault tolerance** — scripted node deaths and budget shrinks kill
//!   or evict resident jobs, which re-enqueue under their own policy
//!   (prompt deadline gate, bounded attempts, typed exhaustion).
//!
//! Everything runs in virtual time on a serial, deterministic event loop;
//! the real analysis kernels execute once per distinct
//! (workload × cluster) pair — fanned across host threads — and the
//! measured virtual makespans drive the schedule, so a service run is
//! bit-identical at any host-thread count when deterministic timing is on
//! (the default).

use mdtask_core::run::{run_workload, RunConfig, Workload};
use netsim::{parallel, Cluster, FaultPlan, RetryPolicy, SimReport};
use sched::SchedState;
use std::sync::Mutex;
use taskframe::{Engine, EngineError};

pub mod chaos;
mod sched;

/// Floor on a job's virtual duration so zero-cost measurements still make
/// progress on the event loop.
const MIN_JOB_S: f64 = 1e-6;

/// One tenant of the service.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSpec {
    /// Display name (trace/CSV labels).
    pub name: String,
    /// Fair-share weight (≥ 1): long-run admissions are proportional.
    pub weight: u32,
    /// Ledger quota: the tenant's resident working sets, summed across
    /// all clusters, never exceed this.
    pub quota_bytes: u64,
    /// Queue bound: submissions beyond this many queued jobs are refused
    /// with [`EngineError::Rejected`] (backpressure, not buffering).
    pub max_pending: usize,
}

impl TenantSpec {
    pub fn new(name: &str, weight: u32, quota_bytes: u64, max_pending: usize) -> Self {
        assert!(weight >= 1, "fair-share weight must be >= 1");
        assert!(max_pending >= 1, "a tenant must be able to queue one job");
        TenantSpec {
            name: name.to_string(),
            weight,
            quota_bytes,
            max_pending,
        }
    }
}

/// One job submission.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRequest {
    /// Index into the tenant list passed to [`Service::run`].
    pub tenant: usize,
    /// Virtual submission time.
    pub submit_s: f64,
    /// Higher runs first within the tenant's queue.
    pub priority: u8,
    /// Declared working set, reserved on the hosting node's ledger for
    /// the job's whole execution and counted against the tenant quota.
    pub working_set_bytes: u64,
    /// What to run.
    pub workload: Workload,
    /// Retry/deadline policy; `deadline_s` also sharpens queue order.
    pub policy: RetryPolicy,
}

impl JobRequest {
    pub fn new(tenant: usize, submit_s: f64, workload: Workload) -> Self {
        JobRequest {
            tenant,
            submit_s,
            priority: 0,
            working_set_bytes: 0,
            workload,
            policy: RetryPolicy::new(1),
        }
    }

    pub fn priority(mut self, p: u8) -> Self {
        self.priority = p;
        self
    }

    pub fn working_set(mut self, bytes: u64) -> Self {
        self.working_set_bytes = bytes;
        self
    }

    pub fn policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// How one job ended.
#[derive(Clone, Debug, PartialEq)]
pub struct JobOutcome {
    pub job: usize,
    pub tenant: usize,
    pub submit_s: f64,
    /// First admission time (queue wait = `admit_s - submit_s`); `None`
    /// when the job was refused before ever running.
    pub admit_s: Option<f64>,
    /// Completion (or terminal failure) time.
    pub end_s: Option<f64>,
    /// Cluster that ran the successful attempt.
    pub cluster: Option<usize>,
    /// Attempts beyond the first (deaths, evictions).
    pub retries: u32,
    /// Analysis-output fingerprint on success, typed error otherwise.
    pub result: Result<u64, EngineError>,
}

impl JobOutcome {
    /// Submit-to-completion latency of a successful job.
    pub fn latency_s(&self) -> Option<f64> {
        match (&self.result, self.end_s) {
            (Ok(_), Some(end)) => Some(end - self.submit_s),
            _ => None,
        }
    }
}

/// Per-tenant accounting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantStats {
    pub submitted: usize,
    pub completed: usize,
    /// Refused before running ([`EngineError::Rejected`]).
    pub rejected: usize,
    /// Admitted but ended in a typed failure.
    pub failed: usize,
    /// Peak of the tenant's simultaneously-resident working sets — the
    /// quota enforcement witness (`<= quota_bytes` always).
    pub mem_high_water: u64,
    /// Total queue wait across first admissions.
    pub queue_wait_s: f64,
}

/// Result of a [`Service::run`]: full `PartialEq` so determinism tests
/// compare entire service runs, control-plane and data-plane included.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceReport {
    /// Control-plane report: enqueue/admit/reject trace events, recovery
    /// (requeue) windows, retry counters.
    pub control: SimReport,
    /// One data-plane report per cluster: memory ledger high-water,
    /// per-job task events, lost time from killed attempts.
    pub clusters: Vec<SimReport>,
    /// Per-job outcomes, indexed like the submitted batch.
    pub jobs: Vec<JobOutcome>,
    pub tenants: Vec<TenantStats>,
    /// Virtual time when the last job left the system.
    pub makespan_s: f64,
    /// Peak number of simultaneously-executing jobs across all clusters.
    pub peak_concurrent: usize,
}

impl ServiceReport {
    /// Exact p-quantile of successful-job latencies (0 ≤ p ≤ 1), or
    /// `None` when nothing completed.
    pub fn latency_quantile(&self, p: f64) -> Option<f64> {
        self.latency_quantiles(&[p]).map(|q| q[0])
    }

    /// Exact quantiles of successful-job latencies, one per entry of `ps`
    /// (each 0 ≤ p ≤ 1), from one sort; `None` when nothing completed.
    pub fn latency_quantiles(&self, ps: &[f64]) -> Option<Vec<f64>> {
        let mut lat: Vec<f64> = self.jobs.iter().filter_map(JobOutcome::latency_s).collect();
        if lat.is_empty() {
            return None;
        }
        lat.sort_by(f64::total_cmp);
        let at = |p: f64| lat[((lat.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize];
        Some(ps.iter().map(|&p| at(p)).collect())
    }

    /// Completed jobs per virtual second.
    pub fn throughput_jobs_per_s(&self) -> f64 {
        let done = self.jobs.iter().filter(|j| j.result.is_ok()).count();
        if self.makespan_s > 0.0 {
            done as f64 / self.makespan_s
        } else {
            0.0
        }
    }
}

/// The service: shared clusters + scheduling configuration. Build one,
/// then [`Service::run`] a batch of submissions through it.
#[derive(Clone, Debug)]
pub struct Service {
    clusters: Vec<Cluster>,
    engine: Engine,
    deterministic: bool,
    trace: bool,
}

impl Service {
    /// A service over `clusters`, dispatching jobs to `engine`
    /// (the 2-D-RMSD workload always runs its MPI baseline).
    pub fn new(clusters: Vec<Cluster>, engine: Engine) -> Self {
        assert!(!clusters.is_empty(), "a service needs at least one cluster");
        Service {
            clusters,
            engine,
            deterministic: true,
            trace: false,
        }
    }

    /// Deterministic timing for the workload measurements (default on):
    /// virtual durations come from modelled costs only, so service runs
    /// are bit-identical across hosts and host-thread counts. Turn off to
    /// let measured host time shape the schedule.
    pub fn deterministic(mut self, on: bool) -> Self {
        self.deterministic = on;
        self
    }

    /// Record control-plane (enqueue/admit/reject) and data-plane (task)
    /// traces into the reports.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Run a batch of submissions to completion in virtual time.
    ///
    /// Every submission ends resolved: completed with a fingerprint, or
    /// failed with a typed [`EngineError`] — never silently dropped,
    /// never queued forever (the no-starvation contract).
    pub fn run(
        &self,
        tenants: &[TenantSpec],
        jobs: &[JobRequest],
    ) -> Result<ServiceReport, EngineError> {
        for (i, j) in jobs.iter().enumerate() {
            if j.tenant >= tenants.len() {
                return Err(EngineError::Unsupported(format!(
                    "job {i} names tenant {} but only {} tenants exist",
                    j.tenant,
                    tenants.len()
                )));
            }
            // An infinite submit time would never arrive and leave the job
            // unresolved.
            if !j.submit_s.is_finite() || j.submit_s < 0.0 {
                return Err(EngineError::Unsupported(format!(
                    "job {i} has invalid submit time {}",
                    j.submit_s
                )));
            }
            if let Some(d) = j.policy.deadline_s {
                if d.is_nan() || d.is_sign_negative() {
                    return Err(EngineError::Unsupported(format!(
                        "job {i} has invalid deadline {d}"
                    )));
                }
            }
        }
        let measured = self.measure_workloads(jobs)?;
        let mut st = SchedState::new(self, tenants, jobs, &measured);
        st.run();
        Ok(st.finish())
    }

    /// Execute each distinct (workload, cluster) pair once — the real
    /// kernels, fanned across host threads in deterministic order — and
    /// return virtual duration + output fingerprint, resolved per job: the
    /// entry for job `j` on cluster `c` is at `j * clusters + c`.
    fn measure_workloads(&self, jobs: &[JobRequest]) -> Result<Vec<(f64, u64)>, EngineError> {
        let mut distinct: Vec<Workload> = Vec::new();
        let kind_of: Vec<usize> = jobs
            .iter()
            .map(|j| {
                distinct
                    .iter()
                    .position(|w| *w == j.workload)
                    .unwrap_or_else(|| {
                        distinct.push(j.workload);
                        distinct.len() - 1
                    })
            })
            .collect();
        let n_clusters = self.clusters.len();
        let pairs: Vec<(Workload, usize)> = distinct
            .iter()
            .flat_map(|w| (0..n_clusters).map(move |c| (*w, c)))
            .collect();
        // The deterministic-timing toggle is process-global; serialize
        // measurement phases so concurrent `Service::run`s (tests, a
        // driver fanning out services) cannot flip it under each other.
        static MEASURE_LOCK: Mutex<()> = Mutex::new(());
        let _guard = netsim::lock(&MEASURE_LOCK);
        let prev = netsim::deterministic_timing();
        netsim::set_deterministic_timing(self.deterministic);
        let outs: Vec<Result<(f64, u64), EngineError>> = parallel::run_indexed(pairs.len(), |i| {
            let (w, c) = pairs[i];
            // Faults are the *service's* concern (deaths kill resident
            // jobs, shrinks evict them); the inner run sees a clean
            // cluster. Serial inner threads: the fan-out above is the
            // parallelism.
            let cluster = self.clusters[c].clone().with_faults(FaultPlan::none());
            let world = cluster.total_cores().min(4);
            let cfg = RunConfig::new(cluster, self.engine)
                .threads(netsim::Threads::Serial)
                .mpi_world(world);
            run_workload(&cfg, &w)
                .map(|out| (out.report.makespan_s.max(MIN_JOB_S), out.fingerprint))
        });
        netsim::set_deterministic_timing(prev);
        let per_kind = outs.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(kind_of
            .iter()
            .flat_map(|&k| &per_kind[k * n_clusters..(k + 1) * n_clusters])
            .copied()
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1 << 20;
    const GIB: u64 = 1 << 30;

    fn lf(seed: u64) -> Workload {
        Workload::Lf {
            n_atoms: 96,
            partitions: 2,
            seed,
        }
    }

    fn one_node(cores: usize, mem: u64, plan: FaultPlan) -> Cluster {
        Cluster::builder()
            .nodes(1)
            .cores_per_node(cores)
            .mem_budget(mem)
            .fault_plan(plan)
            .build()
    }

    fn tenant(quota: u64, pending: usize) -> TenantSpec {
        TenantSpec::new("t", 1, quota, pending)
    }

    #[test]
    fn jobs_complete_with_queue_accounting_in_the_trace() {
        let svc = Service::new(vec![one_node(2, GIB, FaultPlan::none())], Engine::Dask).trace(true);
        let tenants = [tenant(GIB, 8)];
        let jobs = [
            JobRequest::new(0, 0.0, lf(1)).working_set(64 * MIB),
            JobRequest::new(0, 0.0, lf(1)).working_set(64 * MIB),
            JobRequest::new(0, 0.0, lf(1)).working_set(64 * MIB),
        ];
        let rep = svc.run(&tenants, &jobs).unwrap();
        assert!(rep.jobs.iter().all(|j| j.result.is_ok()), "{:?}", rep.jobs);
        assert_eq!(rep.tenants[0].completed, 3);
        assert_eq!(rep.peak_concurrent, 2, "two slots, three jobs");
        assert!(rep.latency_quantile(0.99).unwrap() > 0.0);
        // Third job waited for a slot: its first admission is later.
        let trace = rep.control.trace.as_ref().unwrap();
        let kinds: Vec<&str> = trace.events.iter().map(|e| e.kind.kind_name()).collect();
        assert_eq!(kinds.iter().filter(|k| **k == "enqueue").count(), 3);
        assert_eq!(kinds.iter().filter(|k| **k == "admit").count(), 3);
        let waited = trace
            .events
            .iter()
            .filter(|e| e.kind.kind_name() == "admit" && e.start_s > e.ready_s)
            .count();
        assert_eq!(waited, 1, "exactly one admission shows queue wait");
    }

    #[test]
    fn backpressure_rejects_typed_when_the_queue_is_full() {
        let svc = Service::new(vec![one_node(2, GIB, FaultPlan::none())], Engine::Spark);
        let tenants = [tenant(GIB, 2)];
        let jobs: Vec<JobRequest> = (0..5)
            .map(|_| JobRequest::new(0, 0.0, lf(2)).working_set(MIB))
            .collect();
        let rep = svc.run(&tenants, &jobs).unwrap();
        assert_eq!(rep.tenants[0].submitted, 5);
        assert_eq!(rep.tenants[0].rejected, 3, "queue bound of 2 holds");
        assert_eq!(rep.tenants[0].completed, 2);
        let rejected: Vec<&JobOutcome> = rep.jobs.iter().filter(|j| j.result.is_err()).collect();
        assert_eq!(rejected.len(), 3);
        for j in rejected {
            match &j.result {
                Err(EngineError::Rejected { tenant, reason, .. }) => {
                    assert_eq!(*tenant, 0);
                    assert!(reason.contains("queue full"), "{reason}");
                }
                other => panic!("expected Rejected, got {other:?}"),
            }
            assert!(j.admit_s.is_none(), "rejected jobs never ran");
        }
    }

    #[test]
    fn tenant_quota_serializes_resident_working_sets() {
        // Two slots and budget for both, but the tenant's quota only
        // covers one 200 MiB working set at a time.
        let svc = Service::new(vec![one_node(2, GIB, FaultPlan::none())], Engine::Dask);
        let tenants = [tenant(300 * MIB, 8)];
        let jobs = [
            JobRequest::new(0, 0.0, lf(3)).working_set(200 * MIB),
            JobRequest::new(0, 0.0, lf(3)).working_set(200 * MIB),
        ];
        let rep = svc.run(&tenants, &jobs).unwrap();
        assert!(rep.jobs.iter().all(|j| j.result.is_ok()));
        assert!(rep.tenants[0].mem_high_water <= 300 * MIB, "quota held");
        let (a0, a1) = (rep.jobs[0].admit_s.unwrap(), rep.jobs[1].admit_s.unwrap());
        assert!(
            (a0 - a1).abs() > 0.0,
            "quota forced the admissions apart: {a0} vs {a1}"
        );
        assert_eq!(rep.peak_concurrent, 1);
    }

    #[test]
    fn infeasible_working_sets_are_refused_up_front() {
        let svc = Service::new(vec![one_node(2, GIB, FaultPlan::none())], Engine::Pilot);
        let tenants = [tenant(8 * GIB, 8)];
        // Larger than any node's hardware capacity: no budget schedule
        // can ever host it.
        let jobs = [JobRequest::new(0, 0.0, lf(4)).working_set(2 * GIB)];
        let rep = svc.run(&tenants, &jobs).unwrap();
        match &rep.jobs[0].result {
            Err(EngineError::Rejected { reason, .. }) => {
                assert!(reason.contains("capacity"), "{reason}")
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
        // Larger than the tenant's own quota: also refused at submit.
        let tenants = [tenant(100 * MIB, 8)];
        let jobs = [JobRequest::new(0, 0.0, lf(4)).working_set(200 * MIB)];
        let rep = svc.run(&tenants, &jobs).unwrap();
        match &rep.jobs[0].result {
            Err(EngineError::Rejected { reason, .. }) => {
                assert!(reason.contains("quota"), "{reason}")
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    #[test]
    fn fair_share_follows_stride_weights() {
        // One slot, two tenants at weight 4 : 1, a deep backlog each.
        let svc = Service::new(vec![one_node(1, GIB, FaultPlan::none())], Engine::Dask);
        let tenants = [
            TenantSpec::new("heavy", 4, GIB, 32),
            TenantSpec::new("light", 1, GIB, 32),
        ];
        let mut jobs = Vec::new();
        for _ in 0..8 {
            jobs.push(JobRequest::new(0, 0.0, lf(5)).working_set(MIB));
            jobs.push(JobRequest::new(1, 0.0, lf(5)).working_set(MIB));
        }
        let rep = svc.run(&tenants, &jobs).unwrap();
        let mut admitted: Vec<(f64, usize)> = rep
            .jobs
            .iter()
            .map(|j| (j.admit_s.unwrap(), j.tenant))
            .collect();
        admitted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let heavy_in_first_10 = admitted[..10].iter().filter(|(_, t)| *t == 0).count();
        assert_eq!(
            heavy_in_first_10, 8,
            "weight-4 tenant takes 4 of every 5 admissions: {admitted:?}"
        );
    }

    #[test]
    fn priority_then_deadline_orders_a_tenant_queue() {
        // One slot; all four jobs queue at t=0, so admission order is
        // exactly queue order.
        let svc = Service::new(vec![one_node(1, GIB, FaultPlan::none())], Engine::Dask);
        let tenants = [tenant(GIB, 8)];
        let deadline = |d: f64| RetryPolicy::new(1).with_deadline(d);
        let jobs = [
            JobRequest::new(0, 0.0, lf(6)),                       // no deadline
            JobRequest::new(0, 0.0, lf(6)).policy(deadline(1e6)), // late deadline
            JobRequest::new(0, 0.0, lf(6)).policy(deadline(1e5)), // tight deadline
            JobRequest::new(0, 0.0, lf(6)).priority(5),           // priority trumps
        ];
        let rep = svc.run(&tenants, &jobs).unwrap();
        let mut order: Vec<usize> = (0..4).collect();
        order.sort_by(|&a, &b| {
            rep.jobs[a]
                .admit_s
                .unwrap()
                .total_cmp(&rep.jobs[b].admit_s.unwrap())
        });
        assert_eq!(order, vec![3, 2, 1, 0], "priority desc, then deadline asc");
    }

    #[test]
    fn hopeless_deadline_fails_typed_at_admission() {
        let svc = Service::new(vec![one_node(1, GIB, FaultPlan::none())], Engine::Dask);
        let tenants = [tenant(GIB, 8)];
        // No workload finishes in 1 ns of virtual time.
        let jobs = [JobRequest::new(0, 0.0, lf(7)).policy(RetryPolicy::new(1).with_deadline(1e-9))];
        let rep = svc.run(&tenants, &jobs).unwrap();
        match &rep.jobs[0].result {
            Err(EngineError::DeadlineExceeded { deadline_s, .. }) => {
                assert_eq!(*deadline_s, 1e-9)
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(rep.tenants[0].failed, 1);
    }

    #[test]
    fn node_death_requeues_the_victim_and_it_still_completes() {
        // Learn the job duration from a fault-free run, then kill the
        // second node mid-flight.
        let free = Service::new(
            vec![Cluster::builder()
                .nodes(2)
                .cores_per_node(1)
                .mem_budget(GIB)
                .build()],
            Engine::Dask,
        );
        let tenants = [tenant(GIB, 8)];
        let policy = RetryPolicy::new(3).with_detection_delay(0.1);
        let jobs = [
            JobRequest::new(0, 0.0, lf(8)).policy(policy),
            JobRequest::new(0, 0.0, lf(8)).policy(policy),
        ];
        let base = free.run(&tenants, &jobs).unwrap();
        let d = base.jobs[0].end_s.unwrap();
        assert!(d > 0.0);
        let faulty = Service::new(
            vec![Cluster::builder()
                .nodes(2)
                .cores_per_node(1)
                .mem_budget(GIB)
                .fault_plan(FaultPlan::none().kill_node(1, d * 0.5))
                .build()],
            Engine::Dask,
        );
        let rep = faulty.run(&tenants, &jobs).unwrap();
        assert!(rep.jobs.iter().all(|j| j.result.is_ok()), "{:?}", rep.jobs);
        let victim = rep.jobs.iter().find(|j| j.retries > 0).expect("a job died");
        assert!(victim.end_s.unwrap() > d, "the retry cost time");
        assert!(rep.control.retries >= 1);
        assert!(
            rep.clusters[0].lost_time_s > 0.0,
            "killed work is accounted"
        );
    }

    #[test]
    fn suspected_partition_requeues_and_fences_the_zombie_at_heal() {
        // Learn the job duration fault-free, then cut the second node off
        // mid-flight for a long time. The job's detector (beat 0.1s,
        // timeout 0.2s) gives up well before heal: the service requeues
        // the job, the original attempt survives as a zombie, and its
        // stale completion is fenced when the cut heals.
        let mk = |plan: FaultPlan| {
            Service::new(
                vec![Cluster::builder()
                    .nodes(2)
                    .cores_per_node(1)
                    .mem_budget(GIB)
                    .fault_plan(plan)
                    .build()],
                Engine::Dask,
            )
        };
        let tenants = [tenant(GIB, 8)];
        let policy = RetryPolicy::new(3)
            .with_detection_delay(0.1)
            .with_suspicion(0.1, 0.2);
        let jobs = [
            JobRequest::new(0, 0.0, lf(8)).policy(policy),
            JobRequest::new(0, 0.0, lf(8)).policy(policy),
        ];
        let base = mk(FaultPlan::none()).run(&tenants, &jobs).unwrap();
        let d = base.jobs[0].end_s.unwrap();
        assert!(d > 0.0);
        let plan = FaultPlan::none().partition(vec![vec![0], vec![1]], d * 0.5, d * 0.5 + 10.0);
        let rep = mk(plan).run(&tenants, &jobs).unwrap();
        assert!(rep.jobs.iter().all(|j| j.result.is_ok()), "{:?}", rep.jobs);
        let victim = rep
            .jobs
            .iter()
            .find(|j| j.retries > 0)
            .expect("a job was suspected");
        assert!(victim.end_s.unwrap() > d, "the false positive cost time");
        assert_eq!(rep.clusters[0].zombie_attempts, 1, "one zombie attempt");
        assert!(rep.clusters[0].zombie_time_s > 0.0, "wasted work accounted");
        assert_eq!(
            rep.control.fenced_results, 1,
            "the zombie's stale result was fenced exactly once at heal"
        );
        // Outcomes match the fault-free run: same fingerprints, no
        // double-applied completion.
        for (a, b) in rep.jobs.iter().zip(base.jobs.iter()) {
            assert_eq!(a.result.as_ref().ok(), b.result.as_ref().ok());
        }
    }

    #[test]
    fn waited_out_cut_only_delays_delivery() {
        // The cut heals before the detector's timeout elapses: no
        // suspicion, no requeue, no fence — the victim's result is merely
        // delivered at heal.
        let mk = |plan: FaultPlan| {
            Service::new(
                vec![Cluster::builder()
                    .nodes(2)
                    .cores_per_node(1)
                    .mem_budget(GIB)
                    .fault_plan(plan)
                    .build()],
                Engine::Dask,
            )
        };
        let tenants = [tenant(GIB, 8)];
        let policy = RetryPolicy::new(3)
            .with_detection_delay(0.1)
            .with_suspicion(0.1, 0.2);
        let jobs = [
            JobRequest::new(0, 0.0, lf(8)).policy(policy),
            JobRequest::new(0, 0.0, lf(8)).policy(policy),
        ];
        let base = mk(FaultPlan::none()).run(&tenants, &jobs).unwrap();
        let d = base.jobs[0].end_s.unwrap();
        let heal = d * 0.5 + 0.05;
        let plan = FaultPlan::none().partition(vec![vec![0], vec![1]], d * 0.5, heal);
        let rep = mk(plan).run(&tenants, &jobs).unwrap();
        assert!(rep.jobs.iter().all(|j| j.result.is_ok()), "{:?}", rep.jobs);
        assert!(rep.jobs.iter().all(|j| j.retries == 0), "nobody suspected");
        assert_eq!(rep.control.fenced_results, 0);
        assert_eq!(rep.clusters[0].zombie_attempts, 0);
        let delayed = rep.jobs.iter().any(|j| j.end_s.unwrap() >= heal);
        assert!(delayed, "the cut job's delivery waited for heal");
        for (a, b) in rep.jobs.iter().zip(base.jobs.iter()) {
            assert_eq!(a.result.as_ref().ok(), b.result.as_ref().ok());
        }
    }

    #[test]
    fn budget_shrink_evicts_and_scripted_growth_readmits() {
        let tenants = [tenant(GIB, 8)];
        let jobs = [JobRequest::new(0, 0.0, lf(9))
            .working_set(600 * MIB)
            .policy(RetryPolicy::new(3))];
        let free = Service::new(vec![one_node(1, GIB, FaultPlan::none())], Engine::Dask);
        let d = free.run(&tenants, &jobs).unwrap().jobs[0].end_s.unwrap();
        // Shrink below the working set mid-run, restore well after.
        let plan = FaultPlan::none()
            .shrink_memory(0, d * 0.5, 100 * MIB)
            .set_memory(0, d * 4.0, GIB);
        let svc = Service::new(vec![one_node(1, GIB, plan)], Engine::Dask);
        let rep = svc.run(&tenants, &jobs).unwrap();
        assert!(rep.jobs[0].result.is_ok(), "{:?}", rep.jobs[0].result);
        assert_eq!(rep.jobs[0].retries, 1, "evicted once");
        assert!(
            rep.jobs[0].end_s.unwrap() >= d * 4.0,
            "completion waited for the scripted budget growth"
        );
    }

    #[test]
    fn permanent_starvation_resolves_as_typed_rejection() {
        // The budget drops to zero immediately and never recovers: the
        // queued job must fail typed, not hang the loop.
        let plan = FaultPlan::none().shrink_memory(0, 0.0, 0);
        let svc = Service::new(vec![one_node(1, GIB, plan)], Engine::Dask);
        let tenants = [tenant(GIB, 8)];
        let jobs = [JobRequest::new(0, 0.0, lf(10)).working_set(100 * MIB)];
        let rep = svc.run(&tenants, &jobs).unwrap();
        match &rep.jobs[0].result {
            Err(EngineError::Rejected { reason, .. }) => {
                assert!(reason.contains("stalled"), "{reason}")
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    #[test]
    fn bad_submissions_are_refused_by_the_front_door() {
        let svc = Service::new(vec![one_node(1, GIB, FaultPlan::none())], Engine::Dask);
        let err = svc
            .run(&[tenant(GIB, 8)], &[JobRequest::new(3, 0.0, lf(11))])
            .unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)), "{err}");
        // A submit time that never arrives would leave its job unresolved.
        for submit_s in [f64::NAN, -1.0, f64::INFINITY] {
            let err = svc
                .run(&[tenant(GIB, 8)], &[JobRequest::new(0, submit_s, lf(11))])
                .unwrap_err();
            assert!(matches!(err, EngineError::Unsupported(_)), "{err}");
        }
        for deadline_s in [f64::NAN, -1.0] {
            let mut policy = RetryPolicy::new(1);
            policy.deadline_s = Some(deadline_s);
            let err = svc
                .run(
                    &[tenant(GIB, 8)],
                    &[JobRequest::new(0, 0.0, lf(11)).policy(policy)],
                )
                .unwrap_err();
            assert!(matches!(err, EngineError::Unsupported(_)), "{err}");
        }
    }
}
