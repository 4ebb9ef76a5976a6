//! `service_burst` — the multi-tenant `mdtaskd` service under a backlog.

use super::{Spec, Workload};
use crate::harness::Ctx;
use crate::spans::SpanStats;
use mdtask_core::Workload as Recipe;
use mdtaskd::{JobRequest, Service, ServiceReport, TenantSpec};
use netsim::{Cluster, FaultPlan, RetryPolicy};
use std::collections::BTreeMap;
use taskframe::{Engine, EngineError};

pub const SPEC: Spec = Spec {
    name: "service_burst",
    why: "mdtaskd: 8 tenants burst 2400 jobs onto 1536 slots, plus an overload leg and a death/shrink/grow \
          leg: only six distinct analyses are measured, so the scheduling loop under backlog is the cost",
    build,
};

const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;
const TENANTS: usize = 8;
const BURST_JOBS: usize = 2_400;
const OVERLOAD_JOBS: usize = 40;
const FAULT_JOBS: usize = 24;

struct ServiceBurst {
    pool: [Recipe; 3],
}

fn build(seed: u64, _ctx: &mut Ctx) -> Box<dyn Workload> {
    // The `exp_service` pool; the service generates each recipe's inputs
    // itself, from these seeds, when it measures the recipe.
    let s = seed.wrapping_mul(1000);
    Box::new(ServiceBurst {
        pool: [
            Recipe::Lf {
                n_atoms: 200,
                partitions: 4,
                seed: s + 31,
            },
            Recipe::Lf {
                n_atoms: 300,
                partitions: 8,
                seed: s + 32,
            },
            Recipe::Psa {
                n_traj: 4,
                n_frames: 6,
                groups: 2,
                seed: s + 33,
            },
        ],
    })
}

fn big_cluster() -> Cluster {
    Cluster::builder()
        .nodes(32)
        .cores_per_node(24)
        .mem_budget(64 * GIB)
        .build()
}

impl ServiceBurst {
    fn run(
        ctx: &mut Ctx,
        service: &Service,
        tenants: &[TenantSpec],
        jobs: &[JobRequest],
    ) -> Option<ServiceReport> {
        match ctx.span("mdtaskd.run", |_| service.run(tenants, jobs)) {
            Ok(report) => Some(report),
            Err(e) => {
                ctx.check(&format!("service refused the batch: {e}"), false);
                None
            }
        }
    }

    /// File a leg's report: data-plane statistics to `model.*`, and the
    /// whole report must repeat.
    fn file(ctx: &mut Ctx, what: &str, report: ServiceReport) {
        for cluster in &report.clusters {
            ctx.model(None, cluster);
        }
        ctx.fingerprint(
            report
                .jobs
                .iter()
                .filter_map(|j| j.result.as_ref().ok())
                .fold(0, |acc, fp| acc ^ fp),
        );
        ctx.same_as_first(what, report);
    }

    /// Tenants of weight 1–4 burst jobs 1 µs apart onto two 768-slot
    /// clusters: everything must complete and every quota hold.
    fn burst(&self, ctx: &mut Ctx) {
        let service = Service::new(vec![big_cluster(), big_cluster()], Engine::Dask);
        let tenants: Vec<TenantSpec> = (0..TENANTS)
            .map(|t| {
                TenantSpec::new(
                    &format!("tenant-{t}"),
                    1 + (t % 4) as u32,
                    8 * GIB,
                    BURST_JOBS,
                )
            })
            .collect();
        let jobs: Vec<JobRequest> = (0..BURST_JOBS)
            .map(|i| {
                JobRequest::new(i % TENANTS, i as f64 * 1e-6, self.pool[i % self.pool.len()])
                    .working_set(16 * MIB)
                    .priority((i % 3) as u8)
                    .policy(RetryPolicy::new(2))
            })
            .collect();
        let Some(report) = Self::run(ctx, &service, &tenants, &jobs) else {
            return;
        };
        let completed = report.jobs.iter().filter(|j| j.result.is_ok()).count();
        ctx.check("burst jobs did not all complete", completed == BURST_JOBS);
        ctx.check(
            "a tenant exceeded its quota",
            report
                .tenants
                .iter()
                .zip(&tenants)
                .all(|(stats, spec)| stats.mem_high_water <= spec.quota_bytes),
        );
        let queued = report
            .jobs
            .iter()
            .filter(|j| j.admit_s.is_some_and(|a| a > j.submit_s))
            .count();
        ctx.add("mdtaskd.backlog_jobs", queued as f64);
        for (metric, p) in [
            ("model.service_latency_p50_s", 0.50),
            ("model.service_latency_p99_s", 0.99),
        ] {
            ctx.add(metric, report.latency_quantile(p).unwrap_or(f64::NAN));
        }
        Self::file(ctx, "burst", report);
    }

    /// A burst at a 2-slot cluster through a 4-deep queue: load must be
    /// shed with typed rejections, and every job resolved.
    fn overload(&self, ctx: &mut Ctx) {
        let cluster = Cluster::builder()
            .nodes(1)
            .cores_per_node(2)
            .mem_budget(GIB)
            .build();
        let service = Service::new(vec![cluster], Engine::Dask);
        let tenants = [
            TenantSpec::new("a", 2, GIB, 4),
            TenantSpec::new("b", 1, GIB, 4),
        ];
        let jobs: Vec<JobRequest> = (0..OVERLOAD_JOBS)
            .map(|i| {
                JobRequest::new(i % 2, 0.0, self.pool[i % self.pool.len()]).working_set(8 * MIB)
            })
            .collect();
        let Some(report) = Self::run(ctx, &service, &tenants, &jobs) else {
            return;
        };
        let rejected = report
            .jobs
            .iter()
            .filter(|j| matches!(j.result, Err(EngineError::Rejected { .. })))
            .count();
        ctx.check("overload shed no load", rejected > 0);
        ctx.check(
            "overload left a job unresolved or failed it untyped",
            report.jobs.iter().all(|j| {
                j.end_s.is_some() && matches!(j.result, Ok(_) | Err(EngineError::Rejected { .. }))
            }),
        );
        ctx.add("mdtaskd.rejected_typed", rejected as f64);
        Self::file(ctx, "overload", report);
    }

    /// A node death, a memory shrink and a scripted grow while jobs are
    /// resident: every job still resolves, some after a requeue.
    fn faults(&self, ctx: &mut Ctx) {
        let plan = FaultPlan::none()
            .kill_node(2, 0.1)
            .shrink_memory(0, 0.08, 256 * MIB)
            .set_memory(0, 5.0, 4 * GIB);
        let cluster = Cluster::builder()
            .nodes(3)
            .cores_per_node(4)
            .mem_budget(4 * GIB)
            .fault_plan(plan)
            .build();
        let service = Service::new(vec![cluster], Engine::Dask);
        let tenants = [
            TenantSpec::new("alpha", 3, 2 * GIB, 64),
            TenantSpec::new("beta", 1, GIB, 64),
        ];
        let jobs: Vec<JobRequest> = (0..FAULT_JOBS)
            .map(|i| {
                JobRequest::new(i % 2, i as f64 * 0.005, self.pool[i % self.pool.len()])
                    .working_set((1 + i as u64 % 4) * 128 * MIB)
                    .policy(RetryPolicy::new(4).with_detection_delay(0.5))
            })
            .collect();
        let Some(report) = Self::run(ctx, &service, &tenants, &jobs) else {
            return;
        };
        ctx.check(
            "a job was left unresolved",
            report.jobs.iter().all(|j| j.end_s.is_some()),
        );
        let requeues: u32 = report.jobs.iter().map(|j| j.retries).sum();
        ctx.add("mdtaskd.requeues", requeues as f64);
        Self::file(ctx, "faults", report);
    }
}

impl Workload for ServiceBurst {
    fn units(&self) -> u64 {
        (BURST_JOBS + OVERLOAD_JOBS + FAULT_JOBS) as u64
    }

    fn iterate(&mut self, ctx: &mut Ctx) {
        ctx.op("service_burst.burst", |ctx| self.burst(ctx));
        ctx.op("service_burst.overload", |ctx| self.overload(ctx));
        ctx.op("service_burst.faults", |ctx| self.faults(ctx));
    }

    fn derive(&self, s: &SpanStats, m: &mut BTreeMap<String, f64>) {
        let run_s = s.total_s("mdtaskd.run");
        m.insert("mdtaskd.run_s".into(), run_s);
        m.insert(
            "mdtaskd.jobs_per_host_s".into(),
            self.units() as f64 / run_s,
        );
    }
}
