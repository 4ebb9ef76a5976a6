//! `mdtaskd` service experiment: multi-tenant scale, overload behaviour,
//! and host-thread invariance, in one artifact.
//!
//! Three legs:
//!
//! 1. **scale**: `--tenants` tenants (≥ 8) submit `--jobs` jobs (≥ 1200)
//!    in a tight burst against two large simulated clusters. The run must
//!    reach ≥ 1000 simultaneously-executing jobs, complete everything,
//!    and hold every tenant quota; exact p50/p99 submit-to-completion
//!    latencies come from the sorted latency vector.
//! 2. **overload**: the same tenants aim a burst at a 2-slot cluster with
//!    a tiny `max_pending`. The service must shed load with typed
//!    `EngineError::Rejected` errors — never queue without bound.
//! 3. **threads**: one fault-heavy scenario (node death + budget shrink
//!    followed by a scripted grow) runs with workload measurement fanned
//!    over 1, 2 and 8 host threads; the three `ServiceReport`s must be
//!    bit-identical (virtual time owes nothing to host scheduling).
//!
//! Results land in `--out` (default `results/service.json`). The binary
//! exits 1 if any leg misses its contract, so CI can run it as a gate.
//!
//! ```sh
//! cargo run -p bench --release --bin exp_service
//! cargo run -p bench --release --bin exp_service -- --jobs 2000 --tenants 10
//! ```

use mdtask_core::run::Workload;
use mdtaskd::{JobRequest, Service, ServiceReport, TenantSpec};
use netsim::{Cluster, FaultPlan, RetryPolicy};
use taskframe::{Engine, EngineError};

const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;

fn workload_pool() -> Vec<Workload> {
    vec![
        Workload::Lf {
            n_atoms: 200,
            partitions: 4,
            seed: 31,
        },
        Workload::Lf {
            n_atoms: 300,
            partitions: 8,
            seed: 32,
        },
        Workload::Psa {
            n_traj: 4,
            n_frames: 6,
            groups: 2,
            seed: 33,
        },
    ]
}

fn big_cluster() -> Cluster {
    Cluster::builder()
        .nodes(32)
        .cores_per_node(24)
        .mem_budget(64 * GIB)
        .build()
}

/// Leg 1: the tenant burst. Everything completes, concurrency crosses
/// 1000, quotas hold.
fn scale_leg(n_tenants: usize, n_jobs: usize) -> (ServiceReport, Vec<TenantSpec>) {
    let service = Service::new(vec![big_cluster(), big_cluster()], Engine::Dask);
    let tenants: Vec<TenantSpec> = (0..n_tenants)
        .map(|t| TenantSpec::new(&format!("tenant-{t}"), 1 + (t % 4) as u32, 8 * GIB, n_jobs))
        .collect();
    let pool = workload_pool();
    // A tight burst: all submissions land before the first completion,
    // so admissions stack to the full job count.
    let jobs: Vec<JobRequest> = (0..n_jobs)
        .map(|i| {
            JobRequest::new(i % n_tenants, i as f64 * 1e-6, pool[i % pool.len()])
                .working_set(16 * MIB)
                .priority((i % 3) as u8)
                .policy(RetryPolicy::new(2))
        })
        .collect();
    let report = service.run(&tenants, &jobs).expect("valid batch");
    (report, tenants)
}

/// Leg 2: overload a 2-slot cluster through a tiny queue bound.
fn overload_leg() -> ServiceReport {
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
    let pool = workload_pool();
    let jobs: Vec<JobRequest> = (0..40)
        .map(|i| JobRequest::new(i % 2, 0.0, pool[i % pool.len()]).working_set(8 * MIB))
        .collect();
    service.run(&tenants, &jobs).expect("valid batch")
}

/// Leg 3: a fault-heavy scenario under 1 / 2 / 8 host threads: the
/// serial report, and whether all three were identical.
fn thread_leg() -> (ServiceReport, bool) {
    // Workload makespans are ~0.2s of virtual time: the burst below keeps
    // jobs resident through the death (0.1s) and the shrink (0.08s); the
    // scripted grow at 5.0s lets the stalled big jobs finish.
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
    let pool = workload_pool();
    let jobs: Vec<JobRequest> = (0..24)
        .map(|i| {
            JobRequest::new(i % 2, (i as f64) * 0.005, pool[i % pool.len()])
                .working_set(((1 + i % 4) as u64) * 128 * MIB)
                .policy(RetryPolicy::new(4).with_detection_delay(0.5))
        })
        .collect();
    bench::thread_invariant("reports", || {
        service.run(&tenants, &jobs).expect("valid batch")
    })
}

fn main() {
    let args = bench::cli::Cli::new()
        .value("--jobs", "N", "jobs in the scale leg (default 1200)")
        .value("--tenants", "N", "tenants in the scale leg (default 8)")
        .value(
            "--out",
            "PATH",
            "output path (default results/service.json)",
        )
        .parse();
    let n_jobs = args.usize_or("--jobs", 1200);
    let n_tenants = args.usize_or("--tenants", 8).max(2);
    let out_path = args.str_or("--out", "results/service.json");
    let mut failed = false;

    println!("service experiment: {n_tenants} tenants x {n_jobs} jobs");
    let (scale, tenants) = scale_leg(n_tenants, n_jobs);
    let completed = scale.jobs.iter().filter(|j| j.result.is_ok()).count();
    let [p50, p99] = scale
        .latency_quantiles(&[0.50, 0.99])
        .map_or([f64::NAN; 2], |q| [q[0], q[1]]);
    let quotas_held = scale
        .tenants
        .iter()
        .zip(&tenants)
        .all(|(st, spec)| st.mem_high_water <= spec.quota_bytes);
    println!(
        "  scale: {completed}/{n_jobs} completed, peak concurrency {}, \
         p50 {p50:.3}s, p99 {p99:.3}s, makespan {:.3}s",
        scale.peak_concurrent, scale.makespan_s
    );
    if completed != n_jobs {
        eprintln!("FAILED: {} jobs did not complete", n_jobs - completed);
        failed = true;
    }
    if scale.peak_concurrent < 1000.min(n_jobs) {
        eprintln!(
            "FAILED: peak concurrency {} never reached {}",
            scale.peak_concurrent,
            1000.min(n_jobs)
        );
        failed = true;
    }
    if !quotas_held {
        eprintln!("FAILED: a tenant exceeded its quota");
        failed = true;
    }

    let overload = overload_leg();
    let rejected = overload
        .jobs
        .iter()
        .filter(|j| matches!(j.result, Err(EngineError::Rejected { .. })))
        .count();
    let resolved = overload.jobs.iter().all(|j| j.end_s.is_some());
    println!(
        "  overload: {rejected}/40 shed with typed rejection, {} completed",
        overload.jobs.iter().filter(|j| j.result.is_ok()).count()
    );
    if rejected == 0 || !resolved {
        eprintln!("FAILED: overload must shed load typed and resolve every job");
        failed = true;
    }

    let (t1, identical) = thread_leg();
    if !identical {
        eprintln!("FAILED: service reports must not depend on host threads");
        failed = true;
    }

    let retries: u32 = t1.jobs.iter().map(|j| j.retries).sum();
    let json = format!(
        "{{\n  \"tenants\": {n_tenants},\n  \"jobs\": {n_jobs},\n  \
         \"completed\": {completed},\n  \"peak_concurrent\": {},\n  \
         \"latency_p50_s\": {p50:.6},\n  \"latency_p99_s\": {p99:.6},\n  \
         \"throughput_jobs_per_s\": {:.3},\n  \"makespan_s\": {:.3},\n  \
         \"quotas_held\": {quotas_held},\n  \"overload_submitted\": 40,\n  \
         \"overload_rejected_typed\": {rejected},\n  \
         \"fault_leg_retries\": {retries},\n  \
         \"reports_identical_at_threads\": [1, 2, 8],\n  \
         \"thread_invariance_held\": {identical}\n}}\n",
        scale.peak_concurrent,
        scale.throughput_jobs_per_s(),
        scale.makespan_s,
    );
    bench::write_artifact(&out_path, &json);
    if failed {
        std::process::exit(1);
    }
}
