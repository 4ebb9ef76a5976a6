//! Service-level integration tests for `mdtaskd`: determinism across
//! host-thread counts and the no-starvation contract under chaos.

use mdtask::cluster::parallel::with_degree;
use mdtask::cluster::{Cluster, FaultPlan, RetryPolicy, Threads};
use mdtask::prelude::{Engine, JobRequest, Service, TenantSpec};
use mdtask::service::chaos::{fuzz_service, ServiceChaosConfig};
use mdtask_core::run::Workload;
use taskframe::EngineError;

/// The golden `ServiceReport` hashes of `mdtaskd`'s own test tree, gated
/// by tier-1 from here.
#[path = "../crates/mdtaskd/tests/golden_reports.rs"]
mod golden_reports;

const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;

/// A fault-heavy scenario: two tenants, a node death, a budget shrink
/// with a scripted recovery — everything the scheduler has a code path
/// for.
fn scenario() -> (Service, Vec<TenantSpec>, Vec<JobRequest>) {
    // Workload virtual makespans are ~0.2s on this cluster, so the burst
    // below keeps jobs in flight when the node dies (0.1s) and the budget
    // shrinks (0.05s); the scripted grow at 2.0s un-stalls the big jobs.
    let plan = FaultPlan::none()
        .kill_node(1, 0.1)
        .shrink_memory(0, 0.05, 100 * MIB)
        .set_memory(0, 2.0, 2 * GIB);
    let cluster = Cluster::builder()
        .nodes(2)
        .cores_per_node(3)
        .mem_budget(2 * GIB)
        .fault_plan(plan)
        .build();
    let service = Service::new(vec![cluster], Engine::Dask).trace(true);
    let tenants = vec![
        TenantSpec::new("alpha", 3, GIB, 32),
        TenantSpec::new("beta", 1, GIB, 32),
    ];
    let pool = [
        Workload::Lf {
            n_atoms: 96,
            partitions: 2,
            seed: 1,
        },
        Workload::Psa {
            n_traj: 3,
            n_frames: 4,
            groups: 2,
            seed: 2,
        },
    ];
    let jobs: Vec<JobRequest> = (0..18)
        .map(|i| {
            JobRequest::new(i % 2, i as f64 * 0.01, pool[i % pool.len()])
                .working_set(((1 + i % 3) as u64) * 100 * MIB)
                .priority((i % 2) as u8)
                .policy(RetryPolicy::new(4).with_detection_delay(0.5))
        })
        .collect();
    (service, tenants, jobs)
}

#[test]
fn service_reports_are_bit_identical_at_1_2_and_8_host_threads() {
    let (service, tenants, jobs) = scenario();
    let run = |t: Threads| with_degree(t, || service.run(&tenants, &jobs).expect("valid batch"));
    let serial = run(Threads::Serial);
    let two = run(Threads::Fixed(2));
    let eight = run(Threads::Fixed(8));
    // Full-report equality: control-plane trace, per-cluster ledgers,
    // every job outcome and every latency — not just summary counters.
    assert_eq!(serial, two, "1 vs 2 host threads diverged");
    assert_eq!(two, eight, "2 vs 8 host threads diverged");
    // And the scenario actually exercised the fault paths.
    assert!(serial.control.retries >= 1, "a job was killed and retried");
    assert!(serial.jobs.iter().all(|j| j.end_s.is_some()));
}

#[test]
fn every_submission_resolves_typed_under_chaos() {
    // The service chaos battery: tenant bursts, mid-job node deaths,
    // mid-job budget shrinks and grows. Oracles: determinism (run-twice
    // and cross-thread equality), no starvation (every job resolves with
    // a fingerprint or a typed error), per-tenant conservation and quota
    // enforcement.
    let cfg = ServiceChaosConfig {
        scenarios: 8,
        ..ServiceChaosConfig::default()
    };
    let report = fuzz_service(&cfg);
    assert!(
        report.passed(),
        "service chaos battery violation: {:?}",
        report.violations.first()
    );
    assert_eq!(report.runs, 8);
}

#[test]
fn overloaded_service_sheds_load_with_typed_rejections() {
    let cluster = Cluster::builder()
        .nodes(1)
        .cores_per_node(1)
        .mem_budget(GIB)
        .build();
    let service = Service::new(vec![cluster], Engine::Spark);
    let tenants = vec![TenantSpec::new("burst", 1, GIB, 3)];
    let w = Workload::Lf {
        n_atoms: 96,
        partitions: 2,
        seed: 9,
    };
    let jobs: Vec<JobRequest> = (0..10)
        .map(|_| JobRequest::new(0, 0.0, w).working_set(10 * MIB))
        .collect();
    let report = service.run(&tenants, &jobs).unwrap();
    let rejected = report
        .jobs
        .iter()
        .filter(|j| matches!(j.result, Err(EngineError::Rejected { .. })))
        .count();
    assert_eq!(rejected, 7, "queue bound of 3 sheds the rest typed");
    assert_eq!(report.tenants[0].completed, 3);
    assert!(report.jobs.iter().all(|j| j.end_s.is_some()), "no limbo");
}
