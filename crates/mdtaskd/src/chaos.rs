//! Chaos battery for the service: seeded random scenarios — tenant
//! bursts, mid-job node deaths, mid-job budget shrinks and grows — with
//! invariant oracles checked against every run:
//!
//! * **determinism** — the same scenario run twice produces a
//!   bit-identical [`ServiceReport`], and the report is also identical
//!   whether the workload measurements fan out over 1 or several host
//!   threads (virtual time owes nothing to host scheduling);
//! * **no starvation** — every submission resolves: completed with a
//!   fingerprint or failed with a typed [`EngineError`]
//!   (never silently dropped, never queued forever);
//! * **conservation** — per tenant, `submitted = completed + rejected +
//!   failed`, so no job is double-counted or lost between ledgers;
//! * **quota enforcement** — a tenant's peak resident bytes never exceed
//!   its declared quota, whatever the burst pattern or fault schedule;
//! * **termination** — the virtual makespan is finite and every outcome
//!   time is ordered (`submit ≤ admit ≤ end`).
//!
//! The sweep is an instance of `netsim::chaos::fuzz_with`; a violating
//! scenario shrinks to fewer jobs and faults. Everything is deterministic in
//! `(config, seed)`: a failing seed reproduces exactly.

use crate::{JobRequest, Service, ServiceReport, TenantSpec};
use mdtask_core::run::Workload;
use netsim::chaos::{fuzz_with, shrink, FuzzReport, SeedStream, Verdict};
use netsim::{parallel, Cluster, FaultPlan, RetryPolicy, Threads};
use taskframe::{Engine, EngineError};

/// Knobs of the service fuzz sweep.
#[derive(Clone, Debug)]
pub struct ServiceChaosConfig {
    /// First seed; scenario `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Scenarios to generate and run.
    pub scenarios: usize,
    /// Tenants per scenario, drawn from this inclusive range.
    pub tenants: (usize, usize),
    /// Jobs per scenario, drawn from this inclusive range.
    pub jobs: (usize, usize),
    /// Submission times are drawn from `[0, submit_window_s)` — bursts
    /// come from the draw clustering, not a special mode.
    pub submit_window_s: f64,
    /// Probability a scenario's cluster schedules a node death.
    pub death_prob: f64,
    /// Probability of a mid-run budget shrink (followed by a scripted
    /// grow later, half the time — exercising the wait-for-budget path).
    pub shrink_prob: f64,
    /// Also re-run each scenario with workload measurement fanned over
    /// this many host threads and require report equality (1 disables).
    pub check_threads: usize,
}

impl Default for ServiceChaosConfig {
    fn default() -> Self {
        ServiceChaosConfig {
            base_seed: 0,
            scenarios: 10,
            tenants: (2, 4),
            jobs: (10, 24),
            submit_window_s: 20.0,
            death_prob: 0.4,
            shrink_prob: 0.4,
            check_threads: 2,
        }
    }
}

/// One generated scenario: service + tenants + submissions.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub service: Service,
    pub tenants: Vec<TenantSpec>,
    pub jobs: Vec<JobRequest>,
}

/// Small fixed pool of cheap workloads — real kernels, tiny inputs —
/// so measurement stays fast while jobs still differ in duration.
fn workload_pool() -> Vec<Workload> {
    vec![
        Workload::Lf {
            n_atoms: 96,
            partitions: 2,
            seed: 11,
        },
        Workload::Lf {
            n_atoms: 160,
            partitions: 4,
            seed: 12,
        },
        Workload::Psa {
            n_traj: 3,
            n_frames: 4,
            groups: 2,
            seed: 13,
        },
        Workload::Rmsd {
            n_atoms: 24,
            n_frames: 8,
            slices: 4,
            seed: 14,
        },
        Workload::Contacts {
            n_atoms: 24,
            n_frames: 8,
            slices: 4,
            seed: 15,
        },
    ]
}

/// Generate the scenario for one seed. Deterministic in `(cfg, seed)`.
pub fn scenario_for_seed(cfg: &ServiceChaosConfig, seed: u64) -> Scenario {
    let mut rng = SeedStream::new(seed);
    let gib = 1u64 << 30;
    let nodes = rng.range(2, 3);
    let mut plan = FaultPlan::none();
    if rng.f64() < cfg.death_prob {
        // Kill a non-zero node mid-window; node 0 always survives so the
        // scenario can drain.
        let node = rng.range(1, nodes - 1);
        let at_s = 1.0 + rng.f64() * (cfg.submit_window_s * 2.0);
        plan = plan.kill_node(node, at_s);
    }
    if rng.f64() < cfg.shrink_prob {
        let node = rng.range(0, nodes - 1);
        let at_s = 1.0 + rng.f64() * cfg.submit_window_s;
        plan = plan.shrink_memory(node, at_s, gib / 4);
        if rng.f64() < 0.5 {
            // Budget grows back later: queued jobs should wait, not die.
            plan = plan.set_memory(node, at_s + 10.0 + rng.f64() * 20.0, gib);
        }
    }
    let cluster = Cluster::builder()
        .nodes(nodes)
        .cores_per_node(2)
        .mem_budget(gib)
        .fault_plan(plan)
        .build();
    let engines = [Engine::Spark, Engine::Dask, Engine::Pilot];
    let engine = engines[rng.range(0, engines.len() - 1)];
    let service = Service::new(vec![cluster], engine);
    let n_tenants = rng.range(cfg.tenants.0, cfg.tenants.1);
    let tenants: Vec<TenantSpec> = (0..n_tenants)
        .map(|t| {
            TenantSpec::new(
                &format!("tenant-{t}"),
                rng.range(1, 4) as u32,
                gib / 2 + rng.range(0, 2) as u64 * (gib / 2),
                rng.range(4, 16),
            )
        })
        .collect();
    let pool = workload_pool();
    let n_jobs = rng.range(cfg.jobs.0, cfg.jobs.1);
    let jobs: Vec<JobRequest> = (0..n_jobs)
        .map(|_| {
            let tenant = rng.range(0, n_tenants - 1);
            let submit_s = rng.f64() * cfg.submit_window_s;
            let w = pool[rng.range(0, pool.len() - 1)];
            let mut policy = RetryPolicy::new(rng.range(1, 3) as u32)
                .with_detection_delay(0.5)
                .with_backoff(0.5, 2.0, 4.0);
            if rng.f64() < 0.25 {
                policy = policy.with_deadline(cfg.submit_window_s * (2.0 + rng.f64() * 8.0));
            }
            JobRequest::new(tenant, submit_s, w)
                .priority(rng.range(0, 3) as u8)
                .working_set((64 + rng.range(0, 192) as u64) << 20)
                .policy(policy)
        })
        .collect();
    Scenario {
        service,
        tenants,
        jobs,
    }
}

/// Check every oracle against one scenario's report.
pub fn check_invariants(s: &Scenario, report: &ServiceReport) -> Option<String> {
    if !report.makespan_s.is_finite() || report.makespan_s < 0.0 {
        return Some(format!("non-finite makespan {}", report.makespan_s));
    }
    if report.jobs.len() != s.jobs.len() {
        return Some(format!(
            "report covers {} jobs but {} were submitted",
            report.jobs.len(),
            s.jobs.len()
        ));
    }
    for o in &report.jobs {
        // No starvation: every submission resolves with a time and either
        // a fingerprint or a *typed* error.
        if o.end_s.is_none() {
            return Some(format!("job {} never resolved (no end time)", o.job));
        }
        if let Err(EngineError::Unsupported(m)) = &o.result {
            if m.contains("never resolved") {
                return Some(format!("job {} fell through the scheduler", o.job));
            }
        }
        let end = o.end_s.unwrap();
        if let Some(admit) = o.admit_s {
            if admit + 1e-9 < o.submit_s || end + 1e-9 < admit {
                return Some(format!(
                    "job {} times out of order: submit {} admit {} end {}",
                    o.job, o.submit_s, admit, end
                ));
            }
        }
        if o.result.is_ok() && o.admit_s.is_none() {
            return Some(format!(
                "job {} completed without ever being admitted",
                o.job
            ));
        }
    }
    for (t, st) in report.tenants.iter().enumerate() {
        if st.submitted != st.completed + st.rejected + st.failed {
            return Some(format!(
                "tenant {t} leaks jobs: {} submitted vs {} completed + {} rejected + {} failed",
                st.submitted, st.completed, st.rejected, st.failed
            ));
        }
        if st.mem_high_water > s.tenants[t].quota_bytes {
            return Some(format!(
                "tenant {t} quota violated: peak resident {} over quota {}",
                st.mem_high_water, s.tenants[t].quota_bytes
            ));
        }
    }
    None
}

/// Judge one scenario: run it twice (determinism oracle), optionally once
/// more under a different host-thread count, and apply every oracle in
/// [`check_invariants`].
fn judge(cfg: &ServiceChaosConfig, s: &Scenario) -> Verdict {
    let run = || s.service.run(&s.tenants, &s.jobs);
    let first = match run() {
        Ok(r) => r,
        Err(e) => return Verdict::Broke(format!("generated scenario was refused: {e}")),
    };
    if let Some(message) = check_invariants(s, &first) {
        return Verdict::Broke(message);
    }
    if run().as_ref() != Ok(&first) {
        return Verdict::Broke("same scenario, different report (non-determinism)".into());
    }
    let threads = Threads::Fixed(cfg.check_threads);
    if cfg.check_threads > 1 && parallel::with_degree(threads, run).as_ref() != Ok(&first) {
        return Verdict::Broke(format!(
            "report changed when measured over {} host threads",
            cfg.check_threads
        ));
    }
    Verdict::Held
}

/// Shrink a scenario for which `still_fails` holds: drop one job at a
/// time, then shrink the cluster's fault plan with
/// [`netsim::chaos::shrink`], until neither step removes anything. The
/// result is a fixpoint: shrinking it again returns it unchanged.
pub(crate) fn shrink_scenario(s: &Scenario, still_fails: impl Fn(&Scenario) -> bool) -> Scenario {
    let with_plan = |s: &Scenario, plan: &FaultPlan| {
        let mut cand = s.clone();
        let cluster = &mut cand.service.clusters[0];
        *cluster = cluster.clone().with_faults(plan.clone());
        cand
    };
    let mut cur = s.clone();
    loop {
        let mut dropped = false;
        let mut i = 0;
        while i < cur.jobs.len() {
            let mut cand = cur.clone();
            cand.jobs.remove(i);
            if still_fails(&cand) {
                (cur, dropped) = (cand, true);
            } else {
                i += 1;
            }
        }
        let plan = cur.service.clusters[0].faults().clone();
        let shrunk = shrink(&plan, |p| still_fails(&with_plan(&cur, p)));
        if !dropped && shrunk == plan {
            return cur;
        }
        cur = with_plan(&cur, &shrunk);
    }
}

/// Run the sweep: `cfg.scenarios` seeded scenarios, each judged by every
/// oracle and shrunk when it breaks one. Detection runs serially: the
/// thread-count oracle needs a pool of its own, and a pool worker runs a
/// nested fan-out inline.
pub fn fuzz_service(cfg: &ServiceChaosConfig) -> FuzzReport<Scenario> {
    parallel::with_degree(Threads::Serial, || {
        fuzz_with(
            cfg.base_seed..cfg.base_seed + cfg.scenarios as u64,
            |seed| scenario_for_seed(cfg, seed),
            |s| judge(cfg, s),
            |s, still_fails| shrink_scenario(s, still_fails),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic_and_well_formed() {
        let cfg = ServiceChaosConfig::default();
        for i in 0..50 {
            let seed = cfg.base_seed + i;
            let a = scenario_for_seed(&cfg, seed);
            let b = scenario_for_seed(&cfg, seed);
            assert_eq!(a.tenants, b.tenants, "same seed, same tenants");
            assert_eq!(a.jobs, b.jobs, "same seed, same jobs");
            assert!(!a.tenants.is_empty() && !a.jobs.is_empty());
            for j in &a.jobs {
                assert!(j.tenant < a.tenants.len());
                assert!(j.submit_s >= 0.0);
            }
        }
    }

    #[test]
    fn battery_passes_and_is_reproducible() {
        let cfg = ServiceChaosConfig {
            scenarios: 6,
            ..Default::default()
        };
        let a = fuzz_service(&cfg);
        assert!(
            a.passed(),
            "service chaos battery found a violation: {:?}",
            a.violations.first()
        );
        let b = fuzz_service(&cfg);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "identical fuzz reports");
    }

    #[test]
    fn a_planted_failure_shrinks_to_a_smaller_scenario_that_still_fails() {
        // A planted oracle that breaks whenever more than two jobs
        // complete: every generated scenario breaks it, and the service
        // shrinker must cut each down to a strictly smaller scenario that
        // still does — a fixpoint a second shrink leaves unchanged.
        let cfg = ServiceChaosConfig::default();
        let planted = |s: &Scenario| {
            let report = s.service.run(&s.tenants, &s.jobs).expect("scenario runs");
            let done = report.jobs.iter().filter(|o| o.result.is_ok()).count();
            if done > 2 {
                Verdict::Broke(format!("{done} jobs completed"))
            } else {
                Verdict::Held
            }
        };
        let fails = |s: &Scenario| matches!(planted(s), Verdict::Broke(_));
        let report = fuzz_with(
            0..2,
            |seed| scenario_for_seed(&cfg, seed),
            planted,
            |s, still_fails| shrink_scenario(s, still_fails),
        );
        assert_eq!(report.violations.len(), 2);
        let faults = |s: &Scenario| s.service.clusters[0].faults().clone();
        for v in &report.violations {
            assert!(
                fails(&v.shrunk),
                "seed {}: the shrunk scenario still fails",
                v.seed
            );
            assert_eq!(v.shrunk.jobs.len(), 3, "seed {}", v.seed);
            assert!(v.shrunk.jobs.len() < v.input.jobs.len());
            assert!(
                faults(&v.shrunk).is_empty(),
                "seed {}: no fault is needed",
                v.seed
            );
            let again = shrink_scenario(&v.shrunk, fails);
            assert_eq!(again.jobs, v.shrunk.jobs, "seed {}", v.seed);
            assert_eq!(faults(&again), faults(&v.shrunk), "seed {}", v.seed);
        }
        assert!(
            report
                .violations
                .iter()
                .any(|v| !faults(&v.input).is_empty()),
            "some input scripted a fault for the shrinker to drop"
        );
    }
}
