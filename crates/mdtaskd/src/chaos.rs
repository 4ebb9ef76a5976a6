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
//! Everything is deterministic in `(config, seed)`: a failing seed
//! reproduces exactly.

use crate::{JobRequest, Service, ServiceReport, TenantSpec};
use mdtask_core::run::Workload;
use netsim::{parallel, Cluster, FaultPlan, RetryPolicy, Threads};
use taskframe::{Engine, EngineError};

/// SplitMix64 — the same tiny deterministic generator the netsim chaos
/// harness uses, re-derived here so scenario streams are independent.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub(crate) struct SeedStream(u64);

impl SeedStream {
    pub(crate) fn new(seed: u64) -> Self {
        SeedStream(mix(seed))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[lo, hi]`.
    pub(crate) fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

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

/// One oracle violation: the seed reproduces it exactly.
#[derive(Clone, Debug)]
pub struct ServiceViolation {
    pub seed: u64,
    pub message: String,
}

/// Outcome of a service fuzz sweep.
#[derive(Clone, Debug, Default)]
pub struct ServiceFuzzReport {
    pub scenarios_run: usize,
    pub violations: Vec<ServiceViolation>,
}

impl ServiceFuzzReport {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// JSON artifact for CI.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"scenarios_run\":{},\"passed\":{},\"violations\":[",
            self.scenarios_run,
            self.passed()
        );
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let msg = netsim::escape_json(&v.message);
            out.push_str(&format!("{{\"seed\":{},\"message\":\"{msg}\"}}", v.seed));
        }
        out.push_str("]}");
        out
    }
}

/// One generated scenario: service + tenants + submissions.
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

/// Run the sweep: every scenario is executed twice (determinism oracle),
/// optionally once more under a different host-thread count, and every
/// oracle in [`check_invariants`] is applied.
pub fn fuzz_service(cfg: &ServiceChaosConfig) -> ServiceFuzzReport {
    let mut violations = Vec::new();
    for i in 0..cfg.scenarios {
        let seed = cfg.base_seed + i as u64;
        let s = scenario_for_seed(cfg, seed);
        let first = match s.service.run(&s.tenants, &s.jobs) {
            Ok(r) => r,
            Err(e) => {
                violations.push(ServiceViolation {
                    seed,
                    message: format!("generated scenario was refused: {e}"),
                });
                continue;
            }
        };
        if let Some(message) = check_invariants(&s, &first) {
            violations.push(ServiceViolation { seed, message });
            continue;
        }
        let second = s.service.run(&s.tenants, &s.jobs);
        if second.as_ref() != Ok(&first) {
            violations.push(ServiceViolation {
                seed,
                message: "same scenario, different report (non-determinism)".into(),
            });
            continue;
        }
        if cfg.check_threads > 1 {
            let threaded = parallel::with_degree(Threads::Fixed(cfg.check_threads), || {
                s.service.run(&s.tenants, &s.jobs)
            });
            if threaded.as_ref() != Ok(&first) {
                violations.push(ServiceViolation {
                    seed,
                    message: format!(
                        "report changed when measured over {} host threads",
                        cfg.check_threads
                    ),
                });
            }
        }
    }
    ServiceFuzzReport {
        scenarios_run: cfg.scenarios,
        violations,
    }
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
        assert_eq!(a.to_json(), b.to_json(), "byte-identical fuzz reports");
    }
}
