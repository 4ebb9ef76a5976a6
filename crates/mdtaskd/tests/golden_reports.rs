//! Golden `ServiceReport` hashes: the bit-identity oracle of the
//! scheduling loop.
//!
//! The constants below were recorded on the commit *before* the event loop
//! was rebuilt around a completion heap, per-node free-slot counts and the
//! admission watermark (PR 13). Every report the old loop produced — control
//! trace, per-cluster ledgers, outcomes, stats — must come out of any later
//! loop unchanged; there is no second scheduler kept around to compare
//! against, so these hashes are the reference.
//!
//! A report is rendered to text and hashed with FNV-1a. The rendering is
//! `{:?}` of the report with the traces lifted out and printed event by
//! event beside their resolved phase/label strings
//! (`tests/support/golden.rs`, shared with `tests/golden_collectives.rs`).
//!
//! The umbrella crate's `tests/service.rs` includes this file as a module,
//! so tier-1 (`cargo test -q`) gates it too.

use mdtask_core::run::Workload;
use mdtaskd::chaos::{scenario_for_seed, ServiceChaosConfig};
use mdtaskd::{JobRequest, Service, ServiceReport, TenantSpec};
use netsim::{Cluster, FaultPlan, RetryPolicy};
use taskframe::Engine;

#[path = "../../../tests/support/golden.rs"]
mod golden;
use golden::{assert_frozen, fnv1a, render_trace};

const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;

fn hash(report: &ServiceReport) -> u64 {
    let mut rest = report.clone();
    let mut text = String::new();
    for sim in std::iter::once(&mut rest.control).chain(&mut rest.clusters) {
        render_trace(sim, &mut text);
    }
    text.push_str(&format!("{rest:?}"));
    fnv1a(&text)
}

fn run(service: &Service, tenants: &[TenantSpec], jobs: &[JobRequest]) -> ServiceReport {
    service.run(tenants, jobs).expect("valid batch")
}

/// The `exp_service` workload pool.
fn pool() -> [Workload; 3] {
    [
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

#[rustfmt::skip]
const CHAOS: [u64; 64] = [
    0x7430_f3c4_16ec_c782, 0xf912_4309_e52c_0a61, 0x1fff_e049_c7ff_2cbc, 0xea2d_3fe9_8269_ddb7,
    0x4270_6fea_1364_72ff, 0xc5bb_5e46_86b7_f9b9, 0x80c7_cac8_a72d_4fc7, 0xafe5_f2c8_f695_5212,
    0xf92f_6f52_a901_dafc, 0xd64f_b3ab_f0ab_7698, 0xf881_36e5_6d07_fc4b, 0x162f_c1b0_f8ff_7ea2,
    0x5cb5_7680_1eaa_f379, 0x6f8e_53a2_34b5_b1bc, 0x0801_9ec4_bc7c_f84b, 0xfa37_9c05_01db_6f79,
    0xf601_5d29_d5ee_b18c, 0x98aa_8dfa_d904_45aa, 0x54a2_a4f4_0b8d_dd21, 0x95dc_f02a_a573_5134,
    0x8ab1_43ec_8bac_a081, 0x6c45_7f7e_081f_e82a, 0x5224_8d55_4122_b00f, 0xa82a_a9b5_a961_ede3,
    0xa91d_48ed_9408_5e7d, 0x3290_b6e2_ddf0_f2cb, 0xe474_4c0d_da95_7cb4, 0xbad6_d37a_2f71_683d,
    0xda35_43cf_de8d_314c, 0xe9a5_8d49_afc4_6bbc, 0xdb1d_1549_d6fa_5164, 0xbbae_dfdc_386f_e3c5,
    0xecef_9841_26fc_4b35, 0x096a_46f6_4f88_4736, 0x3415_f10d_5157_21fe, 0xe1f9_e296_ac8a_89b5,
    0x3610_3e94_21f0_75ad, 0x6a36_fae7_653d_2a4e, 0x159d_a6c4_c40d_60ca, 0x4adc_9bf5_3c76_f59a,
    0xd875_acb2_d2da_a198, 0x274a_684c_d694_c75f, 0xa700_72c9_2b45_1d98, 0xac96_d949_95a2_7c8b,
    0xf8b4_4fc1_df58_f8c7, 0x1e5d_bcaf_c931_c101, 0x6496_5306_fe7e_ac4f, 0xe618_2b41_c48b_197c,
    0xf812_1669_0016_285d, 0x5207_7a30_cdc7_0e26, 0xaf00_e4fb_65f9_f7e3, 0x4bf3_e6d4_b98d_59e6,
    0xf697_d654_b69a_a1f0, 0x77e1_8315_1230_51cd, 0x461b_11c9_faf3_9943, 0xa626_ebe5_1207_04fb,
    0xcb3d_fafa_c518_59b0, 0x82cd_9407_d3fa_f15e, 0xa643_26d4_5f8a_c58c, 0xfa04_7b87_91f3_dacb,
    0x0493_fe18_1cf6_20cd, 0x1197_b526_adbf_58a3, 0x0d05_d57a_da4f_86a0, 0xe1b1_a773_00ac_26f5,
];

#[test]
fn chaos_scenarios_match_the_frozen_hashes() {
    // Default config: deaths and shrinks on, 2–4 tenants, 10–24 jobs on
    // 2–3 nodes of 2 slots, so every scenario queues.
    let cfg = ServiceChaosConfig::default();
    let got: Vec<u64> = (0..CHAOS.len() as u64)
        .map(|seed| {
            let s = scenario_for_seed(&cfg, seed);
            hash(&run(&s.service, &s.tenants, &s.jobs))
        })
        .collect();
    assert_frozen("CHAOS", &got, &CHAOS);
}

const EXP_SERVICE_SCALE: u64 = 0x8cc0_97f8_7619_2098;
const EXP_SERVICE_OVERLOAD: u64 = 0x6159_ae29_0cd9_0d41;
const EXP_SERVICE_FAULTS: u64 = 0xefe4_2d2e_a625_ce63;

/// `exp_service`'s scale leg at its default size, traced.
fn scale_leg() -> ServiceReport {
    let big = || {
        Cluster::builder()
            .nodes(32)
            .cores_per_node(24)
            .mem_budget(64 * GIB)
            .build()
    };
    let service = Service::new(vec![big(), big()], Engine::Dask).trace(true);
    let tenants: Vec<TenantSpec> = (0..8)
        .map(|t| TenantSpec::new(&format!("tenant-{t}"), 1 + (t % 4) as u32, 8 * GIB, 1200))
        .collect();
    let pool = pool();
    let jobs: Vec<JobRequest> = (0..1200)
        .map(|i| {
            JobRequest::new(i % 8, i as f64 * 1e-6, pool[i % pool.len()])
                .working_set(16 * MIB)
                .priority((i % 3) as u8)
                .policy(RetryPolicy::new(2))
        })
        .collect();
    run(&service, &tenants, &jobs)
}

/// `exp_service`'s overload leg, traced.
fn overload_leg() -> ServiceReport {
    let cluster = Cluster::builder()
        .nodes(1)
        .cores_per_node(2)
        .mem_budget(GIB)
        .build();
    let service = Service::new(vec![cluster], Engine::Dask).trace(true);
    let tenants = [
        TenantSpec::new("a", 2, GIB, 4),
        TenantSpec::new("b", 1, GIB, 4),
    ];
    let pool = pool();
    let jobs: Vec<JobRequest> = (0..40)
        .map(|i| JobRequest::new(i % 2, 0.0, pool[i % pool.len()]).working_set(8 * MIB))
        .collect();
    run(&service, &tenants, &jobs)
}

/// `exp_service`'s death/shrink/grow leg, traced.
fn fault_leg() -> ServiceReport {
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
    let service = Service::new(vec![cluster], Engine::Dask).trace(true);
    let tenants = [
        TenantSpec::new("alpha", 3, 2 * GIB, 64),
        TenantSpec::new("beta", 1, GIB, 64),
    ];
    let pool = pool();
    let jobs: Vec<JobRequest> = (0..24)
        .map(|i| {
            JobRequest::new(i % 2, i as f64 * 0.005, pool[i % pool.len()])
                .working_set((1 + i as u64 % 4) * 128 * MIB)
                .policy(RetryPolicy::new(4).with_detection_delay(0.5))
        })
        .collect();
    run(&service, &tenants, &jobs)
}

#[test]
fn exp_service_legs_match_the_frozen_hashes() {
    assert_eq!(hash(&scale_leg()), EXP_SERVICE_SCALE, "scale leg");
    assert_eq!(hash(&overload_leg()), EXP_SERVICE_OVERLOAD, "overload leg");
    assert_eq!(
        hash(&fault_leg()),
        EXP_SERVICE_FAULTS,
        "death/shrink/grow leg"
    );
}

const PARTITION_ZOMBIE: u64 = 0xad9a_7498_33c1_8d02;

/// Two cuts on a 3-node cluster: a long one that the detector of most jobs
/// gives up on (zombies, fenced at heal), a short one that is ridden out
/// (delivery deferred to heal), a job with no detector at all behind the
/// long cut, and a node death on top.
fn partition_zombie() -> ServiceReport {
    let plan = FaultPlan::none()
        .partition(vec![vec![0, 2], vec![1]], 0.1, 10.1)
        .partition(vec![vec![0, 1], vec![2]], 0.15, 0.22)
        .kill_node(2, 0.6);
    let cluster = Cluster::builder()
        .nodes(3)
        .cores_per_node(3)
        .mem_budget(GIB)
        .fault_plan(plan)
        .build();
    let service = Service::new(vec![cluster], Engine::Dask).trace(true);
    let tenants = [
        TenantSpec::new("alpha", 2, GIB, 32),
        TenantSpec::new("beta", 1, GIB, 32),
    ];
    let pool = pool();
    let suspicious = RetryPolicy::new(4)
        .with_detection_delay(0.1)
        .with_suspicion(0.1, 0.2)
        .with_backoff(0.05, 2.0, 1.0);
    let patient = RetryPolicy::new(2).with_detection_delay(0.1);
    let jobs: Vec<JobRequest> = (0..20)
        .map(|i| {
            JobRequest::new(i % 2, i as f64 * 0.01, pool[i % pool.len()])
                .working_set((1 + i as u64 % 3) * 96 * MIB)
                .priority((i % 3) as u8)
                .policy(if i == 3 { patient } else { suspicious })
        })
        .collect();
    run(&service, &tenants, &jobs)
}

#[test]
fn partition_zombie_scenario_matches_the_frozen_hash() {
    let report = partition_zombie();
    // The scenario must keep exercising what it was built for.
    assert!(report.clusters[0].zombie_attempts >= 1, "no zombie");
    assert!(report.control.fenced_results >= 1, "nothing fenced");
    assert!(
        report
            .jobs
            .iter()
            .any(|j| j.end_s.is_some_and(|e| e >= 10.1)),
        "no delivery deferred to heal"
    );
    assert_eq!(hash(&report), PARTITION_ZOMBIE);
}

const MIXED_BACKLOG: u64 = 0x7bf6_b380_d69b_0103;

/// Backlog with everything the admission scan distinguishes: two clusters
/// of different size, working sets from 0 to most of a node (so memory
/// blocks large jobs while slots stay free and small ones backfill past
/// them), tenant quotas that bind, priorities, deadlines, a death, a
/// shrink and a grow.
fn mixed_backlog() -> ServiceReport {
    let plan = FaultPlan::none()
        .kill_node(3, 0.3)
        .shrink_memory(1, 0.2, 512 * MIB)
        .set_memory(1, 1.5, 2 * GIB);
    let small = Cluster::builder()
        .nodes(4)
        .cores_per_node(4)
        .mem_budget(2 * GIB)
        .fault_plan(plan)
        .build();
    let large = Cluster::builder()
        .nodes(2)
        .cores_per_node(8)
        .mem_budget(3 * GIB)
        .build();
    let service = Service::new(vec![small, large], Engine::Spark).trace(true);
    let tenants = [
        TenantSpec::new("a", 4, 6 * GIB, 200),
        TenantSpec::new("b", 2, 3 * GIB, 200),
        TenantSpec::new("c", 1, 2 * GIB, 40),
    ];
    let pool = pool();
    let sizes = [0, 64, 0, 256, 1024, 128, 1800, 512];
    let jobs: Vec<JobRequest> = (0..360)
        .map(|i| {
            let mut policy = RetryPolicy::new(3)
                .with_detection_delay(0.05)
                .with_backoff(0.02, 2.0, 0.5);
            if i % 11 == 0 {
                policy = policy.with_deadline(0.5 + (i % 7) as f64);
            }
            JobRequest::new(i % 3, (i / 40) as f64 * 0.05, pool[i % pool.len()])
                .working_set(sizes[i % sizes.len()] * MIB)
                .priority((i % 4) as u8)
                .policy(policy)
        })
        .collect();
    run(&service, &tenants, &jobs)
}

#[test]
fn mixed_backlog_scenario_matches_the_frozen_hash() {
    let report = mixed_backlog();
    assert!(
        report.control.retries >= 1,
        "no job was killed and requeued"
    );
    assert_eq!(hash(&report), MIXED_BACKLOG);
}
