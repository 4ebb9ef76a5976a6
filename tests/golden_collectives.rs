//! Golden `(output, report)` hashes of the engine collectives: reduce,
//! broadcast and gather as the four runners behind
//! [`RunConfig::run_analysis`] execute them.
//!
//! The constants were recorded on the commit *before* the host side of the
//! collectives was rewritten (the Spark/Pilot reduce folded left, one value
//! at a time; every broadcast deep-copied the shared input; the MPI gather
//! cloned each rank's wire). Those rewrites may not move a single virtual
//! charge, byte count or trace event, so the reference is frozen here.
//!
//! A run is rendered to text and hashed with FNV-1a, as in
//! `crates/mdtaskd/tests/golden_reports.rs` (both through
//! `tests/support/golden.rs`): `{:?}` of the output with the trace lifted
//! out and printed event by event beside its resolved phase/label
//! strings. A typed failure hashes its `{:?}`.
//!
//! The second half of the table freezes what happens between a failed
//! task attempt and the next one — zombies, fences and late deliveries
//! under a scripted cut, speculation, the watchdog, backoff, detection
//! delay and the typed errors — on the three task engines and on the bare
//! [`SimExecutor`]. Those constants were recorded on the commit before the
//! engines' hand-copied retry loops and the executor's `run_task*` entry
//! points were folded into one recovery loop.
//!
//! The last table is what is left of the hand-written per-engine LF and
//! PSA drivers that `run_lf`/`run_psa` replaced: their outputs and reports,
//! recorded on the last commit that had them.
//!
//! `FAULT_PLANS` freezes the bytes a fault plan serializes to — the form a
//! shrunk chaos counterexample is replayed from.

use mdtask::analysis::partition::plan_1d;
use mdtask::analysis::DriverCtx;
use mdtask::cluster::{PolicyError, SimExecutor, TaskPlacement};
use mdtask::prelude::*;
use std::fmt::Debug;
use std::sync::Arc;

#[path = "support/golden.rs"]
mod golden;
use golden::{assert_frozen, fnv1a, render_trace};

const ENGINES: [Engine; 4] = [Engine::Spark, Engine::Dask, Engine::Pilot, Engine::Mpi];

/// An output that carries its run's [`SimReport`].
trait Reported: Debug {
    fn report_mut(&mut self) -> &mut SimReport;
}

impl Reported for LfOutput {
    fn report_mut(&mut self) -> &mut SimReport {
        &mut self.report
    }
}

impl<T: Debug> Reported for FrameSeries<T> {
    fn report_mut(&mut self) -> &mut SimReport {
        &mut self.report
    }
}

impl<T: Debug> Reported for (T, SimReport) {
    fn report_mut(&mut self) -> &mut SimReport {
        &mut self.1
    }
}

fn digest<O: Reported>(result: Result<O, EngineError>) -> u64 {
    let mut out = match result {
        Ok(out) => out,
        Err(e) => return fnv1a(&format!("{e:?}")),
    };
    let mut text = String::new();
    render_trace(out.report_mut(), &mut text);
    text.push_str(&format!("{out:?}"));
    fnv1a(&text)
}

fn cluster(plan: Option<FaultPlan>) -> Cluster {
    let c = Cluster::new(laptop(), 2);
    match plan {
        Some(p) => c.with_faults(p),
        None => c,
    }
}

/// Traced, serial, with a retry policy only when a plan is scripted (the
/// clean runs keep each engine's native single-attempt posture).
fn config(engine: Engine, plan: Option<FaultPlan>) -> RunConfig {
    let faulty = plan.is_some();
    let rc = RunConfig::new(cluster(plan), engine)
        .threads(Threads::Serial)
        .trace(true)
        .mpi_world(16);
    if faulty {
        rc.retry_policy(RetryPolicy::new(4).with_detection_delay(0.25))
    } else {
        rc
    }
}

/// The task events node 1 (cores 8–15) hosted, in trace order.
fn node_1_tasks(report: &SimReport) -> Vec<&TraceEvent> {
    let trace = report.trace.as_ref().expect("golden runs are traced");
    trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Task { .. }) && e.core / 8 == 1)
        .collect()
}

/// Node 1 dies in the middle of a task it ran in the clean run (the
/// middle one of those, by trace order), so the death interrupts work in
/// flight; a run that never used node 1 loses it at half its makespan.
fn death_mid_task(clean: &SimReport) -> FaultPlan {
    let on_node_1 = node_1_tasks(clean);
    let at_s = match on_node_1.get(on_node_1.len() / 2) {
        Some(e) => 0.5 * (e.start_s + e.end_s),
        None => 0.5 * clean.makespan_s,
    };
    FaultPlan::none().kill_node(1, at_s)
}

/// Run clean, then under the node death: two hashes.
fn clean_and_faulty<O: Reported>(
    engine: Engine,
    run: impl Fn(&RunConfig) -> Result<O, EngineError>,
) -> [u64; 2] {
    let mut clean = run(&config(engine, None));
    let plan = death_mid_task(
        clean
            .as_mut()
            .expect("the clean run completes")
            .report_mut(),
    );
    let faulty = run(&config(engine, Some(plan)));
    [digest(clean), digest(faulty)]
}

fn bilayer(n_atoms: usize, seed: u64) -> (Arc<Vec<Vec3>>, f32) {
    let b = mdtask::sim::bilayer::generate(
        &BilayerSpec {
            n_atoms,
            ..Default::default()
        },
        seed,
    );
    (Arc::new(b.positions), b.suggested_cutoff)
}

fn trajectory() -> Arc<Trajectory> {
    let spec = ChainSpec {
        n_atoms: 30,
        n_frames: 12,
        stride: 1,
        ..ChainSpec::default()
    };
    Arc::new(mdtask::sim::chain::generate(&spec, 71))
}

#[rustfmt::skip]
const LF_REDUCE: [u64; 24] = [
    0x4286_e421_6990_c93d, 0x1e19_ecb9_eb47_d5ac, 0xf9fb_e285_41c6_2f15, 0xc2cb_4f9f_4130_a24e,
    0xc373_0a51_3969_d3e8, 0xa25e_800b_72bb_22e5, 0x4286_e421_6990_c93d, 0x1e19_ecb9_eb47_d5ac,
    0xf9fb_e285_41c6_2f15, 0xc2cb_4f9f_4130_a24e, 0xc373_0a51_3969_d3e8, 0xa25e_800b_72bb_22e5,
    0x7c27_8174_fc08_878d, 0xb5c4_e0ec_ffcc_a610, 0xaabd_7b62_dfb2_0258, 0x9875_9150_d6c5_9475,
    0x346f_d548_c82b_42d6, 0xd990_e2af_2f1f_e792, 0x7c27_8174_fc08_878d, 0xb5c4_e0ec_ffcc_a610,
    0xaabd_7b62_dfb2_0258, 0x9875_9150_d6c5_9475, 0x346f_d548_c82b_42d6, 0xd990_e2af_2f1f_e792,
];

/// The reduce: `run_lf` approaches 3 and 4 (partial components merged
/// engine-side) on Spark, and the same calls on the Pilot, at 8, 64 and
/// 1 035 blocks (`partitions` 1 024 plans a 45-row triangle).
#[test]
fn lf_partial_component_reduce_matches_the_frozen_hashes() {
    mdtask::cluster::set_deterministic_timing(true);
    let (positions, cutoff) = bilayer(2000, 7);
    let mut got = Vec::new();
    for engine in [Engine::Spark, Engine::Pilot] {
        for approach in [LfApproach::ParallelCC, LfApproach::TreeSearch] {
            for partitions in [8, 64, 1024] {
                let lf = LfConfig {
                    cutoff,
                    partitions,
                    paper_atoms: 2000,
                    charge_io: true,
                };
                got.extend(clean_and_faulty(engine, |rc| {
                    run_lf(&rc.clone().approach(approach), Arc::clone(&positions), &lf)
                }));
            }
        }
    }
    assert_frozen("LF_REDUCE", &got, &LF_REDUCE);
}

/// A tree-shaped analysis no engine has seen: concatenation, which is
/// associative but not commutative, so any reordering of the fold shows in
/// the values and any change of the reduce's charges shows in the report.
/// It reaches the four reduce paths `run_lf` cannot (the Pilot's
/// client-side fold, Dask's combine ladder).
struct Concat {
    data: Arc<Vec<u32>>,
    slices: usize,
}

impl ParallelAnalysis for Concat {
    type Shared = Vec<u32>;
    type Slice = (u32, u32);
    type Item = Vec<u32>;
    type Wire = Vec<(u32, Vec<u32>)>;
    type Output = (Vec<u32>, SimReport);

    fn shared(&self) -> Arc<Vec<u32>> {
        Arc::clone(&self.data)
    }

    fn plan(&self, _engine: Engine, _cluster: &Cluster) -> Result<Plan<Self>, EngineError> {
        let concat: Reduce<Self> = Reduce::Tree(
            |_, shared: &Vec<u32>, s: (u32, u32)| shared[s.0 as usize..s.1 as usize].to_vec(),
            |_, mut a: Vec<u32>, b| {
                a.extend(b);
                a
            },
        );
        Ok(Plan {
            cost_s: Some(|_, s| 0.02 * (s.1 - s.0) as f64),
            ..Plan::new(plan_1d(self.data.len(), self.slices), concat)
        })
    }

    fn rank_map(&self, shared: &Vec<u32>, mine: &[(u32, u32)]) -> Vec<(u32, Vec<u32>)> {
        mine.iter()
            .map(|&s| (s.0, shared[s.0 as usize..s.1 as usize].to_vec()))
            .collect()
    }

    fn finalize(
        &self,
        gathered: Gathered<Vec<u32>, Vec<(u32, Vec<u32>)>>,
        ctx: DriverCtx<'_>,
    ) -> Result<(Vec<u32>, SimReport), EngineError> {
        let values = match gathered {
            Gathered::Items(merged) => merged.into_iter().flatten().collect(),
            Gathered::Ranks(wires, _) => {
                // Round-robin rank order interleaves the slices.
                let mut parts: Vec<(u32, Vec<u32>)> = wires.into_iter().flatten().collect();
                parts.sort_by_key(|&(start, _)| start);
                parts.into_iter().flat_map(|(_, v)| v).collect()
            }
        };
        Ok((values, ctx.finish()))
    }
}

#[rustfmt::skip]
const TREE_CUSTOM: [u64; 24] = [
    0x25ec_b434_24ac_cbe6, 0x25ec_b434_24ac_cbe6, 0xf6db_b3d3_808c_58f9, 0x30a3_0c82_0fdd_9c8e,
    0x99f3_0971_9586_38f9, 0x39bd_3625_995a_1607, 0xdff6_4541_6f71_a5ef, 0xdff6_4541_6f71_a5ef,
    0xa54d_6d5e_9de3_5a8d, 0x53c9_bb35_bb29_ac6f, 0xd909_2ce1_e638_a432, 0xffb4_a5f0_7a5b_4d2a,
    0x5fb3_d041_9aae_8bd1, 0x5fb3_d041_9aae_8bd1, 0xc692_ced6_483e_32ae, 0xeb94_bd84_e03c_5115,
    0x6a6a_653a_5954_38e9, 0xd8d8_c600_3732_975d, 0x0a89_8641_8ab4_70d7, 0x9cee_bd62_3687_c98a,
    0xfa97_1a16_7109_eb33, 0x4593_c2e7_155d_f7af, 0x9f73_2ca0_5e02_beac, 0x8bf0_4e2e_41c4_7a49,
];

#[test]
fn tree_shaped_custom_analysis_matches_the_frozen_hashes() {
    mdtask::cluster::set_deterministic_timing(true);
    let data: Arc<Vec<u32>> = Arc::new((0..400).collect());
    let mut got = Vec::new();
    for engine in ENGINES {
        for slices in [1, 13, 64] {
            let hashes = clean_and_faulty(engine, |rc| {
                let out = rc.run_analysis(Concat {
                    data: Arc::clone(&data),
                    slices,
                })?;
                assert_eq!(out.0, *data, "{engine:?}/{slices}: order preserved");
                Ok(out)
            });
            got.extend(hashes);
        }
    }
    assert_frozen("TREE_CUSTOM", &got, &TREE_CUSTOM);
}

#[rustfmt::skip]
const BROADCAST: [u64; 32] = [
    0x65ab_2d3a_0875_9e10, 0xb38c_b099_bf99_fc13, 0xdc31_5980_acb0_4488, 0x3763_85a5_c833_a9c5,
    0xe6d5_bd49_0f6e_f6c8, 0x2b31_bb33_302a_9081, 0x6101_d703_09ba_6d03, 0xc81b_2e8a_385f_d83c,
    0x4e49_687f_efc7_319f, 0x1107_2efd_adc5_49f2, 0xc96e_1799_fdff_c2cc, 0x114a_7683_80c4_29a5,
    0xd1e7_30bf_2673_5a70, 0x88e5_ed9c_ad2d_6e2d, 0x8c5f_beea_80d1_60a1, 0xa62c_f588_3243_821a,
    0x0b62_6ca5_7fa8_f94b, 0xecbd_70da_9df9_eafb, 0x40cb_afa5_7ec2_dc44, 0x5d3d_f80b_701d_c731,
    0x0f49_84df_db3a_1e44, 0xebcb_078e_e000_7cb5, 0xe76e_e2a8_c03a_cb7f, 0x564d_bab3_3f70_d17e,
    0x52aa_38f5_acdb_fcc5, 0x2fb5_a4e7_e15f_1bf1, 0x9a2d_d27a_a8ba_de03, 0x1efc_9c41_c583_10e8,
    0xb96a_4d19_dfd7_65e7, 0x1fb2_d420_63ec_1c30, 0x74c0_5785_4d78_d698, 0x37c3_7fa9_e9b1_9141,
];

/// The broadcast (and, on MPI, the gather behind it): `run_lf` approach 1
/// and the three frame-mapped analyses ship their shared input through
/// each engine's broadcast primitive.
#[test]
fn broadcast_path_matches_the_frozen_hashes() {
    mdtask::cluster::set_deterministic_timing(true);
    let (positions, cutoff) = bilayer(240, 11);
    let lf = LfConfig {
        cutoff,
        partitions: 16,
        paper_atoms: 240,
        charge_io: true,
    };
    let traj = trajectory();
    let mut got = Vec::new();
    for engine in ENGINES {
        got.extend(clean_and_faulty(engine, |rc| {
            let rc = rc.clone().approach(LfApproach::Broadcast1D);
            run_lf(&rc, Arc::clone(&positions), &lf)
        }));
        got.extend(clean_and_faulty(engine, |rc| {
            rc.run_analysis(rmsd_analysis(Arc::clone(&traj), AtomSelection::All, 0, 12))
        }));
        got.extend(clean_and_faulty(engine, |rc| {
            rc.run_analysis(contacts_analysis(
                Arc::clone(&traj),
                AtomSelection::Stride(2),
                5.0,
                12,
            ))
        }));
        got.extend(clean_and_faulty(engine, |rc| {
            // A closure none of the built-ins ship: mean x of the selection.
            rc.run_analysis(AnalysisFromFunction::new(
                "mean-x",
                Arc::clone(&traj),
                AtomSelection::Stride(2),
                12,
                |frame: &Frame, sel: &AtomSelection| {
                    let pts = sel.gather(frame);
                    pts.iter().map(|p| p.x as f64).sum::<f64>() / pts.len() as f64
                },
            ))
        }));
    }
    assert_frozen("BROADCAST", &got, &BROADCAST);
}

#[rustfmt::skip]
const MPI_OVERSIZED_REPLICA: [u64; 1] = [0xf06c_35cd_5e9c_6bfe];

/// An MPI broadcast whose replica exceeds the fixed per-rank buffer fails
/// typed on every rank, with the same error value as before.
#[test]
fn mpi_oversized_replica_fails_with_the_frozen_error() {
    mdtask::cluster::set_deterministic_timing(true);
    let traj = trajectory();
    // 12 frames of 30 atoms are 4 372 wire bytes; eight ranks share a
    // node's budget.
    let rc = config(Engine::Mpi, None).mem_budget(8 * 4000);
    let rmsd = rc.run_analysis(rmsd_analysis(Arc::clone(&traj), AtomSelection::All, 0, 5));
    assert!(
        matches!(rmsd, Err(EngineError::MemoryExhausted { required, .. }) if required == 4372),
        "{rmsd:?}"
    );
    assert_frozen(
        "MPI_OVERSIZED_REPLICA",
        &[digest(rmsd)],
        &MPI_OVERSIZED_REPLICA,
    );
}

// ---- recovery: what happens between a failed attempt and the next ----

fn recovery_labels(report: &SimReport) -> Vec<String> {
    let trace = report.trace.as_ref().expect("golden runs are traced");
    trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Recovery { .. }))
        .map(|e| trace.label_of(e).to_string())
        .collect()
}

/// Heartbeats every 0.25 s, suspected 0.5 s after the last one heard; a
/// death is noticed 0.25 s late and every re-dispatch backs off.
fn suspicious_policy() -> RetryPolicy {
    RetryPolicy::new(4)
        .with_detection_delay(0.25)
        .with_backoff(0.05, 2.0, 1.0)
        .with_suspicion(0.25, 0.5)
}

fn suspicious_config(engine: Engine, plan: FaultPlan) -> RunConfig {
    RunConfig::new(cluster(Some(plan)), engine)
        .threads(Threads::Serial)
        .trace(true)
        .retry_policy(suspicious_policy())
}

fn concat(rc: &RunConfig, data: &Arc<Vec<u32>>, slices: usize) -> (Vec<u32>, SimReport) {
    let out = rc
        .run_analysis(Concat {
            data: Arc::clone(data),
            slices,
        })
        .expect("the run recovers");
    assert_eq!(out.0, **data, "recovery never changes the values");
    out
}

#[rustfmt::skip]
const CUT_RECOVERY: [u64; 12] = [
    0x9678_361a_ee58_52da, 0x40cf_e25a_a2df_1b39, 0xd0b0_8d10_d832_144f, 0x6cd2_b1de_504e_7c48,
    0xe90c_246c_fd53_593e, 0x0d94_13e5_5aba_16ab, 0xe0df_0d31_95fe_fa89, 0xb286_bd63_2380_7cd2,
    0x8126_2db3_c7eb_dd13, 0xecaf_9f58_a196_fd63, 0x1191_a504_5a7a_8bf4, 0x0ccb_8dc3_131a_a545,
];

/// Node 1 is cut off from the driver in the middle of a task it ran in
/// the clean trace. A cut that outlives the suspicion timeout strands the
/// attempt as a zombie: fenced under the engine's own label, rescheduled
/// after backoff. A cut that heals first only delays the result. Returns
/// the `(zombie, late)` runs.
fn cut_runs(engine: Engine, slices: usize, data: &Arc<Vec<u32>>) -> [(Vec<u32>, SimReport); 2] {
    let clean = concat(&suspicious_config(engine, FaultPlan::none()), data, slices);
    let on_node_1 = node_1_tasks(&clean.1);
    let task = on_node_1[on_node_1.len() / 2];
    let (start, end) = (task.start_s, task.end_s);

    let mid = 0.5 * (start + end);
    let outlives = FaultPlan::none().partition(vec![vec![1]], mid, mid + 2.0);
    let zombie = concat(&suspicious_config(engine, outlives), data, slices);
    let r = &zombie.1;
    assert!(r.zombie_attempts > 0, "{engine:?}/{slices}: no zombie");
    assert_eq!(r.fenced_results, r.zombie_attempts, "{engine:?}/{slices}");
    assert!(r.retries >= r.zombie_attempts, "{engine:?}/{slices}");

    // Opens just before the task ends, heals after it ended and
    // before the detector gives up (> 0.25 s after the cut).
    let late_cut = end - 0.1 * (end - start);
    let heals_first = FaultPlan::none().partition(vec![vec![1]], late_cut, late_cut + 0.2);
    let late = concat(&suspicious_config(engine, heals_first), data, slices);
    let r = &late.1;
    assert_eq!(
        (r.zombie_attempts, r.fenced_results, r.retries),
        (0, 0, 0),
        "{engine:?}/{slices}: a waited-out cut retries nothing"
    );
    assert!(
        r.makespan_s > clean.1.makespan_s,
        "{engine:?}/{slices}: the late result is late"
    );
    [zombie, late]
}

#[test]
fn cut_recovery_matches_the_frozen_hashes() {
    mdtask::cluster::set_deterministic_timing(true);
    let data: Arc<Vec<u32>> = Arc::new((0..400).collect());
    let mut got = Vec::new();
    for engine in [Engine::Spark, Engine::Dask, Engine::Pilot] {
        for slices in [13, 64] {
            got.extend(cut_runs(engine, slices, &data).map(|run| digest(Ok(run))));
        }
    }
    assert_frozen("CUT_RECOVERY", &got, &CUT_RECOVERY);
}

#[rustfmt::skip]
const SPARK_SPECULATION: [u64; 2] = [0x54f4_794b_b0a1_da8b, 0x784e_c8c4_dfb7_b20d];

/// Spark with speculation on and core 8 slowed 50×: the backup copy wins.
/// Then the same run with the backup's node dying under it. Returns the
/// `(rescued, doomed)` runs.
fn speculation_runs(data: &Arc<Vec<u32>>) -> [(Vec<u32>, SimReport); 2] {
    let run = |plan: FaultPlan| {
        let rc = config(Engine::Spark, Some(plan)).speculation(1.5);
        concat(&rc, data, 13)
    };
    let straggler = FaultPlan::none().slow_core(8, 50.0);
    let rescued = run(straggler.clone());
    let trace = rescued.1.trace.as_ref().expect("traced");
    let backup = trace
        .events
        .iter()
        .find(|e| {
            matches!(
                e.kind,
                EventKind::Task {
                    speculative: true,
                    ..
                }
            )
        })
        .expect("the backup copy ran and won");
    assert!(rescued.1.retries >= 1, "the backup is a retry");
    let dies_at = 0.5 * (backup.start_s + backup.end_s);
    let doomed = run(straggler.kill_node(backup.core / 8, dies_at));
    [rescued, doomed]
}

#[test]
fn spark_speculation_matches_the_frozen_hashes() {
    mdtask::cluster::set_deterministic_timing(true);
    let data: Arc<Vec<u32>> = Arc::new((0..400).collect());
    let got = speculation_runs(&data).map(|run| digest(Ok(run)));
    assert_frozen("SPARK_SPECULATION", &got, &SPARK_SPECULATION);
}

fn executor(nodes: usize, cores_per_node: usize, plan: FaultPlan) -> SimExecutor {
    let mut exec = SimExecutor::new(
        Cluster::builder()
            .nodes(nodes)
            .cores_per_node(cores_per_node)
            .fault_plan(plan)
            .build(),
    );
    exec.enable_trace();
    exec
}

/// Task `i`'s duration: 0.05–1.01 s, scattered.
fn dur(i: u64) -> f64 {
    0.05 + (i.wrapping_mul(2_654_435_761) % 97) as f64 * 0.01
}

#[rustfmt::skip]
const BARE_EXECUTOR: [u64; 2] = [0x0706_5fe2_dfdf_f5b2, 0x0bdf_261f_8cf3_f3eb];

/// The bare executor: 2 000 policied placements on 64 cores under two
/// deaths, two stragglers the watchdog fires on, a cut that outlives the
/// suspicion timeout, backoff, a detection delay and a deadline nothing
/// reaches.
fn bare_policied() -> (Vec<Result<TaskPlacement, PolicyError>>, SimReport) {
    let plan = FaultPlan::none()
        .kill_node(2, 1.3)
        .kill_node(5, 4.1)
        .slow_core(3, 6.0)
        .slow_core(40, 20.0)
        .partition(vec![vec![1]], 2.0, 3.5);
    let policy = suspicious_policy()
        .with_timeout(2.0)
        .with_deadline(10_000.0);
    let mut exec = executor(8, 8, plan);
    let placements: Vec<Result<TaskPlacement, PolicyError>> = (0..2000u64)
        .map(|i| exec.run_task_policied(0.01 * (i % 7) as f64, dur(i), &policy))
        .collect();
    assert!(placements.iter().all(Result::is_ok), "every task recovers");
    let policied = exec.into_report();
    let labels = recovery_labels(&policied);
    for cause in ["death-detect", "timeout", "suspicion"] {
        assert!(labels.iter().any(|l| l == cause), "no {cause} recovery");
    }
    assert_eq!(policied.fenced_results, policied.zombie_attempts);
    assert!(policied.zombie_attempts > 0);
    (placements, policied)
}

/// 300 `run_task` placements under two deaths, which count their retries
/// and record no recovery.
fn bare_plain() -> (Vec<TaskPlacement>, SimReport) {
    let plan = FaultPlan::none().kill_node(1, 0.7).kill_node(3, 1.9);
    let mut exec = executor(4, 4, plan);
    let plain: Vec<TaskPlacement> = (0..300u64)
        .map(|i| exec.run_task(0.01 * (i % 7) as f64, dur(i)))
        .collect();
    let unpolicied = exec.into_report();
    assert!(unpolicied.retries > 0, "the deaths interrupted work");
    assert!(recovery_labels(&unpolicied).is_empty());
    assert!(unpolicied.phases.is_empty());
    (plain, unpolicied)
}

#[test]
fn bare_executor_recovery_matches_the_frozen_hashes() {
    let got = [digest(Ok(bare_policied())), digest(Ok(bare_plain()))];
    assert_frozen("BARE_EXECUTOR", &got, &BARE_EXECUTOR);
}

/// One run per typed error, each with its exact value.
#[test]
fn bare_executor_errors_are_the_frozen_values() {
    // Node 0 dies at 1 s, node 1 at 2 s, under a 5 s task with two attempts.
    let plan = FaultPlan::none().kill_node(0, 1.0).kill_node(1, 2.0);
    let policy = RetryPolicy::new(2).with_detection_delay(0.25);
    assert_eq!(
        executor(2, 1, plan).run_task_policied(0.0, 5.0, &policy),
        Err(PolicyError::RetriesExhausted {
            attempts: 2,
            last_failure_s: 2.25
        })
    );
    // Both cores 10× slow: the 2 s watchdog kills both attempts.
    let plan = FaultPlan::none().slow_core(0, 10.0).slow_core(1, 10.0);
    let policy = RetryPolicy::new(2).with_timeout(2.0);
    assert_eq!(
        executor(1, 2, plan).run_task_policied(0.0, 1.0, &policy),
        Err(PolicyError::Timeout {
            attempt: 2,
            timeout_s: 2.0,
            at_s: 4.0
        })
    );
    // Cannot finish by the deadline: fails before placing anything.
    let mut exec = executor(1, 1, FaultPlan::none());
    let policy = RetryPolicy::new(3).with_deadline(1.0);
    assert_eq!(
        exec.run_task_policied(0.25, 2.0, &policy),
        Err(PolicyError::DeadlineExceeded {
            deadline_s: 1.0,
            at_s: 0.25
        })
    );
    assert_eq!(exec.report().tasks, 0);
    // The deadline falls inside the backoff: fails when the loss is seen.
    let policy = RetryPolicy::new(3)
        .with_detection_delay(0.5)
        .with_backoff(2.0, 2.0, 10.0)
        .with_deadline(3.0);
    assert_eq!(
        executor(2, 1, FaultPlan::none().kill_node(0, 1.0)).run_task_policied(0.0, 2.0, &policy),
        Err(PolicyError::DeadlineExceeded {
            deadline_s: 3.0,
            at_s: 1.5
        })
    );
    // The only node is dead by the release.
    assert_eq!(
        executor(1, 1, FaultPlan::none().kill_node(0, 1.0)).run_task_policied(
            2.0,
            1.0,
            &RetryPolicy::new(3)
        ),
        Err(PolicyError::NoSurvivingCore { at_s: 2.0 })
    );
}

// ---- exports: the bytes `Trace::to_chrome_json` and `to_csv` write ----

/// `[chrome, csv]` hashes of a trace.
fn trace_hashes(trace: &Trace) -> [u64; 2] {
    [fnv1a(&trace.to_chrome_json()), fnv1a(&trace.to_csv())]
}

/// Spark under a 600-byte node: a second persisted RDD evicts the first,
/// which is recomputed; then a broadcast onto a node shrunk below the
/// replica spills.
fn spark_memory_pressure() -> [SimReport; 2] {
    let sc = SparkContext::new(Cluster::builder().mem_budget(600).build());
    sc.enable_trace();
    let a = sc
        .parallelize((0..64u64).collect(), 4)
        .map(|x| x.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .persist();
    let first = a.collect();
    sc.parallelize((0..64u64).collect(), 4).persist().collect();
    assert_eq!(a.collect(), first, "recomputed partitions are identical");
    let evicting = sc.report();
    assert!(evicting.bytes_evicted > 0, "pressure must evict");

    let plan = FaultPlan::none().shrink_memory(1, 0.0, 128);
    let sc = SparkContext::new(
        Cluster::builder()
            .nodes(2)
            .mem_budget(4096)
            .fault_plan(plan)
            .build(),
    );
    sc.enable_trace();
    let table = sc.broadcast(vec![7u64; 64]).expect("degrades, not fails");
    let out = sc
        .parallelize(vec![0usize, 1], 2)
        .map(move |i| table.value()[i])
        .collect();
    assert_eq!(out, vec![7, 7]);
    let spilling = sc.report();
    assert!(spilling.bytes_spilled > 0, "the shrunk node spills");
    [evicting, spilling]
}

/// Dask under a 64 KiB node: resident results spill past the threshold;
/// then a result no spill can make room for gets its worker killed.
fn dask_memory_pressure() -> [SimReport; 2] {
    let c = DaskClient::new(Cluster::builder().mem_budget(64 * 1024).build());
    c.enable_trace();
    let xs: Vec<Delayed<Vec<u64>>> = (0..10)
        .map(|i| c.delayed(move |_| vec![i as u64; 1024]))
        .collect();
    c.try_gather(&xs).expect("spill, don't fail");
    let spilling = c.report();
    assert!(spilling.bytes_spilled > 0, "the spill threshold tripped");

    let c = DaskClient::new(Cluster::builder().mem_budget(16 * 1024).build());
    c.enable_trace();
    let d = c.delayed(|_| vec![0u64; 64 * 1024]);
    let err = c.try_gather(&[d]).expect_err("512 KiB in 16 KiB");
    assert!(
        matches!(err, EngineError::MemoryExhausted { .. }),
        "{err:?}"
    );
    let killed = c.report();
    assert!(killed.oom_kills >= 1);
    [spilling, killed]
}

/// LF streamed through Dask while both nodes are pinched to 2 MiB for two
/// seconds: ingestion pauses against the ledger and catches up.
fn squeezed_stream() -> SimReport {
    let plan = FaultPlan::none()
        .shrink_memory(0, 2.0, 2 << 20)
        .shrink_memory(1, 2.0, 2 << 20)
        .set_memory(0, 4.0, 16 << 30)
        .set_memory(1, 4.0, 16 << 30);
    let rc = RunConfig::new(cluster(Some(plan.clone())), Engine::Dask)
        .threads(Threads::Serial)
        .trace(true)
        .streaming(2.0, 2.0, 0.5)
        .retry_policy(RetryPolicy::new(4).with_detection_delay(0.25));
    let spec = ChainSpec {
        n_atoms: 30,
        n_frames: 20,
        stride: 1,
        ..ChainSpec::default()
    };
    let lf = LfConfig {
        cutoff: 8.0,
        partitions: 4,
        paper_atoms: 30,
        charge_io: false,
    };
    let source = StreamSource::new(20, 0.5)
        .with_latency(0.05)
        .with_jitter(0.1)
        .with_faults(plan);
    let traj = Arc::new(mdtask::sim::chain::generate(&spec, 11));
    let run = run_lf_stream(&rc, traj, &lf, &source).expect("the squeeze is waited out");
    assert!(run.output.backpressure_pauses > 0, "the squeeze was felt");
    run.report
}

/// One tenant bursts ten jobs at a one-core cluster behind a queue of
/// three: three are enqueued and admitted, seven refused.
fn overloaded_service() -> Trace {
    let cluster = Cluster::builder()
        .nodes(1)
        .cores_per_node(1)
        .mem_budget(1 << 30)
        .build();
    let service = Service::new(vec![cluster], Engine::Spark).trace(true);
    let tenants = vec![TenantSpec::new("burst", 1, 1 << 30, 3)];
    let lf = Workload::Lf {
        n_atoms: 96,
        partitions: 2,
        seed: 9,
    };
    let jobs: Vec<JobRequest> = (0..10)
        .map(|_| JobRequest::new(0, 0.0, lf).working_set(10 << 20))
        .collect();
    let report = service.run(&tenants, &jobs).expect("a valid batch");
    report.control.trace.expect("the service was traced")
}

/// A trace no engine writes: a label and a phase that need every escape
/// the JSON writer knows, one event per kind on tracks far apart and out
/// of order, zero-width and sub-microsecond intervals, and label and
/// phase symbols the interner never issued.
fn hand_built_trace() -> Trace {
    let mut t = Trace::default();
    let hostile = t.intern("q\"uote\\back\nline\rret\ttab\u{1}ctl/é");
    let phase = t.intern("ph\"ase\\\u{1f}");
    let plain = t.intern("stage-0");
    let kinds = [
        EventKind::Task {
            label: hostile,
            speculative: true,
        },
        EventKind::Task {
            label: 4040,
            speculative: false,
        },
        EventKind::Fetch {
            from_node: 4095,
            to_node: 7,
            bytes: u64::MAX,
        },
        EventKind::Broadcast {
            bytes: 0,
            dest_nodes: 127,
        },
        EventKind::Recovery { label: hostile },
        EventKind::Fenced { label: 9999 },
        EventKind::Spill {
            node: 300,
            bytes: 1,
        },
        EventKind::Evict { node: 2, bytes: 2 },
        EventKind::OomKill { node: 300 },
        EventKind::Backpressure { node: 5 },
        EventKind::Enqueue {
            tenant: 3,
            job: 1_000_000,
        },
        EventKind::Admit { tenant: 3, job: 0 },
        EventKind::Reject { tenant: 0, job: 17 },
        EventKind::Task {
            label: plain,
            speculative: false,
        },
    ];
    for (i, kind) in kinds.into_iter().enumerate() {
        let start_s = [0.0, 1e-9, 0.123_456_789, 1234.5][i % 4] * (1 + i / 4) as f64;
        t.record(TraceEvent {
            task: 100 - i,
            core: [4095, 0, 77, 4095, 3][i % 5],
            start_s,
            end_s: start_s + [0.0, 4e-7, 1.0 / 3.0][i % 3],
            killed: i % 2 == 0,
            ready_s: start_s * 0.5,
            phase: [phase, plain, 0, 777][i % 4],
            kind,
        });
    }
    t
}

#[rustfmt::skip]
const EXPORTS: [u64; 52] = [
    0x3f21_5a58_373c_a6ef, 0x114c_cadc_ccb0_3d3d, 0x3c02_89d5_3e78_0e96, 0x9b63_f372_4184_e144,
    0xb827_6130_feda_950b, 0xec1f_5a54_e4ee_8c24, 0xd909_37bd_e8c9_30ec, 0xafc8_5690_2a06_40e4,
    0x352b_1b0d_5805_d333, 0xff68_94b5_181c_2f6b, 0x00af_822f_7985_8acd, 0xe6c7_0131_7879_ad62,
    0x1ac5_30b1_0b4c_b1fd, 0x9017_c2a4_ff63_ae9f, 0x1202_ce0d_c67c_3a18, 0x3f27_409a_1383_e1d9,
    0xeecb_9279_6951_04f4, 0xaa8d_67ca_dbd9_b0a5, 0x739a_80e3_c855_ae2f, 0x9655_fd1b_470e_ccae,
    0x6c70_d3cd_2878_2a07, 0x333f_bbdd_49d0_0101, 0x8c31_f84a_82e7_b0c4, 0x17ac_827b_c77c_ee3e,
    0x352f_063c_8af8_67ca, 0x5ed3_8b07_8285_8028, 0x6a47_97a9_3ba6_0201, 0x2777_e255_d062_44ee,
    0x5422_ff4e_aa73_2e97, 0x239e_adc8_59ab_92a7, 0x6ddc_0b0e_3ee2_d3ec, 0x1b55_1c7e_fc01_0c45,
    0x3d63_5f74_4d74_1782, 0xfec6_cb7a_d8c5_963f, 0x2d5a_6d4a_dc9c_6607, 0x46d7_3809_7e28_7984,
    0x56f5_df6d_ebb5_86d1, 0x6159_3d7a_92f4_14d7, 0x8b23_b1d8_1b44_155b, 0x03d1_cb89_4125_4705,
    0x64c6_a384_9e6b_695a, 0xff33_fbd7_8d32_9b02, 0x8300_8c2f_844a_f8e3, 0xb073_2020_2d46_a3a4,
    0x3a2e_a6eb_62f6_5c9b, 0x08da_c8be_7dca_c409, 0x8c19_4788_af28_6f91, 0x593d_d63a_3e6d_1448,
    0x9e09_5454_fe80_89bd, 0xc2f3_e116_c989_5b19, 0xa5bd_8d9d_9fed_a528, 0x417f_b4e1_4bcc_4e66,
];

/// The exporters' bytes, frozen on the commit before `to_chrome_json`
/// became a single-pass writer and `to_csv` stopped building a `String`
/// per field: every [`EventKind`] arm, as the engines record them and as
/// nothing does.
#[test]
fn trace_exports_match_the_frozen_hashes() {
    mdtask::cluster::set_deterministic_timing(true);
    let (positions, cutoff) = bilayer(240, 11);
    let lf = LfConfig {
        cutoff,
        partitions: 16,
        paper_atoms: 240,
        charge_io: true,
    };
    let data: Arc<Vec<u32>> = Arc::new((0..400).collect());
    let mut reports: Vec<SimReport> = Vec::new();
    for engine in ENGINES {
        let mut clean = run_lf(&config(engine, None), Arc::clone(&positions), &lf)
            .expect("the clean run completes");
        let plan = death_mid_task(clean.report_mut());
        let faulty = run_lf(&config(engine, Some(plan)), Arc::clone(&positions), &lf)
            .expect("the run recovers");
        reports.extend([clean.report, faulty.report]);
    }
    reports.extend([bare_policied().1, bare_plain().1]);
    for engine in [Engine::Spark, Engine::Dask, Engine::Pilot] {
        reports.extend(cut_runs(engine, 13, &data).map(|run| run.1));
    }
    reports.extend(speculation_runs(&data).map(|run| run.1));
    reports.extend(spark_memory_pressure());
    reports.extend(dask_memory_pressure());
    reports.push(squeezed_stream());
    let mut traces: Vec<Trace> = reports.into_iter().filter_map(|r| r.trace).collect();
    traces.extend([overloaded_service(), hand_built_trace(), Trace::default()]);
    assert_eq!(traces.len(), 26, "every scenario was traced");

    // Every arm is reached by an engine, not only by the hand-built trace.
    let engine_kinds: Vec<&str> = traces[..traces.len() - 2]
        .iter()
        .flat_map(|t| &t.events)
        .map(|e| e.kind.kind_name())
        .collect();
    for kind in [
        "task",
        "fetch",
        "broadcast",
        "recovery",
        "fenced",
        "spill",
        "evict",
        "oomkill",
        "enqueue",
        "admit",
        "reject",
        "backpressure",
    ] {
        assert!(engine_kinds.contains(&kind), "no engine recorded a {kind}");
    }
    let flagged = |pred: fn(&TraceEvent) -> bool| traces.iter().flat_map(|t| &t.events).any(pred);
    assert!(flagged(|e| e.killed), "no killed event");
    assert!(
        flagged(|e| matches!(
            e.kind,
            EventKind::Task {
                speculative: true,
                ..
            }
        )),
        "no speculative event"
    );

    let got: Vec<u64> = traces.iter().flat_map(trace_hashes).collect();
    assert_frozen("EXPORTS", &got, &EXPORTS);
}

// ---- the per-engine drivers `run_lf` / `run_psa` replaced ----

#[rustfmt::skip]
const LEGACY_DRIVERS: [u64; 22] = [
    0x3370_605b_3eaa_43b2, 0x8cfb_6da4_7460_323a, 0x62e8_ef6d_110a_463d, 0x6626_7596_efb1_7f47,
    0xc9a2_39aa_66dc_f5d4, 0x2950_5671_d1cf_42a9, 0x4748_1b0b_b393_a154, 0xacab_ba3b_e8e6_3c94,
    0xec97_bc35_bd9f_4c41, 0x4748_1b0b_b393_a154, 0xacab_ba3b_e8e6_3c94, 0xec97_bc35_bd9f_4c41,
    0xf9c7_f996_a006_830f, 0x62e8_ef6d_110a_463d, 0x62e8_ef6d_110a_463d, 0x8b0f_de3a_e83d_5726,
    0x3913_c507_ca89_c9dc, 0xa829_695e_0dbb_56d4, 0x3d14_df34_c876_7ae3, 0xbdb3_47a3_b7cb_96b4,
    0xbdb3_47a3_b7cb_96b4, 0x3dad_c0aa_369e_ba63,
];

/// What the ten per-engine free functions (LF and PSA on Spark, Dask,
/// Pilot and MPI, the last also under a retry policy) returned on the last
/// commit that had them, for the scenarios that commit's API-surface test
/// ran them and `run_lf`/`run_psa` side by side on. It asserted every
/// output field and the whole `SimReport` equal, and the old drivers'
/// digests were checked against these constants there once, so each is
/// the old driver's as much as the new one's.
#[test]
fn legacy_driver_scenarios_match_the_frozen_hashes() {
    mdtask::cluster::set_deterministic_timing(true);
    let mpi = |cluster: Cluster| RunConfig::new(cluster, Engine::Mpi).mpi_world(8);
    let mut got = Vec::new();

    let (positions, cutoff) = bilayer(240, 11);
    let lf = LfConfig {
        cutoff,
        partitions: 8,
        paper_atoms: 240,
        charge_io: true,
    };
    let lf_digest = |rc: RunConfig| digest(run_lf(&rc, Arc::clone(&positions), &lf));
    for approach in LfApproach::ALL {
        for rc in [
            RunConfig::new(cluster(None), Engine::Spark),
            RunConfig::new(cluster(None), Engine::Dask),
            mpi(cluster(None)),
        ] {
            got.push(lf_digest(rc.approach(approach)));
        }
    }
    got.push(lf_digest(RunConfig::new(cluster(None), Engine::Pilot)));
    let plan = FaultPlan::none().kill_node(1, 0.4);
    for restart_from_barrier in [true, false] {
        got.push(lf_digest(
            mpi(cluster(Some(plan.clone())))
                .approach(LfApproach::Broadcast1D)
                .retry_policy(RetryPolicy::new(4).with_detection_delay(0.25))
                .checkpoint_restart(restart_from_barrier),
        ));
    }

    let spec = ChainSpec {
        n_atoms: 12,
        n_frames: 6,
        stride: 1,
        ..ChainSpec::default()
    };
    let ensemble = Arc::new(mdtask::sim::chain::generate_ensemble(&spec, 5, 42));
    let psa = PsaConfig {
        groups: 2,
        charge_io: true,
    };
    let psa_digest = |rc: RunConfig| {
        digest(run_psa(&rc, Arc::clone(&ensemble), &psa).map(|out| (out.distances, out.report)))
    };
    for engine in [Engine::Spark, Engine::Dask, Engine::Pilot] {
        got.push(psa_digest(RunConfig::new(cluster(None), engine)));
    }
    got.push(psa_digest(mpi(cluster(None))));
    let plan = FaultPlan::none().kill_node(0, 0.3);
    for restart_from_barrier in [true, false] {
        got.push(psa_digest(
            mpi(cluster(Some(plan.clone())))
                .retry_policy(RetryPolicy::new(5).with_detection_delay(0.25))
                .checkpoint_restart(restart_from_barrier),
        ));
    }

    got.push(lf_digest(
        RunConfig::new(cluster(None), Engine::Spark)
            .approach(LfApproach::TreeSearch)
            .trace(true),
    ));
    assert_frozen("LEGACY_DRIVERS", &got, &LEGACY_DRIVERS);
}

const FAULT_PLANS: [u64; 5] = [
    0x96cc_8551_3e1f_f6db,
    0xf8e8_6a8d_db22_1ab1,
    0xf36c_36ab_ee21_2b58,
    0xd06e_4550_f1db_06f3,
    0xa127_11d6_d31c_59e3,
];

/// The exact bytes `FaultPlan::to_json` writes, frozen on the commit before
/// the plan's reader, writer and shrinker were rewritten around the plan
/// itself: `plan_for_seed` over seeds 0–2999 for a batch, a streamed, a
/// partitioned and a streamed-and-partitioned config (the documents joined
/// by newlines), then one hand-built plan with every fault kind. Every plan
/// must also read back to itself.
#[test]
fn fault_plan_json_matches_the_frozen_hashes() {
    use mdtask::cluster::chaos::{plan_for_seed, ChaosConfig};
    let round_trip = |plan: &FaultPlan| -> String {
        let json = plan.to_json();
        assert_eq!(FaultPlan::from_json(&json).as_ref(), Ok(plan), "{json}");
        json
    };
    let batch = ChaosConfig::new(4, 2);
    let configs = [
        batch.clone(),
        batch.clone().with_stream(64),
        batch.clone().with_partitions(2),
        batch.with_stream(64).with_partitions(2),
    ];
    let mut got: Vec<u64> = configs
        .iter()
        .map(|cfg| {
            let docs: Vec<String> = (0..3000)
                .map(|seed| round_trip(&plan_for_seed(cfg, seed)))
                .collect();
            fnv1a(&docs.join("\n"))
        })
        .collect();
    let every_kind = FaultPlan::none()
        .kill_node(3, 0.1 + 0.2)
        .kill_node(0, 7.0)
        .slow_core(5, 2.5)
        .slow_core(5, 1.0 / 3.0 + 1.0)
        .shrink_memory(1, 1.25, 17_179_869_184)
        .set_memory(1, 4.5, 1 << 33)
        .lose_fetches(0.12345678901234567, u64::MAX)
        .stall_producer(1e-7, 2.25)
        .crash_producer(1e16)
        .drop_frame(4)
        .drop_frame(19)
        .delay_frame(6, 1.75)
        .drop_frames(0.125)
        .duplicate_frames(0.0625)
        .partition(vec![vec![0, 1], vec![2], vec![]], 1.5, 7.25)
        .partition(vec![vec![3]], 8.0, 9.0)
        .degrade_link(0, 3, 2.5, 0.125, 0.5, 9.0);
    got.push(fnv1a(&round_trip(&every_kind)));
    assert_frozen("FAULT_PLANS", &got, &FAULT_PLANS);
}
