//! The generic analysis API (this PR's tentpole): a *custom*
//! [`AnalysisFromFunction`] — one the engines have never seen — must
//! produce bit-identical per-frame values on every engine, at every
//! host-parallelism degree, clean or under a node-death + network
//! partition fault plan. Plus differential oracles for the optimized
//! kernels: tree/cell-list edge discovery against the brute-force
//! reference, on arbitrary generated point clouds.

use mdtask::analysis::leaflet::{block_edges, block_edges_tree};
use mdtask::analysis::partition::{plan_1d, Block};
use mdtask::analysis::{DriverCtx, MpiClocks};
use mdtask::math::rmsd_superposed;
use mdtask::prelude::*;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

const ENGINES: [Engine; 4] = [Engine::Spark, Engine::Dask, Engine::Pilot, Engine::Mpi];
const DEGREES: [Threads; 3] = [Threads::Fixed(1), Threads::Fixed(2), Threads::Fixed(8)];

fn trajectory() -> Arc<Trajectory> {
    let spec = ChainSpec {
        n_atoms: 30,
        n_frames: 12,
        stride: 1,
        ..ChainSpec::default()
    };
    Arc::new(mdtask::sim::chain::generate(&spec, 71))
}

/// Radius of gyration — a closure none of the built-ins ship, so this
/// exercises the user-defined path, not a special case.
fn rgyr(frame: &Frame, sel: &AtomSelection) -> f64 {
    let pts = sel.gather(frame);
    let inv = 1.0 / pts.len() as f64;
    let (mut cx, mut cy, mut cz) = (0.0f64, 0.0f64, 0.0f64);
    for p in &pts {
        cx += p.x as f64;
        cy += p.y as f64;
        cz += p.z as f64;
    }
    (cx, cy, cz) = (cx * inv, cy * inv, cz * inv);
    let mut acc = 0.0f64;
    for p in &pts {
        let (dx, dy, dz) = (p.x as f64 - cx, p.y as f64 - cy, p.z as f64 - cz);
        acc += dx * dx + dy * dy + dz * dz;
    }
    (acc * inv).sqrt()
}

fn rgyr_analysis(
    traj: Arc<Trajectory>,
) -> AnalysisFromFunction<f64, impl Fn(&Frame, &AtomSelection) -> f64> {
    AnalysisFromFunction::new("rgyr", traj, AtomSelection::Stride(2), 5, rgyr)
}

/// A node death early enough to land inside even the fastest engine's
/// run (Dask finishes this workload in ~0.2 virtual seconds) plus a
/// network partition over the same window, so both recovery mechanisms
/// — reschedule-after-death and fencing across a cut — are exercised.
fn death_and_partition() -> FaultPlan {
    FaultPlan::none()
        .kill_node(1, 0.05)
        .partition(vec![vec![1]], 0.1, 0.5)
}

#[test]
fn custom_analysis_bit_identical_across_engines_threads_and_faults() {
    mdtask::cluster::set_deterministic_timing(true);
    let traj = trajectory();
    let select = AtomSelection::Stride(2);
    let reference: Vec<f64> = traj.frames.iter().map(|f| rgyr(f, &select)).collect();

    for engine in ENGINES {
        for faulty in [false, true] {
            let mut reports = Vec::new();
            for threads in DEGREES {
                let mut cluster = Cluster::new(laptop(), 2);
                if faulty {
                    cluster = cluster.with_faults(death_and_partition());
                }
                let rc = RunConfig::new(cluster, engine)
                    .retry_policy(RetryPolicy::new(4).with_detection_delay(0.25))
                    .threads(threads);
                let out = rc
                    .run_analysis(rgyr_analysis(Arc::clone(&traj)))
                    .unwrap_or_else(|e| panic!("{engine:?} faulty={faulty} {threads}: {e:?}"));
                // Bitwise f64 equality: per-frame map with a collected
                // reduce has no floating-point reassociation anywhere.
                assert_eq!(
                    out.values, reference,
                    "{engine:?} faulty={faulty} threads={threads}: values"
                );
                assert!(out.report.makespan_s > 0.0);
                reports.push(out.report);
            }
            // Host threads are an execution vehicle, not a semantic knob:
            // under deterministic timing the full report is identical at
            // every degree.
            assert_eq!(
                reports[0], reports[1],
                "{engine:?} faulty={faulty}: report 1 vs 2 threads"
            );
            assert_eq!(
                reports[1], reports[2],
                "{engine:?} faulty={faulty}: report 2 vs 8 threads"
            );
        }
    }
}

#[test]
fn faulty_runs_actually_retried() {
    mdtask::cluster::set_deterministic_timing(true);
    let traj = trajectory();
    let reference: Vec<f64> = {
        let select = AtomSelection::Stride(2);
        traj.frames.iter().map(|f| rgyr(f, &select)).collect()
    };
    // Heavy declared frames (0.5 s each) keep tasks on the wire long
    // enough to be interrupted mid-flight.
    let heavy = AnalysisCost {
        stream_frame_cost_s: 0.5,
        ..AnalysisCost::DEFAULT
    };
    // One slice per frame: 12 half-second tasks over 2 × 8 cores, so
    // node 1 demonstrably holds work when the plan strikes.
    let analysis = |cost| {
        AnalysisFromFunction::new(
            "rgyr-heavy",
            Arc::clone(&traj),
            AtomSelection::Stride(2),
            12,
            rgyr,
        )
        .with_cost(cost)
    };
    for engine in [Engine::Spark, Engine::Dask] {
        // Clean run first: the kill must land inside the frame-map task
        // window, which starts after the engine's startup + broadcast.
        let rc = RunConfig::new(Cluster::new(laptop(), 2), engine);
        let clean = rc.run_analysis(analysis(heavy)).unwrap();
        let bcast_end = clean
            .report
            .phases
            .iter()
            .find(|p| p.name == "broadcast")
            .map(|p| p.end_s)
            .unwrap();
        let t_kill = 0.5 * (bcast_end + clean.report.makespan_s);
        let plan = FaultPlan::none().kill_node(1, t_kill).partition(
            vec![vec![1]],
            t_kill + 0.05,
            t_kill + 0.6,
        );
        let rc = RunConfig::new(Cluster::new(laptop(), 2).with_faults(plan), engine)
            .retry_policy(RetryPolicy::new(4).with_detection_delay(0.25));
        let out = rc.run_analysis(analysis(heavy)).unwrap();
        assert!(
            out.report.retries > 0,
            "{engine:?}: the plan must actually bite, got {} retries",
            out.report.retries
        );
        assert_eq!(out.values, reference, "{engine:?}: recovery is exact");
    }
}

#[test]
fn builtin_rmsd_matches_direct_kernel_and_contacts_matches_brute_force() {
    mdtask::cluster::set_deterministic_timing(true);
    let traj = trajectory();

    let rc = RunConfig::new(Cluster::new(laptop(), 2), Engine::Spark);
    let out = rc
        .run_analysis(rmsd_analysis(Arc::clone(&traj), AtomSelection::All, 0, 4))
        .unwrap();
    assert_eq!(out.values.len(), traj.frames.len());
    assert_eq!(out.values[0], 0.0, "self-RMSD of the reference frame");
    let reference = &traj.frames[0];
    for (i, frame) in traj.frames.iter().enumerate() {
        assert_eq!(
            out.values[i],
            rmsd_superposed(frame, reference),
            "frame {i}"
        );
    }

    let cutoff = 5.0f32;
    let out = rc
        .run_analysis(contacts_analysis(
            Arc::clone(&traj),
            AtomSelection::All,
            cutoff,
            4,
        ))
        .unwrap();
    let c2 = cutoff * cutoff;
    for (i, frame) in traj.frames.iter().enumerate() {
        let pts = frame.positions();
        let mut brute = 0u64;
        for a in 0..pts.len() {
            for b in (a + 1)..pts.len() {
                if pts[a].dist2(pts[b]) <= c2 {
                    brute += 1;
                }
            }
        }
        assert_eq!(out.values[i], brute, "frame {i} contact count");
    }
}

/// A shared input and a rank wire that are deliberately not `Clone`: no
/// engine may copy either, so this compiles only while every runner
/// shares the analysis's one `Arc` and moves the gathered wires.
struct Sealed(Vec<u32>);

impl Payload for Sealed {
    fn wire_bytes(&self) -> u64 {
        self.0.wire_bytes()
    }
    fn item_count(&self) -> u64 {
        self.0.item_count()
    }
}

struct Squares {
    input: Arc<Sealed>,
    broadcast: bool,
    /// Every `Engine` a hook was handed, in call order.
    seen: Arc<Mutex<Vec<Engine>>>,
}

impl ParallelAnalysis for Squares {
    type Shared = Sealed;
    type Slice = (u32, u32);
    type Item = (u32, u64);
    type Wire = Sealed;
    type Output = (Vec<u64>, SimReport);

    fn shared(&self) -> Arc<Sealed> {
        Arc::clone(&self.input)
    }

    fn plan(&self, engine: Engine, _cluster: &Cluster) -> Result<Plan<Self>, EngineError> {
        self.seen.lock().unwrap().push(engine);
        let square: Reduce<Self> = Reduce::Gather(|_, shared: &Sealed, s: (u32, u32)| {
            (s.0..s.1)
                .map(|i| (i, (shared.0[i as usize] as u64).pow(2)))
                .collect()
        });
        Ok(Plan {
            broadcast: self.broadcast,
            ..Plan::new(plan_1d(self.input.0.len(), 6), square)
        })
    }

    fn rank_map(&self, shared: &Sealed, mine: &[(u32, u32)]) -> Sealed {
        // Ranks ship their raw inputs; the driver squares them.
        Sealed(
            mine.iter()
                .flat_map(|&s| (s.0..s.1).map(|i| shared.0[i as usize]))
                .collect(),
        )
    }

    fn finalize(
        &self,
        gathered: Gathered<(u32, u64), Sealed>,
        ctx: DriverCtx<'_>,
    ) -> Result<(Vec<u64>, SimReport), EngineError> {
        self.seen.lock().unwrap().push(ctx.engine());
        let mut values: Vec<u64> = match gathered {
            Gathered::Items(items) => items.into_iter().map(|(_, v)| v).collect(),
            Gathered::Ranks(wires, _) => wires
                .into_iter()
                .flat_map(|w| w.0)
                .map(|x| (x as u64).pow(2))
                .collect(),
        };
        values.sort_unstable(); // round-robin rank order interleaves slices
        Ok((values, ctx.finish()))
    }
}

#[test]
fn shared_input_need_not_be_clone_on_any_engine() {
    mdtask::cluster::set_deterministic_timing(true);
    let input = Arc::new(Sealed((0..97).collect()));
    let reference: Vec<u64> = (0..97u64).map(|x| x * x).collect();
    for engine in ENGINES {
        for broadcast in [false, true] {
            let seen = Arc::new(Mutex::new(Vec::new()));
            let run = || {
                RunConfig::new(Cluster::new(laptop(), 2), engine)
                    .mpi_world(4)
                    .run_analysis(Squares {
                        input: Arc::clone(&input),
                        broadcast,
                        seen: Arc::clone(&seen),
                    })
                    .unwrap_or_else(|e| panic!("{engine:?} broadcast={broadcast}: {e:?}"))
            };
            let (values, report) = run();
            assert_eq!(values, reference, "{engine:?} broadcast={broadcast}");
            // `plan` and `finalize` are both told the engine the run was
            // configured with.
            assert_eq!(*seen.lock().unwrap(), vec![engine; 2]);
            assert_eq!(run().1, report, "{engine:?} broadcast={broadcast}: report");
            // The pilot has no broadcast primitive; the other three charge
            // the replica's bytes, seen through the `Arc`.
            let charged = broadcast && engine != Engine::Pilot;
            assert_eq!(
                report.bytes_broadcast > 0,
                charged,
                "{engine:?} broadcast={broadcast}"
            );
        }
    }
    assert_eq!(Arc::strong_count(&input), 1, "no engine kept the input");
}

/// `trace_sampled(4)` keeps every fourth task event and changes nothing
/// else: the trace says it is sampled, the network events (and so the
/// byte totals conservation oracles add up) are complete, and the report
/// around the trace is the unsampled run's.
#[test]
fn sampled_trace_thins_task_events_and_nothing_else() {
    mdtask::cluster::set_deterministic_timing(true);
    let traj = trajectory();
    let tasks = |t: &Trace| {
        let is_task = |e: &&TraceEvent| matches!(e.kind, EventKind::Task { .. });
        t.events.iter().filter(is_task).count()
    };
    let network_bytes = |t: &Trace| {
        t.events.iter().fold((0, 0), |(f, b), e| match e.kind {
            EventKind::Fetch { bytes, .. } => (f + bytes, b),
            EventKind::Broadcast { bytes, .. } => (f, b + bytes),
            _ => (f, b),
        })
    };
    for engine in [Engine::Spark, Engine::Dask, Engine::Pilot] {
        let run = |rc: RunConfig| {
            let rgyr = AnalysisFromFunction::new(
                "rgyr",
                Arc::clone(&traj),
                AtomSelection::Stride(2),
                12,
                rgyr,
            );
            let mut report = rc.run_analysis(rgyr).expect("fault-free").report;
            (report.trace.take().expect("traced"), report)
        };
        let rc = || RunConfig::new(Cluster::new(laptop(), 2), engine);
        let (full, full_report) = run(rc().trace(true));
        let (sampled, sampled_report) = run(rc().trace_sampled(4));
        assert_eq!((full.sample_stride(), sampled.sample_stride()), (1, 4));
        assert_eq!(
            (tasks(&full), tasks(&sampled)),
            (12, 3),
            "{engine:?}: one task per frame, every fourth kept"
        );
        assert_eq!(network_bytes(&sampled), network_bytes(&full), "{engine:?}");
        assert_ne!(network_bytes(&full), (0, 0), "{engine:?}: nothing moved");
        assert_eq!(sampled_report, full_report, "{engine:?}: report");
    }
}

/// A world of no ranks, or of more ranks than cores, is a misconfigured
/// run: every entry point answers it typed instead of tripping `mpilike`'s
/// assertion.
#[test]
fn impossible_mpi_world_is_a_typed_error_not_a_panic() {
    let traj = trajectory();
    let bilayer = mdtask::sim::bilayer::generate(
        &BilayerSpec {
            n_atoms: 96,
            ..Default::default()
        },
        3,
    );
    let lf = LfConfig {
        cutoff: bilayer.suggested_cutoff,
        partitions: 4,
        paper_atoms: 96,
        charge_io: true,
    };
    let positions = Arc::new(bilayer.positions);
    let ensemble = Arc::new(vec![(*traj).clone(), (*traj).clone()]);
    let psa = PsaConfig {
        groups: 1,
        charge_io: true,
    };
    let rmsd2d = Workload::Rmsd2d {
        n_traj: 2,
        n_frames: 3,
        optimized: true,
        seed: 1,
    };
    for world in [0, 10_000] {
        let rc = RunConfig::new(Cluster::new(laptop(), 2), Engine::Mpi).mpi_world(world);
        let errors = [
            run_lf(&rc, Arc::clone(&positions), &lf).err(),
            run_psa(&rc, Arc::clone(&ensemble), &psa).err(),
            rc.run_analysis(rmsd_analysis(Arc::clone(&traj), AtomSelection::All, 0, 4))
                .err(),
            run_workload(&rc, &rmsd2d).err(),
        ];
        for (i, e) in errors.into_iter().enumerate() {
            match e {
                Some(EngineError::Unsupported(m)) => assert!(
                    m.contains(&format!("{world} ranks")) && m.contains("16 cores"),
                    "entry point {i}, world {world}: {m}"
                ),
                other => panic!("entry point {i}, world {world}: {other:?}"),
            }
        }
    }
}

/// A selection index past the trajectory's atoms is refused typed, once
/// per run, by every engine's `plan` — not a panic in some task's
/// `gather`, and no MPI world left waiting on a rank that died.
#[test]
fn out_of_range_atom_index_is_a_typed_error_on_every_engine() {
    let spec = ChainSpec {
        n_atoms: 10,
        n_frames: 6,
        stride: 1,
        ..ChainSpec::default()
    };
    let traj = Arc::new(mdtask::sim::chain::generate(&spec, 5));
    let select = AtomSelection::Indices(Arc::new(vec![0, 99]));
    for engine in ENGINES {
        let rc = RunConfig::new(Cluster::new(laptop(), 2), engine).mpi_world(4);
        let first_x = |frame: &Frame, sel: &AtomSelection| sel.gather(frame)[0].x as f64;
        let analysis =
            AnalysisFromFunction::new("first-x", Arc::clone(&traj), select.clone(), 3, first_x);
        match rc.run_analysis(analysis).err() {
            Some(EngineError::Unsupported(m)) => assert_eq!(
                m, "atom index 99 in a selection over 10 atoms (need 0..10)",
                "{engine:?}"
            ),
            other => panic!("{engine:?}: {other:?}"),
        }
    }
}

#[test]
fn out_of_range_rmsd_reference_or_index_is_a_typed_error_on_every_engine() {
    let spec = ChainSpec {
        n_atoms: 10,
        n_frames: 6,
        stride: 1,
        ..ChainSpec::default()
    };
    let traj = Arc::new(mdtask::sim::chain::generate(&spec, 5));
    let indices = AtomSelection::Indices(Arc::new(vec![0, 99]));
    for engine in ENGINES {
        let rc = RunConfig::new(Cluster::new(laptop(), 2), engine).mpi_world(4);
        let refused = |analysis| match rc.run_analysis(analysis).err() {
            Some(EngineError::Unsupported(m)) => m,
            other => panic!("{engine:?}: {other:?}"),
        };
        assert_eq!(
            refused(rmsd_analysis(Arc::clone(&traj), indices.clone(), 0, 3)),
            "atom index 99 in a selection over 10 atoms (need 0..10)",
            "{engine:?}"
        );
        assert_eq!(
            refused(rmsd_analysis(Arc::clone(&traj), AtomSelection::All, 6, 3)),
            "reference frame 6 of a trajectory with 6 frames (need 0..6)",
            "{engine:?}"
        );
    }
}

/// An MPI analysis that only reads: `slices` unit slices, each declaring
/// 1 000 bytes of input when `read` is set. Its output is the rank clocks.
struct Reads {
    slices: u32,
    read: bool,
}

impl ParallelAnalysis for Reads {
    type Shared = Vec<u32>;
    type Slice = u32;
    type Item = u32;
    type Wire = Vec<u32>;
    type Output = MpiClocks;

    fn shared(&self) -> Arc<Vec<u32>> {
        Arc::new(Vec::new())
    }

    fn plan(&self, _engine: Engine, _cluster: &Cluster) -> Result<Plan<Self>, EngineError> {
        let slices = (0..self.slices).collect();
        Ok(Plan {
            read_bytes: self.read.then_some(|_, _| 1000),
            ..Plan::new(slices, Reduce::Gather(|_, _, s: u32| vec![s]))
        })
    }

    fn rank_map(&self, _shared: &Vec<u32>, mine: &[u32]) -> Vec<u32> {
        mine.to_vec()
    }

    fn finalize(
        &self,
        gathered: Gathered<u32, Vec<u32>>,
        _ctx: DriverCtx<'_>,
    ) -> Result<MpiClocks, EngineError> {
        match gathered {
            Gathered::Ranks(_, clocks) => Ok(clocks),
            Gathered::Items(_) => Err(EngineError::Unsupported("an MPI-only probe".into())),
        }
    }
}

/// An MPI rank pays one read of its slices' declared bytes, and a rank
/// with no slice still pays the zero-byte request; a plan that declares
/// no read charges no rank anything.
#[test]
fn mpi_ranks_pay_one_read_each_even_without_a_slice() {
    mdtask::cluster::set_deterministic_timing(true);
    let net = laptop().network;
    let rc = RunConfig::new(Cluster::new(laptop(), 2), Engine::Mpi).mpi_world(4);
    // Over four ranks, no slice leaves every rank empty; six put two
    // slices on ranks 0 and 1, who read 2 000 bytes in one request.
    for (slices, read) in [(0, 0), (6, 2000)] {
        let clocks = rc.run_analysis(Reads { slices, read: true }).unwrap();
        assert_eq!(
            clocks.map_max,
            clocks.bcast_max + net.transfer_time(read, false),
            "{slices} slices"
        );
        let clocks = rc
            .run_analysis(Reads {
                slices,
                read: false,
            })
            .unwrap();
        assert_eq!(clocks.map_max, clocks.bcast_max, "{slices} slices, no read");
    }
}

/// Sorted canonical form: the kernels may emit edges in any order.
fn canon(mut edges: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    for e in edges.iter_mut() {
        if e.0 > e.1 {
            *e = (e.1, e.0);
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

fn points_from(raw: &[(f32, f32, f32)]) -> Vec<Vec3> {
    raw.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tree-based edge discovery (Approach 4's kernel) finds exactly the
    /// brute-force edge set on a diagonal block of arbitrary points.
    #[test]
    fn tree_edges_match_brute_force_diagonal(
        raw in prop::collection::vec((0.0f32..18.0, 0.0f32..18.0, 0.0f32..18.0), 2..80),
        cutoff in 1.0f32..6.0,
    ) {
        let pts = points_from(&raw);
        let n = pts.len() as u32;
        let b = Block { row: (0, n), col: (0, n) };
        prop_assert_eq!(
            canon(block_edges_tree(&pts, b, cutoff)),
            canon(block_edges(&pts, b, cutoff))
        );
    }

    /// Same oracle on off-diagonal blocks — the rectangular case the 2-D
    /// partitioning actually dispatches.
    #[test]
    fn tree_edges_match_brute_force_off_diagonal(
        raw in prop::collection::vec((0.0f32..18.0, 0.0f32..18.0, 0.0f32..18.0), 4..80),
        cutoff in 1.0f32..6.0,
        split_num in 1u32..9,
    ) {
        let pts = points_from(&raw);
        let n = pts.len() as u32;
        let split = (n * split_num / 10).clamp(1, n - 1);
        let b = Block { row: (0, split), col: (split, n) };
        prop_assert_eq!(
            canon(block_edges_tree(&pts, b, cutoff)),
            canon(block_edges(&pts, b, cutoff))
        );
    }
}
