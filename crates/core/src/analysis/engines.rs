//! The four engine executors behind
//! [`RunConfig::run_analysis`](crate::run::RunConfig::run_analysis).
//!
//! This is the only place an engine's driver posture is written: the
//! phase-label ordering, I/O charges, broadcast sequencing and reduce
//! shape each framework's Leaflet-Finder/PSA deployment had in the paper.
//! `tests/golden_collectives.rs` freezes the reports, those of the
//! hand-written per-engine drivers these runners replaced included.
//!
//! Collectives are *charged* on the virtual clock by the engine
//! primitives and merely *executed* on the host, once each (DESIGN.md §5l,
//! "Host cost of collectives"): a broadcast ships the analysis's own `Arc`
//! of the shared input, a tree reduce is a balanced pairwise fold, and the
//! MPI gather moves the rank outputs to the driver.

use super::{DriverCtx, Gathered, MpiClocks, ParallelAnalysis, ReduceShape};
use crate::Engine;
use dasklet::{DaskClient, Delayed};
use netsim::{Cluster, NetworkModel};
use pilot::{Session, UnitDescription};
use sparklet::{Rdd, SparkContext};
use std::sync::Arc;
use taskframe::{fold_pairwise, EngineError, TaskCtx};

/// What a task pays before it maps slice `s`: the read of its input from
/// storage, then the analysis's declared cost.
fn charge_slice<A: ParallelAnalysis>(a: &A, s: A::Slice, net: NetworkModel, ctx: &TaskCtx) {
    if let Some(bytes) = a.io_bytes(s) {
        ctx.charge(net.transfer_time(bytes, false));
    }
    charge_cost(a, s, ctx);
}

/// The declared cost alone, for a Compute-Unit (its input is staged, not
/// read).
fn charge_cost<A: ParallelAnalysis>(a: &A, s: A::Slice, ctx: &TaskCtx) {
    let cost = a.slice_cost_s(s);
    if cost > 0.0 {
        ctx.charge(cost);
    }
}

/// Spark posture: one RDD partition per slice; `Gather` collects, `Tree`
/// runs the engine-side `treeReduce` ([`Rdd::try_reduce`]'s pairwise
/// fold).
pub(crate) fn run_spark<A: ParallelAnalysis + 'static>(
    sc: &SparkContext,
    a: &Arc<A>,
) -> Result<A::Output, EngineError> {
    a.check(Engine::Spark, sc.cluster())?;
    let slices = a.slices(Engine::Spark, sc.cluster());
    let n_tasks = slices.len();
    let phase = a.map_phase(Engine::Spark);
    let net = sc.cluster().profile.network;
    let one = a.reduce_shape() == ReduceShape::Tree;

    // Map closures are 'static (Spark serializes them to executors), so
    // the analysis and its shared input travel as Arc clones — the input
    // out of the broadcast variable when the analysis asks for one.
    let shared = if a.broadcast() {
        sc.set_phase("broadcast");
        Arc::clone(sc.broadcast(a.shared())?.value())
    } else {
        a.shared()
    };
    let task = Arc::clone(a);
    let rdd: Rdd<A::Item> = Rdd::from_partitions(sc.clone(), n_tasks, move |p, ctx: &TaskCtx| {
        let s = slices[p];
        charge_slice(&*task, s, net, ctx);
        if one {
            vec![task.map_one(&shared, s)]
        } else {
            task.map(&shared, s)
        }
    });

    match a.reduce_shape() {
        ReduceShape::Gather => {
            sc.set_phase(phase);
            let items = if a.bracket_map_phase() {
                let t0 = sc.now();
                let items = rdd.try_collect()?;
                let t1 = sc.now();
                sc.note_phase(phase, t0, t1);
                items
            } else {
                rdd.try_collect()?
            };
            a.finalize(Gathered::Items(items), DriverCtx::spark(sc, n_tasks))
        }
        ReduceShape::Tree => {
            sc.set_phase(phase);
            let t0 = sc.now();
            let merged = rdd.try_reduce(|x, y| a.combine(x, y))?;
            let t1 = sc.now();
            sc.note_phase(phase, t0, t1);
            a.finalize(Gathered::Merged(merged), DriverCtx::spark(sc, n_tasks))
        }
    }
}

/// Dask posture: one delayed task per slice; `Gather` gathers them,
/// `Tree` reduces through a binary ladder of combine tasks.
pub(crate) fn run_dask<A: ParallelAnalysis + 'static>(
    client: &DaskClient,
    a: &Arc<A>,
) -> Result<A::Output, EngineError> {
    a.check(Engine::Dask, client.cluster())?;
    let slices = a.slices(Engine::Dask, client.cluster());
    let n_tasks = slices.len();
    let phase = a.map_phase(Engine::Dask);
    let net = client.cluster().profile.network;

    match a.reduce_shape() {
        ReduceShape::Gather => {
            let tasks: Vec<Delayed<Vec<A::Item>>> = if a.broadcast() {
                client.set_phase("broadcast");
                let bc = client.broadcast(a.shared())?;
                client.set_phase(phase);
                let fs: Vec<_> = slices
                    .iter()
                    .map(|&s| {
                        let task = Arc::clone(a);
                        move |shared: &Arc<A::Shared>, ctx: &TaskCtx| {
                            charge_slice(&*task, s, net, ctx);
                            task.map(shared, s)
                        }
                    })
                    .collect();
                client.delayed_after_many(&bc, fs)
            } else {
                client.set_phase(phase);
                let fs: Vec<_> = slices
                    .iter()
                    .map(|&s| {
                        let task = Arc::clone(a);
                        let shared = a.shared();
                        move |ctx: &TaskCtx| {
                            charge_slice(&*task, s, net, ctx);
                            task.map(&shared, s)
                        }
                    })
                    .collect();
                client.delayed_many(fs)
            };
            let parts = if a.bracket_map_phase() {
                let t0 = client.now();
                let (parts, t1) = client.try_gather(&tasks)?;
                client.note_phase(phase, t0, t1);
                parts
            } else {
                let (parts, _t) = client.try_gather(&tasks)?;
                parts
            };
            let items: Vec<A::Item> = parts.into_iter().flatten().collect();
            a.finalize(Gathered::Items(items), DriverCtx::dask(client, n_tasks))
        }
        ReduceShape::Tree => {
            client.set_phase(phase);
            let t0 = client.now();
            let fs: Vec<_> = slices
                .iter()
                .map(|&s| {
                    let task = Arc::clone(a);
                    let shared = a.shared();
                    move |ctx: &TaskCtx| {
                        charge_slice(&*task, s, net, ctx);
                        task.map_one(&shared, s)
                    }
                })
                .collect();
            let leaves: Vec<Delayed<A::Item>> = client.delayed_many(fs);
            let root = fold_pairwise(leaves, |x, y| {
                client.combine_pair(x, y, |x, y, _| a.combine(x, y))
            });
            let merged = match root {
                Some(d) => {
                    let (vals, t1) = client.try_gather(std::slice::from_ref(&d))?;
                    client.note_phase(phase, t0, t1);
                    vals.into_iter().next()
                }
                None => None,
            };
            a.finalize(Gathered::Merged(merged), DriverCtx::dask(client, n_tasks))
        }
    }
}

/// RADICAL-Pilot posture: one Compute-Unit per slice. Analyses that
/// implement [`ParallelAnalysis::stage`] get their inputs genuinely
/// serialized through the staging filesystem; the rest run compute-only
/// units over the in-memory shared input.
pub(crate) fn run_pilot<A: ParallelAnalysis + 'static>(
    session: &Session,
    a: &Arc<A>,
) -> Result<A::Output, EngineError> {
    a.check(Engine::Pilot, session.cluster())?;
    let slices = a.slices(Engine::Pilot, session.cluster());
    let n_tasks = slices.len();
    let shared = a.shared();
    let factor = a.cost().staging_working_set_factor;
    let one = a.reduce_shape() == ReduceShape::Tree;

    let units: Vec<UnitDescription<Vec<A::Item>>> = slices
        .iter()
        .map(|&s| match a.stage(&shared, s) {
            Some((input, token)) => {
                // Declared peak footprint: the staged bytes times the
                // analysis's declared expansion (staged copy, decoded
                // copy, working buffers). Admission control schedules
                // against it.
                let working_set = input.len() as u64 * factor;
                let task = Arc::clone(a);
                UnitDescription::new(input, move |ctx: &TaskCtx, staged: &[u8]| {
                    charge_cost(&*task, s, ctx);
                    task.map_staged(s, token, staged)
                })
                .with_working_set(working_set)
            }
            None => {
                let task = Arc::clone(a);
                let sh = Arc::clone(&shared);
                UnitDescription::compute_only(move |ctx: &TaskCtx, _staged: &[u8]| {
                    charge_cost(&*task, s, ctx);
                    if one {
                        vec![task.map_one(&sh, s)]
                    } else {
                        task.map(&sh, s)
                    }
                })
            }
        })
        .collect();
    let out = session.submit_and_wait(units)?;
    let items: Vec<A::Item> = out.results.into_iter().flatten().collect();
    let ctx = DriverCtx::owned(
        Engine::Pilot,
        n_tasks,
        None,
        out.report,
        session.cluster().clone(),
    );
    // The pilot has no engine-side reduce; tree-shaped analyses fold at
    // the client, in the same pairwise shape as the engines' tree reduce.
    if one {
        let merged = fold_pairwise(items, |x, y| a.combine(x, y));
        a.finalize(Gathered::Merged(merged), ctx)
    } else {
        a.finalize(Gathered::Items(items), ctx)
    }
}

/// MPI posture: slices round-robin over ranks, per-rank
/// [`ParallelAnalysis::rank_map`] inside a measured compute block, gather
/// to rank 0, driver-side reduce in [`ParallelAnalysis::finalize`].
pub(crate) fn run_mpi<A: ParallelAnalysis + 'static>(
    cluster: &Cluster,
    world: usize,
    policy: &netsim::RetryPolicy,
    restart_from_barrier: bool,
    a: &Arc<A>,
) -> Result<A::Output, EngineError> {
    a.check(Engine::Mpi, cluster)?;
    let slices = a.slices(Engine::Mpi, cluster);
    let n_tasks = slices.len();
    let phase = a.map_phase(Engine::Mpi);
    let net = cluster.profile.network;
    let shared = a.shared();
    let broadcast = a.broadcast();

    let out = mpilike::try_run_with_policy(
        cluster.clone(),
        world,
        policy,
        restart_from_barrier,
        |comm| {
            let t_start = comm.clock();
            let received;
            let local: &A::Shared = if broadcast {
                comm.set_phase("broadcast");
                let v = (comm.rank() == 0).then(|| Arc::clone(&shared));
                // A replica too big for the fixed per-rank buffers
                // surfaces typed on every rank instead of tearing the
                // job down.
                received = comm.try_bcast(0, v)?;
                &received
            } else {
                &shared // pre-partitioned: ranks read their slices as I/O
            };
            let t_bcast = comm.clock();
            comm.set_phase(phase);
            let mine: Vec<A::Slice> = slices
                .iter()
                .copied()
                .skip(comm.rank())
                .step_by(comm.world())
                .collect();
            if let Some(bytes) = a.rank_io_bytes(&mine) {
                comm.charge(net.transfer_time(bytes, false));
            }
            let cost: f64 = mine.iter().map(|&s| a.slice_cost_s(s)).sum();
            if cost > 0.0 {
                comm.charge(cost);
            }
            let wire = comm.compute(|| a.rank_map(local, &mine));
            let t_map = comm.clock();
            comm.set_phase("gather");
            let gathered = comm.try_gather(0, wire)?;
            Ok::<_, EngineError>((gathered, t_start, t_bcast, t_map))
        },
    )?;

    // Rank 0 reduces; rank order is stable so the result is
    // deterministic. Memory exhaustion inside a collective poisons every
    // rank with the same typed error; surface the first one.
    let mut wires: Vec<A::Wire> = Vec::new();
    let mut start_min = f64::INFINITY;
    let mut bcast_max = 0.0f64;
    let mut map_max = 0.0f64;
    for rank_result in out.results {
        let (gathered, t_start, t_bcast, t_map) = rank_result?;
        start_min = start_min.min(t_start);
        bcast_max = bcast_max.max(t_bcast);
        map_max = map_max.max(t_map);
        if let Some(rank_outs) = gathered {
            wires.extend(rank_outs);
        }
    }
    let clocks = MpiClocks {
        start_min,
        bcast_max,
        map_max,
    };
    let ctx = DriverCtx::owned(
        Engine::Mpi,
        n_tasks,
        Some(clocks),
        out.report,
        cluster.clone(),
    );
    a.finalize(Gathered::Ranks(wires), ctx)
}
