//! The four engine executors behind
//! [`RunConfig::run_analysis`](crate::run::RunConfig::run_analysis).
//!
//! This is the only place an engine's driver posture is written: each
//! runner reads the analysis's [`Plan`] into the phase-label ordering, I/O
//! charges, broadcast sequencing and reduce shape each framework's
//! Leaflet-Finder/PSA deployment had in the paper.
//! `tests/golden_collectives.rs` freezes the reports, those of the
//! hand-written per-engine drivers these runners replaced included.
//!
//! Collectives are *charged* on the virtual clock by the engine
//! primitives and merely *executed* on the host, once each (DESIGN.md §5l,
//! "Host cost of collectives"): a broadcast ships the analysis's own `Arc`
//! of the shared input, a tree reduce is a balanced pairwise fold, and the
//! MPI gather moves the rank outputs to the driver.

use super::{
    DriverCtx, Gathered, MpiClocks, ParallelAnalysis, Plan, Reduce, Staging,
    STAGING_WORKING_SET_FACTOR,
};
use crate::Engine;
use dasklet::{DaskClient, Delayed};
use netsim::{Cluster, NetworkModel};
use pilot::{Session, UnitDescription};
use sparklet::{Rdd, SparkContext};
use std::sync::Arc;
use taskframe::{fold_pairwise, EngineError, TaskCtx};

impl<A: ParallelAnalysis> Plan<A> {
    /// What a task pays before it maps slice `s`: the read of its input
    /// from storage over `net` (`None` for a Compute-Unit, whose input is
    /// staged, not read), then the declared cost.
    fn charge(&self, a: &A, s: A::Slice, net: Option<NetworkModel>, ctx: &TaskCtx) {
        if let (Some(bytes), Some(net)) = (self.read_bytes, net) {
            ctx.charge(net.transfer_time(bytes(a, s), false));
        }
        if let Some(cost) = self.cost_s {
            let cost = cost(a, s);
            if cost > 0.0 {
                ctx.charge(cost);
            }
        }
    }

    /// The items one task returns for slice `s`: the gather map's, or the
    /// tree leaf alone.
    fn map(&self, a: &A, shared: &A::Shared, s: A::Slice) -> Vec<A::Item> {
        match self.reduce {
            Reduce::Gather(map) => map(a, shared, s),
            Reduce::Tree(leaf, _) => vec![leaf(a, shared, s)],
        }
    }
}

/// Spark posture: one RDD partition per slice; `Gather` collects, `Tree`
/// runs the engine-side `treeReduce` ([`Rdd::try_reduce`]'s pairwise
/// fold).
pub(crate) fn run_spark<A: ParallelAnalysis + 'static>(
    sc: &SparkContext,
    a: &Arc<A>,
) -> Result<A::Output, EngineError> {
    let plan = Arc::new(a.plan(Engine::Spark, sc.cluster())?);
    let n_tasks = plan.slices.len();
    let net = Some(sc.cluster().profile.network);

    // Map closures are 'static (Spark serializes them to executors), so
    // the analysis, its plan and its shared input travel as Arc clones —
    // the input out of the broadcast variable when the plan asks for one.
    let shared = if plan.broadcast {
        sc.set_phase("broadcast");
        Arc::clone(sc.broadcast(a.shared())?.value())
    } else {
        a.shared()
    };
    let (task, p) = (Arc::clone(a), Arc::clone(&plan));
    let rdd: Rdd<A::Item> = Rdd::from_partitions(sc.clone(), n_tasks, move |i, ctx: &TaskCtx| {
        let s = p.slices[i];
        p.charge(&task, s, net, ctx);
        p.map(&task, &shared, s)
    });

    sc.set_phase(plan.phase);
    let t0 = sc.now();
    let (items, bracket) = match plan.reduce {
        Reduce::Gather(_) => (rdd.try_collect()?, plan.bracket),
        Reduce::Tree(_, combine) => {
            let merged = rdd.try_reduce(|x, y| combine(a, x, y))?;
            (merged.into_iter().collect(), true)
        }
    };
    if bracket {
        sc.note_phase(plan.phase, t0, sc.now());
    }
    a.finalize(Gathered::Items(items), DriverCtx::spark(sc, n_tasks))
}

/// Dask posture: one delayed task per slice; `Gather` gathers them,
/// `Tree` reduces through a binary ladder of combine tasks.
pub(crate) fn run_dask<A: ParallelAnalysis + 'static>(
    client: &DaskClient,
    a: &Arc<A>,
) -> Result<A::Output, EngineError> {
    let plan = Arc::new(a.plan(Engine::Dask, client.cluster())?);
    let n_tasks = plan.slices.len();
    let net = Some(client.cluster().profile.network);
    // Per slice: the analysis, its plan and the slice, for a 'static task.
    let per_slice = || {
        plan.slices
            .iter()
            .map(|&s| (Arc::clone(a), Arc::clone(&plan), s))
    };

    let items = match plan.reduce {
        Reduce::Gather(map) => {
            let tasks: Vec<Delayed<Vec<A::Item>>> = if plan.broadcast {
                client.set_phase("broadcast");
                let bc = client.broadcast(a.shared())?;
                client.set_phase(plan.phase);
                let fs: Vec<_> = per_slice()
                    .map(|(task, p, s)| {
                        move |shared: &Arc<A::Shared>, ctx: &TaskCtx| {
                            p.charge(&task, s, net, ctx);
                            map(&task, shared, s)
                        }
                    })
                    .collect();
                client.delayed_after_many(&bc, fs)
            } else {
                client.set_phase(plan.phase);
                let fs: Vec<_> = per_slice()
                    .map(|(task, p, s)| {
                        let shared = a.shared();
                        move |ctx: &TaskCtx| {
                            p.charge(&task, s, net, ctx);
                            map(&task, &shared, s)
                        }
                    })
                    .collect();
                client.delayed_many(fs)
            };
            let t0 = client.now();
            let (parts, t1) = client.try_gather(&tasks)?;
            if plan.bracket {
                client.note_phase(plan.phase, t0, t1);
            }
            parts.into_iter().flatten().collect()
        }
        Reduce::Tree(leaf, combine) => {
            client.set_phase(plan.phase);
            let t0 = client.now();
            let fs: Vec<_> = per_slice()
                .map(|(task, p, s)| {
                    let shared = a.shared();
                    move |ctx: &TaskCtx| {
                        p.charge(&task, s, net, ctx);
                        leaf(&task, &shared, s)
                    }
                })
                .collect();
            let leaves: Vec<Delayed<A::Item>> = client.delayed_many(fs);
            let root = fold_pairwise(leaves, |x, y| {
                client.combine_pair(x, y, |x, y, _| combine(a, x, y))
            });
            match root {
                Some(d) => {
                    let (vals, t1) = client.try_gather(std::slice::from_ref(&d))?;
                    client.note_phase(plan.phase, t0, t1);
                    vals
                }
                None => Vec::new(),
            }
        }
    };
    a.finalize(Gathered::Items(items), DriverCtx::dask(client, n_tasks))
}

/// RADICAL-Pilot posture: one Compute-Unit per slice. A plan with a
/// [`Staging`] codec gets its inputs genuinely serialized through the
/// staging filesystem; the rest run compute-only units over the in-memory
/// shared input.
pub(crate) fn run_pilot<A: ParallelAnalysis + 'static>(
    session: &Session,
    a: &Arc<A>,
) -> Result<A::Output, EngineError> {
    let plan = Arc::new(a.plan(Engine::Pilot, session.cluster())?);
    let n_tasks = plan.slices.len();
    let shared = a.shared();

    let units: Vec<UnitDescription<Vec<A::Item>>> = plan
        .slices
        .iter()
        .map(|&s| {
            let (task, p) = (Arc::clone(a), Arc::clone(&plan));
            match plan.staging {
                Some(Staging { encode, map }) => {
                    let (input, token) = encode(a, &shared, s);
                    // Declared peak footprint: the staged bytes times the
                    // declared expansion (staged copy, decoded copy,
                    // working buffers). Admission control schedules
                    // against it.
                    let working_set = input.len() as u64 * STAGING_WORKING_SET_FACTOR;
                    UnitDescription::new(input, move |ctx: &TaskCtx, staged: &[u8]| {
                        p.charge(&task, s, None, ctx);
                        map(&task, s, token, staged)
                    })
                    .with_working_set(working_set)
                }
                None => {
                    let sh = Arc::clone(&shared);
                    UnitDescription::compute_only(move |ctx: &TaskCtx, _staged: &[u8]| {
                        p.charge(&task, s, None, ctx);
                        p.map(&task, &sh, s)
                    })
                }
            }
        })
        .collect();
    let out = session.submit_and_wait(units)?;
    let items: Vec<A::Item> = out.results.into_iter().flatten().collect();
    // The pilot has no engine-side reduce; a tree reduce folds at the
    // client, in the same pairwise shape as the engines' tree reduce.
    let items = match plan.reduce {
        Reduce::Gather(_) => items,
        Reduce::Tree(_, combine) => fold_pairwise(items, |x, y| combine(a, x, y))
            .into_iter()
            .collect(),
    };
    let ctx = DriverCtx::owned(
        Engine::Pilot,
        n_tasks,
        out.report,
        session.cluster().clone(),
    );
    a.finalize(Gathered::Items(items), ctx)
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
    let plan = a.plan(Engine::Mpi, cluster)?;
    let n_tasks = plan.slices.len();
    let net = cluster.profile.network;
    let shared = a.shared();

    let mut mpi = mpilike::World::launch(cluster.clone(), world)?;
    let start_min = mpi.clocks().iter().copied().fold(f64::INFINITY, f64::min);
    let latest = |mpi: &mpilike::World| mpi.clocks().iter().copied().fold(0.0, f64::max);
    // The supersteps stop at the first failed collective; the fault walk
    // in `finish` still runs, and its error outranks the collective's.
    let mut steps = || -> Result<_, EngineError> {
        let replicas = if plan.broadcast {
            mpi.set_phase("broadcast");
            // A replica too big for the fixed per-rank buffers surfaces
            // typed instead of tearing the job down.
            Some(mpi.try_bcast(0, Arc::clone(&shared))?)
        } else {
            None // pre-partitioned: ranks read their slices as I/O
        };
        let bcast_max = latest(&mpi);
        mpi.set_phase(plan.phase);
        let ranks = mpi.size();
        let mine: Vec<Vec<A::Slice>> = (0..ranks)
            .map(|rank| {
                plan.slices
                    .iter()
                    .copied()
                    .skip(rank)
                    .step_by(ranks)
                    .collect()
            })
            .collect();
        for (rank, mine) in mine.iter().enumerate() {
            if let Some(bytes) = plan.read_bytes {
                let total = mine.iter().map(|&s| bytes(a, s)).sum();
                mpi.charge(rank, net.transfer_time(total, false));
            }
            if let Some(cost) = plan.cost_s {
                let total: f64 = mine.iter().map(|&s| cost(a, s)).sum();
                if total > 0.0 {
                    mpi.charge(rank, total);
                }
            }
        }
        let wires = mpi.compute(|rank| {
            let local = replicas.as_ref().map_or(&shared, |r| &r[rank]);
            a.rank_map(local, &mine[rank])
        });
        let map_max = latest(&mpi);
        mpi.set_phase("gather");
        // Rank order is stable, so rank 0's reduce is deterministic.
        let wires = mpi.try_gather(0, wires)?;
        let clocks = MpiClocks {
            start_min,
            bcast_max,
            map_max,
        };
        Ok((wires, clocks))
    };
    let steps = steps();
    let report = mpi.finish(policy, restart_from_barrier)?;
    let (wires, clocks) = steps?;
    let ctx = DriverCtx::owned(Engine::Mpi, n_tasks, report, cluster.clone());
    a.finalize(Gathered::Ranks(wires, clocks), ctx)
}
