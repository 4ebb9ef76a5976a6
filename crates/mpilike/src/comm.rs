//! The SPMD communicator and runner.

use crate::collective::{Aborted, Rendezvous};
use netsim::{lock, Cluster, EventKind, RetryPolicy, SimReport, Trace, TraceEvent};
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use taskframe::{mpi_profile, EngineError, Payload};

/// Payloads larger than this fraction of a rank's fixed buffer move in
/// chunks (rendezvous pipelining), each extra chunk paying one more
/// network latency.
const CHUNKS_PER_BUFFER: u64 = 4;

/// Transfer time for one collective leg under fixed per-rank buffers.
fn chunked_leg(net: netsim::NetworkModel, bytes: u64, same_node: bool, buffer: u64) -> f64 {
    let chunk = (buffer / CHUNKS_PER_BUFFER).max(1);
    let n_chunks = bytes.div_ceil(chunk).max(1);
    net.transfer_time(bytes, same_node) + (n_chunks - 1) as f64 * net.latency_s
}

struct Shared {
    rendezvous: Rendezvous,
    cluster: Cluster,
    /// Bounds how many ranks execute *real* work concurrently. At the
    /// default capacity 1 this is the historical global compute token:
    /// strict serialization, so host-core contention cannot inflate
    /// measurements and parallelism lives in virtual time only. A higher
    /// host-parallelism degree (`netsim::parallel::current_degree` at run
    /// entry) admits that many ranks at once — measurements may then
    /// contend, but results and (under deterministic timing) the whole
    /// report stay identical because virtual-time accounting is per-rank.
    compute_token: netsim::parallel::Semaphore,
    compute_s: Mutex<f64>,
    bytes_broadcast: AtomicU64,
    bytes_shuffled: AtomicU64,
    /// Collectives refused because a payload could not fit any rank's
    /// fixed buffer (MPI_ERR_NO_MEM, surfaced typed to every rank).
    oom_kills: AtomicU64,
    /// Typed event record. SPMD runs have few events (ranks × collectives),
    /// so the trace is always on; it is sorted into virtual-time order
    /// after the threads join and attached to the report.
    trace: Mutex<Trace>,
    /// Global completion time of each collective (max over ranks, keyed by
    /// sequence number): the implicit checkpoints a policied restart can
    /// resume from — every rank provably held consistent state there.
    collective_ends: Mutex<BTreeMap<u64, f64>>,
}

impl Shared {
    /// The fixed receive buffer of a rank on `node` at virtual time
    /// `at_s`: the node's (possibly fault-shrunk) budget split evenly
    /// among its cores, one rank per core.
    fn rank_buffer(&self, node: usize, at_s: f64) -> u64 {
        self.cluster.mem_budget(node, at_s) / self.cluster.profile.cores_per_node as u64
    }

    fn record(&self, core: usize, start_s: f64, end_s: f64, phase: &str, kind: EventKind) {
        let mut trace = lock(&self.trace);
        let task = trace.next_id();
        let phase = trace.intern(phase);
        trace.record(TraceEvent {
            task,
            core,
            start_s,
            end_s: end_s.max(start_s),
            killed: false,
            ready_s: start_s,
            phase,
            kind,
        });
    }

    /// Record a labelled task attempt (labels are interned under the
    /// trace lock, so ranks can record concurrently without allocating
    /// shared strings).
    fn record_task(&self, core: usize, start_s: f64, end_s: f64, phase: &str, label: &str) {
        let mut trace = lock(&self.trace);
        let task = trace.next_id();
        let phase = trace.intern(phase);
        let label = trace.intern(label);
        trace.record(TraceEvent {
            task,
            core,
            start_s,
            end_s: end_s.max(start_s),
            killed: false,
            ready_s: start_s,
            phase,
            kind: EventKind::Task {
                label,
                speculative: false,
            },
        });
    }
}

/// Per-rank communicator handle.
pub struct Comm<'a> {
    rank: usize,
    world: usize,
    clock: f64,
    seq: u64,
    phase: String,
    shared: &'a Shared,
}

/// Results of an SPMD run: per-rank return values (rank order) plus the
/// simulated execution report.
pub struct MpiRunOutput<T> {
    pub results: Vec<T>,
    pub report: SimReport,
}

/// Launch `world` ranks running `f`, one rank per simulated core, and
/// collect their results. Panics in any rank propagate, and a node death
/// scripted before the job's end aborts the whole run (use
/// [`try_run`] to observe the abort as an error).
pub fn run<T, F>(cluster: Cluster, world: usize, f: F) -> MpiRunOutput<T>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Send + Sync,
{
    try_run(cluster, world, f).expect("MPI job aborted")
}

/// Fallible variant of [`run`]: SPMD has no task-level recovery, so if the
/// fault plan kills a node hosting any rank before the job would have
/// finished, the whole communicator aborts with
/// [`EngineError::WorkerLost`] — `mpirun` tears everything down.
pub fn try_run<T, F>(cluster: Cluster, world: usize, f: F) -> Result<MpiRunOutput<T>, EngineError>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Send + Sync,
{
    // One attempt: the default MPI posture (a lost rank aborts the job).
    try_run_with_policy(cluster, world, &RetryPolicy::new(1), true, f)
}

/// Checkpoint/restart variant: instead of aborting the whole job on a node
/// death, the runtime restarts from the **last completed collective
/// barrier** before the death (every rank provably held consistent state
/// there), paying failure detection, the policy's backoff, a fresh
/// `mpirun` launch, and the re-execution of everything after the
/// checkpoint. `restart_from_barrier: false` models plain job-level
/// restart (from scratch) for comparison. The allocation is assumed to be
/// refilled with a replacement node, as a resource manager would.
///
/// With `policy.max_attempts == 1` this is exactly [`try_run`]: the first
/// death before the job's end surfaces as [`EngineError::WorkerLost`].
///
/// MPI runs at most one rank per core: a `world` outside `1..=cores` is
/// [`EngineError::Unsupported`], answered before any rank is spawned.
///
/// A panic in a rank's closure aborts the communicator: the ranks blocked
/// in a collective unwind too, and the first panicking rank's payload is
/// re-raised to the caller — a panic, never a hang.
pub fn try_run_with_policy<T, F>(
    cluster: Cluster,
    world: usize,
    policy: &RetryPolicy,
    restart_from_barrier: bool,
    f: F,
) -> Result<MpiRunOutput<T>, EngineError>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Send + Sync,
{
    // One rank per core, at least one rank.
    let cores = cluster.total_cores();
    if !(1..=cores).contains(&world) {
        return Err(EngineError::Unsupported(format!(
            "an MPI world of {world} ranks on {cores} cores (need 1..={cores})"
        )));
    }
    let profile = mpi_profile();
    let shared = Shared {
        rendezvous: Rendezvous::new(world),
        cluster,
        compute_token: netsim::parallel::Semaphore::new(netsim::parallel::current_degree()),
        compute_s: Mutex::new(0.0),
        bytes_broadcast: AtomicU64::new(0),
        bytes_shuffled: AtomicU64::new(0),
        oom_kills: AtomicU64::new(0),
        trace: Mutex::new(Trace::default()),
        collective_ends: Mutex::new(BTreeMap::new()),
    };

    let joined: Vec<std::thread::Result<(T, f64)>> = std::thread::scope(|s| {
        let (shared, f) = (&shared, &f);
        let handles: Vec<_> = (0..world)
            .map(|rank| {
                s.spawn(move || {
                    let mut comm = Comm {
                        rank,
                        world,
                        clock: profile.startup_s,
                        seq: 0,
                        phase: String::new(),
                        shared,
                    };
                    match panic::catch_unwind(AssertUnwindSafe(|| f(&mut comm))) {
                        Ok(out) => (out, comm.clock),
                        Err(payload) => {
                            // The other ranks would wait for this one
                            // forever: release them, then keep unwinding.
                            shared.rendezvous.abort();
                            panic::resume_unwind(payload)
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    // `mpirun` tears the job down when a rank dies: re-raise the first
    // rank's own panic, not the `Aborted` of a rank it released.
    if joined.iter().any(Result::is_err) {
        let mut panics: Vec<_> = joined.into_iter().filter_map(Result::err).collect();
        let first = panics.iter().position(|p| !p.is::<Aborted>()).unwrap_or(0);
        panic::resume_unwind(panics.swap_remove(first));
    }
    let (results, final_clocks): (Vec<T>, Vec<f64>) = joined.into_iter().flatten().unzip();

    let job_end = final_clocks
        .iter()
        .copied()
        .fold(0.0, f64::max)
        .max(profile.startup_s);
    // SPMD abort-and-restart semantics, applied post hoc: the virtual
    // timeline of the job is fixed, so a death simply shifts everything
    // after its restart point. Walk the deaths in time order; each one
    // hitting a node that hosts ranks before the (shifted) job end costs
    // one attempt and a restart from the last completed collective
    // barrier (or from scratch, without barrier checkpoints).
    let barriers: Vec<f64> = lock(&shared.collective_ends).values().copied().collect();
    let rank_nodes: std::collections::BTreeSet<usize> = (0..world)
        .map(|rank| shared.cluster.node_of_core(rank))
        .collect();
    // A fault hitting the communicator: a node death (`heal: None`), or a
    // network partition separating two rank-hosting nodes (`heal:
    // Some(_)`) — the cut breaks collectives exactly like a death, except
    // the isolated ranks are alive and their progress must be fenced.
    struct CommFault {
        node: usize,
        at_s: f64,
        heal: Option<f64>,
    }
    let mut faults_hit: Vec<CommFault> = rank_nodes
        .iter()
        .filter_map(|&node| {
            shared
                .cluster
                .faults()
                .node_death(node)
                .map(|at_s| CommFault {
                    node,
                    at_s,
                    heal: None,
                })
        })
        .collect();
    let root_node = shared.cluster.node_of_core(0);
    for p in shared.cluster.faults().partitions() {
        // The cut matters iff it separates any two rank-hosting nodes.
        // Blame the smallest node severed from rank 0's side (rank 0
        // hosts the job launcher), falling back to the smallest node in
        // any severed pair.
        let victim = rank_nodes
            .iter()
            .find(|&&n| p.separates(root_node, n))
            .or_else(|| {
                rank_nodes
                    .iter()
                    .find(|&&a| rank_nodes.iter().any(|&b| p.separates(a, b)))
            });
        if let Some(&node) = victim {
            faults_hit.push(CommFault {
                node,
                at_s: p.from_s,
                heal: Some(p.to_s),
            });
        }
    }
    faults_hit.sort_by(|a, b| a.at_s.total_cmp(&b.at_s).then(a.node.cmp(&b.node)));
    let mut attempts: u32 = 1;
    let mut shift = 0.0f64;
    let mut end = job_end;
    let mut restarts = 0usize;
    let mut lost_time = 0.0f64;
    let mut zombie_restarts = 0usize;
    let mut zombie_time = 0.0f64;
    let mut recovery_windows: Vec<(f64, f64)> = Vec::new();
    let mut fence_windows: Vec<(f64, f64)> = Vec::new();
    for CommFault { node, at_s, heal } in faults_hit {
        if at_s >= end {
            continue;
        }
        // A cut the detector waits out is a stall, not a failure: ranks
        // block on the broken collective and resume at heal. No attempt
        // is consumed and no work is redone — the timeline just shifts.
        if let Some(h) = heal {
            let waited_out = match policy.detector() {
                Some(d) => d.suspect_time(at_s) >= h,
                None => at_s + policy.detection_delay_s >= h,
            };
            if waited_out {
                recovery_windows.push((at_s, h));
                end += h - at_s;
                shift += h - at_s;
                continue;
            }
        }
        if policy.max_attempts == 1 {
            // Plain MPI: nothing to retry, the communicator is gone —
            // a partition crossing it is indistinguishable from a death.
            return Err(EngineError::WorkerLost { node, at_s });
        }
        // Death is observed one heartbeat later; a partition via the
        // suspicion detector timing out on the silent cohort.
        let observed = match heal {
            Some(_) => match policy.detector() {
                Some(d) => d.suspect_time(at_s),
                None => at_s + policy.detection_delay_s,
            },
            None => at_s + policy.detection_delay_s,
        };
        if attempts >= policy.max_attempts {
            return Err(EngineError::RetriesExhausted {
                attempts,
                last_failure_s: observed,
            });
        }
        // Gate the restart against the deadline *before* committing to
        // the backoff + startup wait: a relaunch that could only begin
        // past the deadline fails at observation time, typed, instead of
        // simulating a doomed restart. A partition restart additionally
        // cannot relaunch before the cut heals: the isolated nodes must
        // rejoin the communicator.
        let resume = {
            let r = observed + policy.backoff_before(attempts + 1) + profile.startup_s;
            match heal {
                Some(h) => r.max(h),
                None => r,
            }
        };
        policy.deadline_gate(observed, resume)?;
        attempts += 1;
        // How far the job had progressed (in its own timeline) when the
        // fault hit, and the checkpoint to resume from.
        let progress = (at_s - shift).clamp(profile.startup_s, job_end);
        let ckpt = if restart_from_barrier {
            barriers
                .iter()
                .copied()
                .filter(|&b| b <= progress)
                .fold(profile.startup_s, f64::max)
        } else {
            profile.startup_s
        };
        // Every rank's work since the checkpoint is redone.
        lost_time += (progress - ckpt) * world as f64;
        if heal.is_some() {
            // The isolated cohort kept computing past the checkpoint;
            // when it rejoins, its post-checkpoint contributions carry a
            // stale communicator epoch and are discarded — exactly once.
            zombie_restarts += 1;
            zombie_time += progress - ckpt;
            fence_windows.push((observed, resume));
        }
        recovery_windows.push((at_s, resume));
        end = resume + (job_end - ckpt);
        shift = end - job_end;
        restarts += 1;
    }
    if let Some(deadline) = policy.deadline_s {
        if end > deadline {
            return Err(EngineError::DeadlineExceeded {
                deadline_s: deadline,
                at_s: end,
            });
        }
    }
    // Threads record trace events in host-scheduling order; sort into
    // virtual-time order and renumber so runs are reproducible. (Events
    // keep the original, unshifted timeline; restarts appear as recovery
    // events alongside it.)
    let mut trace = shared
        .trace
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    for &(start_s, end_s) in &recovery_windows {
        let task = trace.next_id();
        let phase = trace.intern("recovery");
        let label = trace.intern("restart");
        trace.record(TraceEvent {
            task,
            core: 0,
            start_s,
            end_s,
            killed: false,
            ready_s: start_s,
            phase,
            kind: EventKind::Recovery { label },
        });
    }
    for &(start_s, end_s) in &fence_windows {
        let task = trace.next_id();
        let phase = trace.intern("recovery");
        let label = trace.intern("communicator-fenced");
        trace.record(TraceEvent {
            task,
            core: 0,
            start_s,
            end_s,
            killed: false,
            ready_s: start_s,
            phase,
            kind: EventKind::Fenced { label },
        });
    }
    trace.sort_for_determinism();
    let mut report = SimReport {
        makespan_s: end,
        tasks: world,
        compute_s: *lock(&shared.compute_s),
        overhead_s: profile.startup_s * (1 + restarts) as f64,
        comm_s: shared.rendezvous.comm_seconds(),
        bytes_broadcast: shared.bytes_broadcast.load(Ordering::Relaxed),
        bytes_shuffled: shared.bytes_shuffled.load(Ordering::Relaxed),
        oom_kills: shared.oom_kills.load(Ordering::Relaxed) as usize,
        retries: restarts,
        lost_time_s: lost_time,
        zombie_attempts: zombie_restarts,
        zombie_time_s: zombie_time,
        fenced_results: zombie_restarts,
        trace: Some(trace),
        ..Default::default()
    };
    for (start_s, end_s) in recovery_windows {
        report.push_phase("recovery", start_s, end_s);
    }
    Ok(MpiRunOutput { results, report })
}

impl<'a> Comm<'a> {
    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn world(&self) -> usize {
        self.world
    }

    /// This rank's virtual clock (seconds since job launch).
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Name the phase stamped onto this rank's subsequent trace events.
    pub fn set_phase(&mut self, phase: &str) {
        self.phase = phase.to_string();
    }

    fn node_of_rank(&self, rank: usize) -> usize {
        self.shared.cluster.node_of_core(rank)
    }

    /// Execute real work; its measured time (scaled to the machine profile)
    /// advances this rank's virtual clock.
    pub fn compute<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let _token = self.shared.compute_token.acquire();
        let (out, host_s) = netsim::measure(f);
        // A straggler core stretches this rank's compute (and, through the
        // collectives, everyone waiting on it — SPMD has no mitigation).
        let sim_s = self.shared.cluster.scale_compute(host_s)
            * self.shared.cluster.faults().slowdown(self.rank);
        let start = self.clock;
        self.clock += sim_s;
        *lock(&self.shared.compute_s) += sim_s;
        self.shared
            .record_task(self.rank, start, self.clock, &self.phase, "compute");
        out
    }

    /// Advance this rank's clock by modelled (unmeasured) time.
    pub fn charge(&mut self, secs: f64) {
        assert!(secs >= 0.0);
        self.clock += secs;
    }

    fn collective<T, R, F>(&mut self, input: T, finish: F) -> R
    where
        T: Send + 'static,
        R: Send + 'static,
        F: FnOnce(&[f64], Vec<T>) -> (Vec<R>, Vec<f64>),
    {
        self.seq += 1;
        let (out, t) = self
            .shared
            .rendezvous
            .exchange(self.seq, self.rank, self.clock, input, finish);
        self.clock = t;
        // The collective is globally complete once its slowest rank is
        // done — that instant is a consistent restart checkpoint.
        let mut ends = lock(&self.shared.collective_ends);
        let e = ends.entry(self.seq).or_insert(self.clock);
        if self.clock > *e {
            *e = self.clock;
        }
        drop(ends);
        out
    }

    /// Synchronize all ranks (tree barrier: log₂(world) latency rounds).
    pub fn barrier(&mut self) {
        let world = self.world;
        let net = self.shared.cluster.profile.network;
        self.collective((), move |clocks, _: Vec<()>| {
            let t = clocks.iter().copied().fold(0.0, f64::max)
                + (world as f64).log2().ceil().max(1.0) * net.latency_s;
            (vec![(); world], vec![t; world])
        })
    }

    /// Broadcast `value` from `root` (which must pass `Some`) to all ranks.
    /// Naive linear algorithm: the root sends to each rank in turn, so the
    /// completion time of the i-th destination grows linearly — the MPI
    /// behaviour the paper measures in Fig. 8.
    ///
    /// Panics if the replica exceeds any rank's fixed buffer (use
    /// [`Self::try_bcast`] under memory pressure).
    pub fn bcast<T>(&mut self, root: usize, value: Option<T>) -> T
    where
        T: Clone + Payload + Send + 'static,
    {
        self.try_bcast(root, value)
            .expect("bcast replica exceeded a fixed per-rank buffer")
    }

    /// Fallible [`Self::bcast`]: a replica larger than a quarter of a
    /// destination's fixed buffer moves in chunks (extra latency per
    /// chunk); one that cannot fit the buffer at all fails the collective
    /// for every rank with a typed [`EngineError::MemoryExhausted`] —
    /// never a panic or hang.
    pub fn try_bcast<T>(&mut self, root: usize, value: Option<T>) -> Result<T, EngineError>
    where
        T: Clone + Payload + Send + 'static,
    {
        assert!(root < self.world, "bcast root out of range");
        let world = self.world;
        let net = self.shared.cluster.profile.network;
        let nodes: Vec<usize> = (0..world).map(|r| self.node_of_rank(r)).collect();
        let bytes_counter = &self.shared.bytes_broadcast;
        let shared = self.shared;
        let phase = self.phase.clone();
        self.collective(value, move |clocks, mut inputs: Vec<Option<T>>| {
            let v = inputs[root]
                .take()
                .unwrap_or_else(|| panic!("rank {root} must provide the bcast value"));
            let t0 = clocks.iter().copied().fold(0.0, f64::max);
            let bytes = v.wire_bytes();
            for (r, &node) in nodes.iter().enumerate() {
                let buffer = shared.rank_buffer(node, t0);
                if bytes > buffer {
                    shared.oom_kills.fetch_add(1, Ordering::Relaxed);
                    shared.record(r, t0, t0, &phase, EventKind::OomKill { node });
                    let err = EngineError::MemoryExhausted {
                        node,
                        budget: buffer,
                        required: bytes,
                        at_s: t0,
                        what: "bcast replica in a fixed per-rank buffer".into(),
                    };
                    return (vec![Err(err); world], vec![t0; world]);
                }
            }
            let mut completion = vec![0.0; world];
            let mut elapsed = 0.0;
            for r in 0..world {
                if r == root {
                    completion[r] = t0;
                } else {
                    let leg_start = t0 + elapsed;
                    let buffer = shared.rank_buffer(nodes[r], t0);
                    elapsed += chunked_leg(net, bytes, nodes[r] == nodes[root], buffer);
                    completion[r] = t0 + elapsed;
                    bytes_counter.fetch_add(bytes, Ordering::Relaxed);
                    shared.record(
                        r,
                        leg_start,
                        completion[r],
                        &phase,
                        EventKind::Fetch {
                            from_node: nodes[root],
                            to_node: nodes[r],
                            bytes,
                        },
                    );
                }
            }
            // The root is done once its last send completes.
            completion[root] = t0 + elapsed;
            shared.record(
                root,
                t0,
                completion[root],
                &phase,
                EventKind::Broadcast {
                    bytes,
                    dest_nodes: world.saturating_sub(1),
                },
            );
            ((0..world).map(|_| Ok(v.clone())).collect(), completion)
        })
    }

    /// Scatter `parts[i]` to rank `i` from `root`. Sequential sends, like
    /// [`Self::bcast`].
    ///
    /// Panics if a part exceeds its destination rank's fixed buffer.
    pub fn scatter<T>(&mut self, root: usize, parts: Option<Vec<T>>) -> T
    where
        T: Payload + Send + 'static,
    {
        self.try_scatter(root, parts)
            .expect("scatter part exceeded a fixed per-rank buffer")
    }

    /// [`Self::scatter`]'s collective: oversized parts chunk; a part that
    /// cannot fit its destination's fixed buffer fails the collective for
    /// every rank with a typed error.
    fn try_scatter<T>(&mut self, root: usize, parts: Option<Vec<T>>) -> Result<T, EngineError>
    where
        T: Payload + Send + 'static,
    {
        assert!(root < self.world, "scatter root out of range");
        let world = self.world;
        let net = self.shared.cluster.profile.network;
        let nodes: Vec<usize> = (0..world).map(|r| self.node_of_rank(r)).collect();
        let bytes_counter = &self.shared.bytes_shuffled;
        let shared = self.shared;
        let phase = self.phase.clone();
        self.collective(parts, move |clocks, mut inputs: Vec<Option<Vec<T>>>| {
            let parts = inputs[root]
                .take()
                .unwrap_or_else(|| panic!("rank {root} must provide scatter parts"));
            assert_eq!(parts.len(), world, "scatter needs one part per rank");
            let t0 = clocks.iter().copied().fold(0.0, f64::max);
            for (r, part) in parts.iter().enumerate() {
                let bytes = part.wire_bytes();
                let buffer = shared.rank_buffer(nodes[r], t0);
                if bytes > buffer {
                    shared.oom_kills.fetch_add(1, Ordering::Relaxed);
                    shared.record(r, t0, t0, &phase, EventKind::OomKill { node: nodes[r] });
                    let err = EngineError::MemoryExhausted {
                        node: nodes[r],
                        budget: buffer,
                        required: bytes,
                        at_s: t0,
                        what: "scatter part in a fixed per-rank buffer".into(),
                    };
                    return (
                        (0..world).map(|_| Err(err.clone())).collect(),
                        vec![t0; world],
                    );
                }
            }
            let mut completion = vec![t0; world];
            let mut elapsed = 0.0;
            for (r, part) in parts.iter().enumerate() {
                if r != root {
                    let bytes = part.wire_bytes();
                    let leg_start = t0 + elapsed;
                    let buffer = shared.rank_buffer(nodes[r], t0);
                    elapsed += chunked_leg(net, bytes, nodes[r] == nodes[root], buffer);
                    completion[r] = t0 + elapsed;
                    bytes_counter.fetch_add(bytes, Ordering::Relaxed);
                    shared.record(
                        r,
                        leg_start,
                        completion[r],
                        &phase,
                        EventKind::Fetch {
                            from_node: nodes[root],
                            to_node: nodes[r],
                            bytes,
                        },
                    );
                }
            }
            completion[root] = t0 + elapsed;
            let outs: Vec<Result<T, EngineError>> = parts.into_iter().map(Ok).collect();
            (outs, completion)
        })
    }

    /// Gather every rank's value at `root` (rank order). Non-root ranks
    /// return `None` and continue as soon as their send is delivered.
    ///
    /// Panics if the gathered total exceeds the root rank's fixed buffer
    /// (use [`Self::try_gather`] under memory pressure).
    pub fn gather<T>(&mut self, root: usize, value: T) -> Option<Vec<T>>
    where
        T: Payload + Send + 'static,
    {
        self.try_gather(root, value)
            .expect("gathered payloads exceeded the root's fixed buffer")
    }

    /// Fallible [`Self::gather`]: individual sends chunk against the
    /// root's fixed buffer; a gathered total the root cannot hold fails
    /// the collective for every rank with a typed error — the classic
    /// root-rank gather OOM, surfaced instead of crashing `mpirun`.
    pub fn try_gather<T>(&mut self, root: usize, value: T) -> Result<Option<Vec<T>>, EngineError>
    where
        T: Payload + Send + 'static,
    {
        assert!(root < self.world, "gather root out of range");
        let world = self.world;
        let net = self.shared.cluster.profile.network;
        let nodes: Vec<usize> = (0..world).map(|r| self.node_of_rank(r)).collect();
        let bytes_counter = &self.shared.bytes_shuffled;
        let shared = self.shared;
        let phase = self.phase.clone();
        self.collective(value, move |clocks, inputs: Vec<T>| {
            let t0 = clocks.iter().copied().fold(0.0, f64::max);
            let total: u64 = inputs.iter().map(Payload::wire_bytes).sum();
            let root_buffer = shared.rank_buffer(nodes[root], t0);
            if total > root_buffer {
                shared.oom_kills.fetch_add(1, Ordering::Relaxed);
                shared.record(
                    root,
                    t0,
                    t0,
                    &phase,
                    EventKind::OomKill { node: nodes[root] },
                );
                let err = EngineError::MemoryExhausted {
                    node: nodes[root],
                    budget: root_buffer,
                    required: total,
                    at_s: t0,
                    what: "gathered payloads in the root's fixed buffer".into(),
                };
                return (
                    (0..world).map(|_| Err(err.clone())).collect(),
                    vec![t0; world],
                );
            }
            let mut completion = vec![0.0; world];
            let mut elapsed = 0.0;
            for r in 0..world {
                if r != root {
                    let bytes = inputs[r].wire_bytes();
                    let leg_start = t0 + elapsed;
                    elapsed += chunked_leg(net, bytes, nodes[r] == nodes[root], root_buffer);
                    completion[r] = t0 + elapsed;
                    bytes_counter.fetch_add(bytes, Ordering::Relaxed);
                    shared.record(
                        r,
                        leg_start,
                        completion[r],
                        &phase,
                        EventKind::Fetch {
                            from_node: nodes[r],
                            to_node: nodes[root],
                            bytes,
                        },
                    );
                }
            }
            completion[root] = t0 + elapsed;
            let mut outs: Vec<Result<Option<Vec<T>>, EngineError>> =
                (0..world).map(|_| Ok(None)).collect();
            outs[root] = Ok(Some(inputs));
            (outs, completion)
        })
    }

    /// All-reduce a scalar with a commutative, associative `op`
    /// (recursive-doubling cost: log₂(world) latency rounds).
    pub fn allreduce_f64(&mut self, value: f64, op: fn(f64, f64) -> f64) -> f64 {
        let world = self.world;
        let net = self.shared.cluster.profile.network;
        self.collective(value, move |clocks, inputs: Vec<f64>| {
            let mut acc = inputs[0];
            for &v in &inputs[1..] {
                acc = op(acc, v);
            }
            let t = clocks.iter().copied().fold(0.0, f64::max)
                + (world as f64).log2().ceil().max(1.0) * net.latency_s;
            (vec![acc; world], vec![t; world])
        })
    }
}
