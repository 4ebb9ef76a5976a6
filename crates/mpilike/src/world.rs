//! An MPI job as a list of bulk-synchronous supersteps.

use netsim::{Cluster, EventKind, NetworkModel, RetryPolicy, SimReport, Sym, Trace, TraceEvent};
use std::collections::BTreeSet;
use taskframe::{mpi_profile, EngineError, Payload};

/// Payloads larger than this fraction of a rank's fixed buffer move in
/// chunks (rendezvous pipelining), each extra chunk paying one more
/// network latency.
const CHUNKS_PER_BUFFER: u64 = 4;

/// Transfer time for one collective leg under fixed per-rank buffers.
fn chunked_leg(net: NetworkModel, bytes: u64, same_node: bool, buffer: u64) -> f64 {
    let chunk = (buffer / CHUNKS_PER_BUFFER).max(1);
    let n_chunks = bytes.div_ceil(chunk).max(1);
    net.transfer_time(bytes, same_node) + (n_chunks - 1) as f64 * net.latency_s
}

/// The latest of `clocks` (0 for none).
fn latest(clocks: &[f64]) -> f64 {
    clocks.iter().copied().fold(0.0, f64::max)
}

/// One MPI job: `world` ranks, rank `r` on core `r`, each with its own
/// virtual clock. The caller advances the clocks step by step and then
/// calls [`World::finish`] for the report.
pub struct World {
    cluster: Cluster,
    clocks: Vec<f64>,
    /// The node hosting each rank.
    nodes: Vec<usize>,
    phase: String,
    compute_s: f64,
    /// Communication seconds charged across all collectives (completion
    /// minus latest arrival, i.e. cost excluding load imbalance).
    comm_s: f64,
    bytes_broadcast: u64,
    bytes_shuffled: u64,
    /// Collectives refused because a payload could not fit a rank's fixed
    /// buffer (MPI_ERR_NO_MEM).
    oom_kills: usize,
    /// Typed event record. SPMD runs have few events (ranks ×
    /// collectives), so the trace is always on.
    trace: Trace,
    /// Global completion time of each collective: the implicit
    /// checkpoints a policied restart can resume from — every rank
    /// provably held consistent state there.
    collective_ends: Vec<f64>,
}

impl World {
    /// Launch `world` ranks, one per simulated core, every clock at
    /// `mpirun` start-up. A `world` outside `1..=cores` is
    /// [`EngineError::Unsupported`].
    pub fn launch(cluster: Cluster, world: usize) -> Result<World, EngineError> {
        let cores = cluster.total_cores();
        if !(1..=cores).contains(&world) {
            return Err(EngineError::Unsupported(format!(
                "an MPI world of {world} ranks on {cores} cores (need 1..={cores})"
            )));
        }
        Ok(World {
            clocks: vec![mpi_profile().startup_s; world],
            nodes: (0..world).map(|r| cluster.node_of_core(r)).collect(),
            cluster,
            phase: String::new(),
            compute_s: 0.0,
            comm_s: 0.0,
            bytes_broadcast: 0,
            bytes_shuffled: 0,
            oom_kills: 0,
            trace: Trace::default(),
            collective_ends: Vec::new(),
        })
    }

    /// The number of ranks.
    pub fn size(&self) -> usize {
        self.clocks.len()
    }

    /// Every rank's virtual clock (seconds since job launch), rank order.
    pub fn clocks(&self) -> &[f64] {
        &self.clocks
    }

    /// Name the phase stamped onto subsequent trace events.
    pub fn set_phase(&mut self, phase: &str) {
        phase.clone_into(&mut self.phase);
    }

    /// Advance `rank`'s clock by modelled (unmeasured) time.
    pub fn charge(&mut self, rank: usize, secs: f64) {
        assert!(secs >= 0.0, "a charge is a duration, not {secs}");
        self.clocks[rank] += secs;
    }

    /// A local step: run `f(rank)` for every rank through the host pool,
    /// each measured on its own. Its time, scaled to the machine profile
    /// and stretched by a straggler core, advances that rank's clock.
    /// Results come back in rank order; a panic in `f` reaches the caller.
    pub fn compute<R, F>(&mut self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let measured =
            netsim::parallel::run_indexed(self.size(), |rank| netsim::measure(|| f(rank)));
        let phase = self.trace.intern(&self.phase);
        let label = self.trace.intern("compute");
        let kind = EventKind::Task {
            label,
            speculative: false,
        };
        measured
            .into_iter()
            .enumerate()
            .map(|(rank, (out, host_s))| {
                // A straggler core stretches this rank's compute (and,
                // through the collectives, everyone waiting on it — SPMD
                // has no mitigation).
                let sim_s =
                    self.cluster.scale_compute(host_s) * self.cluster.faults().slowdown(rank);
                let start = self.clocks[rank];
                self.clocks[rank] += sim_s;
                self.compute_s += sim_s;
                let end = self.clocks[rank];
                push_event(&mut self.trace, rank, start, end, phase, kind);
                out
            })
            .collect()
    }

    /// Broadcast `value` from `root`, returning every rank's replica. Naive
    /// linear algorithm: the root sends to each rank in turn, so the
    /// completion time of the i-th destination grows linearly — the MPI
    /// behaviour the paper measures in Fig. 8.
    ///
    /// A replica larger than a quarter of a destination's fixed buffer
    /// moves in chunks (extra latency per chunk); one that cannot fit the
    /// buffer at all fails the collective with a typed
    /// [`EngineError::MemoryExhausted`].
    pub fn try_bcast<T: Payload + Clone>(
        &mut self,
        root: usize,
        value: T,
    ) -> Result<Vec<T>, EngineError> {
        let world = self.size();
        assert!(root < world, "bcast root {root} outside a world of {world}");
        let t0 = latest(&self.clocks);
        let bytes = value.wire_bytes();
        for r in 0..world {
            let buffer = self.rank_buffer(r, t0);
            if bytes > buffer {
                let what = "bcast replica in a fixed per-rank buffer";
                return Err(self.refuse(r, t0, buffer, bytes, what));
            }
        }
        let net = self.cluster.profile.network;
        let from_node = self.nodes[root];
        let mut completion = vec![0.0; world];
        let mut elapsed = 0.0;
        for r in (0..world).filter(|&r| r != root) {
            let leg_start = t0 + elapsed;
            let to_node = self.nodes[r];
            elapsed += chunked_leg(net, bytes, to_node == from_node, self.rank_buffer(r, t0));
            completion[r] = t0 + elapsed;
            self.bytes_broadcast += bytes;
            let kind = EventKind::Fetch {
                from_node,
                to_node,
                bytes,
            };
            self.record(r, leg_start, completion[r], kind);
        }
        // The root is done once its last send completes.
        completion[root] = t0 + elapsed;
        let kind = EventKind::Broadcast {
            bytes,
            dest_nodes: world - 1,
        };
        self.record(root, t0, completion[root], kind);
        self.complete(t0, completion);
        Ok(vec![value; world])
    }

    /// Gather `values` (one per rank, rank order) at `root`, returned in
    /// rank order. Non-root ranks continue as soon as their send is
    /// delivered; each send chunks against the root's fixed buffer. A
    /// gathered total the root cannot hold fails the collective with a
    /// typed [`EngineError::MemoryExhausted`] — the classic root-rank
    /// gather OOM, surfaced instead of crashing `mpirun`.
    pub fn try_gather<T: Payload>(
        &mut self,
        root: usize,
        values: Vec<T>,
    ) -> Result<Vec<T>, EngineError> {
        let world = self.size();
        assert!(
            root < world,
            "gather root {root} outside a world of {world}"
        );
        assert_eq!(values.len(), world, "a gather takes one value per rank");
        let t0 = latest(&self.clocks);
        let total: u64 = values.iter().map(Payload::wire_bytes).sum();
        let root_buffer = self.rank_buffer(root, t0);
        if total > root_buffer {
            let what = "gathered payloads in the root's fixed buffer";
            return Err(self.refuse(root, t0, root_buffer, total, what));
        }
        let net = self.cluster.profile.network;
        let to_node = self.nodes[root];
        let mut completion = vec![0.0; world];
        let mut elapsed = 0.0;
        for r in (0..world).filter(|&r| r != root) {
            let bytes = values[r].wire_bytes();
            let leg_start = t0 + elapsed;
            let from_node = self.nodes[r];
            elapsed += chunked_leg(net, bytes, from_node == to_node, root_buffer);
            completion[r] = t0 + elapsed;
            self.bytes_shuffled += bytes;
            let kind = EventKind::Fetch {
                from_node,
                to_node,
                bytes,
            };
            self.record(r, leg_start, completion[r], kind);
        }
        completion[root] = t0 + elapsed;
        self.complete(t0, completion);
        Ok(values)
    }

    /// The fixed receive buffer of `rank` at virtual time `at_s`: its
    /// node's (possibly fault-shrunk) budget split evenly among the
    /// node's cores, one rank per core.
    fn rank_buffer(&self, rank: usize, at_s: f64) -> u64 {
        self.cluster.mem_budget(self.nodes[rank], at_s) / self.cluster.profile.cores_per_node as u64
    }

    /// End a collective that arrived at `arrival`: every rank's clock
    /// moves to its completion, and the slowest completion is a restart
    /// checkpoint.
    fn complete(&mut self, arrival: f64, completion: Vec<f64>) {
        let end = latest(&completion);
        self.comm_s += (end - arrival).max(0.0);
        self.collective_ends.push(end);
        self.clocks = completion;
    }

    /// Fail a collective at `t0` because `rank`'s fixed buffer of
    /// `budget` bytes cannot hold `required`: every rank stops at `t0`.
    fn refuse(
        &mut self,
        rank: usize,
        t0: f64,
        budget: u64,
        required: u64,
        what: &str,
    ) -> EngineError {
        let node = self.nodes[rank];
        self.oom_kills += 1;
        self.record(rank, t0, t0, EventKind::OomKill { node });
        self.complete(t0, vec![t0; self.size()]);
        EngineError::MemoryExhausted {
            node,
            budget,
            required,
            at_s: t0,
            what: what.into(),
        }
    }

    /// Record an event of the current phase.
    fn record(&mut self, core: usize, start_s: f64, end_s: f64, kind: EventKind) {
        let phase = self.trace.intern(&self.phase);
        push_event(&mut self.trace, core, start_s, end_s, phase, kind);
    }

    /// End the job and account for the fault plan. SPMD has no task-level
    /// recovery: a node death, or a partition separating two rank-hosting
    /// nodes, before the job's end breaks the communicator.
    ///
    /// With `policy.max_attempts == 1` that is [`EngineError::WorkerLost`]
    /// — `mpirun` tears everything down. With more attempts the runtime
    /// restarts from the **last completed collective** before the fault
    /// (`restart_from_barrier`; from the start otherwise), paying failure
    /// detection, the policy's backoff, a fresh `mpirun` launch, and the
    /// re-execution of everything after the checkpoint. The allocation is
    /// assumed to be refilled with a replacement node, as a resource
    /// manager would.
    pub fn finish(
        self,
        policy: &RetryPolicy,
        restart_from_barrier: bool,
    ) -> Result<SimReport, EngineError> {
        let profile = mpi_profile();
        let world = self.size();
        let job_end = latest(&self.clocks).max(profile.startup_s);
        // SPMD abort-and-restart semantics, applied post hoc: the virtual
        // timeline of the job is fixed, so a death simply shifts everything
        // after its restart point. Walk the deaths in time order; each one
        // hitting a node that hosts ranks before the (shifted) job end costs
        // one attempt and a restart from the last completed collective
        // barrier (or from the start, without barrier checkpoints).
        let barriers = &self.collective_ends;
        let rank_nodes: BTreeSet<usize> = self.nodes.iter().copied().collect();
        let faults = self.cluster.faults();
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
                faults.node_death(node).map(|at_s| CommFault {
                    node,
                    at_s,
                    heal: None,
                })
            })
            .collect();
        let root_node = self.nodes[0];
        for p in faults.partitions() {
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
        // Sort the events into virtual-time order and renumber them. (Events
        // keep the original, unshifted timeline; restarts appear as recovery
        // events alongside it.)
        let mut trace = self.trace;
        let mut mark = |(start_s, end_s), label: &str, kind: fn(Sym) -> EventKind| {
            let phase = trace.intern("recovery");
            let label = trace.intern(label);
            push_event(&mut trace, 0, start_s, end_s, phase, kind(label));
        };
        for &window in &recovery_windows {
            mark(window, "restart", |label| EventKind::Recovery { label });
        }
        for &window in &fence_windows {
            mark(window, "communicator-fenced", |label| EventKind::Fenced {
                label,
            });
        }
        trace.sort_for_determinism();
        let mut report = SimReport {
            makespan_s: end,
            tasks: world,
            compute_s: self.compute_s,
            overhead_s: profile.startup_s * (1 + restarts) as f64,
            comm_s: self.comm_s,
            bytes_broadcast: self.bytes_broadcast,
            bytes_shuffled: self.bytes_shuffled,
            oom_kills: self.oom_kills,
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
        Ok(report)
    }
}

/// Append one event on `core` to `trace`.
fn push_event(
    trace: &mut Trace,
    core: usize,
    start_s: f64,
    end_s: f64,
    phase: Sym,
    kind: EventKind,
) {
    trace.record(TraceEvent {
        task: trace.next_id(),
        core,
        start_s,
        end_s: end_s.max(start_s),
        killed: false,
        ready_s: start_s,
        phase,
        kind,
    });
}
