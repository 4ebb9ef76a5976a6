//! The distributed client, delayed tasks and the dynamic scheduler.

use netsim::{broadcast_time, lock, Cluster, RetryPolicy, SimExecutor, SimReport};
use std::sync::{Arc, Mutex};
use taskframe::{dask_profile, EngineError, FrameworkProfile, Payload, TaskCtx};

/// Dask's worker memory-manager thresholds (fractions of the node budget,
/// mirroring `distributed.worker.memory.{target,spill,pause,terminate}`).
/// Crossing `spill` writes managed keys to disk down to `target`; a worker
/// above `pause` stalls new tasks behind that write; a working set no
/// spill can make room for terminates the task with a typed error.
const MEM_TARGET_FRAC: f64 = 0.6;
const MEM_SPILL_FRAC: f64 = 0.7;
const MEM_PAUSE_FRAC: f64 = 0.8;
const MEM_TERMINATE_FRAC: f64 = 0.95;

struct DaskState {
    exec: SimExecutor,
    /// The central scheduler's serial timeline: each task submission passes
    /// through it once.
    sched_free: f64,
    next_task: usize,
    /// Recovery policy the scheduler applies when a worker's heartbeat
    /// stops: bounded reschedules with detection delay and backoff.
    policy: RetryPolicy,
}

/// Spill the node's managed memory down to the `target` fraction if it
/// sits above the `spill` threshold. Returns the disk time the write
/// took (0.0 when no spill was needed).
fn spill_down(st: &mut DaskState, cluster: &Cluster, node: usize, at_s: f64) -> f64 {
    let budget = st.exec.mem_budget(node, at_s);
    let threshold = (budget as f64 * MEM_SPILL_FRAC) as u64;
    let resident = st.exec.mem_resident(node);
    if resident <= threshold {
        return 0.0;
    }
    let target = (budget as f64 * MEM_TARGET_FRAC) as u64;
    let spill = resident - target.min(resident);
    let dt = cluster.profile.disk_time(spill);
    st.exec.record_spill(node, spill, at_s, at_s + dt);
    st.exec.release_memory(node, spill);
    dt
}

struct Inner {
    cluster: Cluster,
    profile: FrameworkProfile,
    state: Mutex<DaskState>,
}

/// Client connected to a Dask-Distributed-style cluster.
#[derive(Clone)]
pub struct DaskClient {
    inner: Arc<Inner>,
}

/// A computed task result carrying its virtual completion time.
///
/// Because the scheduler is purely dependency-driven (no barriers),
/// executing tasks eagerly while tracking `ready_at` is timing-equivalent
/// to building the graph first and calling `compute()`.
pub struct Delayed<T> {
    value: T,
    ready: f64,
    /// Node holding this future's key in worker memory (its bytes stay
    /// resident there until gathered); `None` for futures that never
    /// landed on a worker (errors, broadcast replicas).
    node: Option<usize>,
    /// Poisoned futures: the simulated task (or one of its dependencies)
    /// failed for good — the error propagates through dependents and
    /// surfaces at [`DaskClient::try_gather`], mirroring how a dask future
    /// holds an exception.
    error: Option<EngineError>,
}

impl<T> Delayed<T> {
    /// The task's (real) result.
    pub fn value(&self) -> &T {
        &self.value
    }

    /// Virtual time at which this result became available.
    pub fn ready_at(&self) -> f64 {
        self.ready
    }

    /// The simulated failure this future carries, if any.
    pub fn error(&self) -> Option<&EngineError> {
        self.error.as_ref()
    }
}

impl DaskClient {
    /// Connect to a cluster (charges dask-ssh/scheduler startup).
    pub fn new(cluster: Cluster) -> Self {
        Self::with_profile(cluster, dask_profile())
    }

    pub fn with_profile(cluster: Cluster, profile: FrameworkProfile) -> Self {
        let mut exec = SimExecutor::new(cluster.clone());
        exec.report_mut().overhead_s += profile.startup_s;
        exec.advance_makespan(profile.startup_s);
        let startup = profile.startup_s;
        let policy = profile.retry_policy();
        DaskClient {
            inner: Arc::new(Inner {
                cluster,
                profile,
                state: Mutex::new(DaskState {
                    exec,
                    sched_free: startup,
                    next_task: 0,
                    policy,
                }),
            }),
        }
    }

    /// Override the recovery policy (defaults to
    /// [`FrameworkProfile::retry_policy`]).
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        lock(&self.inner.state).policy = policy;
    }

    /// The recovery policy currently in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        lock(&self.inner.state).policy
    }

    pub fn cluster(&self) -> &Cluster {
        &self.inner.cluster
    }

    /// Run an event-time windowed streaming job over a delivery schedule.
    ///
    /// Dask's posture is per-frame tasks: every accepted frame becomes its
    /// own barrier-free task through the central scheduler (one dispatch
    /// overhead each). Window close, watermarks, late-frame disposition,
    /// backpressure, and per-window lineage replay follow
    /// [`netsim::stream::run_stream`]; the retry policy is the client's
    /// ([`DaskClient::set_retry_policy`]).
    pub fn run_stream(
        &self,
        source: &netsim::stream::SourceLog,
        job: &netsim::stream::StreamJob,
        frame_value: &mut dyn FnMut(usize) -> u64,
    ) -> Result<netsim::stream::StreamRun, EngineError> {
        use netsim::stream::{run_stream, DispatchMode, StreamRun};
        let overhead = self.inner.profile.central_dispatch_s + self.inner.profile.worker_overhead_s;
        let spec = job.spec(DispatchMode::PerFrame, overhead);
        let mut st = lock(&self.inner.state);
        let policy = st.policy;
        st.exec.set_phase("stream");
        let output = run_stream(&mut st.exec, source, &spec, &policy, frame_value)
            .map_err(EngineError::from)?;
        st.sched_free = st.sched_free.max(st.exec.all_idle_at());
        let report = st.exec.report().clone();
        Ok(StreamRun { output, report })
    }

    /// Core scheduling path: run `f` as a task whose dependencies complete
    /// at `deps_ready` and whose inputs need `dep_transfer_bytes` moved to
    /// the worker.
    fn submit_inner<T: Payload>(
        &self,
        deps_ready: f64,
        dep_transfer_bytes: u64,
        n_deps: usize,
        dep_error: Option<EngineError>,
        f: impl FnOnce(&TaskCtx) -> T,
    ) -> Delayed<T> {
        let mut st = lock(&self.inner.state);
        let tctx = TaskCtx::new(st.next_task, st.next_task);
        st.next_task += 1;
        let (out, host_s) = netsim::measure(|| f(&tctx));
        let charged = tctx.charged();
        self.schedule_measured(
            &mut st,
            deps_ready,
            dep_transfer_bytes,
            n_deps,
            dep_error,
            out,
            host_s,
            charged,
        )
    }

    /// The scheduling half of [`Self::submit_inner`]: consumes a task whose
    /// real closure already executed (result `out`, measured `host_s`,
    /// virtual-time charges `charged`) and walks it through the serial
    /// scheduler timeline, placement, retries and the worker memory
    /// manager. Splitting execution from scheduling lets
    /// [`Self::delayed_many`] run closures across host threads while this
    /// pass — the one that touches every piece of shared virtual-time
    /// state — stays serial, in submission order.
    #[allow(clippy::too_many_arguments)]
    fn schedule_measured<T: Payload>(
        &self,
        st: &mut DaskState,
        deps_ready: f64,
        dep_transfer_bytes: u64,
        n_deps: usize,
        dep_error: Option<EngineError>,
        out: T,
        host_s: f64,
        charged: f64,
    ) -> Delayed<T> {
        let profile = &self.inner.profile;
        let policy = st.policy;
        let net = self.inner.cluster.profile.network;
        // Scheduler handles this task once its deps are done.
        let dispatch = st.sched_free.max(deps_ready) + profile.central_dispatch_s;
        st.sched_free = dispatch;
        // Worker fetches remote inputs (single-node clusters fetch locally).
        let same_node = self.inner.cluster.nodes == 1;
        let fetch = if n_deps > 0 {
            // Dependency transfers ride the scheduler-to-worker link;
            // scripted degradation of that link inflates them. (Identity
            // multiply when the plan degrades nothing.)
            net.transfer_time(dep_transfer_bytes, same_node)
                * self
                    .inner
                    .cluster
                    .faults()
                    .link_latency_factor(0, 1, dispatch)
                + profile.per_transfer_overhead_s * n_deps as f64
        } else {
            0.0
        };
        // Worker overhead runs on the executing core: scale it too.
        let dur = self
            .inner
            .cluster
            .scale_compute(host_s + profile.worker_overhead_s)
            + charged
            + profile.ser_time(out.wire_bytes());
        // A poisoned dependency fails this task without scheduling it —
        // the scheduler cancels dependents of a failed key.
        if let Some(e) = dep_error {
            return Delayed {
                value: out,
                ready: deps_ready,
                node: None,
                error: Some(e),
            };
        }
        // The dynamic scheduler reschedules a lost worker's tasks on the
        // survivors through the executor's recovery loop; each reschedule
        // costs one more pass through the scheduler. A partitioned worker
        // the detector gave up on is alive and completes behind the cut:
        // when it reconnects its result carries a superseded transition
        // epoch and the scheduler ignores it — exactly once, never
        // double-set.
        let release = dispatch + fetch;
        let redispatch = netsim::Redispatch {
            at: |t| t + profile.central_dispatch_s,
            overhead_s: profile.central_dispatch_s,
            fence: "superseded-key",
            log: netsim::RecoveryLog::Caller,
        };
        let recovered = st.exec.run_task_recovering(
            release,
            dur,
            &policy,
            netsim::TaskOpts::default(),
            redispatch,
        );
        let (placement, first_lost_s) = match recovered {
            Ok(done) => done,
            Err(e) => {
                return Delayed {
                    value: out,
                    ready: release,
                    node: None,
                    error: Some(e.into()),
                }
            }
        };
        // --- Worker memory manager (Dask's spill/pause/terminate) ---
        // The task's inputs plus its result form its working set on the
        // node it landed on; the result key stays resident afterwards.
        let node = self.inner.cluster.node_of_core(placement.core);
        let ws = dep_transfer_bytes.saturating_add(out.wire_bytes());
        let budget = st.exec.mem_budget(node, placement.start);
        if ws as f64 > budget as f64 * MEM_TERMINATE_FRAC {
            // Beyond the terminate threshold no spill can make room: the
            // nanny kills the worker and the future holds a typed error.
            st.exec.record_oom_kill(node, placement.end);
            return Delayed {
                value: out,
                ready: placement.end,
                node: None,
                error: Some(EngineError::MemoryExhausted {
                    node,
                    budget,
                    required: ws,
                    at_s: placement.start,
                    what: "task working set".into(),
                }),
            };
        }
        let paused = st.exec.mem_resident(node) as f64 >= budget as f64 * MEM_PAUSE_FRAC;
        st.exec.force_reserve_memory(node, ws);
        let mut ready = placement.end;
        let spill_s = spill_down(st, &self.inner.cluster, node, placement.end);
        if spill_s > 0.0 {
            st.exec.report_mut().overhead_s += spill_s;
            if paused {
                // A paused worker admits the task only once the spill has
                // brought managed memory back under the threshold.
                ready += spill_s;
                st.exec.advance_makespan(ready);
            }
        }
        // Transient input copies drop when the task finishes; only the
        // result key stays resident (released at gather).
        st.exec.release_memory(node, dep_transfer_bytes);
        if let Some(lost_s) = first_lost_s {
            st.exec.record_recovery("reschedule", lost_s, placement.end);
            st.exec
                .report_mut()
                .push_phase("recovery", lost_s, placement.end);
        }
        if fetch > 0.0 {
            // Inputs stream from wherever the deps live — approximated as
            // node 0 — to the node the task actually landed on.
            let to_node = self.inner.cluster.node_of_core(placement.core);
            st.exec
                .record_fetch(0, to_node, dep_transfer_bytes, dispatch, dispatch + fetch);
        }
        let rep = st.exec.report_mut();
        rep.overhead_s += profile.worker_overhead_s + profile.central_dispatch_s;
        rep.comm_s += fetch;
        Delayed {
            value: out,
            ready,
            node: Some(node),
            error: None,
        }
    }

    /// Submit a leaf task (no dependencies) — `dask.delayed(f)()`.
    pub fn delayed<T: Payload>(&self, f: impl FnOnce(&TaskCtx) -> T) -> Delayed<T> {
        self.submit_inner(0.0, 0, 0, None, f)
    }

    /// Submit a batch of independent leaf tasks — semantically identical to
    /// calling [`Self::delayed`] in a loop (same task ids, same scheduler
    /// timeline, same memory-manager decisions, all in input order), but
    /// the real closures execute across host threads
    /// ([`SimExecutor::host_threads`] of them) before the serial
    /// scheduling pass consumes the measurements in submission order.
    pub fn delayed_many<T, F>(&self, fs: Vec<F>) -> Vec<Delayed<T>>
    where
        T: Payload + Send,
        F: FnOnce(&TaskCtx) -> T + Send,
    {
        let (base, host_threads) = {
            let mut st = lock(&self.inner.state);
            let base = st.next_task;
            st.next_task += fs.len();
            (base, st.exec.host_threads())
        };
        let measured = netsim::parallel::run_owned_with(host_threads, fs, |i, f| {
            let tctx = TaskCtx::new(base + i, base + i);
            let (out, host_s) = netsim::measure(|| f(&tctx));
            let charged = tctx.charged();
            (out, host_s, charged)
        });
        let mut st = lock(&self.inner.state);
        measured
            .into_iter()
            .map(|(out, host_s, charged)| {
                self.schedule_measured(&mut st, 0.0, 0, 0, None, out, host_s, charged)
            })
            .collect()
    }

    /// Submit a task depending on several inputs.
    pub fn combine<T: Payload, U: Payload>(
        &self,
        deps: &[&Delayed<T>],
        f: impl FnOnce(&[&T], &TaskCtx) -> U,
    ) -> Delayed<U> {
        let deps_ready = deps.iter().map(|d| d.ready).fold(0.0, f64::max);
        let bytes = deps.iter().map(|d| d.value.wire_bytes()).sum();
        let values: Vec<&T> = deps.iter().map(|d| &d.value).collect();
        let dep_error = deps.iter().find_map(|d| d.error.clone());
        self.submit_inner(deps_ready, bytes, deps.len(), dep_error, move |ctx| {
            f(&values, ctx)
        })
    }

    /// [`Self::combine`] of two inputs the task consumes — one rung of a
    /// reduction tree, whose operands nothing else reads — charged
    /// exactly like the borrowed form.
    pub fn combine_pair<T: Payload, U: Payload>(
        &self,
        a: Delayed<T>,
        b: Delayed<T>,
        f: impl FnOnce(T, T, &TaskCtx) -> U,
    ) -> Delayed<U> {
        let deps_ready = a.ready.max(b.ready);
        let bytes = a.value.wire_bytes() + b.value.wire_bytes();
        let dep_error = a.error.or(b.error);
        self.submit_inner(deps_ready, bytes, 2, dep_error, move |ctx| {
            f(a.value, b.value, ctx)
        })
    }

    /// Submit a batch of tasks that depend on `dep` but need no data
    /// transfer — the dependency is already resident on every worker (a
    /// broadcast value). Task ids, scheduler timeline and memory-manager
    /// decisions are those of submitting the tasks one by one in input
    /// order; only the real closure execution fans out across host
    /// threads.
    pub fn delayed_after_many<T, U, F>(&self, dep: &Delayed<T>, fs: Vec<F>) -> Vec<Delayed<U>>
    where
        T: Payload + Sync,
        U: Payload + Send,
        F: FnOnce(&T, &TaskCtx) -> U + Send,
    {
        let (base, host_threads) = {
            let mut st = lock(&self.inner.state);
            let base = st.next_task;
            st.next_task += fs.len();
            (base, st.exec.host_threads())
        };
        let value = &dep.value;
        let measured = netsim::parallel::run_owned_with(host_threads, fs, |i, f| {
            let tctx = TaskCtx::new(base + i, base + i);
            let (out, host_s) = netsim::measure(|| f(value, &tctx));
            let charged = tctx.charged();
            (out, host_s, charged)
        });
        let mut st = lock(&self.inner.state);
        measured
            .into_iter()
            .map(|(out, host_s, charged)| {
                self.schedule_measured(
                    &mut st,
                    dep.ready,
                    0,
                    0,
                    dep.error.clone(),
                    out,
                    host_s,
                    charged,
                )
            })
            .collect()
    }

    /// Pull results back to the client, in input order, surfacing the
    /// first poisoned future's error.
    pub fn try_gather<T: Payload + Clone>(
        &self,
        ds: &[Delayed<T>],
    ) -> Result<(Vec<T>, f64), EngineError> {
        if let Some(e) = ds.iter().find_map(|d| d.error.clone()) {
            return Err(e);
        }
        Ok(self.gather_unchecked(ds))
    }

    /// Pull results back to the client, in input order. Returns the values
    /// and the virtual time at which the gather completed.
    ///
    /// Panics if any future is poisoned (use [`Self::try_gather`] under
    /// fault plans that can exhaust the retry policy).
    pub fn gather<T: Payload + Clone>(&self, ds: &[Delayed<T>]) -> (Vec<T>, f64) {
        self.try_gather(ds).expect("dasklet job failed")
    }

    fn gather_unchecked<T: Payload + Clone>(&self, ds: &[Delayed<T>]) -> (Vec<T>, f64) {
        let mut st = lock(&self.inner.state);
        let net = self.inner.cluster.profile.network;
        let profile = &self.inner.profile;
        let mut t = ds.iter().map(|d| d.ready).fold(st.sched_free, f64::max);
        for d in ds {
            t += net.transfer_time(d.value.wire_bytes(), self.inner.cluster.nodes == 1)
                + profile.per_transfer_overhead_s;
        }
        let base = ds.iter().map(|d| d.ready).fold(0.0, f64::max);
        st.exec.report_mut().comm_s += t - base.max(st.sched_free.min(t));
        st.exec.advance_makespan(t);
        // The gathered keys move to the client; their worker-side bytes
        // are released.
        for d in ds {
            if let Some(node) = d.node {
                st.exec.release_memory(node, d.value.wire_bytes());
            }
        }
        (ds.iter().map(|d| d.value.clone()).collect(), t)
    }

    /// Distribute per-partition data to workers (`client.scatter(list)`).
    pub fn scatter<T: Payload>(&self, parts: Vec<T>) -> Result<Vec<Delayed<T>>, EngineError> {
        let mut out = Vec::with_capacity(parts.len());
        let mut st = lock(&self.inner.state);
        let net = self.inner.cluster.profile.network;
        let profile = &self.inner.profile;
        let mut t = st.sched_free;
        for (i, p) in parts.into_iter().enumerate() {
            let bytes = p.wire_bytes();
            t += net.transfer_time(bytes, self.inner.cluster.nodes == 1)
                + profile.per_transfer_overhead_s;
            // Scattered partitions live round-robin in worker memory until
            // a gather pulls them back.
            let node = i % self.inner.cluster.nodes;
            st.exec.force_reserve_memory(node, bytes);
            out.push(Delayed {
                value: p,
                ready: t,
                node: Some(node),
                error: None,
            });
        }
        let base = st.sched_free;
        let mut spill_t = 0.0f64;
        for node in 0..self.inner.cluster.nodes {
            spill_t = spill_t.max(spill_down(&mut st, &self.inner.cluster, node, t));
        }
        t += spill_t;
        st.sched_free = t;
        st.exec.advance_makespan(t);
        let rep = st.exec.report_mut();
        rep.comm_s += t - base - spill_t;
        rep.overhead_s += spill_t;
        Ok(out)
    }

    /// Replicate one value to every worker — `scatter(..., broadcast=True)`.
    ///
    /// Pays Dask's list-wise handling (per-element time, Fig. 8) and
    /// per-element scheduler state against the *worker* memory budget
    /// (`mem_per_node / cores_per_node`), reproducing the paper's failure
    /// to broadcast the 524k-atom system (§4.3.1).
    pub fn broadcast<T: Payload>(&self, value: T) -> Result<Delayed<T>, EngineError> {
        let bytes = value.wire_bytes();
        let items = value.item_count();
        let worker_mem = self.inner.cluster.profile.mem_per_node
            / self.inner.cluster.profile.cores_per_node as u64;
        let required = bytes + items * crate::LISTWISE_STATE_BYTES_PER_ITEM;
        if required > worker_mem {
            return Err(EngineError::OutOfMemory {
                node_mem: worker_mem,
                required,
                what: format!("list-wise broadcast of {items} elements"),
            });
        }
        let mut st = lock(&self.inner.state);
        let dests = self.inner.cluster.nodes.saturating_sub(1);
        let t = broadcast_time(
            &self.inner.cluster.profile.network,
            self.inner.profile.broadcast,
            bytes,
            items,
            dests,
        );
        let start = st.sched_free;
        st.sched_free += t;
        // Every worker node holds a replica; a node pushed over the spill
        // threshold writes managed keys to disk, stretching the broadcast
        // until the slowest node has made room.
        let replicated_at = st.sched_free;
        let mut spill_t = 0.0f64;
        for node in 0..self.inner.cluster.nodes {
            st.exec.force_reserve_memory(node, bytes);
            spill_t = spill_t.max(spill_down(
                &mut st,
                &self.inner.cluster,
                node,
                replicated_at,
            ));
        }
        st.sched_free += spill_t;
        let end = st.sched_free;
        st.exec.advance_makespan(end);
        st.exec.record_broadcast(bytes, dests, start, end);
        let rep = st.exec.report_mut();
        rep.comm_s += t;
        rep.overhead_s += spill_t;
        rep.bytes_broadcast += bytes * dests.max(1) as u64;
        rep.push_phase("broadcast", start, end);
        Ok(Delayed {
            value,
            ready: end,
            node: None,
            error: None,
        })
    }

    /// Charge client-side work (e.g. a final reduction on gathered
    /// results) to the virtual clock, recorded as a named phase.
    pub fn charge_driver(&self, phase: &str, secs: f64) {
        assert!(secs >= 0.0, "cannot charge negative time");
        let mut st = lock(&self.inner.state);
        // Client work begins after everything finished so far (gathers
        // advance the makespan but not the scheduler timeline).
        let start = st.sched_free.max(st.exec.report().makespan_s);
        st.sched_free = start + secs;
        let end = st.sched_free;
        st.exec.advance_makespan(end);
        st.exec.report_mut().push_phase(phase, start, end);
    }

    /// Record a named phase without advancing the clock.
    pub fn note_phase(&self, phase: &str, start: f64, end: f64) {
        let mut st = lock(&self.inner.state);
        st.exec.report_mut().push_phase(phase, start, end);
    }

    /// Start recording a typed event trace (carried in [`Self::report`]).
    pub fn enable_trace(&self) {
        lock(&self.inner.state).exec.enable_trace();
    }

    /// Start recording a *sampled* trace: keep only every `stride`-th task
    /// attempt (network/memory events stay complete). See
    /// [`netsim::SimExecutor::enable_trace_sampled`].
    pub fn enable_trace_sampled(&self, stride: u32) {
        lock(&self.inner.state).exec.enable_trace_sampled(stride);
    }

    /// Name the phase (and default task label) stamped onto subsequently
    /// traced events.
    pub fn set_phase(&self, phase: &str) {
        let mut st = lock(&self.inner.state);
        st.exec.set_phase(phase);
        st.exec.set_task_label(phase);
    }

    /// Current virtual frontier.
    pub fn now(&self) -> f64 {
        lock(&self.inner.state).sched_free
    }

    /// Snapshot the simulated execution report.
    pub fn report(&self) -> SimReport {
        let st = lock(&self.inner.state);
        let mut r = st.exec.report().clone();
        r.makespan_s = r.makespan_s.max(st.sched_free);
        r
    }
}

impl<T: Payload> Delayed<T> {
    /// Chain a dependent task — `dask.delayed(f)(self)`.
    pub fn then<U: Payload>(
        &self,
        client: &DaskClient,
        f: impl FnOnce(&T, &TaskCtx) -> U,
    ) -> Delayed<U> {
        client.submit_inner(
            self.ready,
            self.value.wire_bytes(),
            1,
            self.error.clone(),
            |ctx| f(&self.value, ctx),
        )
    }
}
