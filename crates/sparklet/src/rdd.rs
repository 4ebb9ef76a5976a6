//! Resilient Distributed Datasets: lazy lineage, stages, actions.

use crate::context::{JobState, SparkContext};
use netsim::{lock, measure};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use taskframe::{fold_pairwise, EngineError, Payload, TaskCtx};

type Compute<T> = Arc<dyn Fn(usize, &TaskCtx) -> Vec<T> + Send + Sync>;
pub(crate) type Prepare = Arc<dyn Fn(&mut JobState) -> Result<Vec<f64>, EngineError> + Send + Sync>;

/// A distributed collection with lazy lineage.
///
/// Narrow transformations (`map`, `filter`, `flat_map`, `map_partitions`)
/// fuse into their parent's stage: the child's per-partition compute
/// closure invokes the parent's inline, so one task executes the whole
/// fused pipeline — exactly Spark's stage fusion. Wide transformations
/// (`group_by_key`, `reduce_by_key`) cut a stage boundary and shuffle.
pub struct Rdd<T> {
    ctx: SparkContext,
    n_partitions: usize,
    /// Runs any upstream stages (shuffles) and returns per-partition ready
    /// times for this stage's tasks.
    prepare: Prepare,
    compute: Compute<T>,
    /// Filled on first materialization iff `persisted` — one slot per
    /// partition (empty vec = never materialized), so the block manager
    /// can evict individual partitions under memory pressure; an evicted
    /// slot is `None` until lineage recomputes it.
    cache: Arc<Mutex<Vec<Option<Vec<T>>>>>,
    persisted: bool,
    /// Checkpointed RDDs write their partitions to replicated stable
    /// storage on first materialization; from then on lineage recovery
    /// restarts here instead of replaying upstream stages.
    checkpointed: bool,
    /// Whether the checkpoint write has happened (survives cache eviction
    /// — stable storage is not memory).
    ckpt_written: Arc<AtomicBool>,
    /// Static lineage depth in *stages* back to the nearest durable input
    /// (source data or a checkpoint). Narrow transforms fuse, so they do
    /// not deepen it; every shuffle adds one.
    depth: usize,
}

impl<T> Clone for Rdd<T> {
    fn clone(&self) -> Self {
        Rdd {
            ctx: self.ctx.clone(),
            n_partitions: self.n_partitions,
            prepare: Arc::clone(&self.prepare),
            compute: Arc::clone(&self.compute),
            cache: Arc::clone(&self.cache),
            persisted: self.persisted,
            checkpointed: self.checkpointed,
            ckpt_written: Arc::clone(&self.ckpt_written),
            depth: self.depth,
        }
    }
}

impl<T> Rdd<T>
where
    T: Payload + Clone + Send + Sync + 'static,
{
    pub(crate) fn parallelize(ctx: SparkContext, data: Vec<T>, n_partitions: usize) -> Self {
        assert!(n_partitions >= 1, "need at least one partition");
        let chunks = split_evenly(data, n_partitions);
        let chunks = Arc::new(chunks);
        Rdd {
            ctx,
            n_partitions,
            prepare: Arc::new(|state: &mut JobState| Ok(vec![state.frontier; 0])),
            compute: Arc::new(move |p, _ctx| chunks[p].clone()),
            cache: Arc::new(Mutex::new(Vec::new())),
            persisted: false,
            checkpointed: false,
            ckpt_written: Arc::new(AtomicBool::new(false)),
            depth: 1,
        }
    }

    /// Construct from explicit per-partition compute (used by shuffles and
    /// by `mdtask-core` to create one task per pre-partitioned data block).
    pub fn from_partitions(
        ctx: SparkContext,
        n_partitions: usize,
        compute: impl Fn(usize, &TaskCtx) -> Vec<T> + Send + Sync + 'static,
    ) -> Self {
        assert!(n_partitions >= 1, "need at least one partition");
        Rdd {
            ctx,
            n_partitions,
            prepare: Arc::new(|state: &mut JobState| Ok(vec![state.frontier; 0])),
            compute: Arc::new(compute),
            cache: Arc::new(Mutex::new(Vec::new())),
            persisted: false,
            checkpointed: false,
            ckpt_written: Arc::new(AtomicBool::new(false)),
            depth: 1,
        }
    }

    /// Internal all-fields constructor (shuffle outputs use it).
    pub(crate) fn assemble(
        ctx: SparkContext,
        n_partitions: usize,
        prepare: Prepare,
        compute: Compute<T>,
        depth: usize,
    ) -> Self {
        Rdd {
            ctx,
            n_partitions,
            prepare,
            compute,
            cache: Arc::new(Mutex::new(Vec::new())),
            persisted: false,
            checkpointed: false,
            ckpt_written: Arc::new(AtomicBool::new(false)),
            depth,
        }
    }

    pub fn n_partitions(&self) -> usize {
        self.n_partitions
    }

    pub fn context(&self) -> &SparkContext {
        &self.ctx
    }

    /// Mark for in-memory caching: the first action materializes, later
    /// actions reuse.
    pub fn persist(&self) -> Self {
        let mut c = self.clone();
        c.persisted = true;
        c
    }

    /// Mark for checkpointing (Spark's `RDD.checkpoint()`): the first
    /// materialization also writes every partition to replicated stable
    /// storage (charged as a `checkpoint` phase), and from then on this
    /// RDD's lineage is *truncated* — a lost downstream partition replays
    /// at most one stage instead of the whole upstream chain.
    pub fn checkpoint(&self) -> Self {
        let mut c = self.clone();
        c.persisted = true;
        c.checkpointed = true;
        c
    }

    /// Stages a lineage recompute must replay to rebuild one partition of
    /// this RDD: 1 once a checkpoint is materialized, the full static
    /// lineage depth otherwise.
    pub fn lineage_depth(&self) -> usize {
        if self.checkpointed && self.ckpt_written.load(Ordering::Relaxed) {
            1
        } else {
            self.depth
        }
    }

    /// Block-manager identity of partition `p`'s cache slot: stable across
    /// the RDD clones sharing one cache.
    fn cache_key(&self, p: usize) -> (usize, usize) {
        (Arc::as_ptr(&self.cache) as *const () as usize, p)
    }

    /// Static lineage depth (ignores any materialized checkpoint).
    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    /// Per-partition input, honouring this RDD's cache (used by fused
    /// children). A partition evicted under memory pressure is recomputed
    /// from lineage right here — inside the child's measured closure, so
    /// the recompute's cost lands on the task that needed the data, and
    /// the recomputed bits are definitionally identical (same pure
    /// closure, same input).
    fn partition_input(&self, p: usize, ctx: &TaskCtx) -> Vec<T> {
        if self.persisted {
            let cached = lock(&self.cache);
            match cached.get(p) {
                Some(Some(part)) => return part.clone(),
                Some(None) => {
                    // Materialized once, evicted since: count the lineage
                    // recompute (drained into the report at the next stage
                    // boundary — the job state is locked right now).
                    self.ctx
                        .inner
                        .pending_recomputes
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                None => {}
            }
        }
        (self.compute)(p, ctx)
    }

    /// Ready times for this RDD's stage: skip upstream work if this RDD is
    /// already fully cached.
    fn stage_ready(&self, state: &mut JobState) -> Result<Vec<f64>, EngineError> {
        if self.persisted {
            let cached = lock(&self.cache);
            if !cached.is_empty() && cached.iter().all(Option::is_some) {
                return Ok(vec![state.frontier; self.n_partitions]);
            }
        }
        let r = (self.prepare)(state)?;
        Ok(if r.is_empty() {
            vec![state.frontier; self.n_partitions]
        } else {
            r
        })
    }

    /// Execute this RDD's stage: one task per partition, stage barrier at
    /// the end. Returns materialized partitions, or a typed error once the
    /// driver's [`RetryPolicy`](netsim::RetryPolicy) gives up on a task.
    pub(crate) fn run_stage(&self, state: &mut JobState) -> Result<Vec<Vec<T>>, EngineError> {
        // Cached view of this RDD: a full hit is served from memory; a
        // partial hit (some partitions evicted under memory pressure)
        // recomputes only the missing partitions from lineage.
        let mut have: Vec<Option<Vec<T>>> = Vec::new();
        let mut materialized = false;
        if self.persisted {
            let cached = lock(&self.cache);
            materialized = !cached.is_empty();
            if materialized && cached.iter().all(Option::is_some) {
                let parts: Vec<Vec<T>> = cached.iter().map(|p| p.clone().unwrap()).collect();
                drop(cached);
                for p in 0..self.n_partitions {
                    state.touch_cache(self.cache_key(p));
                }
                return Ok(parts);
            }
            have = cached.clone();
        }
        if have.len() != self.n_partitions {
            have = (0..self.n_partitions).map(|_| None).collect();
        }
        let todo: Vec<usize> = (0..self.n_partitions)
            .filter(|&p| have[p].is_none())
            .collect();
        let ready = self.stage_ready(state)?;
        let profile = self.ctx.inner.profile.clone();
        let cluster = self.ctx.inner.cluster.clone();
        let dispatch_base = state.frontier;
        // Pass 1: execute every (not-cached) task for real and record its
        // measurement. Task ids are reserved up front and closures run
        // across host threads (`SimExecutor::host_threads`); the pool
        // returns results in `todo` order, so everything downstream —
        // durations, placement, caching — sees exactly the serial order.
        let base_task = state.next_task;
        state.next_task += todo.len();
        let host_threads = state.exec.host_threads();
        let measured = netsim::parallel::run_indexed_with(host_threads, todo.len(), |i| {
            let p = todo[i];
            let tctx = TaskCtx::new(base_task + i, p);
            let (out, host_s) = measure(|| (self.compute)(p, &tctx));
            (out, host_s, tctx.charged())
        });
        let mut results = Vec::with_capacity(todo.len());
        let mut durs = Vec::with_capacity(todo.len());
        for (out, host_s, charged) in measured {
            // Worker overhead is CPU work on the executing core, so it is
            // subject to the same per-core efficiency as the kernel.
            let dur = cluster.scale_compute(host_s + profile.worker_overhead_s)
                + charged
                + profile.ser_time(out.wire_bytes());
            durs.push(dur);
            results.push(out);
        }
        // Speculative execution: cap stragglers at threshold × median, as
        // if a backup attempt had been scheduled on an idle core. The same
        // cap is handed to the executor so injected straggler slowdowns
        // (fault plans) are bounded too.
        let mut spec_cap = None;
        if let Some(threshold) = state.speculation {
            let mut sorted = durs.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
            let median = sorted[sorted.len() / 2];
            let cap = threshold * median + cluster.scale_compute(profile.worker_overhead_s);
            for d in &mut durs {
                if *d > cap {
                    *d = cap;
                }
            }
            spec_cap = Some(cap);
        }
        // Pass 2: place tasks on the simulated cores. A lost attempt comes
        // back through the executor's recovery loop (lineage makes the
        // rerun possible); what the driver adds is one more central
        // dispatch per re-dispatch, and a map output registered under a
        // stale shuffle epoch — a zombie's, finished behind a cut after
        // the stage was re-dispatched — is discarded exactly once.
        let policy = state.policy;
        let opts = netsim::TaskOpts {
            speculation_cap: spec_cap,
        };
        let dispatch_s = profile.central_dispatch_s;
        let mut stage_end = state.frontier;
        let mut cores = Vec::with_capacity(durs.len());
        for (i, &dur) in durs.iter().enumerate() {
            let p = todo[i];
            // Central dispatch: the driver releases tasks one at a time.
            let release = ready[p].max(dispatch_base + (i + 1) as f64 * dispatch_s);
            let redispatch = netsim::Redispatch {
                at: |t| t + dispatch_s,
                overhead_s: dispatch_s,
                fence: "stale-shuffle-epoch",
                log: netsim::RecoveryLog::Caller,
            };
            let (placement, first_lost_s) = state
                .exec
                .run_task_recovering(release, dur, &policy, opts, redispatch)?;
            if let Some(lost_s) = first_lost_s {
                state
                    .exec
                    .record_recovery("re-dispatch", lost_s, placement.end);
                state
                    .exec
                    .report_mut()
                    .push_phase("recovery", lost_s, placement.end);
            }
            cores.push(placement.core);
            stage_end = stage_end.max(placement.end);
            state.exec.report_mut().overhead_s += profile.worker_overhead_s + dispatch_s;
        }
        // Stage-oriented scheduler: nothing downstream starts earlier.
        state.frontier = stage_end;
        // Evicted-then-recomputed partitions (plus any recomputes fused
        // parents performed inside task closures) are visible recovery.
        if materialized {
            state.exec.report_mut().recomputed_partitions += todo.len();
        }
        let pending = self
            .ctx
            .inner
            .pending_recomputes
            .swap(0, std::sync::atomic::Ordering::Relaxed);
        state.exec.report_mut().recomputed_partitions += pending;
        for (i, &p) in todo.iter().enumerate() {
            have[p] = Some(std::mem::take(&mut results[i]));
        }
        if self.persisted {
            // Insert the newly computed partitions into the block
            // manager, reserving node memory where each task ran. Under
            // pressure the LRU cached partitions are evicted first; if the
            // budget still cannot hold a partition it simply stays
            // uncached (MEMORY_ONLY semantics — the next access recomputes
            // it from lineage).
            for (i, &p) in todo.iter().enumerate() {
                let part = have[p].as_ref().expect("just computed");
                let bytes = part.wire_bytes();
                let node = cluster.node_of_core(cores[i]);
                if state.reserve_or_evict(node, bytes) {
                    {
                        let mut guard = lock(&self.cache);
                        if guard.len() != self.n_partitions {
                            guard.resize_with(self.n_partitions, || None);
                        }
                        guard[p] = Some(part.clone());
                    }
                    let evict_cache = Arc::clone(&self.cache);
                    state.register_cache(
                        self.cache_key(p),
                        node,
                        bytes,
                        Arc::new(move || {
                            if let Some(slot) = lock(&evict_cache).get_mut(p) {
                                *slot = None;
                            }
                        }),
                    );
                }
            }
            if self.checkpointed && !self.ckpt_written.load(Ordering::Relaxed) {
                // Synchronous write of every partition to replicated
                // stable storage; downstream recovery restarts here.
                let bytes: u64 = have
                    .iter()
                    .map(|p| p.as_ref().expect("materialized").wire_bytes())
                    .sum();
                let net = self.ctx.inner.cluster.profile.network;
                let t = net.transfer_time(bytes, false) + profile.per_transfer_overhead_s;
                let start = state.frontier;
                state.frontier += t;
                let end = state.frontier;
                state.exec.advance_makespan(end);
                let rep = state.exec.report_mut();
                rep.comm_s += t;
                rep.push_phase("checkpoint", start, end);
                self.ckpt_written.store(true, Ordering::Relaxed);
            }
        }
        state.last_stage_cores = cores;
        state.last_stage_durs = durs;
        Ok(have
            .into_iter()
            .map(|p| p.expect("all partitions materialized"))
            .collect())
    }

    // ---- narrow transformations (fuse into this stage) ----

    pub fn map<U, F>(&self, f: F) -> Rdd<U>
    where
        U: Payload + Clone + Send + Sync + 'static,
        F: Fn(T) -> U + Send + Sync + 'static,
    {
        let parent = self.clone();
        self.derive(move |p, ctx| parent.partition_input(p, ctx).into_iter().map(&f).collect())
    }

    pub fn filter<F>(&self, f: F) -> Rdd<T>
    where
        F: Fn(&T) -> bool + Send + Sync + 'static,
    {
        let parent = self.clone();
        self.derive(move |p, ctx| {
            parent
                .partition_input(p, ctx)
                .into_iter()
                .filter(|x| f(x))
                .collect()
        })
    }

    pub fn flat_map<U, F, I>(&self, f: F) -> Rdd<U>
    where
        U: Payload + Clone + Send + Sync + 'static,
        I: IntoIterator<Item = U>,
        F: Fn(T) -> I + Send + Sync + 'static,
    {
        let parent = self.clone();
        self.derive(move |p, ctx| {
            parent
                .partition_input(p, ctx)
                .into_iter()
                .flat_map(&f)
                .collect()
        })
    }

    /// Transform a whole partition at once (Spark's `mapPartitions`) — the
    /// shape the MD pipelines use for per-block kernels.
    pub fn map_partitions<U, F>(&self, f: F) -> Rdd<U>
    where
        U: Payload + Clone + Send + Sync + 'static,
        F: Fn(Vec<T>) -> Vec<U> + Send + Sync + 'static,
    {
        let parent = self.clone();
        self.derive(move |p, ctx| f(parent.partition_input(p, ctx)))
    }

    fn derive<U>(
        &self,
        compute: impl Fn(usize, &TaskCtx) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U>
    where
        U: Payload + Clone + Send + Sync + 'static,
    {
        let parent = self.clone();
        Rdd {
            ctx: self.ctx.clone(),
            n_partitions: self.n_partitions,
            prepare: Arc::new(move |state| parent.stage_ready(state)),
            compute: Arc::new(compute),
            cache: Arc::new(Mutex::new(Vec::new())),
            persisted: false,
            checkpointed: false,
            ckpt_written: Arc::new(AtomicBool::new(false)),
            // Narrow transforms fuse into the parent's stage.
            depth: self.depth,
        }
    }

    // ---- actions ----

    /// Materialize and pull all partitions to the driver, surfacing
    /// recovery-policy exhaustion as a typed error.
    pub fn try_collect(&self) -> Result<Vec<T>, EngineError> {
        let mut st = lock(&self.ctx.inner.state);
        let parts = self.run_stage(&mut st)?;
        // Driver gather: results stream back over the network.
        let profile = &self.ctx.inner.profile;
        let net = self.ctx.inner.cluster.profile.network;
        let mut gather = 0.0;
        for (p, part) in parts.iter().enumerate() {
            // Results come back from the core each task actually ran on
            // (cached RDDs skip placement, hence the length guard).
            let core = if st.last_stage_cores.len() == parts.len() {
                st.last_stage_cores[p]
            } else {
                p % self.ctx.inner.cluster.total_cores()
            };
            let same = self.ctx.inner.cluster.node_of_core(core) == 0;
            gather += net.transfer_time(part.wire_bytes(), same) + profile.per_transfer_overhead_s;
        }
        st.frontier += gather;
        let f = st.frontier;
        st.exec.advance_makespan(f);
        st.exec.report_mut().comm_s += gather;
        Ok(parts.into_iter().flatten().collect())
    }

    /// Materialize and pull all partitions to the driver.
    ///
    /// Panics if the job fails (use [`Self::try_collect`] under fault
    /// plans that can exhaust the retry policy).
    pub fn collect(&self) -> Vec<T> {
        self.try_collect().expect("sparklet job failed")
    }

    /// Materialize and count elements, surfacing job failure.
    fn try_count(&self) -> Result<usize, EngineError> {
        let mut st = lock(&self.ctx.inner.state);
        let parts = self.run_stage(&mut st)?;
        st.frontier += self.ctx.inner.cluster.profile.network.latency_s;
        let f = st.frontier;
        st.exec.advance_makespan(f);
        Ok(parts.iter().map(Vec::len).sum())
    }

    /// Materialize and count elements (panics on job failure).
    pub fn count(&self) -> usize {
        self.try_count().expect("sparklet job failed")
    }

    /// Reduce all elements with `f`, surfacing job failure.
    ///
    /// `f` must be associative; it need not be commutative. Each partition
    /// folds its own elements in order, one value per non-empty partition
    /// comes back to the driver (charged in partition order), and the
    /// driver combines those as a balanced pairwise tree
    /// ([`taskframe::fold_pairwise`]) that keeps partition order — so no
    /// value passes through more than ⌈log₂ partitions⌉ driver-side
    /// combines.
    pub fn try_reduce(&self, f: impl Fn(T, T) -> T) -> Result<Option<T>, EngineError> {
        let mut st = lock(&self.ctx.inner.state);
        let parts = self.run_stage(&mut st)?;
        let net = self.ctx.inner.cluster.profile.network;
        let mut gather = 0.0;
        let mut locals = Vec::with_capacity(parts.len());
        for part in parts {
            if let Some(local) = part.into_iter().reduce(&f) {
                gather += net.transfer_time(local.wire_bytes(), false);
                locals.push(local);
            }
        }
        st.frontier += gather;
        let fr = st.frontier;
        st.exec.advance_makespan(fr);
        st.exec.report_mut().comm_s += gather;
        Ok(fold_pairwise(locals, f))
    }

    /// [`Self::try_reduce`], panicking on job failure.
    pub fn reduce(&self, f: impl Fn(T, T) -> T) -> Option<T> {
        self.try_reduce(f).expect("sparklet job failed")
    }
}

/// Split a vector into `n` nearly-equal chunks (first `len % n` chunks get
/// one extra element), preserving order.
pub(crate) fn split_evenly<T>(data: Vec<T>, n: usize) -> Vec<Vec<T>> {
    let len = data.len();
    let base = len / n;
    let extra = len % n;
    let mut out = Vec::with_capacity(n);
    let mut it = data.into_iter();
    for i in 0..n {
        let take = base + usize::from(i < extra);
        out.push(it.by_ref().take(take).collect());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::split_evenly;

    #[test]
    fn split_evenly_covers_all() {
        let parts = split_evenly((0..10).collect::<Vec<_>>(), 3);
        assert_eq!(parts, vec![vec![0, 1, 2, 3], vec![4, 5, 6], vec![7, 8, 9]]);
        let empty = split_evenly(Vec::<u32>::new(), 4);
        assert_eq!(empty.len(), 4);
        assert!(empty.iter().all(Vec::is_empty));
    }

    #[test]
    fn split_more_parts_than_items() {
        let parts = split_evenly(vec![1, 2], 5);
        assert_eq!(parts.iter().filter(|p| !p.is_empty()).count(), 2);
        assert_eq!(parts.len(), 5);
    }
}
