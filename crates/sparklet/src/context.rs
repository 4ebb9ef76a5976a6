//! Driver context: cluster handle, virtual-time state, broadcast variables.

use netsim::{broadcast_time, lock, Cluster, RetryPolicy, SimExecutor, SimReport};
use std::sync::{Arc, Mutex};
use taskframe::{spark_profile, EngineError, FrameworkProfile, Payload};

/// One cached partition registered with the driver's block manager: where
/// it lives, how big it is, when it was last used, and how to drop it.
pub(crate) struct CacheSlot {
    /// `(cache identity, partition index)` — identifies the partition
    /// across the RDD clones sharing one cache.
    pub key: (usize, usize),
    pub node: usize,
    pub bytes: u64,
    /// LRU clock value of the most recent use.
    pub seq: u64,
    /// Clears the partition from its RDD's cache (type-erased).
    pub evict: Arc<dyn Fn() + Send + Sync>,
}

pub(crate) struct JobState {
    pub exec: SimExecutor,
    /// Virtual time before which no new stage may start (stage barrier).
    pub frontier: f64,
    pub next_task: usize,
    /// Driver-side block-manager view of every cached partition, for LRU
    /// eviction under memory pressure.
    pub cache_slots: Vec<CacheSlot>,
    /// Monotonic LRU clock (bumped on every cache insert or hit).
    pub lru_clock: u64,
    /// Straggler mitigation (the paper's §6 future-work item): when set,
    /// a task running longer than `threshold × stage median` is assumed
    /// to have a speculative backup launched on another core, capping its
    /// effective duration at that bound.
    pub speculation: Option<f64>,
    /// Core each partition of the most recent stage actually ran on —
    /// the shuffle layer uses this for map-output locality instead of
    /// assuming a `p % cores` placement.
    pub last_stage_cores: Vec<usize>,
    /// Simulated duration of each task in the most recent stage; a lineage
    /// recompute of a lost map partition replays this cost.
    pub last_stage_durs: Vec<f64>,
    /// Recovery policy the driver applies to every task: bounded attempts,
    /// heartbeat detection delay, exponential re-dispatch backoff.
    pub policy: RetryPolicy,
}

impl JobState {
    /// Reserve `bytes` on `node`, LRU-evicting cached partitions on that
    /// node until the reservation fits. Returns `false` when even an empty
    /// cache leaves no room (the caller degrades further: spill, or skip
    /// caching and rely on lineage recompute).
    pub fn reserve_or_evict(&mut self, node: usize, bytes: u64) -> bool {
        loop {
            if self.exec.try_reserve_memory(node, bytes, self.frontier) {
                return true;
            }
            // Oldest cached partition on this node goes first.
            let victim = self
                .cache_slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.node == node)
                .min_by_key(|(_, s)| s.seq)
                .map(|(i, _)| i);
            let Some(i) = victim else {
                return false;
            };
            let slot = self.cache_slots.swap_remove(i);
            (slot.evict)();
            let at = self.frontier;
            self.exec.record_evict(slot.node, slot.bytes, at);
        }
    }

    /// Register a cached partition with the block manager.
    pub fn register_cache(
        &mut self,
        key: (usize, usize),
        node: usize,
        bytes: u64,
        evict: Arc<dyn Fn() + Send + Sync>,
    ) {
        self.lru_clock += 1;
        let seq = self.lru_clock;
        self.cache_slots.push(CacheSlot {
            key,
            node,
            bytes,
            seq,
            evict,
        });
    }

    /// Mark a cached partition as just used (moves it to the LRU tail).
    pub fn touch_cache(&mut self, key: (usize, usize)) {
        self.lru_clock += 1;
        let seq = self.lru_clock;
        if let Some(slot) = self.cache_slots.iter_mut().find(|s| s.key == key) {
            slot.seq = seq;
        }
    }
}

pub(crate) struct CtxInner {
    pub cluster: Cluster,
    pub profile: FrameworkProfile,
    pub state: Mutex<JobState>,
    /// Evicted-partition recomputes observed inside fused task closures
    /// (which run while the job state is locked); drained into the
    /// report's `recomputed_partitions` at the next stage boundary.
    pub pending_recomputes: std::sync::atomic::AtomicUsize,
}

/// The driver handle — equivalent of `pyspark.SparkContext`.
#[derive(Clone)]
pub struct SparkContext {
    pub(crate) inner: Arc<CtxInner>,
}

impl SparkContext {
    /// Connect a driver to a cluster (charges Spark's job startup).
    pub fn new(cluster: Cluster) -> Self {
        Self::with_profile(cluster, spark_profile())
    }

    /// A context with `profile` in place of the Spark framework profile.
    pub fn with_profile(cluster: Cluster, profile: FrameworkProfile) -> Self {
        let mut exec = SimExecutor::new(cluster.clone());
        exec.report_mut().overhead_s += profile.startup_s;
        let startup = profile.startup_s;
        let policy = profile.retry_policy();
        exec.advance_makespan(startup);
        SparkContext {
            inner: Arc::new(CtxInner {
                cluster,
                profile,
                pending_recomputes: std::sync::atomic::AtomicUsize::new(0),
                state: Mutex::new(JobState {
                    exec,
                    frontier: startup,
                    next_task: 0,
                    cache_slots: Vec::new(),
                    lru_clock: 0,
                    speculation: None,
                    last_stage_cores: Vec::new(),
                    last_stage_durs: Vec::new(),
                    policy,
                }),
            }),
        }
    }

    /// Override the recovery policy (defaults to
    /// [`FrameworkProfile::retry_policy`]). Applies to every task dispatched
    /// after the call.
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

    /// Distribute a dataset into `n_partitions` as an RDD.
    pub fn parallelize<T>(&self, data: Vec<T>, n_partitions: usize) -> crate::Rdd<T>
    where
        T: Payload + Clone + Send + Sync + 'static,
    {
        crate::Rdd::parallelize(self.clone(), data, n_partitions)
    }

    /// Ship a read-only value to every node once (torrent-style tree
    /// broadcast — cost grows with log of node count, Fig. 8).
    ///
    /// Fails if a per-node replica cannot fit in node memory.
    pub fn broadcast<T>(&self, value: T) -> Result<Broadcast<T>, EngineError>
    where
        T: Payload,
    {
        let bytes = value.wire_bytes();
        let items = value.item_count();
        let mem = self.inner.cluster.profile.mem_per_node;
        if bytes > mem {
            return Err(EngineError::OutOfMemory {
                node_mem: mem,
                required: bytes,
                what: "broadcast replica".into(),
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
        ) + self.inner.profile.ser_time(bytes)
            + self.inner.profile.per_transfer_overhead_s * dests.max(1) as f64;
        let start = st.frontier;
        st.frontier += t;
        // Every node holds a replica. Under memory pressure a node first
        // LRU-evicts cached partitions, then falls back to a disk-backed
        // replica (Spark's MEMORY_AND_DISK broadcast blocks): the spill
        // write costs disk bandwidth and stretches the broadcast until the
        // slowest node has its copy.
        let mut spill_t = 0.0f64;
        for node in 0..self.inner.cluster.nodes {
            if !st.reserve_or_evict(node, bytes) {
                let dt = self.inner.cluster.profile.disk_time(bytes);
                let s = st.frontier;
                st.exec.record_spill(node, bytes, s, s + dt);
                spill_t = spill_t.max(dt);
            }
        }
        st.frontier += spill_t;
        let end = st.frontier;
        st.exec.advance_makespan(end);
        st.exec.record_broadcast(bytes, dests, start, end);
        let r = st.exec.report_mut();
        r.comm_s += t;
        r.overhead_s += spill_t;
        r.bytes_broadcast += bytes * dests.max(1) as u64;
        r.push_phase("broadcast", start, end);
        Ok(Broadcast {
            value: Arc::new(value),
        })
    }

    /// Enable speculative execution: tasks exceeding `threshold ×` the
    /// stage's median duration are capped at that bound, as if a backup
    /// copy had been launched on an idle core (Spark's
    /// `spark.speculation`; the paper's §6 straggler-mitigation item).
    pub fn enable_speculation(&self, threshold: f64) {
        assert!(threshold > 1.0, "speculation threshold must exceed 1.0");
        lock(&self.inner.state).speculation = Some(threshold);
    }

    /// Charge driver-side work (e.g. a final connected-components pass on
    /// collected results) to the virtual clock, recorded as a named phase.
    pub fn charge_driver(&self, phase: &str, secs: f64) {
        assert!(secs >= 0.0, "cannot charge negative time");
        let mut st = lock(&self.inner.state);
        let start = st.frontier;
        st.frontier += secs;
        let end = st.frontier;
        st.exec.advance_makespan(end);
        st.exec.report_mut().push_phase(phase, start, end);
    }

    /// Record a named phase covering `[start, end]` in virtual time
    /// without advancing the clock (annotation only).
    pub fn note_phase(&self, phase: &str, start: f64, end: f64) {
        let mut st = lock(&self.inner.state);
        st.exec.report_mut().push_phase(phase, start, end);
    }

    /// Start recording a typed event trace (see [`netsim::Trace`]); the
    /// trace is carried inside [`Self::report`].
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
    /// traced events — drivers call this at algorithm-phase boundaries.
    pub fn set_phase(&self, phase: &str) {
        let mut st = lock(&self.inner.state);
        st.exec.set_phase(phase);
        st.exec.set_task_label(phase);
    }

    /// Current virtual frontier (end of all completed work).
    pub fn now(&self) -> f64 {
        lock(&self.inner.state).frontier
    }

    /// Snapshot of the simulated execution report so far.
    pub fn report(&self) -> SimReport {
        let mut st = lock(&self.inner.state);
        let pending = self
            .inner
            .pending_recomputes
            .swap(0, std::sync::atomic::Ordering::Relaxed);
        st.exec.report_mut().recomputed_partitions += pending;
        let mut r = st.exec.report().clone();
        r.makespan_s = r.makespan_s.max(st.frontier);
        r
    }
}

/// A broadcast variable: cheap to clone into task closures, shared
/// storage per node.
pub struct Broadcast<T> {
    value: Arc<T>,
}

impl<T> Clone for Broadcast<T> {
    fn clone(&self) -> Self {
        Broadcast {
            value: Arc::clone(&self.value),
        }
    }
}

impl<T> Broadcast<T> {
    /// Access the broadcast value.
    pub fn value(&self) -> &T {
        &self.value
    }
}
