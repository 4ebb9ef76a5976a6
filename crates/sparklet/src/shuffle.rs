//! Wide (shuffle) transformations on key-value RDDs.
//!
//! A shuffle ends the current stage: the parent's map tasks all run
//! (barrier), their outputs are hash-partitioned into `n_out` buckets,
//! every map-partition→reduce-partition transfer is charged against the
//! network model, and the next stage's tasks become ready only after their
//! inbound fetches complete. Shuffle output is kept (Spark writes shuffle
//! files to disk, §3.1: "it allows quick access to those data"), so
//! repeated actions do not re-shuffle.

use crate::context::JobState;
use crate::rdd::Rdd;
use netsim::lock;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use taskframe::{EngineError, Payload};

/// Deterministic hash partitioner (SipHash with fixed keys, like Spark's
/// default `hashCode % numPartitions`).
pub(crate) fn bucket_of<K: Hash>(key: &K, n_out: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % n_out as u64) as usize
}

type Buckets<K, V> = Arc<Mutex<Option<Vec<Vec<(K, V)>>>>>;

impl<K, V> Rdd<(K, V)>
where
    K: Payload + Clone + Send + Sync + Eq + Hash + 'static,
    V: Payload + Clone + Send + Sync + 'static,
{
    /// Group values by key into `n_out` reduce partitions (full shuffle of
    /// every record).
    pub fn group_by_key(&self, n_out: usize) -> Rdd<(K, Vec<V>)> {
        let depth = self.depth() + 1;
        let (store, ctx, prepare) = self.shuffle_machinery(n_out, |part| part);
        Rdd::shuffled(ctx, n_out, depth, prepare, move |q, _tctx| {
            let guard = lock(&store);
            let bucket = &guard.as_ref().expect("shuffle materialized")[q];
            // Group preserving first-appearance order (deterministic).
            let mut order: Vec<K> = Vec::new();
            let mut groups: HashMap<K, Vec<V>> = HashMap::new();
            for (k, v) in bucket {
                groups
                    .entry(k.clone())
                    .or_insert_with(|| {
                        order.push(k.clone());
                        Vec::new()
                    })
                    .push(v.clone());
            }
            order
                .into_iter()
                .map(|k| {
                    let vs = groups.remove(&k).expect("key present");
                    (k, vs)
                })
                .collect()
        })
    }

    /// Combine values per key with map-side combining (Spark's
    /// `reduceByKey`): each map partition pre-reduces locally, shrinking
    /// the shuffled volume.
    pub fn reduce_by_key(
        &self,
        n_out: usize,
        f: impl Fn(V, V) -> V + Send + Sync + Clone + 'static,
    ) -> Rdd<(K, V)> {
        let combine = {
            let f = f.clone();
            move |part: Vec<(K, V)>| -> Vec<(K, V)> { combine_by_key(part, &f) }
        };
        let depth = self.depth() + 1;
        let (store, ctx, prepare) = self.shuffle_machinery(n_out, combine);
        Rdd::shuffled(ctx, n_out, depth, prepare, move |q, _tctx| {
            let guard = lock(&store);
            let bucket = guard.as_ref().expect("shuffle materialized")[q].clone();
            combine_by_key(bucket, &f)
        })
    }

    /// Shared shuffle plumbing: returns the bucket store, the context, and
    /// the prepare closure that runs the map stage + shuffle exactly once.
    #[allow(clippy::type_complexity)]
    fn shuffle_machinery(
        &self,
        n_out: usize,
        map_side: impl Fn(Vec<(K, V)>) -> Vec<(K, V)> + Send + Sync + 'static,
    ) -> (Buckets<K, V>, crate::SparkContext, crate::rdd::Prepare) {
        assert!(n_out >= 1, "need at least one reduce partition");
        let parent = self.clone();
        let ctx = self.context().clone();
        let store: Buckets<K, V> = Arc::new(Mutex::new(None));
        let prepare_store = Arc::clone(&store);
        let cluster = ctx.inner.cluster.clone();
        let profile = ctx.inner.profile.clone();
        let prepare = Arc::new(
            move |state: &mut JobState| -> Result<Vec<f64>, EngineError> {
                let mut guard = lock(&prepare_store);
                if guard.is_some() {
                    // Shuffle files already on disk: reducers are ready now.
                    return Ok(vec![state.frontier; n_out]);
                }
                let parts = parent.run_stage(state)?;
                let n_map = parts.len();
                let map_end = state.frontier;
                let total_cores = cluster.total_cores();
                // Map outputs live on the core each map task actually ran on
                // (run_stage records placements; a cached parent skips
                // placement, hence the length guard).
                let map_cores: Vec<usize> = if state.last_stage_cores.len() == n_map {
                    state.last_stage_cores.clone()
                } else {
                    (0..n_map).map(|p| p % total_cores).collect()
                };
                let map_durs: Vec<f64> = if state.last_stage_durs.len() == n_map {
                    state.last_stage_durs.clone()
                } else {
                    vec![0.0; n_map]
                };
                // The stage barrier drains every surviving core by `map_end`,
                // so reducer q lands on the q-th free core in id order.
                let reduce_nodes: Vec<usize> = (0..n_out)
                    .map(|q| cluster.node_of_core(state.exec.nth_free_core(map_end, q)))
                    .collect();
                // Hash-partition, tracking per (map, reduce) byte volumes.
                let mut buckets: Vec<Vec<(K, V)>> = (0..n_out).map(|_| Vec::new()).collect();
                let mut bytes_pq = vec![vec![0u64; n_out]; n_map];
                for (p, part) in parts.into_iter().enumerate() {
                    for kv in map_side(part) {
                        let q = bucket_of(&kv.0, n_out);
                        bytes_pq[p][q] += kv.wire_bytes();
                        buckets[q].push(kv);
                    }
                }
                let net = cluster.profile.network;
                let faults = cluster.faults().clone();
                let mut map_node: Vec<usize> =
                    map_cores.iter().map(|&c| cluster.node_of_core(c)).collect();
                let cost_once = |b: u64, same: bool| {
                    net.transfer_time(b, same)
                        + profile.per_transfer_overhead_s
                        + profile.ser_time(b)
                };
                // Nominal (fault-free) fetch schedule bounds the window during
                // which every map output must stay reachable.
                let mut nominal_max = 0.0f64;
                for q in 0..n_out {
                    let mut fetch = 0.0;
                    for (p, row) in bytes_pq.iter().enumerate() {
                        if row[q] > 0 {
                            fetch += cost_once(row[q], map_node[p] == reduce_nodes[q]);
                        }
                    }
                    nominal_max = nominal_max.max(fetch);
                }
                let horizon = map_end + nominal_max;
                // Lineage recovery: a map output whose node dies before the
                // fetches complete is recomputed on a surviving core, and its
                // slice becomes available only when the rerun finishes. The
                // recompute replays every un-checkpointed upstream stage for
                // that partition — `RDD::checkpoint()` truncates this to one.
                let replays = parent.lineage_depth().max(1);
                let policy = state.policy;
                let mut avail = vec![map_end; n_map];
                for p in 0..n_map {
                    let Some(died_at) = faults.node_death(map_node[p]) else {
                        continue;
                    };
                    if died_at >= horizon || bytes_pq[p].iter().all(|&b| b == 0) {
                        continue;
                    }
                    // Reducers discover the loss when their fetch fails.
                    let detect = died_at.max(map_end);
                    let prev_label = state.exec.task_label().to_string();
                    state.exec.set_task_label("recompute");
                    let placement = state.exec.run_task_policied(
                        detect + profile.central_dispatch_s,
                        map_durs[p] * replays as f64,
                        &policy,
                    )?;
                    state.exec.set_task_label(&prev_label);
                    map_node[p] = cluster.node_of_core(placement.core);
                    avail[p] = placement.end;
                    let rep = state.exec.report_mut();
                    rep.retries += 1;
                    rep.recomputed_partitions += replays;
                    rep.overhead_s += profile.central_dispatch_s + profile.worker_overhead_s;
                    rep.push_phase("recovery", detect, placement.end);
                }
                // Each reducer fetches its slice from every map output; a
                // fetch lost on the wire is paid for and re-sent (the bytes
                // count once — it is the same logical data).
                let mut ready = vec![map_end; n_out];
                let mut total_bytes = 0u64;
                let mut max_fetch = 0.0f64;
                let mut shuffle_end = map_end;
                let mut resent = 0usize;
                // Transient per-reducer shuffle buffers, released once the
                // fetched data is handed to the reduce tasks.
                let mut reservations: Vec<(usize, u64)> = Vec::new();
                for (q, r) in ready.iter_mut().enumerate() {
                    // The reducer starts fetching once every contributing map
                    // output is available, then pulls slices sequentially.
                    let mut start = map_end;
                    for (p, row) in bytes_pq.iter().enumerate() {
                        if row[q] > 0 {
                            start = start.max(avail[p]);
                        }
                    }
                    // Reserve the reducer's inbound buffer on its node;
                    // whatever the budget cannot hold (even after LRU
                    // eviction of cached partitions) spills to local disk
                    // — one write as slices arrive, one read back for the
                    // reduce — delaying this reducer by the disk time.
                    let node = reduce_nodes[q];
                    let inbound: u64 = bytes_pq.iter().map(|row| row[q]).sum();
                    let mut spilled = 0u64;
                    if inbound > 0 {
                        if state.reserve_or_evict(node, inbound) {
                            reservations.push((node, inbound));
                        } else {
                            let budget = state.exec.mem_budget(node, start);
                            let free = budget.saturating_sub(state.exec.mem_resident(node));
                            let reserved = free.min(inbound);
                            if reserved > 0 {
                                state.exec.force_reserve_memory(node, reserved);
                                reservations.push((node, reserved));
                            }
                            spilled = inbound - reserved;
                        }
                    }
                    let mut fetch = 0.0;
                    for (p, row) in bytes_pq.iter().enumerate() {
                        let b = row[q];
                        if b > 0 {
                            let (from, to) = (map_node[p], reduce_nodes[q]);
                            // A fetch cannot cross an active cut: it waits
                            // out the partition before going on the wire.
                            if faults.has_partitions() {
                                let at = faults.earliest_reach(from, to, start + fetch);
                                if at > start + fetch {
                                    fetch = at - start;
                                }
                            }
                            let base = cost_once(b, from == to);
                            let mut attempt = 0;
                            loop {
                                let t0 = start + fetch;
                                // Scripted link degradation inflates the
                                // wire time and adds its own loss coin on
                                // top of the plan-wide fetch-loss one.
                                let once = base * faults.link_latency_factor(from, to, t0);
                                if faults.fetch_lost(p, q, attempt)
                                    || faults.link_lost(from, to, attempt, t0)
                                {
                                    state.exec.record_fetch_lost(from, to, b, t0, t0 + once);
                                    fetch += once;
                                    resent += 1;
                                    attempt += 1;
                                } else {
                                    state.exec.record_fetch(from, to, b, t0, t0 + once);
                                    fetch += once;
                                    total_bytes += b;
                                    break;
                                }
                            }
                        }
                    }
                    if spilled > 0 {
                        let dt = 2.0 * cluster.profile.disk_time(spilled);
                        state
                            .exec
                            .record_spill(node, spilled, start + fetch, start + fetch + dt);
                        fetch += dt;
                    }
                    *r = start + fetch;
                    max_fetch = max_fetch.max(fetch);
                    shuffle_end = shuffle_end.max(*r);
                }
                for (node, bytes) in reservations {
                    state.exec.release_memory(node, bytes);
                }
                let rep = state.exec.report_mut();
                rep.retries += resent;
                rep.bytes_shuffled += total_bytes;
                rep.comm_s += max_fetch;
                rep.push_phase("shuffle", map_end, shuffle_end);
                *guard = Some(buckets);
                Ok(ready)
            },
        );
        (store, ctx, prepare)
    }
}

/// Fold values by key, preserving first-appearance key order.
fn combine_by_key<K, V>(part: Vec<(K, V)>, f: &impl Fn(V, V) -> V) -> Vec<(K, V)>
where
    K: Eq + Hash + Clone,
{
    let mut order: Vec<K> = Vec::new();
    let mut acc: HashMap<K, V> = HashMap::new();
    for (k, v) in part {
        match acc.remove(&k) {
            Some(prev) => {
                acc.insert(k, f(prev, v));
            }
            None => {
                order.push(k.clone());
                acc.insert(k, v);
            }
        }
    }
    order
        .into_iter()
        .map(|k| {
            let v = acc.remove(&k).expect("key present");
            (k, v)
        })
        .collect()
}

impl<T> Rdd<T>
where
    T: Payload + Clone + Send + Sync + 'static,
{
    /// Internal constructor for shuffle outputs. `depth` is the lineage
    /// depth of the shuffled RDD (parent's depth + 1 for the shuffle).
    pub(crate) fn shuffled(
        ctx: crate::SparkContext,
        n_partitions: usize,
        depth: usize,
        prepare: crate::rdd::Prepare,
        compute: impl Fn(usize, &taskframe::TaskCtx) -> Vec<T> + Send + Sync + 'static,
    ) -> Self {
        Rdd::assemble(ctx, n_partitions, prepare, Arc::new(compute), depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_is_deterministic_and_in_range() {
        for n in 1..8usize {
            for k in 0..100u32 {
                let b = bucket_of(&k, n);
                assert!(b < n);
                assert_eq!(b, bucket_of(&k, n));
            }
        }
    }

    #[test]
    fn combine_by_key_folds_in_order() {
        let out = combine_by_key(
            vec![("b", 1), ("a", 2), ("b", 3), ("a", 4)],
            &|x: i32, y: i32| x + y,
        );
        assert_eq!(out, vec![("b", 4), ("a", 6)]);
    }
}
