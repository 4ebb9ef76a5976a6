//! Machines, networks and clusters.

use crate::fault::FaultPlan;

/// Point-to-point communication cost model: a transfer of `b` bytes costs
/// `latency + b / bandwidth`, with cheaper constants for intra-node
/// (shared-memory) transfers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    /// Inter-node message latency (seconds).
    pub latency_s: f64,
    /// Inter-node bandwidth (bytes/second).
    pub bandwidth_bps: f64,
    /// Intra-node (same node, cross process) latency.
    pub local_latency_s: f64,
    /// Intra-node bandwidth.
    pub local_bandwidth_bps: f64,
}

impl NetworkModel {
    /// FDR InfiniBand-class network (Comet: 56 Gb/s ≈ 7 GB/s, ~2 µs MPI
    /// latency; we use software-visible effective numbers).
    pub fn infiniband() -> Self {
        NetworkModel {
            latency_s: 5e-6,
            bandwidth_bps: 6.0e9,
            local_latency_s: 5e-7,
            local_bandwidth_bps: 2.0e10,
        }
    }

    /// Time to move `bytes` between two endpoints.
    pub fn transfer_time(&self, bytes: u64, same_node: bool) -> f64 {
        if same_node {
            self.local_latency_s + bytes as f64 / self.local_bandwidth_bps
        } else {
            self.latency_s + bytes as f64 / self.bandwidth_bps
        }
    }
}

/// A named machine configuration — node shape, relative per-core speed, and
/// network. Mirrors the two XSEDE systems the paper used.
#[derive(Clone, Debug)]
pub struct MachineProfile {
    pub name: String,
    /// Cores per node presented to the scheduler.
    pub cores_per_node: usize,
    /// Relative per-core throughput; simulated task duration =
    /// `measured_host_seconds / core_efficiency`.
    pub core_efficiency: f64,
    /// Usable memory per node (bytes) — the paper's runs hit real memory
    /// walls (cdist on 4M atoms, Dask worker restarts at 95% utilization),
    /// which the engines reproduce against this limit.
    pub mem_per_node: u64,
    /// Local-disk (scratch) bandwidth in bytes/second. Spill paths —
    /// Spark's MEMORY_AND_DISK overflow, Dask's worker spill threshold —
    /// charge `bytes / disk_bandwidth_bps` of virtual time per traversal.
    pub disk_bandwidth_bps: f64,
    pub network: NetworkModel,
}

impl MachineProfile {
    /// Virtual time for one traversal (write *or* read) of `bytes` through
    /// local scratch disk.
    pub fn disk_time(&self, bytes: u64) -> f64 {
        bytes as f64 / self.disk_bandwidth_bps
    }
}

/// SDSC Comet: 24 Haswell cores and 128 GB per node (§4).
pub fn comet() -> MachineProfile {
    MachineProfile {
        name: "comet".into(),
        cores_per_node: 24,
        core_efficiency: 1.0,
        mem_per_node: 128 * (1 << 30),
        disk_bandwidth_bps: 5.0e8, // node-local SSD scratch, ~500 MB/s
        network: NetworkModel::infiniband(),
    }
}

/// TACC Wrangler: 24 hyper-threading-enabled Haswell cores and 128 GB per
/// node. The paper's figures schedule 32 hardware threads per node
/// (32/1 … 256/8), and observe smaller speedups than Comet for the same
/// core count because hyper-threaded slots share execution units —
/// modelled as 32 schedulable cores of lower per-core efficiency.
pub fn wrangler() -> MachineProfile {
    MachineProfile {
        name: "wrangler".into(),
        cores_per_node: 32,
        core_efficiency: 0.72,
        mem_per_node: 128 * (1 << 30),
        disk_bandwidth_bps: 1.0e9, // Wrangler's flash-storage tier, ~1 GB/s
        network: NetworkModel::infiniband(),
    }
}

/// A small local profile for examples and tests.
pub fn laptop() -> MachineProfile {
    MachineProfile {
        name: "laptop".into(),
        cores_per_node: 8,
        core_efficiency: 1.0,
        mem_per_node: 16 * (1 << 30),
        disk_bandwidth_bps: 2.0e8, // laptop SSD under contention
        network: NetworkModel {
            latency_s: 2e-5,
            bandwidth_bps: 1.2e9,
            local_latency_s: 5e-7,
            local_bandwidth_bps: 2.0e10,
        },
    }
}

/// A fixed allocation of a machine profile — what a pilot/Spark/Dask/MPI
/// job actually gets to run on. The allocation may use only part of its
/// last node (the paper runs e.g. 16 cores of a 24-core node).
#[derive(Clone, Debug)]
pub struct Cluster {
    pub profile: MachineProfile,
    pub nodes: usize,
    /// Schedulable cores (≤ `nodes × cores_per_node`).
    cores: usize,
    /// Scripted failures this allocation will suffer (empty by default).
    faults: FaultPlan,
}

/// Fluent construction of a [`Cluster`]: start from a machine profile
/// (default [`laptop`]), tweak its shape, attach a fault plan.
///
/// ```
/// use netsim::{wrangler, Cluster, FaultPlan};
/// let c = Cluster::builder()
///     .profile(wrangler())
///     .nodes(8)
///     .cores_per_node(32)
///     .mem_budget(64 * (1 << 30))
///     .fault_plan(FaultPlan::none().kill_node(1, 5.0))
///     .build();
/// assert_eq!(c.total_cores(), 256);
/// ```
#[derive(Clone, Debug)]
pub struct ClusterBuilder {
    profile: MachineProfile,
    nodes: usize,
    /// Total-core override (`with_cores`-style ragged allocation).
    cores: Option<usize>,
    faults: FaultPlan,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder {
            profile: laptop(),
            nodes: 1,
            cores: None,
            faults: FaultPlan::none(),
        }
    }
}

impl ClusterBuilder {
    /// Start from a named machine profile (replaces any prior shape tweaks).
    pub fn profile(mut self, profile: MachineProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Number of whole nodes to allocate.
    pub fn nodes(mut self, nodes: usize) -> Self {
        assert!(nodes >= 1, "cluster needs at least one node");
        self.nodes = nodes;
        self
    }

    /// Schedulable cores per node.
    pub fn cores_per_node(mut self, cores: usize) -> Self {
        assert!(cores >= 1, "need at least one core per node");
        self.profile.cores_per_node = cores;
        self
    }

    /// Total schedulable cores (the paper's "Cores/Nodes" axis); the last
    /// node may be partially used. Overrides [`Self::nodes`].
    pub fn total_cores(mut self, cores: usize) -> Self {
        assert!(cores >= 1, "need at least one core");
        self.cores = Some(cores);
        self
    }

    /// Relative per-core throughput (see
    /// [`MachineProfile::core_efficiency`]).
    pub fn core_efficiency(mut self, efficiency: f64) -> Self {
        assert!(efficiency > 0.0, "core efficiency must be positive");
        self.profile.core_efficiency = efficiency;
        self
    }

    /// Usable memory per node, in bytes.
    pub fn mem_budget(mut self, bytes: u64) -> Self {
        self.profile.mem_per_node = bytes;
        self
    }

    /// Scripted failures this allocation will suffer.
    pub fn fault_plan(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    pub fn build(self) -> Cluster {
        let c = match self.cores {
            Some(cores) => Cluster::with_cores(self.profile, cores),
            None => Cluster::new(self.profile, self.nodes),
        };
        c.with_faults(self.faults)
    }
}

impl Cluster {
    /// Fluent builder: `Cluster::builder().nodes(8).cores_per_node(32)…`.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// Allocate `nodes` whole nodes.
    pub fn new(profile: MachineProfile, nodes: usize) -> Self {
        assert!(nodes >= 1, "cluster needs at least one node");
        let cores = nodes * profile.cores_per_node;
        Cluster {
            profile,
            nodes,
            cores,
            faults: FaultPlan::none(),
        }
    }

    /// Allocate by total core count, mirroring the paper's "Cores/Nodes"
    /// axis labels (e.g. 256 cores = 8 Wrangler nodes); the last node may
    /// be partially used.
    pub fn with_cores(profile: MachineProfile, cores: usize) -> Self {
        assert!(cores >= 1, "need at least one core");
        let nodes = cores.div_ceil(profile.cores_per_node);
        Cluster {
            profile,
            nodes,
            cores,
            faults: FaultPlan::none(),
        }
    }

    /// Attach a fault plan to this allocation: engines running on it will
    /// observe (and must recover from) the scripted failures.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The failures scripted for this allocation.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    pub fn total_cores(&self) -> usize {
        self.cores
    }

    /// Node hosting a given global core id.
    pub fn node_of_core(&self, core: usize) -> usize {
        assert!(core < self.total_cores(), "core {core} out of range");
        core / self.profile.cores_per_node
    }

    /// Convert measured host seconds into simulated seconds on this
    /// machine's cores.
    pub fn scale_compute(&self, host_secs: f64) -> f64 {
        host_secs / self.profile.core_efficiency
    }

    /// Effective memory budget of `node` at virtual time `at_s`: the
    /// machine's `mem_per_node`, overridden by whatever fault-plan memory
    /// shrink or set is in effect by then (never above the hardware
    /// capacity).
    pub fn mem_budget(&self, node: usize, at_s: f64) -> u64 {
        match self.faults.mem_limit(node, at_s) {
            Some(limit) => limit.min(self.profile.mem_per_node),
            None => self.profile.mem_per_node,
        }
    }

    /// Earliest scripted memory-budget change strictly after `after_s`, on
    /// any node, or `None` when the schedule is exhausted. Admission
    /// controllers that found no node able to host a unit *now* use this
    /// to decide between waiting for a future budget and refusing typed.
    pub fn next_mem_change_after(&self, after_s: f64) -> Option<f64> {
        self.faults.next_mem_change_after(after_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_components() {
        let n = NetworkModel::infiniband();
        let t = n.transfer_time(6_000_000_000, false);
        assert!((t - (5e-6 + 1.0)).abs() < 1e-9);
        assert!(n.transfer_time(1024, true) < n.transfer_time(1024, false));
    }

    #[test]
    fn zero_bytes_costs_latency_only() {
        let n = NetworkModel::infiniband();
        assert_eq!(n.transfer_time(0, false), n.latency_s);
    }

    #[test]
    fn cluster_core_math() {
        let c = Cluster::with_cores(comet(), 96);
        assert_eq!(c.nodes, 4);
        assert_eq!(c.total_cores(), 96);
        assert_eq!(c.node_of_core(0), 0);
        assert_eq!(c.node_of_core(23), 0);
        assert_eq!(c.node_of_core(24), 1);
        assert_eq!(c.node_of_core(95), 3);
    }

    #[test]
    fn sub_node_allocation_allowed() {
        let c = Cluster::with_cores(comet(), 16);
        assert_eq!(c.nodes, 1);
        assert_eq!(c.total_cores(), 16);
    }

    #[test]
    fn ragged_allocation_uses_partial_last_node() {
        let c = Cluster::with_cores(comet(), 36);
        assert_eq!(c.nodes, 2);
        assert_eq!(c.total_cores(), 36);
        assert_eq!(c.node_of_core(35), 1);
    }

    #[test]
    fn wrangler_cores_are_slower() {
        let comet = Cluster::new(comet(), 1);
        let wrang = Cluster::new(wrangler(), 1);
        assert!(wrang.scale_compute(1.0) > comet.scale_compute(1.0));
    }

    #[test]
    #[should_panic]
    fn out_of_range_core_panics() {
        Cluster::new(laptop(), 1).node_of_core(8);
    }

    #[test]
    fn builder_matches_positional() {
        let a = Cluster::builder().profile(comet()).nodes(4).build();
        let b = Cluster::new(comet(), 4);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.total_cores(), b.total_cores());
        assert_eq!(a.profile.name, b.profile.name);
    }

    #[test]
    fn builder_shape_overrides() {
        let c = Cluster::builder()
            .nodes(2)
            .cores_per_node(4)
            .mem_budget(1 << 20)
            .core_efficiency(0.5)
            .build();
        assert_eq!(c.total_cores(), 8);
        assert_eq!(c.profile.mem_per_node, 1 << 20);
        assert_eq!(c.scale_compute(1.0), 2.0);
    }

    #[test]
    fn builder_total_cores_ragged() {
        let c = Cluster::builder().profile(comet()).total_cores(36).build();
        assert_eq!(c.nodes, 2);
        assert_eq!(c.total_cores(), 36);
    }

    #[test]
    fn builder_attaches_faults() {
        let c = Cluster::builder()
            .nodes(2)
            .fault_plan(FaultPlan::none().kill_node(1, 3.0))
            .build();
        assert!(!c.faults().is_empty());
    }
}
