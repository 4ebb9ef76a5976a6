//! A RADICAL-Pilot-equivalent engine.
//!
//! Reproduces the architecture the paper holds responsible for
//! RADICAL-Pilot's performance envelope (§3.3, §4.1):
//!
//! * **Pilot-Job model** — a [`Session`] acquires the whole allocation up
//!   front (pilot bootstrap is expensive: tens of seconds) and then
//!   schedules Compute-Units onto it without further queue waits.
//! * **Database-mediated state machine** — every Compute-Unit walks the
//!   state ladder `NEW → UMGR_SCHEDULING → AGENT_SCHEDULING →
//!   AGENT_EXECUTING → DONE`, and **every transition is a round-trip
//!   through a single MongoDB** ([`SimDb`]). Because the database is one
//!   serial resource, job throughput plateaus at
//!   `1 / (transitions × db_latency)` — below 100 tasks/s — no matter how
//!   many nodes the pilot holds. This is the mechanism behind Fig. 2/3's
//!   RADICAL-Pilot curves and Fig. 9's overhead-dominated runtimes.
//! * **Filesystem staging, no shuffle** (Table 1) — unit inputs are
//!   *really written* to a staging directory and read back by the unit;
//!   there is no inter-task communication primitive at all. A
//!   compute-only unit has no input and touches no file.
//! * **Scale ceiling** — submitting more than 16,384 units is refused,
//!   matching "we were not able to scale RADICAL-Pilot to 32k or more
//!   tasks" (§4.1).

use mdio::StagingArea;
use netsim::{lock, Cluster, RetryPolicy, SimExecutor, SimReport};
use std::sync::{Mutex, OnceLock};
use taskframe::{pilot_profile, EngineError, FrameworkProfile, Payload, TaskCtx};

/// Compute-Unit states, in ladder order. Each transition is one DB
/// round-trip (the real RADICAL-Pilot has more states; four round-trips
/// per CU reproduces its measured per-task cost).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnitState {
    New,
    UmgrScheduling,
    AgentScheduling,
    AgentExecuting,
    Done,
}

/// The transitions that go through the database.
pub const DB_TRANSITIONS: usize = 4;

/// Maximum units per submission (paper §4.1).
pub const MAX_UNITS: usize = 16_384;

/// The shared MongoDB stand-in: a single serial timeline. Every state
/// transition of every unit must wait for the database to be free and then
/// occupies it for one round-trip latency.
#[derive(Debug)]
pub struct SimDb {
    free_at: f64,
    roundtrip_s: f64,
    ops: u64,
}

impl SimDb {
    pub fn new(roundtrip_s: f64) -> Self {
        assert!(roundtrip_s > 0.0);
        SimDb {
            free_at: 0.0,
            roundtrip_s,
            ops: 0,
        }
    }

    /// Perform one round-trip that becomes possible at virtual time `at`;
    /// returns its completion time.
    pub fn roundtrip(&mut self, at: f64) -> f64 {
        let done = self.free_at.max(at) + self.roundtrip_s;
        self.free_at = done;
        self.ops += 1;
        done
    }

    pub fn ops(&self) -> u64 {
        self.ops
    }
}

/// Description of one Compute-Unit: staged-in input bytes plus the
/// executable. The closure receives the staged input exactly as read back
/// from the filesystem.
/// The staged executable of a Compute-Unit.
pub type UnitTask<T> = Box<dyn FnOnce(&TaskCtx, &[u8]) -> T + Send>;

pub struct UnitDescription<T> {
    pub input: Vec<u8>,
    pub task: UnitTask<T>,
    /// Declared peak memory of the unit while executing (RADICAL-Pilot's
    /// CUD `memory` attribute). The agent scheduler admits only as many
    /// concurrent units per node as declared working sets fit the node's
    /// memory budget; `0` declares nothing and opts out of admission
    /// control.
    pub working_set_bytes: u64,
}

impl<T> UnitDescription<T> {
    pub fn new(input: Vec<u8>, task: impl FnOnce(&TaskCtx, &[u8]) -> T + Send + 'static) -> Self {
        UnitDescription {
            input,
            task: Box::new(task),
            working_set_bytes: 0,
        }
    }

    /// A unit with no staged input.
    pub fn compute_only(task: impl FnOnce(&TaskCtx, &[u8]) -> T + Send + 'static) -> Self {
        Self::new(Vec::new(), task)
    }

    /// Declare the unit's peak working-set size (enables admission
    /// control).
    pub fn with_working_set(mut self, bytes: u64) -> Self {
        self.working_set_bytes = bytes;
        self
    }
}

/// Output of a pilot run.
pub struct PilotRunOutput<T> {
    /// Unit results in submission order.
    pub results: Vec<T>,
    pub report: SimReport,
}

struct SessionState {
    exec: SimExecutor,
    db: SimDb,
    next_unit: usize,
    /// Recovery policy for failed units: bounded re-enqueues, with the
    /// agent's database-poll interval as the detection delay.
    policy: RetryPolicy,
}

/// A pilot session: one pilot holding `cluster`, one unit manager, one
/// staging area on the shared filesystem.
pub struct Session {
    cluster: Cluster,
    profile: FrameworkProfile,
    /// Created with the first unit that has input to stage.
    staging: OnceLock<StagingArea>,
    state: Mutex<SessionState>,
}

impl Drop for Session {
    fn drop(&mut self) {
        // Staged unit files are per-session scratch; remove them so long
        // experiment sweeps do not fill the shared filesystem.
        if let Some(area) = self.staging.get() {
            std::fs::remove_dir_all(area.root()).ok();
        }
    }
}

impl Session {
    /// Boot a pilot on the allocation. Charges the pilot bootstrap time.
    pub fn new(cluster: Cluster) -> Result<Self, EngineError> {
        Self::with_profile(cluster, pilot_profile())
    }

    pub fn with_profile(cluster: Cluster, profile: FrameworkProfile) -> Result<Self, EngineError> {
        let mut exec = SimExecutor::new(cluster.clone());
        exec.report_mut().overhead_s += profile.startup_s;
        exec.advance_makespan(profile.startup_s);
        let db = SimDb::new(profile.central_dispatch_s / DB_TRANSITIONS as f64);
        let policy = profile.retry_policy();
        Ok(Session {
            cluster,
            profile,
            staging: OnceLock::new(),
            state: Mutex::new(SessionState {
                exec,
                db,
                next_unit: 0,
                policy,
            }),
        })
    }

    /// Override the recovery policy (defaults to
    /// [`FrameworkProfile::retry_policy`]).
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        lock(&self.state).policy = policy;
    }

    /// The recovery policy currently in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        lock(&self.state).policy
    }

    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The session's staging directory, created on first use. Callers
    /// hold the state lock, so two never race to create it.
    fn staging(&self) -> Result<&StagingArea, EngineError> {
        if let Some(area) = self.staging.get() {
            return Ok(area);
        }
        let area = StagingArea::temp("pilot")
            .map_err(|e| EngineError::Unsupported(format!("cannot create staging area: {e}")))?;
        Ok(self.staging.get_or_init(|| area))
    }

    /// Run an event-time windowed streaming job over a delivery schedule.
    ///
    /// The pilot posture is continuous unit re-submission: frames only
    /// accumulate window state; when a window closes, its whole frame set
    /// runs as one Compute-Unit (one unit-dispatch overhead per window).
    /// Window close, watermarks, late-frame disposition, backpressure,
    /// and per-window lineage replay follow
    /// [`netsim::stream::run_stream`]; the retry policy is the session's
    /// ([`Session::set_retry_policy`]).
    pub fn run_stream(
        &self,
        source: &netsim::stream::SourceLog,
        job: &netsim::stream::StreamJob,
        frame_value: &mut dyn FnMut(usize) -> u64,
    ) -> Result<netsim::stream::StreamRun, EngineError> {
        use netsim::stream::{run_stream, DispatchMode, StreamRun};
        let overhead = self.profile.central_dispatch_s + self.profile.worker_overhead_s;
        let spec = job.spec(DispatchMode::UnitPerWindow, overhead);
        let mut st = lock(&self.state);
        let policy = st.policy;
        st.exec.set_phase("stream");
        let output = run_stream(&mut st.exec, source, &spec, &policy, frame_value)
            .map_err(EngineError::from)?;
        let report = st.exec.report().clone();
        Ok(StreamRun { output, report })
    }

    /// Submit units and wait for completion (the paper's usage mode: "all
    /// tasks were submitted simultaneously", §4.1).
    pub fn submit_and_wait<T: Payload + Send>(
        &self,
        units: Vec<UnitDescription<T>>,
    ) -> Result<PilotRunOutput<T>, EngineError> {
        if units.len() > MAX_UNITS {
            return Err(EngineError::Unsupported(format!(
                "RADICAL-Pilot cannot manage {} units (limit {MAX_UNITS}, §4.1)",
                units.len()
            )));
        }
        let mut st = lock(&self.state);
        let net = self.cluster.profile.network;
        let startup = self.profile.startup_s;
        let n = units.len();
        st.exec.set_task_label("unit");
        st.exec.set_phase("staging");
        // Phase 1 — client side, all units at once ("all tasks were
        // submitted simultaneously"): NEW and UMGR_SCHEDULING trips plus
        // input staging to the shared filesystem (real writes).
        let mut t_staged = Vec::with_capacity(n);
        let mut ids = Vec::with_capacity(n);
        let mut tasks = Vec::with_capacity(n);
        let mut wsets = Vec::with_capacity(n);
        for desc in units {
            wsets.push(desc.working_set_bytes);
            let unit_id = st.next_unit;
            st.next_unit += 1;
            let t_new = st.db.roundtrip(startup);
            let t_umgr = st.db.roundtrip(t_new);
            let input_bytes = desc.input.len() as u64;
            let t_in = t_umgr
                + net.transfer_time(input_bytes, false)
                + self.profile.per_transfer_overhead_s;
            if input_bytes > 0 {
                self.staging()?
                    .stage_in(unit_id, "input", &desc.input)
                    .map_err(|e| EngineError::Unsupported(format!("staging failed: {e}")))?;
                // Client → shared filesystem (node 0 hosts the FS track).
                st.exec.record_fetch(0, 0, input_bytes, t_umgr, t_in);
            }
            t_staged.push(t_in);
            st.exec.report_mut().bytes_staged += input_bytes;
            ids.push((unit_id, input_bytes > 0));
            tasks.push(desc.task);
        }
        // The units' real work — staged-input read-back plus the task
        // closure — is independent across units, so it executes across
        // host threads up front. The serial agent loop below consumes the
        // measurements in submission order, keeping DB trips, admission
        // control and placement identical to the serial run; a staging
        // error surfaces at the same per-unit point it would have serially.
        let host_threads = st.exec.host_threads();
        let computed: Vec<Result<(T, f64), EngineError>> = {
            let staging = self.staging.get();
            let ids = &ids;
            netsim::parallel::run_owned_with(host_threads, tasks, |i, task| {
                let (unit_id, has_input) = ids[i];
                let staged = match staging.filter(|_| has_input) {
                    Some(area) => area
                        .stage_out(unit_id, "input")
                        .map_err(|e| EngineError::Unsupported(format!("staging failed: {e}")))?,
                    None => Vec::new(),
                };
                let tctx = TaskCtx::new(unit_id, unit_id);
                let (out, host_s) = netsim::measure(move || task(&tctx, &staged));
                Ok((out, host_s))
            })
        };
        // Phase 2 — agent side: AGENT_SCHEDULING trip per unit, then
        // execution on the pilot's cores (the staged file is really read
        // back). Executions overlap in virtual time; only DB trips
        // serialize.
        let mut results = Vec::with_capacity(n);
        let mut t_exec_end = Vec::with_capacity(n);
        // Working sets of currently-executing units: `(node, ends_at,
        // bytes)`, released once the virtual clock passes their unit.
        let mut in_flight: Vec<(usize, f64, u64)> = Vec::new();
        let per_node = self.cluster.profile.cores_per_node;
        st.exec.set_phase("execute");
        for ((comp, ready), ws) in computed.into_iter().zip(&t_staged).zip(&wsets) {
            let ws = *ws;
            let mut t_sched = st.db.roundtrip(*ready);
            // Admission control: the agent scheduler admits only as many
            // concurrent units per node as declared working sets fit the
            // node's (possibly fault-shrunk) memory budget. Budgets are
            // *time-varying*: a unit no node can host right now may fit a
            // scripted later budget, so the scheduler holds the unit and
            // re-evaluates at each scheduled change. Only a unit no future
            // budget can ever host surfaces typed — it must not queue
            // forever.
            if ws > 0 {
                let mut t_adm = t_sched;
                loop {
                    let mut best = (0usize, 0u64);
                    let mut admitted_somewhere = false;
                    for node in 0..self.cluster.nodes {
                        let budget = st.exec.mem_budget(node, t_adm);
                        if budget > best.1 {
                            best = (node, budget);
                        }
                        let limit = (budget.checked_div(ws).unwrap_or(0) as usize).min(per_node);
                        st.exec.set_node_core_limit(node, limit);
                        admitted_somewhere |= limit > 0;
                    }
                    if admitted_somewhere {
                        break;
                    }
                    match self.cluster.next_mem_change_after(t_adm) {
                        Some(t_next) => t_adm = t_next,
                        None => {
                            return Err(EngineError::MemoryExhausted {
                                node: best.0,
                                budget: best.1,
                                required: ws,
                                at_s: t_adm,
                                what: "declared unit working set".into(),
                            });
                        }
                    }
                }
                if t_adm > t_sched {
                    st.exec.record_recovery("admission-wait", t_sched, t_adm);
                    t_sched = t_adm;
                }
            } else {
                for node in 0..self.cluster.nodes {
                    st.exec.set_node_core_limit(node, per_node);
                }
            }
            let (out, host_s) = comp?;
            // Agent spawn overhead runs on the core too.
            let dur = self
                .cluster
                .scale_compute(host_s + self.profile.worker_overhead_s);
            // A unit whose attempt is lost goes back to FAILED in the
            // database and the client re-enqueues it through the executor's
            // recovery loop, paying the scheduling round-trip again before a
            // surviving core picks it up. A partitioned agent the DB poll
            // gave up on is alive and finishes behind the cut; its eventual
            // state update carries a stale generation number and the DB
            // rejects it — exactly once.
            let policy = st.policy;
            let SessionState { exec, db, .. } = &mut *st;
            let redispatch = netsim::Redispatch {
                at: |t| db.roundtrip(t),
                overhead_s: 0.0,
                fence: "db-generation",
                log: netsim::RecoveryLog::Labelled("re-enqueue"),
            };
            let (placement, first_lost_s) = exec.run_task_recovering(
                t_sched,
                dur,
                &policy,
                netsim::TaskOpts::default(),
                redispatch,
            )?;
            if let Some(lost_s) = first_lost_s {
                exec.report_mut()
                    .push_phase("recovery", lost_s, placement.end);
            }
            if ws > 0 {
                // The unit's working set occupies its node for the
                // execution window; units that finished before this one
                // started have released theirs.
                in_flight.retain(|&(node, end, bytes)| {
                    if end <= placement.start {
                        st.exec.release_memory(node, bytes);
                        false
                    } else {
                        true
                    }
                });
                let node = self.cluster.node_of_core(placement.core);
                st.exec.force_reserve_memory(node, ws);
                in_flight.push((node, placement.end, ws));
            }
            let out_bytes = out.wire_bytes();
            let t_out = placement.end
                + net.transfer_time(out_bytes, false)
                + self.profile.per_transfer_overhead_s;
            if out_bytes > 0 {
                let from = self.cluster.node_of_core(placement.core);
                st.exec
                    .record_fetch(from, 0, out_bytes, placement.end, t_out);
            }
            let rep = st.exec.report_mut();
            rep.overhead_s += self.profile.central_dispatch_s + self.profile.worker_overhead_s;
            rep.bytes_staged += out_bytes;
            t_exec_end.push(t_out);
            results.push(out);
        }
        // Execution over: working sets drain and admission limits reset
        // for the next submission.
        for (node, _, bytes) in in_flight.drain(..) {
            st.exec.release_memory(node, bytes);
        }
        for node in 0..self.cluster.nodes {
            st.exec.set_node_core_limit(node, per_node);
        }
        // Phase 3 — completion: DONE trips flow back through the database
        // as results land.
        for t_out in t_exec_end {
            let t_done = st.db.roundtrip(t_out);
            st.exec.advance_makespan(t_done);
        }
        let report = st.exec.report().clone();
        Ok(PilotRunOutput { results, report })
    }

    /// Start recording a typed event trace (carried inside the report of
    /// subsequent submissions).
    pub fn enable_trace(&self) {
        lock(&self.state).exec.enable_trace();
    }

    /// Start recording a *sampled* trace: keep only every `stride`-th task
    /// attempt (network/memory events stay complete). See
    /// [`netsim::SimExecutor::enable_trace_sampled`].
    pub fn enable_trace_sampled(&self, stride: u32) {
        lock(&self.state).exec.enable_trace_sampled(stride);
    }

    /// Snapshot the report (after one or more submissions).
    pub fn report(&self) -> SimReport {
        lock(&self.state).exec.report().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::laptop;

    fn session() -> Session {
        Session::new(Cluster::new(laptop(), 2)).unwrap()
    }

    #[test]
    fn units_execute_and_return_in_order() {
        let s = session();
        let units: Vec<UnitDescription<u64>> = (0..10)
            .map(|i| UnitDescription::compute_only(move |_, _| i * i))
            .collect();
        let out = s.submit_and_wait(units).unwrap();
        assert_eq!(out.results, (0..10).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(out.report.tasks, 10);
    }

    #[test]
    fn staged_input_reaches_the_task() {
        let s = session();
        let units = vec![
            UnitDescription::new(b"hello".to_vec(), |_, input| input.len() as u64),
            UnitDescription::new(b"hi".to_vec(), |_, input| input.len() as u64),
        ];
        let out = s.submit_and_wait(units).unwrap();
        assert_eq!(out.results, vec![5, 2]);
        assert!(out.report.bytes_staged >= 7);
    }

    /// Only units with input touch the filesystem; the staging directory
    /// appears with the first of them and leaves with the session.
    #[test]
    fn staging_directory_is_made_for_input_only() {
        let s = session();
        let units = vec![
            UnitDescription::compute_only(|_, input: &[u8]| input.len() as u64),
            UnitDescription::new(Vec::new(), |_, input| input.len() as u64),
        ];
        assert_eq!(s.submit_and_wait(units).unwrap().results, vec![0, 0]);
        assert!(s.staging.get().is_none(), "no input, yet a directory");
        let units = vec![
            UnitDescription::compute_only(|_, input: &[u8]| input.len() as u64),
            UnitDescription::new(b"abc".to_vec(), |_, input| input.len() as u64),
        ];
        assert_eq!(s.submit_and_wait(units).unwrap().results, vec![0, 3]);
        let root = s.staging.get().expect("staged input").root().to_path_buf();
        assert!(root.is_dir());
        drop(s);
        assert!(!root.exists(), "session left {root:?} behind");
    }

    #[test]
    fn db_serializes_transitions() {
        let s = session();
        let n = 50;
        let units: Vec<UnitDescription<u64>> = (0..n)
            .map(|i| UnitDescription::compute_only(move |_, _| i))
            .collect();
        let out = s.submit_and_wait(units).unwrap();
        assert_eq!(lock(&s.state).db.ops(), n * DB_TRANSITIONS as u64);
        // Even with zero-work tasks, the DB floor bounds the makespan:
        // n tasks × 4 trips × 3 ms each (beyond the 35 s bootstrap).
        let floor = 35.0 + n as f64 * 0.012;
        assert!(
            out.report.makespan_s >= floor * 0.95,
            "makespan {} below DB floor {floor}",
            out.report.makespan_s
        );
    }

    #[test]
    fn throughput_plateaus_under_100_tasks_per_sec() {
        let s = session();
        let n = 200;
        let units: Vec<UnitDescription<u64>> = (0..n)
            .map(|_| UnitDescription::compute_only(|_, _| 0))
            .collect();
        let out = s.submit_and_wait(units).unwrap();
        let active = out.report.makespan_s - 35.0; // discount bootstrap
        let throughput = n as f64 / active;
        assert!(
            throughput < 100.0,
            "RP throughput {throughput} should plateau < 100/s"
        );
    }

    #[test]
    fn refuses_more_than_16k_units() {
        let s = session();
        let units: Vec<UnitDescription<u64>> = (0..MAX_UNITS + 1)
            .map(|_| UnitDescription::compute_only(|_, _| 0))
            .collect();
        match s.submit_and_wait(units) {
            Err(EngineError::Unsupported(msg)) => assert!(msg.contains("16384")),
            _ => panic!("must refuse 16k+1 units"),
        }
    }

    #[test]
    fn admission_control_serializes_fat_units() {
        // One node, 4 cores, 1 MiB budget. Units declaring 600 KiB
        // working sets fit only one at a time: admission caps the node at
        // a single usable core, so the two units execute back-to-back
        // instead of side-by-side.
        let cluster = Cluster::builder()
            .cores_per_node(4)
            .mem_budget(1 << 20)
            .build();
        let s = Session::new(cluster).unwrap();
        let units: Vec<UnitDescription<u64>> = (0..2)
            .map(|i| {
                UnitDescription::compute_only(move |_, _| {
                    // Real work long enough to overlap if both units were
                    // admitted side by side.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    i
                })
                .with_working_set(600 * 1024)
            })
            .collect();
        let out = s.submit_and_wait(units).unwrap();
        assert_eq!(out.results, vec![0, 1]);
        // Concurrent execution would have put 1.2 MiB on the node; the
        // admission limit of one unit keeps the high-water at a single
        // working set.
        let hw = out.report.mem_high_water[0];
        assert!(
            (600 * 1024..=1 << 20).contains(&hw),
            "admission must serialize fat units, high water {hw}"
        );
    }

    #[test]
    fn unit_too_fat_for_any_node_fails_typed() {
        let s = Session::new(Cluster::builder().nodes(2).mem_budget(1 << 20).build()).unwrap();
        let units = vec![UnitDescription::<u64>::compute_only(|_, _| 1).with_working_set(2 << 20)];
        match s.submit_and_wait(units) {
            Err(EngineError::MemoryExhausted { required, .. }) => {
                assert_eq!(required, 2 << 20);
            }
            other => panic!(
                "2 MiB working set on 1 MiB nodes must fail typed, got {:?}",
                other.map(|o| o.results)
            ),
        }
    }

    #[test]
    fn mem_shrink_fault_tightens_admission_mid_run() {
        // The budget shrinks to zero at t=0: even a modest declared
        // working set becomes unhostable and the submission fails typed
        // (never a hang).
        let plan = netsim::FaultPlan::none().shrink_memory(0, 0.0, 0);
        let s = Session::new(
            Cluster::builder()
                .mem_budget(1 << 20)
                .fault_plan(plan)
                .build(),
        )
        .unwrap();
        let units =
            vec![UnitDescription::<u64>::compute_only(|_, _| 1).with_working_set(64 * 1024)];
        match s.submit_and_wait(units) {
            Err(EngineError::MemoryExhausted { budget, .. }) => assert_eq!(budget, 0),
            other => panic!(
                "shrunken budget must surface typed, got {:?}",
                other.map(|o| o.results)
            ),
        }
    }

    #[test]
    fn admission_waits_for_a_budget_that_grows_after_submit() {
        // Regression: the budget is zero when the unit reaches the agent
        // scheduler, but a scripted memory *set* restores it at t=100.
        // The old admission decision looked only at "now" and refused
        // typed; the unit must instead wait for the restored budget and
        // complete.
        let plan = netsim::FaultPlan::none()
            .shrink_memory(0, 0.0, 0)
            .set_memory(0, 100.0, 1 << 20);
        let s = Session::new(
            Cluster::builder()
                .mem_budget(1 << 20)
                .fault_plan(plan)
                .build(),
        )
        .unwrap();
        s.enable_trace();
        let units =
            vec![UnitDescription::<u64>::compute_only(|_, _| 7).with_working_set(64 * 1024)];
        let out = s
            .submit_and_wait(units)
            .expect("a later budget must admit the unit");
        assert_eq!(out.results, vec![7]);
        // The wait is visible: execution starts no earlier than the
        // budget restoration, and the admission hold is a recovery event.
        assert!(
            out.report.makespan_s >= 100.0,
            "unit must wait for the t=100 budget, makespan {}",
            out.report.makespan_s
        );
        let trace = out.report.trace.as_ref().expect("traced run");
        assert!(
            trace
                .events
                .iter()
                .any(|e| trace.label_of(e) == "admission-wait"),
            "the admission hold must be recorded"
        );
    }

    #[test]
    fn simdb_timeline() {
        let mut db = SimDb::new(0.01);
        let a = db.roundtrip(0.0);
        let b = db.roundtrip(0.0); // queued behind a
        let c = db.roundtrip(5.0); // db idle until 5.0
        assert!((a - 0.01).abs() < 1e-12);
        assert!((b - 0.02).abs() < 1e-12);
        assert!((c - 5.01).abs() < 1e-12);
        assert_eq!(db.ops(), 3);
    }

    #[test]
    fn multiple_submissions_share_the_session() {
        let s = session();
        s.submit_and_wait(vec![UnitDescription::<u64>::compute_only(|_, _| 1)])
            .unwrap();
        let out = s
            .submit_and_wait(vec![UnitDescription::compute_only(|_, _| 2)])
            .unwrap();
        assert_eq!(out.report.tasks, 2, "report accumulates across submissions");
    }
}

mod bag_engine {
    //! [`taskframe::BagEngine`] adapter: one Compute-Unit per task ("for
    //! RADICAL-Pilot, all tasks were submitted simultaneously", §4.1).

    use crate::{Session, UnitDescription};
    use taskframe::{BagEngine, BagTask, EngineError};

    impl BagEngine for Session {
        fn name(&self) -> &'static str {
            "radical-pilot"
        }

        fn run_bag(
            &mut self,
            tasks: Vec<BagTask>,
        ) -> Result<(Vec<u64>, netsim::SimReport), EngineError> {
            let units: Vec<UnitDescription<u64>> = tasks
                .into_iter()
                .map(|t| {
                    UnitDescription::compute_only(move |ctx: &taskframe::TaskCtx, _: &[u8]| t(ctx))
                })
                .collect();
            let out = self.submit_and_wait(units)?;
            Ok((out.results, out.report))
        }
    }
}
