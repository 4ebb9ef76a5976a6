//! Virtual-time streaming: event-time windows, watermarks, backpressure,
//! and per-window lineage recovery.
//!
//! Batch analysis re-reads a finished trajectory; *in-situ* analysis
//! consumes frames while the producer (the MD engine) is still writing
//! them. That changes the correctness contract: the input is unbounded,
//! frames arrive out of order, and "retry from scratch" is not an option.
//! This module provides the shared runner all four engine crates wrap:
//!
//! * **Event time vs. arrival time.** Each frame carries the simulation
//!   clock it was generated at (`event_s`); delivery (`arrive_s`) is
//!   shifted by transport latency, jitter, scripted delays, and producer
//!   stalls. Windows are laid out in *event* time.
//! * **Watermarks.** The watermark is `max(event_s seen) - lateness`: the
//!   pipeline's claim that no frame with an older stamp will still
//!   matter. A window closes when the watermark passes its end. Frames
//!   arriving behind the watermark are *late* and get a typed
//!   [`LateDisposition`] instead of silent loss.
//! * **Backpressure.** Open-window state is charged to the per-node
//!   memory ledger. When the home node's budget is exhausted the runner
//!   pauses ingestion (an [`EventKind::Backpressure`] trace interval) and
//!   waits for a scheduled budget change rather than OOM-killing; if no
//!   change is scheduled, it fails *typed* — never hangs.
//! * **Per-window lineage.** A node death loses exactly the window state
//!   resident there. Recovery replays only the frames covered by the lost
//!   windows, on a surviving node — not the whole job.
//!
//! Everything is placed with declared virtual durations (no host-time
//! measurement), so the resulting [`SimReport`]s are bit-identical at any
//! host thread count.

use std::collections::BTreeMap;

use crate::cluster::Cluster;
use crate::executor::SimExecutor;
use crate::fault::mix;
use crate::policy::{PolicyError, RetryPolicy};
use crate::report::SimReport;

/// Event-time window layout: window `k` covers
/// `[k·slide_s, k·slide_s + window_s)`. `slide_s == window_s` is a
/// tumbling window; `slide_s < window_s` makes windows overlap (a frame
/// belongs to several).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowSpec {
    pub window_s: f64,
    pub slide_s: f64,
    /// Allowed lateness: the watermark trails the newest event stamp by
    /// this much, keeping windows open for mild reordering.
    pub lateness_s: f64,
}

impl WindowSpec {
    /// Non-overlapping windows of `window_s` with `lateness_s` allowance.
    pub fn tumbling(window_s: f64, lateness_s: f64) -> Self {
        Self::sliding(window_s, window_s, lateness_s)
    }

    /// Overlapping windows: one opens every `slide_s`.
    pub fn sliding(window_s: f64, slide_s: f64, lateness_s: f64) -> Self {
        assert!(window_s > 0.0, "window must be positive");
        assert!(slide_s > 0.0, "slide must be positive");
        assert!(
            slide_s <= window_s,
            "slide beyond the window would drop frames by construction"
        );
        assert!(lateness_s >= 0.0, "lateness must be non-negative");
        WindowSpec {
            window_s,
            slide_s,
            lateness_s,
        }
    }

    fn start_of(&self, id: usize) -> f64 {
        id as f64 * self.slide_s
    }

    fn end_of(&self, id: usize) -> f64 {
        self.start_of(id) + self.window_s
    }

    /// Inclusive id range of the windows covering an event stamp. The
    /// epsilon absorbs float noise when stamps land exactly on window
    /// boundaries (starts are inclusive, ends exclusive).
    fn ids_for(&self, event_s: f64) -> (usize, usize) {
        const EPS: f64 = 1e-9;
        let hi = ((event_s + EPS) / self.slide_s).floor().max(0.0) as usize;
        let lo = ((event_s - self.window_s) / self.slide_s + EPS).floor() + 1.0;
        (lo.max(0.0) as usize, hi)
    }
}

/// What happens to a frame that arrives behind the watermark, after its
/// window(s) already closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LateDisposition {
    /// Merge the frame into the already-emitted window result and mark the
    /// result amended (corrected-result semantics). Falls back to the side
    /// channel when the window never produced a result to amend.
    Absorb,
    /// Keep the window result as emitted; route the late frame to a typed
    /// side-channel record the caller can inspect.
    SideChannel,
    /// Drop the frame with a typed rejection record.
    Reject,
}

/// How an engine turns accepted frames into simulated compute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchMode {
    /// One barrier-free task per frame (dasklet).
    PerFrame,
    /// Buffer `n` frames, dispatch them as one stage (sparklet).
    MicroBatch(usize),
    /// No per-frame tasks; one compute unit per closing window, re-submitted
    /// continuously (pilot).
    UnitPerWindow,
    /// A ring buffer of `n` slots; a full ring dispatches as one collective
    /// step, and the next step waits for it (mpilike).
    RingCollective(usize),
}

/// The full streaming job description an engine wrapper hands the runner.
#[derive(Clone, Debug)]
pub struct StreamSpec {
    pub window: WindowSpec,
    pub late: LateDisposition,
    pub mode: DispatchMode,
    /// Declared virtual compute per frame. Declared — not measured — so
    /// reports are bit-identical across host thread counts.
    pub frame_cost_s: f64,
    /// Resident window state charged to the home node's memory ledger per
    /// (frame, window) membership, released when the window closes.
    pub state_bytes_per_frame: u64,
    /// Driver overhead charged per dispatch act (frame, batch, or unit).
    pub dispatch_overhead_s: f64,
}

/// The engine-agnostic half of a streaming job: what the *user* chooses
/// (window layout, late-frame policy, declared per-frame cost and state
/// footprint). Engines complete it into a [`StreamSpec`] with their own
/// dispatch mode and driver overhead.
#[derive(Clone, Debug)]
pub struct StreamJob {
    pub window: WindowSpec,
    pub late: LateDisposition,
    pub frame_cost_s: f64,
    pub state_bytes_per_frame: u64,
}

impl StreamJob {
    pub fn new(window: WindowSpec) -> Self {
        StreamJob {
            window,
            late: LateDisposition::SideChannel,
            frame_cost_s: 0.01,
            state_bytes_per_frame: 1 << 20,
        }
    }

    pub fn late(mut self, late: LateDisposition) -> Self {
        self.late = late;
        self
    }

    pub fn frame_cost(mut self, secs: f64) -> Self {
        assert!(secs >= 0.0, "frame cost must be non-negative");
        self.frame_cost_s = secs;
        self
    }

    pub fn state_bytes(mut self, bytes: u64) -> Self {
        self.state_bytes_per_frame = bytes;
        self
    }

    /// Complete the job into a runnable spec with an engine's dispatch
    /// posture.
    pub fn spec(&self, mode: DispatchMode, dispatch_overhead_s: f64) -> StreamSpec {
        StreamSpec {
            window: self.window,
            late: self.late,
            mode,
            frame_cost_s: self.frame_cost_s,
            state_bytes_per_frame: self.state_bytes_per_frame,
            dispatch_overhead_s,
        }
    }
}

/// One delivery observed by the consumer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamEvent {
    pub frame: usize,
    /// Producer's simulation clock stamped on the frame.
    pub event_s: f64,
    /// Virtual time the frame reaches the consumer.
    pub arrive_s: f64,
    /// A duplicate delivery of a frame already sent (at-least-once
    /// transport); consumers must dedup.
    pub duplicate: bool,
}

/// The ground-truth delivery schedule a [`StreamSource`] produced: what
/// arrived when, what was lost in transit, and whether the producer
/// crashed. The chaos oracles compare pipeline output against this.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SourceLog {
    /// Deliveries sorted by `(arrive_s, frame, duplicate)`.
    pub events: Vec<StreamEvent>,
    /// Frames lost in transit (scripted or probabilistic drops).
    pub dropped: Vec<usize>,
    /// Producer crash time, if the plan crashed it. Frames not emitted by
    /// then are in `undelivered`, and the consumer never sees EOS.
    pub crashed_at: Option<f64>,
    /// Frames never emitted because of the crash.
    pub undelivered: Vec<usize>,
    pub n_frames: usize,
    /// Nominal event-time spacing between frames.
    pub interval_s: f64,
}

impl SourceLog {
    /// A fault-free schedule: frame `i` stamped `i·interval_s`, arriving
    /// `latency_s` later, in order.
    pub fn clean(n_frames: usize, interval_s: f64, latency_s: f64) -> SourceLog {
        SourceLog {
            events: (0..n_frames)
                .map(|i| StreamEvent {
                    frame: i,
                    event_s: i as f64 * interval_s,
                    arrive_s: i as f64 * interval_s + latency_s,
                    duplicate: false,
                })
                .collect(),
            dropped: Vec::new(),
            crashed_at: None,
            undelivered: Vec::new(),
            n_frames,
            interval_s,
        }
    }

    /// Newest event stamp among deliveries that arrived by `t` — the
    /// source-side watermark an ideal consumer could have reached.
    fn max_event_arrived_by(&self, t: f64) -> f64 {
        self.events
            .iter()
            .filter(|e| e.arrive_s <= t)
            .map(|e| e.event_s)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// A late frame's typed record: which window it missed and by how much.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LateRecord {
    pub frame: usize,
    pub window: usize,
    pub event_s: f64,
    pub arrive_s: f64,
}

/// One closed event-time window.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowResult {
    pub id: usize,
    pub start_s: f64,
    pub end_s: f64,
    /// Member frames, sorted. Amendments (late absorbs) extend this after
    /// close and set `amended`.
    pub frames: Vec<usize>,
    /// Deterministic fold of member frame values, in frame order.
    pub value: u64,
    /// Virtual time the result was emitted (watermark passage plus any
    /// compute still in flight for the window).
    pub close_s: f64,
    /// Node whose ledger held the window state at close.
    pub node: usize,
    /// Window state was lost to a node death and rebuilt by replaying
    /// exactly this window's frames.
    pub replayed: bool,
    /// A late frame was absorbed after the result was emitted.
    pub amended: bool,
    /// Closed by the end-of-stream flush rather than watermark passage.
    pub closed_by_flush: bool,
}

/// Everything a streaming run produced, next to the executor's
/// [`SimReport`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StreamOutput {
    /// Closed windows, in close order.
    pub windows: Vec<WindowResult>,
    /// Late frames routed to the side channel.
    pub late: Vec<LateRecord>,
    /// Late frames rejected.
    pub rejected: Vec<LateRecord>,
    /// Late frames absorbed into an already-emitted result.
    pub absorbed: Vec<LateRecord>,
    /// Duplicate deliveries dropped by dedup.
    pub duplicates_dropped: usize,
    /// `(virtual time, watermark)` samples, one per advance.
    pub watermarks: Vec<(f64, f64)>,
    pub final_watermark: f64,
    /// Unique frames accepted on time.
    pub frames_accepted: usize,
    /// Frame replays performed for lost window state.
    pub frames_replayed: usize,
    pub backpressure_pauses: usize,
    pub backpressure_wait_s: f64,
}

/// Why a streaming run stopped without a complete output. Engines map
/// these onto their typed `EngineError`s.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamError {
    /// No progress is possible: the producer crashed with windows still
    /// open, or backpressure has nothing scheduled to wait for. `at_s` is
    /// when the deadline watchdog fired (or the stall was proven).
    Stalled { at_s: f64, open_windows: usize },
    /// The retry policy gave up (deadline, retries, timeout, no survivors).
    Policy(PolicyError),
    /// Window state cannot fit and no budget change is scheduled.
    Memory {
        node: usize,
        budget: u64,
        required: u64,
        at_s: f64,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Stalled { at_s, open_windows } => write!(
                f,
                "stream stalled at {at_s:.3}s with {open_windows} open window(s)"
            ),
            StreamError::Policy(e) => write!(f, "stream policy failure: {e}"),
            StreamError::Memory {
                node,
                budget,
                required,
                at_s,
            } => write!(
                f,
                "window state needs {required} bytes on node {node} but only \
                 {budget} remain at {at_s:.3}s and no budget change is scheduled"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<PolicyError> for StreamError {
    fn from(e: PolicyError) -> Self {
        StreamError::Policy(e)
    }
}

/// Open-window bookkeeping while the watermark has not passed its end.
struct OpenWindow {
    frames: Vec<usize>,
    node: usize,
    reserved: u64,
    /// Latest completion time of compute attributable to this window.
    work_done_s: f64,
    replayed: bool,
}

struct Runner<'a> {
    exec: &'a mut SimExecutor,
    spec: &'a StreamSpec,
    policy: &'a RetryPolicy,
    frame_value: &'a mut dyn FnMut(usize) -> u64,
    out: StreamOutput,
    open: BTreeMap<usize, OpenWindow>,
    /// Unique frames already processed (dedup set).
    seen: Vec<bool>,
    values: BTreeMap<usize, u64>,
    /// Per-frame compute completion time (for modes with frame tasks).
    frame_done: BTreeMap<usize, f64>,
    /// Frames buffered by MicroBatch / RingCollective, with ready times.
    buffer: Vec<(usize, f64)>,
    /// A full ring step gates the next one.
    ring_free_s: f64,
    watermark: f64,
    /// Ingestion clock: arrival processing is serialized and pushed back
    /// by backpressure pauses.
    ingest_free_s: f64,
    /// Close time of the last emitted result — the ordered output
    /// channel's high-water mark.
    last_close_s: f64,
    handled_deaths: Vec<usize>,
    /// Partition indices whose false-positive suspicion has already been
    /// acted on (window replay + fence) — the exactly-once guard.
    handled_partitions: Vec<usize>,
    faults: FaultPlan,
}

use crate::fault::FaultPlan;

impl<'a> Runner<'a> {
    fn cluster(&self) -> &Cluster {
        self.exec.cluster()
    }

    fn alive(&self, node: usize, at_s: f64) -> bool {
        self.faults.node_death(node).is_none_or(|d| d > at_s)
    }

    fn value_of(&mut self, frame: usize) -> u64 {
        if let Some(&v) = self.values.get(&frame) {
            return v;
        }
        let v = (self.frame_value)(frame);
        self.values.insert(frame, v);
        v
    }

    fn fold_value(&mut self, frames: &[usize]) -> u64 {
        let mut acc = 0x9e37_79b9_7f4a_7c15u64;
        for &f in frames {
            let v = self.value_of(f);
            acc = mix(acc ^ mix(f as u64) ^ v);
        }
        acc
    }

    /// Reserve `bytes` of window state. `home` pins the reservation to an
    /// existing window's node; otherwise any node alive at the time may
    /// host. Blocks (virtually) through scheduled budget changes when
    /// nothing fits now — recording the pause as backpressure — and fails
    /// typed when the schedule is exhausted.
    fn reserve_state(
        &mut self,
        bytes: u64,
        now: f64,
        home: Option<usize>,
        exclude: Option<usize>,
    ) -> Result<(usize, f64), StreamError> {
        let nodes = self.cluster().nodes;
        let candidates: Vec<usize> = match home {
            Some(n) => vec![n],
            None => (0..nodes).filter(|&n| Some(n) != exclude).collect(),
        };
        // A pinned home may already be dead without the driver knowing
        // (heartbeat not yet fired): the write "succeeds" from the
        // consumer's view and the state is replayed once the death is
        // detected. Fresh placements only go to nodes believed alive.
        let pinned = home.is_some();
        let has_parts = self.faults.has_partitions();
        let mut t = now;
        loop {
            for &n in &candidates {
                // Fresh placements additionally avoid nodes the driver
                // cannot currently reach — state written across a cut
                // would immediately be stranded.
                let reachable = !has_parts || pinned || self.faults.can_reach(0, n, t);
                if (pinned || self.alive(n, t))
                    && reachable
                    && self.exec.try_reserve_memory(n, bytes, t)
                {
                    if t > now {
                        self.exec.record_backpressure(n, now, t);
                        self.out.backpressure_pauses += 1;
                        self.out.backpressure_wait_s += t - now;
                        self.ingest_free_s = self.ingest_free_s.max(t);
                    }
                    return Ok((n, t));
                }
            }
            // Advance to whatever changes the picture next: a scheduled
            // memory-budget change, or a cut healing and re-admitting a
            // candidate node.
            let next_heal = if has_parts && !pinned {
                candidates
                    .iter()
                    .filter_map(|&n| self.faults.cut_between(0, n, t).map(|(_, h)| h))
                    .fold(None, |acc: Option<f64>, h| {
                        Some(acc.map_or(h, |a| a.min(h)))
                    })
            } else {
                None
            };
            let next = match (self.faults.next_mem_change_after(t), next_heal) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, None) => a,
                (None, b) => b,
            };
            match next {
                Some(t2) => t = t2,
                None => {
                    // Nothing scheduled can ever make room: fail typed.
                    if let Some(d) = self.policy.deadline_s {
                        return Err(StreamError::Stalled {
                            at_s: d.max(now),
                            open_windows: self.open.len() + usize::from(home.is_none()),
                        });
                    }
                    let n = *candidates
                        .iter()
                        .find(|&&n| self.alive(n, t))
                        .unwrap_or(&candidates[0]);
                    return Err(StreamError::Memory {
                        node: n,
                        budget: self
                            .cluster()
                            .mem_budget(n, t)
                            .saturating_sub(self.exec.mem_resident(n)),
                        required: bytes,
                        at_s: now,
                    });
                }
            }
        }
    }

    /// Dispatch one frame's compute per the engine's mode. Buffered modes
    /// only enqueue here; [`Self::flush_buffer`] places the tasks.
    fn dispatch_frame(&mut self, frame: usize, now: f64) -> Result<(), StreamError> {
        match self.spec.mode {
            DispatchMode::PerFrame => {
                self.exec.set_task_label("stream-frame");
                let ready = now + self.spec.dispatch_overhead_s;
                self.exec.report_mut().overhead_s += self.spec.dispatch_overhead_s;
                let p = self
                    .exec
                    .run_task_policied(ready, self.spec.frame_cost_s, self.policy)?;
                self.frame_done.insert(frame, p.end);
            }
            DispatchMode::MicroBatch(n) => {
                self.buffer.push((frame, now));
                if self.buffer.len() >= n.max(1) {
                    self.flush_buffer()?;
                }
            }
            DispatchMode::UnitPerWindow => {
                // Frames only accumulate state; compute happens as one
                // unit when the window closes.
            }
            DispatchMode::RingCollective(n) => {
                self.buffer.push((frame, now));
                if self.buffer.len() >= n.max(1) {
                    self.flush_buffer()?;
                }
            }
        }
        Ok(())
    }

    /// Place every buffered frame as one dispatch step.
    fn flush_buffer(&mut self) -> Result<(), StreamError> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let buffered = std::mem::take(&mut self.buffer);
        let newest = buffered.iter().map(|&(_, t)| t).fold(0.0, f64::max);
        let (label, ready) = match self.spec.mode {
            DispatchMode::MicroBatch(_) => {
                // One driver dispatch per micro-batch, stage-style.
                self.exec.report_mut().overhead_s += self.spec.dispatch_overhead_s;
                ("stream-batch", newest + self.spec.dispatch_overhead_s)
            }
            DispatchMode::RingCollective(_) => {
                // The ring is synchronous: a step cannot start before the
                // previous one drained.
                ("stream-ring", newest.max(self.ring_free_s))
            }
            _ => ("stream-frame", newest),
        };
        self.exec.set_task_label(label);
        let mut step_end = ready;
        for (frame, _) in buffered {
            let p = self
                .exec
                .run_task_policied(ready, self.spec.frame_cost_s, self.policy)?;
            self.frame_done.insert(frame, p.end);
            step_end = step_end.max(p.end);
        }
        if matches!(self.spec.mode, DispatchMode::RingCollective(_)) {
            self.ring_free_s = step_end;
        }
        Ok(())
    }

    /// Notice deaths the heartbeat has surfaced by `now` and replay the
    /// window state that died with the node: per-window lineage, only the
    /// frames the lost windows covered.
    fn handle_deaths_up_to(&mut self, now: f64) -> Result<(), StreamError> {
        let deaths: Vec<_> = self
            .faults
            .deaths()
            .iter()
            .filter(|d| d.at_s + self.policy.detection_delay_s <= now)
            .filter(|d| !self.handled_deaths.contains(&d.node))
            .map(|d| (d.node, d.at_s))
            .collect();
        for (node, died_at) in deaths {
            self.handled_deaths.push(node);
            let detected = died_at + self.policy.detection_delay_s;
            let lost: Vec<usize> = self
                .open
                .iter()
                .filter(|(_, w)| w.node == node)
                .map(|(&id, _)| id)
                .collect();
            for wid in lost {
                let (reserved, frames) = {
                    let w = &self.open[&wid];
                    (w.reserved, w.frames.clone())
                };
                // The dead node's ledger entries are gone with it.
                self.exec.release_memory(node, reserved);
                let (new_node, ready) = self.reserve_state(reserved, detected, None, Some(node))?;
                self.exec
                    .record_recovery("window-replay", died_at, ready.max(detected));
                self.exec.set_task_label("stream-replay");
                let mut done = 0.0f64;
                for &f in &frames {
                    let p =
                        self.exec
                            .run_task_policied(ready, self.spec.frame_cost_s, self.policy)?;
                    done = done.max(p.end);
                    let e = self.frame_done.entry(f).or_insert(0.0);
                    *e = e.max(p.end);
                }
                self.out.frames_replayed += frames.len();
                self.exec.report_mut().recomputed_partitions += frames.len();
                let w = self.open.get_mut(&wid).expect("window is open");
                w.node = new_node;
                w.replayed = true;
                w.work_done_s = w.work_done_s.max(done);
            }
        }
        Ok(())
    }

    /// Notice partitions the suspicion detector has (falsely) given up on
    /// by `now` and re-home the window state stranded behind the cut. The
    /// stranded node is *alive*: its replica keeps accumulating until
    /// heal, when its duplicate window contribution arrives under a stale
    /// window epoch and is fenced — exactly once per stranded window, so
    /// no frame is double-counted. A cut the detector waits out
    /// (`suspect_time ≥ heal`) replays nothing: the state was never given
    /// up on.
    fn handle_partitions_up_to(&mut self, now: f64) -> Result<(), StreamError> {
        if !self.faults.has_partitions() {
            return Ok(());
        }
        let Some(det) = self.policy.detector() else {
            return Ok(());
        };
        let parts = self.faults.partitions().to_vec();
        for (i, p) in parts.iter().enumerate() {
            let suspect = det.suspect_time(p.from_s);
            if suspect >= p.to_s || suspect > now || self.handled_partitions.contains(&i) {
                continue;
            }
            self.handled_partitions.push(i);
            let stranded: Vec<usize> = self
                .open
                .iter()
                .filter(|(_, w)| p.separates(0, w.node))
                .map(|(&id, _)| id)
                .collect();
            for wid in stranded {
                let (node, reserved, frames) = {
                    let w = &self.open[&wid];
                    (w.node, w.reserved, w.frames.clone())
                };
                // The driver writes off the stranded replica (its ledger
                // entry is released on suspicion) and rebuilds the window
                // from lineage on a reachable node.
                self.exec.release_memory(node, reserved);
                let (new_node, ready) = self.reserve_state(reserved, suspect, None, Some(node))?;
                self.exec
                    .record_recovery("window-replay", p.from_s, ready.max(suspect));
                self.exec.set_task_label("stream-replay");
                let mut done = 0.0f64;
                for &f in &frames {
                    let pl =
                        self.exec
                            .run_task_policied(ready, self.spec.frame_cost_s, self.policy)?;
                    done = done.max(pl.end);
                    let e = self.frame_done.entry(f).or_insert(0.0);
                    *e = e.max(pl.end);
                }
                self.out.frames_replayed += frames.len();
                self.exec.report_mut().recomputed_partitions += frames.len();
                // The zombie replica's contribution is rejected at heal.
                self.exec.record_fenced("window-duplicate", suspect, p.to_s);
                let w = self.open.get_mut(&wid).expect("window is open");
                w.node = new_node;
                w.replayed = true;
                w.work_done_s = w.work_done_s.max(done);
            }
        }
        Ok(())
    }

    /// Close every open window the watermark has passed, in end order.
    fn close_ripe_windows(&mut self, trigger_s: f64, flush: bool) -> Result<(), StreamError> {
        loop {
            let ripe = self
                .open
                .iter()
                .filter(|(&id, _)| flush || self.spec.window.end_of(id) <= self.watermark)
                .map(|(&id, _)| id)
                .min_by(|a, b| {
                    self.spec
                        .window
                        .end_of(*a)
                        .total_cmp(&self.spec.window.end_of(*b))
                });
            let Some(wid) = ripe else { return Ok(()) };
            // Buffered frames may belong to the closing window: drain the
            // buffer so their completion times are known.
            self.flush_buffer()?;
            let mut w = self.open.remove(&wid).expect("window is open");
            w.frames.sort_unstable();
            let mut close_s = trigger_s.max(w.work_done_s);
            if let DispatchMode::UnitPerWindow = self.spec.mode {
                // Continuous unit re-submission: the window's compute runs
                // as one unit when it closes.
                self.exec.set_task_label("stream-unit");
                self.exec.report_mut().overhead_s += self.spec.dispatch_overhead_s;
                let dur = w.frames.len() as f64 * self.spec.frame_cost_s;
                let p = self.exec.run_task_policied(
                    trigger_s + self.spec.dispatch_overhead_s,
                    dur,
                    self.policy,
                )?;
                close_s = close_s.max(p.end);
            } else {
                for &f in &w.frames {
                    if let Some(&d) = self.frame_done.get(&f) {
                        close_s = close_s.max(d);
                    }
                }
            }
            // Ordered output channel: results are emitted in window order,
            // so a small window whose unit finished early still waits for
            // its slower predecessor (observed under straggler replay in
            // the UnitPerWindow posture). Keeps emitted close times
            // monotone, which downstream consumers and the staleness
            // oracle rely on.
            close_s = close_s.max(self.last_close_s);
            self.last_close_s = close_s;
            self.exec.release_memory(w.node, w.reserved);
            let value = self.fold_value(&w.frames);
            self.exec.advance_makespan(close_s);
            self.out.windows.push(WindowResult {
                id: wid,
                start_s: self.spec.window.start_of(wid),
                end_s: self.spec.window.end_of(wid),
                frames: w.frames,
                value,
                close_s,
                node: w.node,
                replayed: w.replayed,
                amended: false,
                closed_by_flush: flush,
            });
        }
    }

    /// Route one late `(frame, window)` membership per the disposition.
    fn handle_late(&mut self, frame: usize, wid: usize, ev: &StreamEvent, now: f64) {
        let rec = LateRecord {
            frame,
            window: wid,
            event_s: ev.event_s,
            arrive_s: ev.arrive_s,
        };
        match self.spec.late {
            LateDisposition::Absorb => {
                let pos = self.out.windows.iter().position(|w| w.id == wid);
                match pos {
                    Some(i) => {
                        let value = {
                            let mut frames = self.out.windows[i].frames.clone();
                            frames.push(frame);
                            frames.sort_unstable();
                            self.out.windows[i].frames = frames.clone();
                            self.fold_value(&frames)
                        };
                        let w = &mut self.out.windows[i];
                        w.value = value;
                        w.amended = true;
                        // The amendment costs one frame of compute.
                        self.exec.set_task_label("stream-absorb");
                        let _ = self.exec.run_task(now, self.spec.frame_cost_s);
                        self.out.absorbed.push(rec);
                    }
                    // Nothing to amend (the window never opened): the
                    // side channel keeps the frame typed instead of lost.
                    None => self.out.late.push(rec),
                }
            }
            LateDisposition::SideChannel => self.out.late.push(rec),
            LateDisposition::Reject => self.out.rejected.push(rec),
        }
    }

    fn run(&mut self, source: &SourceLog) -> Result<(), StreamError> {
        let events = source.events.clone();
        let mut last_now = self.ingest_free_s;
        for ev in &events {
            let now = ev.arrive_s.max(self.ingest_free_s);
            if let Some(d) = self.policy.deadline_s {
                if now > d {
                    return Err(StreamError::Policy(PolicyError::DeadlineExceeded {
                        deadline_s: d,
                        at_s: now,
                    }));
                }
            }
            self.handle_deaths_up_to(now)?;
            self.handle_partitions_up_to(now)?;
            if ev.frame >= self.seen.len() {
                self.seen.resize(ev.frame + 1, false);
            }
            if self.seen[ev.frame] {
                // Duplicate delivery (flagged or replayed): dedup.
                self.out.duplicates_dropped += 1;
                continue;
            }
            self.seen[ev.frame] = true;
            let (lo, hi) = self.spec.window.ids_for(ev.event_s);
            let mut accepted = false;
            for wid in lo..=hi {
                let closed = self.out.windows.iter().any(|w| w.id == wid);
                let late = closed
                    || (!self.open.contains_key(&wid)
                        && self.spec.window.end_of(wid) <= self.watermark);
                if late {
                    self.handle_late(ev.frame, wid, ev, now);
                    continue;
                }
                // On time for this window: charge state, join, compute.
                let bytes = self.spec.state_bytes_per_frame;
                if let Some(w) = self.open.get(&wid) {
                    let home = w.node;
                    let (_, _t) = self.reserve_state(bytes, now, Some(home), None)?;
                    let w = self.open.get_mut(&wid).expect("open");
                    w.frames.push(ev.frame);
                    w.reserved += bytes;
                } else {
                    let (node, _t) = self.reserve_state(bytes, now, None, None)?;
                    self.open.insert(
                        wid,
                        OpenWindow {
                            frames: vec![ev.frame],
                            node,
                            reserved: bytes,
                            work_done_s: 0.0,
                            replayed: false,
                        },
                    );
                }
                accepted = true;
            }
            if accepted {
                self.out.frames_accepted += 1;
                let now = ev.arrive_s.max(self.ingest_free_s);
                self.dispatch_frame(ev.frame, now)?;
            }
            // Advance the watermark and close what it passed.
            let wm = (ev.event_s - self.spec.window.lateness_s).max(self.watermark);
            if wm > self.watermark {
                self.watermark = wm;
                self.out.watermarks.push((now, wm));
            }
            last_now = now.max(last_now);
            self.close_ripe_windows(last_now, false)?;
        }
        self.handle_deaths_up_to(last_now)?;
        self.handle_partitions_up_to(last_now)?;
        if !self.open.is_empty() || !self.buffer.is_empty() {
            if source.crashed_at.is_some() {
                // The producer died mid-stream: the frames that would
                // advance the watermark never arrive, and no EOS marker
                // is coming. The deadline watchdog turns the would-be
                // hang into a typed stall.
                let at_s = self
                    .policy
                    .deadline_s
                    .unwrap_or(last_now + self.policy.detection_delay_s.max(1.0));
                return Err(StreamError::Stalled {
                    at_s,
                    open_windows: self.open.len(),
                });
            }
            // Clean end of stream: the producer's EOS marker lets the
            // consumer flush everything still open.
            self.watermark = f64::INFINITY;
            self.close_ripe_windows(last_now, true)?;
        }
        self.out.final_watermark = self.watermark;
        Ok(())
    }
}

/// Run a streaming job against a delivery schedule. `frame_value` supplies
/// the per-frame analysis value (real computation; its *cost* in virtual
/// time is `spec.frame_cost_s`). On success the executor's report carries
/// the placement/trace side; the returned [`StreamOutput`] carries window
/// results and typed late/duplicate accounting.
pub fn run_stream(
    exec: &mut SimExecutor,
    source: &SourceLog,
    spec: &StreamSpec,
    policy: &RetryPolicy,
    frame_value: &mut dyn FnMut(usize) -> u64,
) -> Result<StreamOutput, StreamError> {
    let start = exec.all_idle_at();
    let faults = exec.cluster().faults().clone();
    let mut runner = Runner {
        exec,
        spec,
        policy,
        frame_value,
        out: StreamOutput::default(),
        open: BTreeMap::new(),
        seen: Vec::new(),
        values: BTreeMap::new(),
        frame_done: BTreeMap::new(),
        buffer: Vec::new(),
        ring_free_s: 0.0,
        watermark: f64::NEG_INFINITY,
        ingest_free_s: start,
        last_close_s: 0.0,
        handled_deaths: Vec::new(),
        handled_partitions: Vec::new(),
        faults,
    };
    runner.run(source)?;
    Ok(runner.out)
}

/// Stream oracles: the correctness contract a run must satisfy no matter
/// what faults were injected. Returns the first violation, or `None`.
///
/// * **No silent loss** — every unique delivered frame is reflected, for
///   each window covering its stamp, in exactly one of: the window's
///   result, a side-channel late record, or a typed rejection.
/// * **Watermark monotonicity** — watermark samples and closed-window
///   ends/close times never regress.
/// * **Bounded staleness** — a result is emitted within
///   `window + lateness + slack_s` of the source watermark at its close
///   (flush-closed windows are exempt: EOS closes the tail by fiat).
pub fn check_stream_invariants(
    source: &SourceLog,
    spec: &StreamSpec,
    out: &StreamOutput,
    slack_s: f64,
) -> Option<String> {
    // Dedup accounting.
    let mut first_delivery: BTreeMap<usize, &StreamEvent> = BTreeMap::new();
    for e in &source.events {
        first_delivery.entry(e.frame).or_insert(e);
    }
    let expected_dups = source.events.len() - first_delivery.len();
    if out.duplicates_dropped != expected_dups {
        return Some(format!(
            "dedup mismatch: {} duplicates dropped, schedule delivered {}",
            out.duplicates_dropped, expected_dups
        ));
    }
    // Unique window results.
    let mut by_id: BTreeMap<usize, &WindowResult> = BTreeMap::new();
    for w in &out.windows {
        if by_id.insert(w.id, w).is_some() {
            return Some(format!("window {} closed twice", w.id));
        }
    }
    // No silent loss.
    for (&frame, ev) in &first_delivery {
        let (lo, hi) = spec.window.ids_for(ev.event_s);
        for wid in lo..=hi {
            let in_result = by_id
                .get(&wid)
                .is_some_and(|w| w.frames.binary_search(&frame).is_ok());
            let in_late = out.late.iter().any(|r| r.frame == frame && r.window == wid);
            let in_rejected = out
                .rejected
                .iter()
                .any(|r| r.frame == frame && r.window == wid);
            let in_absorbed = out
                .absorbed
                .iter()
                .any(|r| r.frame == frame && r.window == wid);
            let covered = in_result || in_late || in_rejected;
            if !covered {
                return Some(format!(
                    "silent loss: frame {frame} (event {:.3}s) has no \
                     disposition for window {wid}",
                    ev.event_s
                ));
            }
            if in_result && (in_late || in_rejected) {
                return Some(format!(
                    "double counting: frame {frame} is both in window {wid}'s \
                     result and in a late/reject record"
                ));
            }
            if in_absorbed && !in_result {
                return Some(format!(
                    "absorb lost: frame {frame} marked absorbed into window \
                     {wid} but missing from its result"
                ));
            }
        }
    }
    // Watermark monotonicity.
    for pair in out.watermarks.windows(2) {
        if pair[1].1 < pair[0].1 || pair[1].0 < pair[0].0 {
            return Some(format!(
                "watermark regressed: {:?} then {:?}",
                pair[0], pair[1]
            ));
        }
    }
    for pair in out.windows.windows(2) {
        if pair[1].end_s < pair[0].end_s {
            return Some(format!(
                "close order regressed: window {} (end {:.3}s) closed after \
                 window {} (end {:.3}s)",
                pair[1].id, pair[1].end_s, pair[0].id, pair[0].end_s
            ));
        }
        if pair[1].close_s < pair[0].close_s {
            return Some(format!(
                "close time regressed: window {} closed at {:.3}s after \
                 window {} at {:.3}s",
                pair[1].id, pair[1].close_s, pair[0].id, pair[0].close_s
            ));
        }
    }
    // Bounded staleness.
    let bound = spec.window.window_s + spec.window.lateness_s + slack_s;
    for w in out.windows.iter().filter(|w| !w.closed_by_flush) {
        let src = source.max_event_arrived_by(w.close_s);
        if src.is_finite() && src - w.end_s > bound {
            return Some(format!(
                "staleness: window {} (end {:.3}s) closed at {:.3}s when the \
                 source watermark was already {:.3}s — lag {:.3}s exceeds \
                 bound {:.3}s",
                w.id,
                w.end_s,
                w.close_s,
                src,
                src - w.end_s,
                bound
            ));
        }
    }
    None
}

/// Convenience wrapper returned by engine streaming entry points.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamRun {
    pub output: StreamOutput,
    pub report: SimReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{laptop, Cluster};

    fn spec(mode: DispatchMode) -> StreamSpec {
        StreamSpec {
            window: WindowSpec::tumbling(1.0, 0.25),
            late: LateDisposition::SideChannel,
            mode,
            frame_cost_s: 0.01,
            state_bytes_per_frame: 1 << 20,
            dispatch_overhead_s: 1e-3,
        }
    }

    fn run_with(
        faults: FaultPlan,
        source: &SourceLog,
        spec: &StreamSpec,
        policy: &RetryPolicy,
    ) -> Result<(StreamOutput, SimReport), StreamError> {
        run_with_nodes(faults, 2, source, spec, policy)
    }

    fn run_with_nodes(
        faults: FaultPlan,
        nodes: usize,
        source: &SourceLog,
        spec: &StreamSpec,
        policy: &RetryPolicy,
    ) -> Result<(StreamOutput, SimReport), StreamError> {
        let cluster = Cluster::new(laptop(), nodes).with_faults(faults);
        let mut exec = SimExecutor::new(cluster);
        exec.enable_trace();
        let out = run_stream(&mut exec, source, spec, policy, &mut |f| mix(f as u64))?;
        Ok((out, exec.into_report()))
    }

    #[test]
    fn emission_stays_ordered_when_a_straggler_slows_a_replayed_unit() {
        // Shrunk chaos counterexample (exp_stream seed 41): node 0 dies
        // mid-stream, forcing the open windows onto node 1 where a 7.9x
        // straggler core slows one window's unit — without an ordered
        // output channel the next (smaller) window's unit finished first
        // and close times regressed.
        let plan = FaultPlan::none().kill_node(0, 9.0679).slow_core(8, 7.923);
        let source = SourceLog::clean(96, 0.25, 0.02);
        let sp = StreamSpec {
            window: WindowSpec::tumbling(2.0, 0.25),
            late: LateDisposition::SideChannel,
            mode: DispatchMode::UnitPerWindow,
            frame_cost_s: 0.05,
            state_bytes_per_frame: 1 << 20,
            dispatch_overhead_s: 1e-3,
        };
        let policy = RetryPolicy::new(4).with_detection_delay(0.25);
        let (out, _) = run_with(plan, &source, &sp, &policy).expect("recoverable");
        for w in out.windows.windows(2) {
            assert!(
                w[1].close_s >= w[0].close_s,
                "close regressed: window {} at {:.3} after window {} at {:.3}",
                w[1].id,
                w[1].close_s,
                w[0].id,
                w[0].close_s
            );
        }
        assert!(out.frames_replayed > 0, "the death was actually felt");
        assert_eq!(
            check_stream_invariants(&source, &sp, &out, 60.0),
            None,
            "oracles hold after the ordered-emission fix"
        );
    }

    #[test]
    fn window_ids_cover_tumbling_and_sliding() {
        let t = WindowSpec::tumbling(1.0, 0.0);
        assert_eq!(t.ids_for(0.0), (0, 0));
        assert_eq!(t.ids_for(0.99), (0, 0));
        assert_eq!(t.ids_for(1.0), (1, 1), "starts are inclusive");
        let s = WindowSpec::sliding(2.0, 1.0, 0.0);
        assert_eq!(s.ids_for(0.5), (0, 0));
        assert_eq!(s.ids_for(1.5), (0, 1), "overlap: two windows");
        assert_eq!(s.ids_for(2.0), (1, 2), "end-exclusive at the boundary");
        assert_eq!(s.end_of(3), 5.0);
    }

    #[test]
    fn clean_stream_closes_every_window_once() {
        // 20 frames at 0.25s spacing → event times 0..4.75, tumbling 1s
        // windows 0..4, the last closed by the EOS flush.
        let source = SourceLog::clean(20, 0.25, 0.05);
        let sp = spec(DispatchMode::PerFrame);
        let (out, report) =
            run_with(FaultPlan::none(), &source, &sp, &RetryPolicy::new(3)).expect("clean run");
        assert_eq!(out.windows.len(), 5);
        assert_eq!(out.frames_accepted, 20);
        assert!(out.late.is_empty() && out.rejected.is_empty());
        assert_eq!(out.duplicates_dropped, 0);
        assert!(out.windows.iter().all(|w| w.frames.len() == 4));
        assert!(report.makespan_s > 0.0);
        assert_eq!(
            check_stream_invariants(&source, &sp, &out, 1.0),
            None,
            "oracles hold on the clean run"
        );
    }

    #[test]
    fn all_modes_agree_on_window_contents() {
        let source = SourceLog::clean(24, 0.25, 0.05);
        let sp0 = spec(DispatchMode::PerFrame);
        let (base, _) = run_with(FaultPlan::none(), &source, &sp0, &RetryPolicy::new(3)).unwrap();
        for mode in [
            DispatchMode::MicroBatch(4),
            DispatchMode::UnitPerWindow,
            DispatchMode::RingCollective(3),
        ] {
            let sp = spec(mode);
            let (out, _) = run_with(FaultPlan::none(), &source, &sp, &RetryPolicy::new(3)).unwrap();
            let a: Vec<_> = base.windows.iter().map(|w| (w.id, w.value)).collect();
            let b: Vec<_> = out.windows.iter().map(|w| (w.id, w.value)).collect();
            assert_eq!(a, b, "mode {mode:?} must fold identical windows");
            assert_eq!(
                check_stream_invariants(&source, &sp, &out, 1.0),
                None,
                "oracles hold for {mode:?}"
            );
        }
    }

    #[test]
    fn late_frames_take_the_typed_disposition() {
        // Frame 2 (event 0.5s) arrives after window 0 closed.
        let mut source = SourceLog::clean(8, 0.25, 0.05);
        let late_arrival = 2.5;
        source.events[2].arrive_s = late_arrival;
        source
            .events
            .sort_by(|a, b| a.arrive_s.total_cmp(&b.arrive_s));
        for disp in [
            LateDisposition::SideChannel,
            LateDisposition::Reject,
            LateDisposition::Absorb,
        ] {
            let mut sp = spec(DispatchMode::PerFrame);
            sp.late = disp;
            let (out, _) = run_with(FaultPlan::none(), &source, &sp, &RetryPolicy::new(3)).unwrap();
            assert_eq!(
                check_stream_invariants(&source, &sp, &out, 3.0),
                None,
                "oracles hold under {disp:?}"
            );
            let w0 = out.windows.iter().find(|w| w.id == 0).expect("window 0");
            match disp {
                LateDisposition::SideChannel => {
                    assert!(out.late.iter().any(|r| r.frame == 2 && r.window == 0));
                    assert!(!w0.frames.contains(&2));
                }
                LateDisposition::Reject => {
                    assert!(out.rejected.iter().any(|r| r.frame == 2));
                    assert!(!w0.frames.contains(&2));
                }
                LateDisposition::Absorb => {
                    assert!(out.absorbed.iter().any(|r| r.frame == 2));
                    assert!(w0.frames.contains(&2), "absorbed into the result");
                    assert!(w0.amended);
                }
            }
        }
    }

    #[test]
    fn duplicates_are_deduped() {
        let mut source = SourceLog::clean(6, 0.25, 0.05);
        let mut dup = source.events[3];
        dup.duplicate = true;
        dup.arrive_s += 0.4;
        source.events.push(dup);
        source
            .events
            .sort_by(|a, b| a.arrive_s.total_cmp(&b.arrive_s));
        let sp = spec(DispatchMode::PerFrame);
        let (out, _) = run_with(FaultPlan::none(), &source, &sp, &RetryPolicy::new(3)).unwrap();
        assert_eq!(out.duplicates_dropped, 1);
        assert_eq!(out.frames_accepted, 6);
        assert_eq!(check_stream_invariants(&source, &sp, &out, 1.0), None);
    }

    /// Node 0 (the driver) holds no state memory, so every window lands on
    /// node 1 — the node the partition tests then cut off or kill.
    fn driverless_state() -> FaultPlan {
        FaultPlan::none().shrink_memory(0, 0.0, 0)
    }

    #[test]
    fn false_positive_partition_replays_windows_and_fences_duplicates() {
        // A cut isolates node 1 (where all window state lives) from 1.0s
        // to 4.0s — long enough for the detector (beat 0.25s, timeout
        // 0.5s → suspected at 1.25s) to falsely give up on a node that is
        // still alive. The stranded windows replay on node 2 and the
        // zombie replica's post-heal contribution is fenced.
        let faults = driverless_state().partition(vec![vec![0, 2], vec![1]], 1.0, 4.0);
        let source = SourceLog::clean(20, 0.25, 0.05);
        let sp = spec(DispatchMode::PerFrame);
        let policy = RetryPolicy::new(4)
            .with_detection_delay(0.25)
            .with_suspicion(0.25, 0.5);
        let (out, report) = run_with_nodes(faults, 3, &source, &sp, &policy).expect("recovers");
        assert!(out.frames_replayed > 0, "stranded windows were replayed");
        assert!(
            report.fenced_results > 0,
            "zombie contributions were fenced"
        );
        assert!(out.windows.iter().any(|w| w.replayed));
        // No double count: if a fenced replica's frames were also folded,
        // the window values would differ from the fault-free run.
        let (clean, _) =
            run_with_nodes(driverless_state(), 3, &source, &sp, &RetryPolicy::new(3)).unwrap();
        let a: Vec<_> = out.windows.iter().map(|w| (w.id, w.value)).collect();
        let b: Vec<_> = clean.windows.iter().map(|w| (w.id, w.value)).collect();
        assert_eq!(a, b, "fenced replay never double-counts a frame");
        assert_eq!(check_stream_invariants(&source, &sp, &out, 8.0), None);
    }

    #[test]
    fn waited_out_cut_replays_nothing_and_fences_nothing() {
        // The cut heals at 1.2s, before the detector's suspicion time of
        // 1.25s: a patient detector never gives up on the node, so there
        // is no zombie, no replay, and no fence.
        let faults = driverless_state().partition(vec![vec![0, 2], vec![1]], 1.0, 1.2);
        let source = SourceLog::clean(20, 0.25, 0.05);
        let sp = spec(DispatchMode::PerFrame);
        let policy = RetryPolicy::new(4)
            .with_detection_delay(0.25)
            .with_suspicion(0.25, 0.5);
        let (out, report) = run_with_nodes(faults, 3, &source, &sp, &policy).expect("rides it out");
        assert_eq!(out.frames_replayed, 0, "nothing was given up on");
        assert_eq!(report.fenced_results, 0, "no zombie, nothing to fence");
        let (clean, _) =
            run_with_nodes(driverless_state(), 3, &source, &sp, &RetryPolicy::new(3)).unwrap();
        let a: Vec<_> = out.windows.iter().map(|w| (w.id, w.value)).collect();
        let b: Vec<_> = clean.windows.iter().map(|w| (w.id, w.value)).collect();
        assert_eq!(a, b);
        assert_eq!(check_stream_invariants(&source, &sp, &out, 8.0), None);
    }

    #[test]
    fn suspicion_timeout_equal_to_heartbeat_suspects_at_the_cut() {
        // Boundary audit: timeout == heartbeat means a cut landing exactly
        // on a beat (1.0s is a multiple of 0.25s) is suspected the instant
        // it happens — suspect_time clamps to the cut, never before it.
        // Instant suspicion must still replay and fence exactly once.
        let faults = driverless_state().partition(vec![vec![0, 2], vec![1]], 1.0, 3.0);
        let source = SourceLog::clean(20, 0.25, 0.05);
        let sp = spec(DispatchMode::PerFrame);
        let policy = RetryPolicy::new(4)
            .with_detection_delay(0.25)
            .with_suspicion(0.25, 0.25);
        let (out, report) = run_with_nodes(faults, 3, &source, &sp, &policy).expect("recovers");
        assert!(report.fenced_results > 0);
        assert!(out.frames_replayed > 0);
        let (clean, _) =
            run_with_nodes(driverless_state(), 3, &source, &sp, &RetryPolicy::new(3)).unwrap();
        let a: Vec<_> = out.windows.iter().map(|w| (w.id, w.value)).collect();
        let b: Vec<_> = clean.windows.iter().map(|w| (w.id, w.value)).collect();
        assert_eq!(a, b, "instant suspicion still folds every frame once");
        assert_eq!(check_stream_invariants(&source, &sp, &out, 8.0), None);
    }

    #[test]
    fn death_at_exact_dispatch_with_zero_detection_replays_once() {
        // Satellite audit: with_detection_delay(0.0) makes a death visible
        // the same instant a frame arrives (frame 4 arrives at exactly
        // 1.05s, when node 1 dies). The replay must not race the dispatch:
        // the dead node's windows re-home before the frame is accepted,
        // and nothing is double-counted or hung.
        let faults = driverless_state().kill_node(1, 1.05);
        let source = SourceLog::clean(20, 0.25, 0.05);
        let sp = spec(DispatchMode::PerFrame);
        let policy = RetryPolicy::new(4).with_detection_delay(0.0);
        let (out, _) = run_with_nodes(faults, 3, &source, &sp, &policy).expect("recovers");
        assert!(out.frames_replayed > 0, "the death was felt");
        assert_eq!(out.windows.len(), 5, "every window still closes once");
        let (clean, _) =
            run_with_nodes(driverless_state(), 3, &source, &sp, &RetryPolicy::new(3)).unwrap();
        let a: Vec<_> = out.windows.iter().map(|w| (w.id, w.value)).collect();
        let b: Vec<_> = clean.windows.iter().map(|w| (w.id, w.value)).collect();
        assert_eq!(a, b, "zero-delay detection folds every frame once");
        assert_eq!(check_stream_invariants(&source, &sp, &out, 8.0), None);
    }

    #[test]
    fn producer_crash_stall_time_is_finite_with_zero_detection_delay() {
        // Satellite audit: the no-deadline stall fallback pads the stall
        // stamp by detection_delay_s.max(1.0); with a zero detection delay
        // the typed stall must still land strictly after the last
        // delivery, not at it (a zero pad would collide with legitimate
        // completion times).
        let mut source = SourceLog::clean(16, 0.25, 0.05);
        source.crashed_at = Some(1.0);
        source.undelivered = (8..16).collect();
        source.events.truncate(8);
        let sp = spec(DispatchMode::PerFrame);
        let policy = RetryPolicy::new(3).with_detection_delay(0.0);
        match run_with(FaultPlan::none(), &source, &sp, &policy) {
            Err(StreamError::Stalled { at_s, .. }) => {
                let last_arrival = 7.0 * 0.25 + 0.05;
                assert!(at_s.is_finite());
                assert!(
                    at_s > last_arrival,
                    "stall stamped strictly after the last delivery ({at_s} vs {last_arrival})"
                );
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn backpressure_waits_for_a_scheduled_budget_change() {
        // Shrink node memory to one frame of state at t=0, grow it back at
        // t=2: the second frame must wait, traced as backpressure.
        let bytes = 1 << 20;
        let faults = FaultPlan::none()
            .set_memory(0, 0.0, bytes)
            .set_memory(1, 0.0, bytes)
            .set_memory(0, 2.0, 64 * bytes)
            .set_memory(1, 2.0, 64 * bytes);
        let source = SourceLog::clean(8, 0.25, 0.05);
        let sp = spec(DispatchMode::PerFrame);
        let (out, report) = run_with(faults, &source, &sp, &RetryPolicy::new(3)).unwrap();
        assert!(out.backpressure_pauses > 0, "ingestion must pause");
        assert!(out.backpressure_wait_s > 0.0);
        let trace = report.trace.expect("traced");
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e.kind, crate::trace::EventKind::Backpressure { .. })));
        assert_eq!(check_stream_invariants(&source, &sp, &out, 4.0), None);
    }

    #[test]
    fn exhausted_budget_fails_typed_not_oom() {
        let bytes = 1 << 20;
        let faults = FaultPlan::none()
            .set_memory(0, 0.0, bytes)
            .set_memory(1, 0.0, bytes);
        let source = SourceLog::clean(8, 0.25, 0.05);
        let sp = spec(DispatchMode::PerFrame);
        match run_with(faults.clone(), &source, &sp, &RetryPolicy::new(3)) {
            Err(StreamError::Memory { required, .. }) => assert_eq!(required, bytes),
            other => panic!("expected Memory, got {other:?}"),
        }
        // With a deadline the same situation is a typed stall.
        let policy = RetryPolicy::new(3).with_deadline(30.0);
        match run_with(faults, &source, &sp, &policy) {
            Err(StreamError::Stalled { at_s, .. }) => assert_eq!(at_s, 30.0),
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn producer_crash_stalls_typed_under_a_deadline() {
        // Only half the frames ever arrive; the rest died with the producer.
        let mut source = SourceLog::clean(16, 0.25, 0.05);
        source.crashed_at = Some(1.0);
        source.undelivered = (8..16).collect();
        source.events.truncate(8);
        let sp = spec(DispatchMode::PerFrame);
        let policy = RetryPolicy::new(3).with_deadline(60.0);
        match run_with(FaultPlan::none(), &source, &sp, &policy) {
            Err(StreamError::Stalled { at_s, open_windows }) => {
                assert_eq!(at_s, 60.0);
                assert!(open_windows > 0);
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
        // Without a deadline the stall is still typed (never a hang).
        match run_with(FaultPlan::none(), &source, &sp, &RetryPolicy::new(3)) {
            Err(StreamError::Stalled { .. }) => {}
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn node_death_replays_only_the_lost_windows() {
        // Node 0 dies mid-stream; whatever windows lived there replay on
        // node 1 and the output still satisfies no-silent-loss.
        let faults = FaultPlan::none().kill_node(0, 1.6);
        let source = SourceLog::clean(20, 0.25, 0.05);
        let sp = spec(DispatchMode::PerFrame);
        let policy = RetryPolicy::new(4).with_detection_delay(0.25);
        let (out, report) = run_with(faults, &source, &sp, &policy).expect("recovers");
        let (clean, _) = run_with(FaultPlan::none(), &source, &sp, &RetryPolicy::new(3)).unwrap();
        let a: Vec<_> = out.windows.iter().map(|w| (w.id, w.value)).collect();
        let b: Vec<_> = clean.windows.iter().map(|w| (w.id, w.value)).collect();
        assert_eq!(a, b, "recovered output matches the fault-free run");
        if out.frames_replayed > 0 {
            assert!(out.windows.iter().any(|w| w.replayed));
            assert!(report.recomputed_partitions > 0);
            assert!(
                out.frames_replayed < out.frames_accepted,
                "per-window lineage replays a strict subset, not the job"
            );
        }
        assert_eq!(check_stream_invariants(&source, &sp, &out, 4.0), None);
    }

    #[test]
    fn runner_is_deterministic() {
        let faults = FaultPlan::none().kill_node(0, 1.6).seeded(7);
        let source = SourceLog::clean(20, 0.25, 0.05);
        let sp = spec(DispatchMode::MicroBatch(4));
        let policy = RetryPolicy::new(4).with_detection_delay(0.25);
        let (o1, r1) = run_with(faults.clone(), &source, &sp, &policy).unwrap();
        let (o2, r2) = run_with(faults, &source, &sp, &policy).unwrap();
        assert_eq!(o1, o2);
        assert_eq!(r1, r2, "reports are bit-identical");
    }

    #[test]
    fn oracle_catches_a_dropped_frame() {
        let source = SourceLog::clean(8, 0.25, 0.05);
        let sp = spec(DispatchMode::PerFrame);
        let (mut out, _) = run_with(FaultPlan::none(), &source, &sp, &RetryPolicy::new(3)).unwrap();
        // Silently delete a frame from its window result.
        let w = &mut out.windows[0];
        w.frames.retain(|&f| f != 1);
        let v = check_stream_invariants(&source, &sp, &out, 1.0);
        assert!(
            v.as_deref().is_some_and(|m| m.contains("silent loss")),
            "tampering must trip the oracle, got {v:?}"
        );
    }
}
