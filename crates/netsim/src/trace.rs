//! Execution traces: an optional typed record of the simulated schedule.
//!
//! Every interesting simulated occurrence — a task attempt, a shuffle
//! fetch, a broadcast round, a lineage recompute — becomes one
//! [`TraceEvent`] with a start/end interval in virtual time, the phase it
//! belongs to, and a typed [`EventKind`] payload. The trace renders as a
//! text Gantt chart, exports to CSV (round-trippable) and to
//! Chrome-trace/Perfetto JSON (see [`crate::chrome`]), and feeds the
//! [`crate::Metrics`] summary and [`crate::CriticalPath`] analysis — the
//! visibility tools for debugging framework scheduling behaviour (stage
//! barriers, stragglers, dispatch serialization, broadcast cost).
//!
//! ## Interned labels
//!
//! Phase and label strings are *interned*: events carry `u32` [`Sym`]
//! handles into the trace's [`Interner`], so recording an event on the
//! simulator hot path allocates nothing ([`TraceEvent`] is `Copy`).
//! Strings materialise only at export boundaries (CSV, Chrome JSON, the
//! Gantt legend, critical-path attribution) via [`Trace::resolve`] /
//! [`Trace::phase_of`] / [`Trace::label_of`]. Because symbol ids depend on
//! first-use order (which varies across e.g. CSV round-trips or
//! multi-threaded recording), trace equality compares *resolved strings*,
//! never raw ids.

use std::collections::HashMap;
use std::fmt::{self, Write};

/// Interned-string handle. `Sym(0)` is always the empty string.
pub type Sym = u32;

/// String interner owned by a [`Trace`]: maps phase/label strings to dense
/// `u32` ids so hot-path event records don't allocate. The empty string is
/// pre-interned as id 0.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    strings: Vec<String>,
    index: HashMap<String, Sym>,
}

impl Interner {
    pub fn new() -> Interner {
        let mut i = Interner {
            strings: Vec::new(),
            index: HashMap::new(),
        };
        i.intern("");
        i
    }

    /// Id for `s`, allocating one on first sight.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.index.get(s) {
            return sym;
        }
        let sym = self.strings.len() as Sym;
        self.strings.push(s.to_string());
        self.index.insert(s.to_string(), sym);
        sym
    }

    /// The string behind `sym` (empty for an id this interner never
    /// issued — only possible for events smuggled in from another trace).
    pub fn resolve(&self, sym: Sym) -> &str {
        self.strings.get(sym as usize).map_or("", String::as_str)
    }
}

/// What a trace event records. Only `Task` events occupy a core; the
/// other kinds live on the network/driver timelines. Label-carrying kinds
/// hold interned [`Sym`]s — resolve through the owning trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// A task attempt executing on a core. `speculative` marks backup
    /// attempts launched by speculative execution.
    Task { label: Sym, speculative: bool },
    /// A point-to-point transfer (shuffle fetch, staging, gather leg).
    /// A `killed` fetch event is one lost on the wire and re-sent.
    Fetch {
        from_node: usize,
        to_node: usize,
        bytes: u64,
    },
    /// One broadcast round from the driver to `dest_nodes` destinations.
    Broadcast { bytes: u64, dest_nodes: usize },
    /// Recovery work outside normal task placement (lineage recompute
    /// dispatch, DB re-enqueue, failure detection window).
    Recovery { label: Sym },
    /// Bytes written to (and later read back from) node-local scratch
    /// disk because `node`'s memory budget could not hold them resident.
    Spill { node: usize, bytes: u64 },
    /// Cached/resident bytes dropped from `node` under memory pressure;
    /// recoverable by lineage recompute, so no data is lost.
    Evict { node: usize, bytes: u64 },
    /// A task or worker on `node` killed outright for exceeding the memory
    /// budget (after spill/eviction could not make room).
    OomKill { node: usize },
    /// A job entering a tenant's service queue (mdtaskd).
    Enqueue { tenant: usize, job: usize },
    /// A queued job admitted to a cluster by the service scheduler.
    /// `ready_s` is the enqueue time, so `start_s - ready_s` is the queue
    /// wait the admission decision imposed.
    Admit { tenant: usize, job: usize },
    /// A job refused with a typed error (backpressure, quota, or
    /// capacity). `killed` is set: the submission's work was never done.
    Reject { tenant: usize, job: usize },
    /// A streaming pipeline pausing ingestion because `node`'s resident
    /// window state is at the memory budget — the interval is the pause,
    /// which ends when a scheduled budget change makes room. Pausing
    /// instead of OOM-killing is the backpressure contract.
    Backpressure { node: usize },
    /// A stale result rejected by fencing: a zombie attempt (rescheduled
    /// on false-positive suspicion while the original survived a
    /// partition) delivered after heal and was discarded by its attempt
    /// epoch / generation number. The interval spans suspicion to the
    /// would-be delivery; the label names the engine's fencing mechanism.
    Fenced { label: Sym },
}

impl EventKind {
    /// CSV/JSON discriminant.
    pub fn kind_name(&self) -> &'static str {
        match self {
            EventKind::Task { .. } => "task",
            EventKind::Fetch { .. } => "fetch",
            EventKind::Broadcast { .. } => "broadcast",
            EventKind::Recovery { .. } => "recovery",
            EventKind::Spill { .. } => "spill",
            EventKind::Evict { .. } => "evict",
            EventKind::OomKill { .. } => "oomkill",
            EventKind::Enqueue { .. } => "enqueue",
            EventKind::Admit { .. } => "admit",
            EventKind::Reject { .. } => "reject",
            EventKind::Backpressure { .. } => "backpressure",
            EventKind::Fenced { .. } => "fenced",
        }
    }

    /// The label symbol for kinds that carry one (`Task`, `Recovery`,
    /// `Fenced`).
    fn label_sym(&self) -> Option<Sym> {
        match self {
            EventKind::Task { label, .. }
            | EventKind::Recovery { label }
            | EventKind::Fenced { label } => Some(*label),
            _ => None,
        }
    }
}

/// One scheduled occurrence in the simulated run. `Copy`: all strings are
/// interned [`Sym`]s resolved through the owning [`Trace`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Monotonic id in record order (re-assigned to sorted order by
    /// engines that record from several threads).
    pub task: usize,
    /// Core id for `Task` events; a track hint (e.g. destination node or
    /// rank) for non-task events, which do not occupy the core.
    pub core: usize,
    pub start_s: f64,
    pub end_s: f64,
    /// True if this attempt was cut short (node death, speculative loser)
    /// or, for a fetch, lost on the wire — the interval's work was wasted.
    pub killed: bool,
    /// When the event *could* have started (task release time). The gap
    /// `start_s - ready_s` is queue wait.
    pub ready_s: f64,
    /// Owning phase ("broadcast", "edge-discovery", …); [`Sym`] 0 (the
    /// empty string) when the engine did not declare one.
    pub phase: Sym,
    pub kind: EventKind,
}

impl TraceEvent {
    /// Only task attempts hold a core busy; fetches/broadcasts/recovery
    /// windows overlap freely with task execution.
    pub fn occupies_core(&self) -> bool {
        matches!(self.kind, EventKind::Task { .. })
    }
}

/// A recorded schedule.
///
/// Equality is *semantic*: two traces are equal when their events match
/// with phases/labels compared as resolved strings, regardless of the
/// symbol ids behind them (ids depend on first-use order, which differs
/// across CSV round-trips and multi-threaded recording).
#[derive(Clone, Debug)]
pub struct Trace {
    pub events: Vec<TraceEvent>,
    interner: Interner,
    /// Cached `max(end_s)` over all events, maintained by [`Self::record`]
    /// so [`Self::span`] is O(1) instead of re-folding the event vector.
    span_s: f64,
    /// Task-event sampling stride the recording executor used: 1 = every
    /// task attempt was recorded (the default), `n` = only every n-th.
    /// Oracles that reconcile the trace against report counters must skip
    /// a sampled trace (see [`Self::is_sampled`]).
    sample_stride: u32,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace {
            events: Vec::new(),
            interner: Interner::new(),
            span_s: 0.0,
            sample_stride: 1,
        }
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Trace) -> bool {
        self.events.len() == other.events.len()
            && self
                .events
                .iter()
                .zip(&other.events)
                .all(|(a, b)| self.event_eq(a, other, b))
    }
}

impl Trace {
    /// Compare one event of `self` against one of `other`, resolving
    /// label/phase symbols through each trace's own interner.
    fn event_eq(&self, a: &TraceEvent, other: &Trace, b: &TraceEvent) -> bool {
        let payload_eq = match (&a.kind, &b.kind) {
            (
                EventKind::Task {
                    speculative: sa, ..
                },
                EventKind::Task {
                    speculative: sb, ..
                },
            ) => sa == sb,
            (EventKind::Recovery { .. }, EventKind::Recovery { .. }) => true,
            (EventKind::Fenced { .. }, EventKind::Fenced { .. }) => true,
            (ka, kb) => ka == kb,
        };
        payload_eq
            && a.kind.kind_name() == b.kind.kind_name()
            && self.label_of(a) == other.label_of(b)
            && a.task == b.task
            && a.core == b.core
            && a.start_s == b.start_s
            && a.end_s == b.end_s
            && a.killed == b.killed
            && a.ready_s == b.ready_s
            && self.resolve(a.phase) == other.resolve(b.phase)
    }

    /// Intern a phase/label string, returning its [`Sym`].
    pub fn intern(&mut self, s: &str) -> Sym {
        self.interner.intern(s)
    }

    /// The string behind `sym`.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.interner.resolve(sym)
    }

    /// Every interned string, indexed by its [`Sym`].
    pub(crate) fn symbols(&self) -> &[String] {
        &self.interner.strings
    }

    /// Resolved phase name of an event recorded in this trace.
    pub fn phase_of(&self, e: &TraceEvent) -> &str {
        self.interner.resolve(e.phase)
    }

    /// Stable display label of an event recorded in this trace: the
    /// interned label for `Task`/`Recovery` kinds, a fixed name otherwise.
    /// Used by the Gantt legend, CSV `label` column, Chrome-trace `name`,
    /// and critical-path attribution.
    pub fn label_of(&self, e: &TraceEvent) -> &str {
        match &e.kind {
            EventKind::Task { label, .. }
            | EventKind::Recovery { label }
            | EventKind::Fenced { label } => self.interner.resolve(*label),
            EventKind::Fetch { .. } => "fetch",
            EventKind::Broadcast { .. } => "broadcast",
            EventKind::Spill { .. } => "spill",
            EventKind::Evict { .. } => "evict",
            EventKind::OomKill { .. } => "oom-kill",
            EventKind::Enqueue { .. } => "enqueue",
            EventKind::Admit { .. } => "admit",
            EventKind::Reject { .. } => "reject",
            EventKind::Backpressure { .. } => "backpressure",
        }
    }

    /// Record a completed plain task attempt (compatibility shim around
    /// [`Self::record`]).
    pub fn push(&mut self, task: usize, core: usize, start_s: f64, end_s: f64) {
        let label = self.intern("task");
        self.record(TraceEvent {
            task,
            core,
            start_s,
            end_s,
            killed: false,
            ready_s: start_s,
            phase: 0,
            kind: EventKind::Task {
                label,
                speculative: false,
            },
        });
    }

    /// Record a task attempt killed by a node death at `died_at`.
    pub fn push_killed(&mut self, task: usize, core: usize, start_s: f64, died_at: f64) {
        let label = self.intern("task");
        self.record(TraceEvent {
            task,
            core,
            start_s,
            end_s: died_at,
            killed: true,
            ready_s: start_s,
            phase: 0,
            kind: EventKind::Task {
                label,
                speculative: false,
            },
        });
    }

    /// Record an arbitrary typed event. Label/phase symbols must come from
    /// this trace's [`Self::intern`].
    pub fn record(&mut self, e: TraceEvent) {
        debug_assert!(e.end_s >= e.start_s, "event ends before it starts");
        debug_assert!(e.ready_s <= e.start_s + 1e-12, "ready after start");
        if e.end_s > self.span_s {
            self.span_s = e.end_s;
        }
        self.events.push(e);
    }

    /// Next unused event id (record order).
    pub fn next_id(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Makespan covered by the trace (cached, O(1)).
    pub fn span(&self) -> f64 {
        self.span_s
    }

    /// Mark this trace as sampled: only every `stride`-th task attempt was
    /// recorded. Network/memory events are never sampled (byte-conservation
    /// oracles need all of them).
    pub fn set_sample_stride(&mut self, stride: u32) {
        self.sample_stride = stride.max(1);
    }

    /// The task-event sampling stride (1 = complete trace).
    pub fn sample_stride(&self) -> u32 {
        self.sample_stride
    }

    /// True when task events were sampled, i.e. the trace is *not* a
    /// complete record and event counts cannot be reconciled against
    /// report counters.
    pub fn is_sampled(&self) -> bool {
        self.sample_stride > 1
    }

    /// Sort events into virtual-time order — (start, end, core, label) —
    /// and renumber ids to the sorted order. Engines that record from
    /// several threads (SPMD ranks) call this after the join so runs are
    /// reproducible regardless of host scheduling. Labels compare as
    /// resolved strings, so the order is independent of symbol ids.
    pub fn sort_for_determinism(&mut self) {
        let interner = std::mem::take(&mut self.interner);
        self.events.sort_by(|a, b| {
            a.start_s
                .total_cmp(&b.start_s)
                .then(a.end_s.total_cmp(&b.end_s))
                .then(a.core.cmp(&b.core))
                .then_with(|| {
                    let la = a.kind.label_sym().map_or("", |s| interner.resolve(s));
                    let lb = b.kind.label_sym().map_or("", |s| interner.resolve(s));
                    la.cmp(lb)
                })
        });
        self.interner = interner;
        for (i, e) in self.events.iter_mut().enumerate() {
            e.task = i;
        }
    }

    /// Core utilization counting *useful* work only: completed (non-killed)
    /// task-attempt time / (cores × makespan). Killed attempts' partial
    /// work is excluded — it was thrown away. Compare with
    /// [`Self::busy_fraction`].
    pub fn utilization(&self, n_cores: usize) -> f64 {
        self.occupancy(n_cores, false)
    }

    /// Fraction of core-time that was *occupied*, useful or not: includes
    /// killed attempts (node-death victims, speculative losers). The gap
    /// `busy_fraction - utilization` is the core-time lost to failures.
    pub fn busy_fraction(&self, n_cores: usize) -> f64 {
        self.occupancy(n_cores, true)
    }

    fn occupancy(&self, n_cores: usize, include_killed: bool) -> f64 {
        let busy: f64 = self
            .events
            .iter()
            .filter(|e| e.occupies_core() && (include_killed || !e.killed))
            .map(|e| e.end_s - e.start_s)
            .sum();
        self.core_share(busy, n_cores)
    }

    /// `busy` core-seconds as a fraction of `n_cores` over the span (0
    /// for an empty span or no cores).
    pub(crate) fn core_share(&self, busy: f64, n_cores: usize) -> f64 {
        let span = self.span();
        if span <= 0.0 || n_cores == 0 {
            return 0.0;
        }
        busy / (n_cores as f64 * span)
    }

    /// Render a text Gantt chart: one row per core, `width` columns of
    /// virtual time, `#` for busy, `x` for a killed attempt, `.` for idle.
    /// Only core-occupying (task) events are drawn.
    pub fn gantt(&self, n_cores: usize, width: usize) -> String {
        assert!(width >= 1);
        let span = self.span().max(f64::MIN_POSITIVE);
        let mut rows = vec![vec![b'.'; width]; n_cores];
        for e in &self.events {
            if e.core >= n_cores || !e.occupies_core() {
                continue;
            }
            // A zero-duration event at the span boundary maps to the last
            // cell: clamp the floor into range *first*, so `a + 1 <= width`
            // always holds and the cell range below never inverts.
            let a = ((e.start_s / span) * width as f64).floor() as usize;
            let a = a.min(width - 1);
            let b = (((e.end_s / span) * width as f64).ceil() as usize).clamp(a + 1, width);
            let mark = if e.killed { b'x' } else { b'#' };
            for cell in &mut rows[e.core][a..b] {
                *cell = mark;
            }
        }
        let mut out = String::new();
        for (c, row) in rows.iter().enumerate() {
            out.push_str(&format!("core {c:>3} |"));
            out.push_str(std::str::from_utf8(row).expect("ascii"));
            out.push('\n');
        }
        out.push_str(&format!("          0 .. {:.3}s\n", span));
        out
    }

    /// Serialize as CSV, one row per event, for external plotting. The
    /// `from_node`/`to_node`/`bytes`/`dest_nodes` columns are empty for
    /// kinds they do not apply to. Labels and phases must not contain
    /// commas or newlines (engine-internal identifiers never do).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(CSV_HEADER.len() + 1 + 64 * self.events.len());
        self.write_csv(&mut out)
            .expect("formatting into a String cannot fail");
        out
    }

    fn write_csv(&self, out: &mut String) -> fmt::Result {
        out.push_str(CSV_HEADER);
        out.push('\n');
        for e in &self.events {
            let (label, phase) = (self.label_of(e), self.phase_of(e));
            debug_assert!(!label.contains(',') && !phase.contains(','));
            write!(
                out,
                "{},{},{},{},{},{},{label},{phase},{},",
                e.task,
                e.core,
                e.start_s,
                e.end_s,
                e.killed,
                e.kind.kind_name(),
                e.ready_s,
            )?;
            // speculative,from_node,to_node,bytes — empty where a column
            // does not apply to the kind.
            match e.kind {
                EventKind::Task { speculative, .. } => write!(out, "{speculative},,,"),
                EventKind::Fetch {
                    from_node,
                    to_node,
                    bytes,
                } => write!(out, ",{from_node},{to_node},{bytes}"),
                EventKind::Broadcast { bytes, dest_nodes } => {
                    write!(out, ",,,{bytes};{dest_nodes}")
                }
                EventKind::Recovery { .. } | EventKind::Fenced { .. } => write!(out, ",,,"),
                // Memory events reuse the from_node column for their node.
                EventKind::Spill { node, bytes } | EventKind::Evict { node, bytes } => {
                    write!(out, ",{node},,{bytes}")
                }
                EventKind::OomKill { node } | EventKind::Backpressure { node } => {
                    write!(out, ",{node},,")
                }
                // Service events reuse from_node for the tenant and
                // to_node for the job id.
                EventKind::Enqueue { tenant, job }
                | EventKind::Admit { tenant, job }
                | EventKind::Reject { tenant, job } => write!(out, ",{tenant},{job},"),
            }?;
            out.push('\n');
        }
        Ok(())
    }

    /// Parse a trace back from [`Self::to_csv`] output (exact round-trip:
    /// `f64` values are printed with Rust's shortest-round-trip formatting;
    /// symbol ids may differ from the source trace but equality compares
    /// resolved strings).
    pub fn from_csv(csv: &str) -> Result<Trace, String> {
        let mut lines = csv.lines();
        match lines.next() {
            Some(h) if h == CSV_HEADER => {}
            other => return Err(format!("bad header: {other:?}")),
        }
        let mut t = Trace::default();
        for (i, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split(',').collect();
            if f.len() != 13 {
                return Err(format!("row {i}: expected 13 fields, got {}", f.len()));
            }
            let num = |s: &str, what: &str| -> Result<f64, String> {
                s.parse().map_err(|_| format!("row {i}: bad {what}: {s}"))
            };
            let idx = |s: &str, what: &str| -> Result<usize, String> {
                s.parse().map_err(|_| format!("row {i}: bad {what}: {s}"))
            };
            let kind = match f[5] {
                "task" => EventKind::Task {
                    label: t.intern(f[6]),
                    speculative: f[9] == "true",
                },
                "fetch" => EventKind::Fetch {
                    from_node: idx(f[10], "from_node")?,
                    to_node: idx(f[11], "to_node")?,
                    bytes: f[12]
                        .parse()
                        .map_err(|_| format!("row {i}: bad bytes: {}", f[12]))?,
                },
                "broadcast" => {
                    let (b, d) = f[12]
                        .split_once(';')
                        .ok_or_else(|| format!("row {i}: bad broadcast payload: {}", f[12]))?;
                    EventKind::Broadcast {
                        bytes: b.parse().map_err(|_| format!("row {i}: bad bytes: {b}"))?,
                        dest_nodes: idx(d, "dest_nodes")?,
                    }
                }
                "recovery" => EventKind::Recovery {
                    label: t.intern(f[6]),
                },
                "fenced" => EventKind::Fenced {
                    label: t.intern(f[6]),
                },
                "spill" => EventKind::Spill {
                    node: idx(f[10], "node")?,
                    bytes: f[12]
                        .parse()
                        .map_err(|_| format!("row {i}: bad bytes: {}", f[12]))?,
                },
                "evict" => EventKind::Evict {
                    node: idx(f[10], "node")?,
                    bytes: f[12]
                        .parse()
                        .map_err(|_| format!("row {i}: bad bytes: {}", f[12]))?,
                },
                "oomkill" => EventKind::OomKill {
                    node: idx(f[10], "node")?,
                },
                "backpressure" => EventKind::Backpressure {
                    node: idx(f[10], "node")?,
                },
                "enqueue" => EventKind::Enqueue {
                    tenant: idx(f[10], "tenant")?,
                    job: idx(f[11], "job")?,
                },
                "admit" => EventKind::Admit {
                    tenant: idx(f[10], "tenant")?,
                    job: idx(f[11], "job")?,
                },
                "reject" => EventKind::Reject {
                    tenant: idx(f[10], "tenant")?,
                    job: idx(f[11], "job")?,
                },
                other => return Err(format!("row {i}: unknown kind: {other}")),
            };
            let phase = t.intern(f[7]);
            let e = TraceEvent {
                task: idx(f[0], "task")?,
                core: idx(f[1], "core")?,
                start_s: num(f[2], "start_s")?,
                end_s: num(f[3], "end_s")?,
                killed: f[4] == "true",
                ready_s: num(f[8], "ready_s")?,
                phase,
                kind,
            };
            // `record`'s invariants, checked in every build; a NaN fails both.
            if !(e.end_s >= e.start_s && e.ready_s <= e.start_s + 1e-12) {
                return Err(format!(
                    "row {i}: needs ready_s <= start_s <= end_s, got {} / {} / {}",
                    e.ready_s, e.start_s, e.end_s
                ));
            }
            t.record(e);
        }
        Ok(t)
    }
}

const CSV_HEADER: &str =
    "task,core,start_s,end_s,killed,kind,label,phase,ready_s,speculative,from_node,to_node,bytes";

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Trace {
        let mut t = Trace::default();
        t.push(0, 0, 0.0, 1.0);
        t.push(1, 1, 0.0, 0.5);
        t.push(2, 1, 0.5, 2.0);
        t
    }

    /// Test helper: record a typed event, interning the phase string.
    fn rec(
        t: &mut Trace,
        task: usize,
        core: usize,
        span: (f64, f64),
        phase: &str,
        kind: EventKind,
    ) {
        let phase = t.intern(phase);
        t.record(TraceEvent {
            task,
            core,
            start_s: span.0,
            end_s: span.1,
            killed: false,
            ready_s: span.0,
            phase,
            kind,
        });
    }

    #[test]
    fn span_and_utilization() {
        let t = trace();
        assert_eq!(t.span(), 2.0);
        // busy = 1.0 + 0.5 + 1.5 = 3.0 over 2 cores × 2.0s.
        assert!((t.utilization(2) - 0.75).abs() < 1e-12);
        assert_eq!(Trace::default().utilization(2), 0.0);
    }

    #[test]
    fn span_is_maintained_incrementally() {
        let mut t = Trace::default();
        assert_eq!(t.span(), 0.0);
        t.push(0, 0, 0.0, 3.0);
        t.push(1, 1, 0.0, 1.0); // earlier end must not shrink the span
        assert_eq!(t.span(), 3.0);
        t.push(2, 0, 3.0, 4.5);
        assert_eq!(t.span(), 4.5);
    }

    #[test]
    fn interning_is_stable_and_resolves() {
        let mut t = Trace::default();
        assert_eq!(t.intern(""), 0, "empty string is pre-interned as 0");
        let a = t.intern("map");
        let b = t.intern("reduce");
        assert_ne!(a, b);
        assert_eq!(t.intern("map"), a, "same string, same sym");
        assert_eq!(t.resolve(a), "map");
        assert_eq!(t.resolve(b), "reduce");
        assert_eq!(t.resolve(999), "", "unknown syms resolve to empty");
    }

    #[test]
    fn equality_is_by_resolved_strings_not_sym_ids() {
        // Same events, interned in different orders → different ids, but
        // the traces must still compare equal.
        let mut a = Trace::default();
        let (m, s0) = (a.intern("map"), a.intern("stage-0"));
        rec(
            &mut a,
            0,
            0,
            (0.0, 1.0),
            "stage-0",
            EventKind::Task {
                label: m,
                speculative: false,
            },
        );
        let _ = (m, s0);
        let mut b = Trace::default();
        let _decoy = b.intern("reduce"); // shifts ids
        let m2 = b.intern("map");
        rec(
            &mut b,
            0,
            0,
            (0.0, 1.0),
            "stage-0",
            EventKind::Task {
                label: m2,
                speculative: false,
            },
        );
        assert_eq!(a, b);
        // Differing labels break equality even with equal ids.
        let mut c = Trace::default();
        let r = c.intern("reduce");
        rec(
            &mut c,
            0,
            0,
            (0.0, 1.0),
            "stage-0",
            EventKind::Task {
                label: r,
                speculative: false,
            },
        );
        assert_ne!(a, c);
    }

    #[test]
    fn sort_for_determinism_orders_and_renumbers() {
        let mut t = Trace::default();
        let b = t.intern("beta");
        let a = t.intern("alpha");
        rec(
            &mut t,
            7,
            1,
            (1.0, 2.0),
            "",
            EventKind::Task {
                label: b,
                speculative: false,
            },
        );
        rec(
            &mut t,
            9,
            0,
            (0.0, 1.0),
            "",
            EventKind::Task {
                label: a,
                speculative: false,
            },
        );
        // Same (start, end, core): resolved-label order decides, so
        // "alpha" must come before "beta" even though its sym id is larger.
        rec(
            &mut t,
            3,
            2,
            (0.0, 1.0),
            "",
            EventKind::Task {
                label: b,
                speculative: false,
            },
        );
        rec(
            &mut t,
            4,
            2,
            (0.0, 1.0),
            "",
            EventKind::Task {
                label: a,
                speculative: false,
            },
        );
        t.sort_for_determinism();
        let labels: Vec<&str> = t.events.iter().map(|e| t.label_of(e)).collect();
        assert_eq!(labels, vec!["alpha", "alpha", "beta", "beta"]);
        let ids: Vec<usize> = t.events.iter().map(|e| e.task).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(t.events[0].core, 0, "time order before label order");
    }

    #[test]
    fn sampled_traces_declare_themselves() {
        let mut t = Trace::default();
        assert!(!t.is_sampled());
        assert_eq!(t.sample_stride(), 1);
        t.set_sample_stride(16);
        assert!(t.is_sampled());
        t.set_sample_stride(0); // clamped: stride 0 means "record all"
        assert_eq!(t.sample_stride(), 1);
    }

    #[test]
    fn utilization_excludes_killed_but_busy_fraction_counts_them() {
        let mut t = Trace::default();
        t.push(0, 0, 0.0, 1.0); // useful
        t.push_killed(1, 1, 0.0, 1.0); // lost work
        t.push(2, 1, 1.0, 2.0); // useful rerun
                                // span 2.0, 2 cores: useful = 2.0 of 4.0; occupied = 3.0 of 4.0.
        assert!((t.utilization(2) - 0.5).abs() < 1e-12);
        assert!((t.busy_fraction(2) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn non_task_events_do_not_count_as_core_time() {
        let mut t = Trace::default();
        t.push(0, 0, 0.0, 1.0);
        rec(
            &mut t,
            1,
            0,
            (0.0, 1.0),
            "shuffle",
            EventKind::Fetch {
                from_node: 0,
                to_node: 1,
                bytes: 100,
            },
        );
        assert!((t.utilization(1) - 1.0).abs() < 1e-12);
        assert!(!t.gantt(1, 4).contains('x'));
    }

    #[test]
    fn gantt_renders_rows() {
        let g = trace().gantt(2, 10);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("core   0 |#####"));
        assert!(lines[1].contains('#'));
        assert!(lines[2].contains("2.000"));
    }

    #[test]
    fn gantt_zero_duration_event_at_span_boundary_does_not_panic() {
        // Regression: an event with start_s == span produced
        // `a + 1 > width` and the old `clamp(a + 1, width)` panicked.
        let mut t = Trace::default();
        t.push(0, 0, 0.0, 2.0);
        t.push(1, 1, 2.0, 2.0); // zero-duration, exactly at the makespan
        let g = t.gantt(2, 10);
        assert!(g.lines().nth(1).unwrap().ends_with('#'));

        // All-zero-duration trace (Fig. 2 zero-workload shape).
        let mut z = Trace::default();
        z.push(0, 0, 0.0, 0.0);
        z.push(1, 0, 0.0, 0.0);
        let _ = z.gantt(1, 5);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = trace().to_csv();
        assert!(csv.starts_with(CSV_HEADER));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn csv_round_trips_all_kinds() {
        let mut t = trace();
        t.push_killed(3, 0, 1.0, 1.25);
        rec(
            &mut t,
            4,
            1,
            (0.125, 0.375),
            "shuffle",
            EventKind::Fetch {
                from_node: 0,
                to_node: 1,
                bytes: 4096,
            },
        );
        // ready_s < start_s on this one: patch it after the helper.
        t.events.last_mut().unwrap().ready_s = 0.1;
        rec(
            &mut t,
            5,
            0,
            (0.0, 0.5),
            "broadcast",
            EventKind::Broadcast {
                bytes: 1 << 20,
                dest_nodes: 3,
            },
        );
        let recompute = t.intern("recompute");
        rec(
            &mut t,
            6,
            2,
            (0.5, 0.75),
            "recovery",
            EventKind::Recovery { label: recompute },
        );
        rec(
            &mut t,
            7,
            0,
            (0.75, 1.0),
            "shuffle",
            EventKind::Spill {
                node: 1,
                bytes: 2048,
            },
        );
        rec(
            &mut t,
            8,
            0,
            (1.0, 1.0),
            "cache",
            EventKind::Evict {
                node: 0,
                bytes: 512,
            },
        );
        rec(
            &mut t,
            9,
            3,
            (1.5, 1.5),
            "memory",
            EventKind::OomKill { node: 1 },
        );
        rec(
            &mut t,
            10,
            0,
            (1.5, 1.5),
            "service",
            EventKind::Enqueue { tenant: 2, job: 17 },
        );
        rec(
            &mut t,
            11,
            0,
            (1.75, 1.75),
            "service",
            EventKind::Admit { tenant: 2, job: 17 },
        );
        t.events.last_mut().unwrap().ready_s = 1.5; // queue wait survives
        rec(
            &mut t,
            12,
            0,
            (1.75, 1.75),
            "service",
            EventKind::Reject { tenant: 3, job: 18 },
        );
        t.events.last_mut().unwrap().killed = true;
        rec(
            &mut t,
            13,
            0,
            (2.0, 2.5),
            "stream",
            EventKind::Backpressure { node: 1 },
        );
        let back = Trace::from_csv(&t.to_csv()).expect("round trip");
        assert_eq!(back, t);
    }

    #[test]
    fn from_csv_rejects_garbage() {
        assert!(Trace::from_csv("nope\n1,2,3").is_err());
        let bad_row = format!("{CSV_HEADER}\n1,2,3\n");
        assert!(Trace::from_csv(&bad_row).is_err());
        // Rows that break `record`'s invariants: an end before the start,
        // a ready time after it, and a NaN start.
        for (start, end, ready) in [("2", "1", "0"), ("1", "2", "1.5"), ("NaN", "2", "0")] {
            let row = format!("{CSV_HEADER}\n0,0,{start},{end},false,task,t,p,{ready},false,,,\n");
            let err = Trace::from_csv(&row).expect_err(&row);
            assert!(err.starts_with("row 0: needs ready_s"), "{err}");
        }
    }

    #[test]
    fn killed_attempts_render_distinctly() {
        let mut t = Trace::default();
        t.push(0, 0, 0.0, 1.0);
        t.push_killed(1, 1, 0.0, 0.5);
        assert!(t.events[1].killed);
        let g = t.gantt(2, 8);
        assert!(g.contains('x'), "killed attempt must render as x:\n{g}");
        assert!(t.to_csv().contains("true"));
    }
}
