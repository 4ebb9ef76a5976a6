//! Chrome-trace / Perfetto JSON export.
//!
//! [`Trace::to_chrome_json`] emits the Trace Event Format that
//! `chrome://tracing` and <https://ui.perfetto.dev> load directly. The
//! document schema (pinned by a golden test):
//!
//! * top level: `{"traceEvents":[...],"displayTimeUnit":"ms"}`;
//! * **pid 0 — "cores"**: one thread per core; every task attempt is a
//!   complete (`"X"`) slice named by its label, with `phase`, `killed`,
//!   `speculative` and `ready_us` in `args`;
//! * **pid 1 — "network"**: one thread per node; shuffle fetches are
//!   slices on the *destination* node's track with a flow arrow
//!   (`"s"`/`"f"` events anchored to a zero-width `send` slice on the
//!   source track), broadcasts are slices on the root's track;
//! * **pid 2 — "driver"**: recovery/recompute windows;
//! * timestamps are microseconds with fixed 3-decimal formatting, so
//!   output is byte-stable across runs of the same schedule.
//!
//! JSON is hand-rolled (the workspace deliberately carries no serde) and
//! written in one pass into one buffer: each event is formatted straight
//! into the output, and each phase/label string is escaped once, by
//! [`crate::metrics::push_json_escaped`], however many events carry it.
//! The bytes are a contract — `tests/golden_collectives.rs` freezes their
//! hash for every event kind.

use crate::metrics::push_json_escaped;
use crate::trace::{EventKind, Sym, Trace};
use std::fmt::{self, Write};

const PID_CORES: u32 = 0;
const PID_NETWORK: u32 = 1;
const PID_DRIVER: u32 = 2;

/// Seconds as microseconds with three decimals.
struct Us(f64);

impl fmt::Display for Us {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0 * 1e6)
    }
}

/// A metadata (`"M"`) record naming a process or thread.
fn meta(
    out: &mut String,
    pid: u32,
    tid: usize,
    which: &str,
    name: fmt::Arguments<'_>,
) -> fmt::Result {
    write!(
        out,
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{which}\",\"args\":{{\"name\":\"{name}\"}}}}"
    )
}

/// Start the next record of the event array: a complete (`"X"`) slice, up
/// to and including the `phase` every slice's `args` begin with. `name`
/// and `phase` are already escaped; the caller appends the kind's own
/// args and closes both objects.
fn open_slice(
    out: &mut String,
    pid: u32,
    tid: usize,
    name: &str,
    cat: &str,
    (start_s, end_s): (f64, f64),
    phase: &str,
) -> fmt::Result {
    write!(
        out,
        ",\n{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{name}\",\"cat\":\"{cat}\",\"ts\":{},\"dur\":{},\"args\":{{\"phase\":\"{phase}\"",
        Us(start_s),
        Us(end_s - start_s),
    )
}

fn sorted_set(mut ids: Vec<usize>) -> Vec<usize> {
    ids.sort_unstable();
    ids.dedup();
    ids
}

impl Trace {
    /// Serialize the trace in Chrome Trace Event Format (see module docs
    /// for the track layout). Load the result in `chrome://tracing` or
    /// <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        // A task slice is ~170 bytes plus its label and phase.
        let mut out = String::with_capacity(1024 + 192 * self.events.len());
        self.write_chrome_json(&mut out)
            .expect("formatting into a String cannot fail");
        out
    }

    fn write_chrome_json(&self, out: &mut String) -> fmt::Result {
        // Every interned string, escaped once, back to back: symbol `i`
        // is `escaped[bounds[i]..bounds[i + 1]]`.
        let mut escaped = String::new();
        let mut bounds = vec![0];
        for s in self.symbols() {
            push_json_escaped(&mut escaped, s);
            bounds.push(escaped.len());
        }
        let text = |sym: Sym| match bounds.get(sym as usize..) {
            Some(&[from, to, ..]) => &escaped[from..to],
            _ => "", // never issued by this interner
        };

        let mut cores: Vec<usize> = Vec::new();
        let mut nodes: Vec<usize> = Vec::new();
        for e in &self.events {
            match e.kind {
                EventKind::Task { .. } => cores.push(e.core),
                EventKind::Fetch {
                    from_node, to_node, ..
                } => nodes.extend([from_node, to_node]),
                EventKind::Broadcast { .. } => nodes.push(e.core),
                EventKind::Spill { node, .. }
                | EventKind::Evict { node, .. }
                | EventKind::Backpressure { node } => nodes.push(node),
                EventKind::Recovery { .. }
                | EventKind::Fenced { .. }
                | EventKind::OomKill { .. }
                | EventKind::Enqueue { .. }
                | EventKind::Admit { .. }
                | EventKind::Reject { .. } => {}
            }
        }

        out.push_str("{\"traceEvents\":[\n");
        meta(out, PID_CORES, 0, "process_name", format_args!("cores"))?;
        for (pid, name) in [(PID_NETWORK, "network"), (PID_DRIVER, "driver")] {
            out.push_str(",\n");
            meta(out, pid, 0, "process_name", format_args!("{name}"))?;
        }
        let core_tracks = sorted_set(cores)
            .into_iter()
            .map(|c| (PID_CORES, "core", c));
        let node_tracks = sorted_set(nodes)
            .into_iter()
            .map(|n| (PID_NETWORK, "node", n));
        for (pid, what, tid) in core_tracks.chain(node_tracks) {
            out.push_str(",\n");
            meta(out, pid, tid, "thread_name", format_args!("{what} {tid}"))?;
        }

        for (id, e) in self.events.iter().enumerate() {
            let (start, end, phase) = (e.start_s, e.end_s, text(e.phase));
            let span = (start, end);
            match e.kind {
                EventKind::Task { label, speculative } => {
                    open_slice(out, PID_CORES, e.core, text(label), "task", span, phase)?;
                    write!(
                        out,
                        ",\"killed\":{},\"speculative\":{speculative},\"ready_us\":{}}}}}",
                        e.killed,
                        Us(e.ready_s)
                    )?;
                }
                EventKind::Fetch {
                    from_node,
                    to_node,
                    bytes,
                } => {
                    // The fetch occupies the destination's network track,
                    // with an async arrow from a zero-width marker on the
                    // source track (flow events bind to enclosing slices).
                    for (tid, name, end) in [(to_node, "fetch", end), (from_node, "send", start)] {
                        open_slice(out, PID_NETWORK, tid, name, "fetch", (start, end), phase)?;
                        write!(
                            out,
                            ",\"from_node\":{from_node},\"to_node\":{to_node},\"bytes\":{bytes},\"lost\":{}}}}}",
                            e.killed
                        )?;
                    }
                    write!(
                        out,
                        ",\n{{\"ph\":\"s\",\"pid\":{PID_NETWORK},\"tid\":{from_node},\"name\":\"xfer\",\"cat\":\"fetch\",\"id\":{id},\"ts\":{}}}",
                        Us(start)
                    )?;
                    write!(
                        out,
                        ",\n{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{PID_NETWORK},\"tid\":{to_node},\"name\":\"xfer\",\"cat\":\"fetch\",\"id\":{id},\"ts\":{}}}",
                        Us(end)
                    )?;
                }
                EventKind::Broadcast { bytes, dest_nodes } => {
                    open_slice(
                        out,
                        PID_NETWORK,
                        e.core,
                        "broadcast",
                        "broadcast",
                        span,
                        phase,
                    )?;
                    write!(out, ",\"bytes\":{bytes},\"dest_nodes\":{dest_nodes}}}}}")?;
                }
                EventKind::Recovery { label } | EventKind::Fenced { label } => {
                    let cat = e.kind.kind_name();
                    open_slice(out, PID_DRIVER, 0, text(label), cat, span, phase)?;
                    out.push_str("}}");
                }
                EventKind::Spill { node, bytes } | EventKind::Evict { node, bytes } => {
                    let name = e.kind.kind_name();
                    open_slice(out, PID_NETWORK, node, name, "memory", span, phase)?;
                    write!(out, ",\"node\":{node},\"bytes\":{bytes}}}}}")?;
                }
                EventKind::OomKill { node } => {
                    open_slice(out, PID_DRIVER, 0, "oom-kill", "memory", span, phase)?;
                    write!(out, ",\"node\":{node}}}}}")?;
                }
                EventKind::Backpressure { node } => {
                    open_slice(
                        out,
                        PID_NETWORK,
                        node,
                        "backpressure",
                        "stream",
                        span,
                        phase,
                    )?;
                    write!(out, ",\"node\":{node}}}}}")?;
                }
                // Service-plane events (mdtaskd) render on the driver
                // track like recovery windows.
                EventKind::Enqueue { tenant, job }
                | EventKind::Admit { tenant, job }
                | EventKind::Reject { tenant, job } => {
                    let name = e.kind.kind_name();
                    open_slice(out, PID_DRIVER, 0, name, "service", span, phase)?;
                    write!(out, ",\"tenant\":{tenant},\"job\":{job}}}}}")?;
                }
            }
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent as TE;

    fn task(t: &mut Trace, id: usize, core: usize, start: f64, end: f64, label: &str, phase: &str) {
        let label = t.intern(label);
        let phase = t.intern(phase);
        t.record(TE {
            task: id,
            core,
            start_s: start,
            end_s: end,
            killed: false,
            ready_s: start,
            phase,
            kind: EventKind::Task {
                label,
                speculative: false,
            },
        });
    }

    /// Record a non-task event, interning the phase.
    fn other(
        t: &mut Trace,
        id: usize,
        core: usize,
        span: (f64, f64),
        phase: &str,
        kind: EventKind,
    ) {
        let phase = t.intern(phase);
        t.record(TE {
            task: id,
            core,
            start_s: span.0,
            end_s: span.1,
            killed: false,
            ready_s: span.0,
            phase,
            kind,
        });
    }

    /// A two-stage shuffle job, pinned byte-for-byte: two map tasks, one
    /// cross-node fetch, one reduce task. Any schema change must be made
    /// deliberately, here and in the module docs.
    #[test]
    fn golden_two_stage_shuffle() {
        let mut t = Trace::default();
        task(&mut t, 0, 0, 0.0, 1.0, "map", "stage-0");
        task(&mut t, 1, 1, 0.0, 1.5, "map", "stage-0");
        other(
            &mut t,
            2,
            1,
            (1.5, 2.0),
            "shuffle",
            EventKind::Fetch {
                from_node: 0,
                to_node: 1,
                bytes: 4096,
            },
        );
        task(&mut t, 3, 2, 2.0, 3.0, "reduce", "stage-1");
        let expected = concat!(
            "{\"traceEvents\":[\n",
            "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"cores\"}},\n",
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"network\"}},\n",
            "{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"driver\"}},\n",
            "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"core 0\"}},\n",
            "{\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"core 1\"}},\n",
            "{\"ph\":\"M\",\"pid\":0,\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":\"core 2\"}},\n",
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"node 0\"}},\n",
            "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"node 1\"}},\n",
            "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"map\",\"cat\":\"task\",\"ts\":0.000,\"dur\":1000000.000,\"args\":{\"phase\":\"stage-0\",\"killed\":false,\"speculative\":false,\"ready_us\":0.000}},\n",
            "{\"ph\":\"X\",\"pid\":0,\"tid\":1,\"name\":\"map\",\"cat\":\"task\",\"ts\":0.000,\"dur\":1500000.000,\"args\":{\"phase\":\"stage-0\",\"killed\":false,\"speculative\":false,\"ready_us\":0.000}},\n",
            "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"fetch\",\"cat\":\"fetch\",\"ts\":1500000.000,\"dur\":500000.000,\"args\":{\"phase\":\"shuffle\",\"from_node\":0,\"to_node\":1,\"bytes\":4096,\"lost\":false}},\n",
            "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"send\",\"cat\":\"fetch\",\"ts\":1500000.000,\"dur\":0.000,\"args\":{\"phase\":\"shuffle\",\"from_node\":0,\"to_node\":1,\"bytes\":4096,\"lost\":false}},\n",
            "{\"ph\":\"s\",\"pid\":1,\"tid\":0,\"name\":\"xfer\",\"cat\":\"fetch\",\"id\":2,\"ts\":1500000.000},\n",
            "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":1,\"name\":\"xfer\",\"cat\":\"fetch\",\"id\":2,\"ts\":2000000.000},\n",
            "{\"ph\":\"X\",\"pid\":0,\"tid\":2,\"name\":\"reduce\",\"cat\":\"task\",\"ts\":2000000.000,\"dur\":1000000.000,\"args\":{\"phase\":\"stage-1\",\"killed\":false,\"speculative\":false,\"ready_us\":2000000.000}},\n",
            "],\"displayTimeUnit\":\"ms\"}\n",
        );
        // The last event has no trailing comma; normalise the golden for
        // readability by stripping the one before the closing bracket.
        let expected = expected.replace("}},\n],", "}}\n],");
        assert_eq!(t.to_chrome_json(), expected);
    }

    #[test]
    fn broadcast_and_recovery_tracks() {
        let mut t = Trace::default();
        other(
            &mut t,
            0,
            0,
            (0.0, 0.5),
            "broadcast",
            EventKind::Broadcast {
                bytes: 1024,
                dest_nodes: 3,
            },
        );
        let recompute = t.intern("recompute");
        other(
            &mut t,
            1,
            0,
            (0.5, 0.75),
            "recovery",
            EventKind::Recovery { label: recompute },
        );
        let json = t.to_chrome_json();
        assert!(json.contains("\"name\":\"broadcast\",\"cat\":\"broadcast\""));
        assert!(json.contains("\"dest_nodes\":3"));
        assert!(json.contains("\"pid\":2,\"tid\":0,\"name\":\"recompute\",\"cat\":\"recovery\""));
    }

    #[test]
    fn memory_events_render_on_their_tracks() {
        let mut t = Trace::default();
        other(
            &mut t,
            0,
            0,
            (0.0, 0.25),
            "shuffle",
            EventKind::Spill {
                node: 1,
                bytes: 4096,
            },
        );
        other(
            &mut t,
            1,
            0,
            (0.25, 0.25),
            "cache",
            EventKind::Evict {
                node: 1,
                bytes: 256,
            },
        );
        other(
            &mut t,
            2,
            0,
            (0.5, 0.5),
            "memory",
            EventKind::OomKill { node: 0 },
        );
        let json = t.to_chrome_json();
        assert!(json.contains("\"name\":\"spill\",\"cat\":\"memory\""));
        assert!(json.contains("\"name\":\"evict\",\"cat\":\"memory\""));
        assert!(json.contains("\"pid\":2,\"tid\":0,\"name\":\"oom-kill\",\"cat\":\"memory\""));
        // Spill/evict land on the node's network track.
        assert!(json.contains("\"name\":\"node 1\""));
    }

    #[test]
    fn empty_trace_is_still_a_document() {
        let json = Trace::default().to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
    }
}
