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
//! written in one pass into one buffer, byte by byte: no `core::fmt` runs
//! per event. Integers go through [`push_uint`]; timestamps through
//! [`push_us`], which gives exactly the bytes of `{:.3}`; each
//! phase/label string is escaped once, by
//! [`crate::metrics::push_json_escaped`], however many events carry it.
//! The bytes are a contract — `tests/golden_collectives.rs` freezes their
//! hash for every event kind.

use crate::metrics::push_json_escaped;
use crate::trace::{EventKind, Sym, Trace};

const PID_CORES: u32 = 0;
const PID_NETWORK: u32 = 1;
const PID_DRIVER: u32 = 2;

/// Append `n` in decimal: the bytes of `n.to_string()`.
fn push_uint(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Append `secs` as microseconds with three decimals: exactly the bytes
/// of `format!("{:.3}", secs * 1e6)`.
///
/// A positive normal product below 2⁵³ is `m · 2^-k` with a 53-bit `m`,
/// so its thousandths are `m · 1000 / 2^k`, rounded here in `u128` with
/// ties to even as `{:.3}` rounds them (0.0625 prints `0.062`). Anything
/// else — non-finite, negative (`-0.0` too), subnormal or ≥ 2⁵³ — is
/// left to `{:.3}`; no export produces such a time.
fn push_us(out: &mut String, secs: f64) {
    let us = secs * 1e6;
    let bits = us.to_bits();
    let biased = (bits >> 52) as i32; // the sign bit set makes this > 0x7ff
    let k = 1075 - biased;
    let thousandths = if bits == 0 {
        0
    } else if (1..=0x7fe).contains(&biased) && k >= 0 {
        let m = (bits & ((1 << 52) - 1) | 1 << 52) as u128 * 1000;
        if k == 0 {
            m as u64
        } else if k > 64 {
            0 // m · 1000 < 2^63 ≤ half of 2^k
        } else {
            let (q, r, half) = (m >> k, m & ((1 << k) - 1), 1u128 << (k - 1));
            (q + u128::from(r > half || (r == half && q & 1 == 1))) as u64
        }
    } else {
        out.push_str(&format!("{us:.3}"));
        return;
    };
    push_uint(out, thousandths / 1000);
    let frac = thousandths % 1000;
    out.extend([
        char::from(b'.'),
        char::from(b'0' + (frac / 100) as u8),
        char::from(b'0' + (frac / 10 % 10) as u8),
        char::from(b'0' + (frac % 10) as u8),
    ]);
}

fn push_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// Start a metadata (`"M"`) record naming a process or thread, up to and
/// including `name`; the caller may extend the name and closes both
/// objects with `"}}`.
fn open_meta(out: &mut String, pid: u32, tid: usize, which: &str, name: &str) {
    out.push_str("{\"ph\":\"M\",\"pid\":");
    push_uint(out, pid.into());
    out.push_str(",\"tid\":");
    push_uint(out, tid as u64);
    out.push_str(",\"name\":\"");
    out.push_str(which);
    out.push_str("\",\"args\":{\"name\":\"");
    out.push_str(name);
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
) {
    out.push_str(",\n{\"ph\":\"X\",\"pid\":");
    push_uint(out, pid.into());
    out.push_str(",\"tid\":");
    push_uint(out, tid as u64);
    out.push_str(",\"name\":\"");
    out.push_str(name);
    out.push_str("\",\"cat\":\"");
    out.push_str(cat);
    out.push_str("\",\"ts\":");
    push_us(out, start_s);
    out.push_str(",\"dur\":");
    push_us(out, end_s - start_s);
    out.push_str(",\"args\":{\"phase\":\"");
    out.push_str(phase);
    out.push('"');
}

/// Append `,"key":n` for each pair, in order.
fn push_args(out: &mut String, args: &[(&str, u64)]) {
    for &(key, n) in args {
        out.push_str(",\"");
        out.push_str(key);
        out.push_str("\":");
        push_uint(out, n);
    }
}

/// Every id in `ids` once, ascending, for the track metadata. A run's
/// events reuse a few cores and nodes many times over, so ids below the
/// event count are marked in a table of that length, not sorted once per
/// event; any others are sorted apart. Nothing is sized by an id's value.
fn distinct_ascending(ids: Vec<usize>) -> impl Iterator<Item = usize> {
    let mut seen = vec![false; ids.len()];
    let mut above = Vec::new();
    for id in ids {
        match seen.get_mut(id) {
            Some(seen) => *seen = true,
            None => above.push(id),
        }
    }
    above.sort_unstable();
    above.dedup();
    let below = seen.into_iter().enumerate();
    below.filter_map(|(id, s)| s.then_some(id)).chain(above)
}

impl Trace {
    /// Serialize the trace in Chrome Trace Event Format (see module docs
    /// for the track layout). Load the result in `chrome://tracing` or
    /// <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        // A task slice is ~170 bytes plus its label and phase.
        let mut out = String::with_capacity(1024 + 192 * self.events.len());

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
        for (pid, name) in [
            (PID_CORES, "cores"),
            (PID_NETWORK, "network"),
            (PID_DRIVER, "driver"),
        ] {
            if pid != PID_CORES {
                out.push_str(",\n");
            }
            open_meta(&mut out, pid, 0, "process_name", name);
            out.push_str("\"}}");
        }
        let core_tracks = distinct_ascending(cores).map(|c| (PID_CORES, "core ", c));
        let node_tracks = distinct_ascending(nodes).map(|n| (PID_NETWORK, "node ", n));
        for (pid, what, tid) in core_tracks.chain(node_tracks) {
            out.push_str(",\n");
            open_meta(&mut out, pid, tid, "thread_name", what);
            push_uint(&mut out, tid as u64);
            out.push_str("\"}}");
        }

        for (id, e) in self.events.iter().enumerate() {
            let (start, end, phase) = (e.start_s, e.end_s, text(e.phase));
            let span = (start, end);
            let out = &mut out;
            match e.kind {
                EventKind::Task { label, speculative } => {
                    open_slice(out, PID_CORES, e.core, text(label), "task", span, phase);
                    out.push_str(",\"killed\":");
                    push_bool(out, e.killed);
                    out.push_str(",\"speculative\":");
                    push_bool(out, speculative);
                    out.push_str(",\"ready_us\":");
                    push_us(out, e.ready_s);
                }
                EventKind::Fetch {
                    from_node,
                    to_node,
                    bytes,
                } => {
                    // The fetch occupies the destination's network track,
                    // with an async arrow from a zero-width marker on the
                    // source track (flow events bind to enclosing slices).
                    let args = [
                        ("from_node", from_node as u64),
                        ("to_node", to_node as u64),
                        ("bytes", bytes),
                    ];
                    for (tid, name, end) in [(to_node, "fetch", end), (from_node, "send", start)] {
                        open_slice(out, PID_NETWORK, tid, name, "fetch", (start, end), phase);
                        push_args(out, &args);
                        out.push_str(",\"lost\":");
                        push_bool(out, e.killed);
                        out.push_str("}}");
                    }
                    for (ph, tid, ts) in [
                        ("\"s\"", from_node, start),
                        ("\"f\",\"bp\":\"e\"", to_node, end),
                    ] {
                        out.push_str(",\n{\"ph\":");
                        out.push_str(ph);
                        out.push_str(",\"pid\":");
                        push_uint(out, PID_NETWORK.into());
                        out.push_str(",\"tid\":");
                        push_uint(out, tid as u64);
                        out.push_str(",\"name\":\"xfer\",\"cat\":\"fetch\",\"id\":");
                        push_uint(out, id as u64);
                        out.push_str(",\"ts\":");
                        push_us(out, ts);
                        out.push('}');
                    }
                    continue; // every record above is closed
                }
                EventKind::Broadcast { bytes, dest_nodes } => {
                    let (name, cat) = ("broadcast", "broadcast");
                    open_slice(out, PID_NETWORK, e.core, name, cat, span, phase);
                    push_args(out, &[("bytes", bytes), ("dest_nodes", dest_nodes as u64)]);
                }
                EventKind::Recovery { label } | EventKind::Fenced { label } => {
                    let cat = e.kind.kind_name();
                    open_slice(out, PID_DRIVER, 0, text(label), cat, span, phase);
                }
                EventKind::Spill { node, bytes } | EventKind::Evict { node, bytes } => {
                    let name = e.kind.kind_name();
                    open_slice(out, PID_NETWORK, node, name, "memory", span, phase);
                    push_args(out, &[("node", node as u64), ("bytes", bytes)]);
                }
                EventKind::OomKill { node } => {
                    open_slice(out, PID_DRIVER, 0, "oom-kill", "memory", span, phase);
                    push_args(out, &[("node", node as u64)]);
                }
                EventKind::Backpressure { node } => {
                    let (name, cat) = ("backpressure", "stream");
                    open_slice(out, PID_NETWORK, node, name, cat, span, phase);
                    push_args(out, &[("node", node as u64)]);
                }
                // Service-plane events (mdtaskd) render on the driver
                // track like recovery windows.
                EventKind::Enqueue { tenant, job }
                | EventKind::Admit { tenant, job }
                | EventKind::Reject { tenant, job } => {
                    let name = e.kind.kind_name();
                    open_slice(out, PID_DRIVER, 0, name, "service", span, phase);
                    push_args(out, &[("tenant", tenant as u64), ("job", job as u64)]);
                }
            }
            out.push_str("}}");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
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

    fn us(secs: f64) -> String {
        let mut out = String::new();
        push_us(&mut out, secs);
        out
    }

    #[test]
    fn integers_are_written_as_to_string_writes_them() {
        for n in [0, 9, 10, 99, 100, 4096, u64::MAX] {
            let mut out = String::new();
            push_uint(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }

    /// Exact binary ties at the fourth decimal round to even, as `{:.3}`
    /// rounds them.
    #[test]
    fn ties_round_to_even() {
        // 2⁻¹⁰ s is 976.5625 µs and 3·2⁻¹⁰ s is 2929.6875 µs.
        assert_eq!(us(1.0 / 1024.0), "976.562");
        assert_eq!(us(3.0 / 1024.0), "2929.688");
        assert_eq!(us(0.0), "0.000");
        assert_eq!(us(-0.0), "-0.000");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1 << 14))]

        /// `push_us` writes the bytes of `{:.3}` for every `f64`: random
        /// bit patterns (mostly huge or tiny), times in a run's range,
        /// exact binary fractions k/2ⁿ (ties at the fourth decimal among
        /// them), and the values handed to `{:.3}`: subnormals, ±0, NaN,
        /// ±∞ and products of 2⁵³ and more.
        #[test]
        fn microseconds_are_written_as_fmt_writes_them(
            family in 0u8..5,
            bits in any::<u64>(),
            k in 0u64..1 << 32,
            n in 0i32..25,
            unit in any::<f64>(),
        ) {
            let v = match family {
                0 => f64::from_bits(bits),
                1 => unit * 1e4,
                2 => k as f64 / 2f64.powi(n),
                // Odd multiples of 2⁻¹⁰ s: every one a tie in µs.
                3 => (k | 1) as f64 / 1024.0,
                _ => match bits % 6 {
                    0 => f64::from_bits(bits >> 12), // subnormal (or 0)
                    1 => [0.0, -0.0][(bits >> 3) as usize % 2],
                    2 => f64::NAN,
                    3 => [f64::INFINITY, f64::NEG_INFINITY][(bits >> 3) as usize % 2],
                    4 => 2f64.powi(53) / 1e6 * (1.0 + unit),
                    _ => -unit * 1e4,
                },
            };
            prop_assert_eq!(us(v), format!("{:.3}", v * 1e6), "v = {:e}", v);
        }
    }

    #[test]
    fn empty_trace_is_still_a_document() {
        let json = Trace::default().to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("\"displayTimeUnit\":\"ms\"}"));
    }
}
