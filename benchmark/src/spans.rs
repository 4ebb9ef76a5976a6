//! In-memory span recorder for the traced run.
//!
//! Spans wrap the harness's calls into each layer's public API
//! (workload → iteration → scenario → call); nothing inside the program is
//! instrumented. A span's name is `<layer>.<what>`, so the layer is the
//! text before the first dot. Spans are kept in memory and written once,
//! when the run ends, in Chrome trace-event format.

use crate::stats::quantile;
use std::collections::BTreeMap;
use std::time::Instant;

/// Iteration id of spans recorded during set-up.
pub const SETUP: i32 = -1;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub iteration: i32,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The recorder. Disabled (the untraced run), `open`/`close` do nothing
/// and allocate nothing.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    iteration: i32,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iteration: SETUP,
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggle recording between spans");
        self.enabled = on;
    }

    pub fn set_iteration(&mut self, iteration: i32) {
        self.iteration = iteration;
    }

    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.stack.last().copied(),
            iteration: self.iteration,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn close(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_s = self.epoch.elapsed().as_secs_f64();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// ("X") event per span, microsecond timestamps, the layer as category.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"workload\":\"{workload}\",\"iteration\":{}}}}}",
                s.name,
                s.start_s * 1e6,
                s.duration_s() * 1e6,
                s.iteration
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of it its direct
/// children cover. Children never overlap (one thread, properly nested),
/// so that part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_s();
        }
    }
    own
}

/// The per-iteration figure the statistics report: the quartile on the
/// fast side, for the reason the end-to-end metrics use it (host noise
/// only ever adds time).
fn typical(per_iteration: &[f64]) -> f64 {
    quantile(per_iteration, 0.25)
}

/// Per-name, per-iteration sums over a finished recording.
pub struct SpanStats {
    /// name → iteration → (total seconds, self seconds)
    by_name: BTreeMap<&'static str, BTreeMap<i32, (f64, f64)>>,
}

impl SpanStats {
    pub fn new(spans: &[Span]) -> Self {
        let own = self_times(spans);
        let mut by_name: BTreeMap<&'static str, BTreeMap<i32, (f64, f64)>> = BTreeMap::new();
        for (s, own) in spans.iter().zip(own) {
            let e = by_name
                .entry(s.name)
                .or_default()
                .entry(s.iteration)
                .or_insert((0.0, 0.0));
            e.0 += s.duration_s();
            e.1 += own;
        }
        SpanStats { by_name }
    }

    /// Seconds per iteration spent under spans called `name`: the fast
    /// quartile over the iterations that recorded it; 0 if none did.
    pub fn total_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |per_iter| {
            typical(&per_iter.values().map(|v| v.0).collect::<Vec<_>>())
        })
    }

    /// Self seconds per iteration of all spans of one layer (names
    /// starting `<layer>.`): fast quartile over iterations of the
    /// per-iteration sum; 0 if the layer recorded nothing.
    pub fn layer_self_s(&self, layer: &str) -> f64 {
        let mut per_iter: BTreeMap<i32, f64> = BTreeMap::new();
        for (name, iters) in &self.by_name {
            if name.split('.').next() == Some(layer) {
                for (it, v) in iters {
                    *per_iter.entry(*it).or_insert(0.0) += v.1;
                }
            }
        }
        if per_iter.is_empty() {
            0.0
        } else {
            typical(&per_iter.into_values().collect::<Vec<_>>())
        }
    }

    /// Every span name recorded, sorted.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.by_name.keys().copied()
    }

    /// Self seconds per iteration of spans called `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |per_iter| {
            typical(&per_iter.values().map(|v| v.1).collect::<Vec<_>>())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>, it: i32) -> Span {
        Span {
            name,
            start_s: start,
            end_s: end,
            parent,
            iteration: it,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // iteration [0,10] ⊃ a [1,4] ⊃ a1 [2,3]; iteration ⊃ b [5,9]
        let spans = vec![
            span("bench.iteration", 0.0, 10.0, None, 0),
            span("x.a", 1.0, 4.0, Some(0), 0),
            span("y.a1", 2.0, 3.0, Some(1), 0),
            span("x.b", 5.0, 9.0, Some(0), 0),
        ];
        // Only *direct* children are subtracted: the grandchild already
        // sits inside `a`.
        assert_eq!(self_times(&spans), vec![3.0, 2.0, 1.0, 4.0]);
        let st = SpanStats::new(&spans);
        assert_eq!(st.total_s("x.a"), 3.0);
        assert_eq!(st.self_s("bench.iteration"), 3.0);
        assert_eq!(st.layer_self_s("x"), 6.0);
        assert_eq!(st.layer_self_s("y"), 1.0);
        assert_eq!(st.total_s("missing"), 0.0);
        assert_eq!(st.layer_self_s("missing"), 0.0);
    }

    #[test]
    fn stats_take_the_fast_quartile_over_iterations() {
        let spans = vec![
            span("x.a", 0.0, 1.0, None, 0),
            span("x.a", 1.0, 2.0, None, 0), // same iteration: summed → 2
            span("x.a", 2.0, 7.0, None, 1), // → 5
            span("x.a", 7.0, 10.0, None, 2), // → 3
        ];
        // Per iteration 2, 3, 5: the quartile sits halfway from 2 to 3.
        assert_eq!(SpanStats::new(&spans).total_s("x.a"), 2.5);
    }

    #[test]
    fn recorder_nests_by_open_order_and_is_inert_when_disabled() {
        let mut off = Spans::new(false);
        let id = off.open("x.a");
        off.close(id);
        assert!(off.spans().is_empty());

        let mut on = Spans::new(true);
        on.set_iteration(3);
        let outer = on.open("x.outer");
        let inner = on.open("y.inner");
        on.close(inner);
        on.close(outer);
        let s = on.spans();
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!(s[1].iteration, 3);
        assert!(s[0].start_s <= s[1].start_s && s[1].end_s <= s[0].end_s);
        let json = on.to_chrome_json("w");
        assert!(json.contains("\"name\":\"y.inner\",\"cat\":\"y\",\"ph\":\"X\""));
        assert!(crate::json::parse(&json).is_ok());
    }
}
