//! Critical-path extraction from a recorded trace.
//!
//! The makespan of a simulated run is set by one chain of events: the
//! last-finishing event, whatever enabled *it* to start, and so on back to
//! time zero. [`CriticalPath::from_trace`] recovers that chain by a
//! backward walk — at each step the predecessor is the latest-ending event
//! that finishes no later than the current event starts (same-core
//! continuation preferred on ties, matching how a busy core hands straight
//! over to its next task) — and labels any remaining gap as `wait`.
//!
//! This turns Fig. 8-style claims into mechanism: on a Dask-profile
//! leaflet run the broadcast event sits on the path and its share of
//! edge-discovery time is 40–65%, while Spark's tree broadcast contributes
//! a few percent (see `tests/observability.rs`).

use crate::trace::{Trace, TraceEvent};

/// One link in the makespan chain.
#[derive(Clone, Debug, PartialEq)]
pub struct CpSegment {
    /// Event label ([`Trace::label_of`]), or `"wait"` for an idle
    /// gap between an event and its predecessor.
    pub label: String,
    /// Owning phase of the event (empty for `wait` gaps).
    pub phase: String,
    pub start_s: f64,
    pub end_s: f64,
}

impl CpSegment {
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The chain of events that sets the makespan, earliest first.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CriticalPath {
    pub segments: Vec<CpSegment>,
}

/// Predecessor of `e` on the makespan chain: the latest-ending unvisited
/// event finishing by the time `e` starts, a same-core handover preferred
/// on ties. `by_end` holds every event index in `end_s` order.
///
/// The comparison is pairwise and not transitive (ends chained less than
/// `eps` apart can span more than `eps`), so which tie wins depends on
/// the order candidates are met in: record order. Only the top cluster
/// of candidates — sorted ends no more than `eps` apart from their
/// neighbour — is replayed: an event below a gap wider than `eps` loses
/// to every cluster member and can never displace one.
fn predecessor(
    events: &[TraceEvent],
    by_end: &[usize],
    visited: &[bool],
    e: &TraceEvent,
    eps: f64,
    cluster: &mut Vec<usize>,
) -> Option<usize> {
    let done_by_start = by_end.partition_point(|&i| events[i].end_s <= e.start_s + eps);
    cluster.clear();
    for &i in by_end[..done_by_start].iter().rev() {
        if visited[i] {
            continue;
        }
        if cluster
            .last()
            .is_some_and(|&above| events[above].end_s - events[i].end_s > eps)
        {
            break;
        }
        cluster.push(i);
    }
    cluster.sort_unstable();
    let mut pred: Option<usize> = None;
    for &i in cluster.iter() {
        let c = &events[i];
        let better = match pred {
            None => true,
            Some(p) => {
                let d = c.end_s - events[p].end_s;
                d > eps || (d.abs() <= eps && c.core == e.core && events[p].core != e.core)
            }
        };
        if better {
            pred = Some(i);
        }
    }
    pred
}

/// `f64::total_cmp`'s order as an unsigned key: negative values have
/// every bit flipped, the rest only their sign bit.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((bits as i64 >> 63) as u64 | 1 << 63)
}

impl CriticalPath {
    /// Walk the event graph backwards from the last-finishing event.
    pub fn from_trace(trace: &Trace) -> CriticalPath {
        let events = &trace.events;
        // Start from the event that ends last (ties: the later starter,
        // i.e. the shorter tail — it is the one that was actually waited
        // on last).
        let last = (0..events.len()).max_by(|&a, &b| {
            events[a]
                .end_s
                .total_cmp(&events[b].end_s)
                .then(events[a].start_s.total_cmp(&events[b].start_s))
        });
        let Some(mut cur) = last else {
            return CriticalPath::default();
        };
        let eps = trace.span() * 1e-9 + 1e-12;
        let mut visited = vec![false; events.len()];
        // Sorted as inline keys, not through an index: the order among
        // equal ends is immaterial, as `predecessor` replays candidates in
        // record order.
        let mut keyed: Vec<(u64, usize)> = events
            .iter()
            .enumerate()
            .map(|(i, e)| (total_order_key(e.end_s), i))
            .collect();
        keyed.sort_unstable();
        let by_end: Vec<usize> = keyed.into_iter().map(|(_, i)| i).collect();
        let mut cluster = Vec::new();
        let mut chain: Vec<CpSegment> = Vec::new();
        loop {
            visited[cur] = true;
            let e = &events[cur];
            chain.push(CpSegment {
                label: trace.label_of(e).to_string(),
                phase: trace.phase_of(e).to_string(),
                start_s: e.start_s,
                end_s: e.end_s,
            });
            let Some(p) = predecessor(events, &by_end, &visited, e, eps, &mut cluster) else {
                break;
            };
            let gap = e.start_s - events[p].end_s;
            if gap > eps {
                chain.push(CpSegment {
                    label: "wait".into(),
                    phase: String::new(),
                    start_s: events[p].end_s,
                    end_s: e.start_s,
                });
            }
            cur = p;
        }
        chain.reverse();
        CriticalPath { segments: chain }
    }

    /// Sum of segment durations (≤ the trace span; the head segment may
    /// start after 0 if nothing preceded it).
    pub fn total_s(&self) -> f64 {
        self.segments.iter().map(CpSegment::duration).sum()
    }

    /// Total path time spent in segments with this label.
    pub fn time_for(&self, label: &str) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.label == label)
            .map(CpSegment::duration)
            .sum()
    }

    /// Path time aggregated by label, largest share first.
    pub fn shares(&self) -> Vec<(String, f64)> {
        let total = self.total_s();
        let mut agg: Vec<(String, f64)> = Vec::new();
        for s in &self.segments {
            match agg.iter_mut().find(|(l, _)| *l == s.label) {
                Some((_, t)) => *t += s.duration(),
                None => agg.push((s.label.clone(), s.duration())),
            }
        }
        if total > 0.0 {
            for (_, t) in &mut agg {
                *t /= total;
            }
        }
        agg.sort_by(|a, b| b.1.total_cmp(&a.1));
        agg
    }

    /// Human-readable report: the chain plus the per-label breakdown.
    pub fn render(&self) -> String {
        let mut out = String::from("critical path (makespan chain):\n");
        for s in &self.segments {
            out.push_str(&format!(
                "  [{:>10.4}s – {:>10.4}s] {:<18} {}\n",
                s.start_s,
                s.end_s,
                s.label,
                if s.phase.is_empty() {
                    "-"
                } else {
                    s.phase.as_str()
                }
            ));
        }
        out.push_str("share of path time by label:\n");
        for (label, share) in self.shares() {
            out.push_str(&format!("  {:<18} {:>5.1}%\n", label, 100.0 * share));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::EventKind;

    /// The retired walk, kept verbatim as the oracle: every chain link
    /// rescans every event for its predecessor.
    fn from_trace_rescanning(trace: &Trace) -> CriticalPath {
        let events = &trace.events;
        if events.is_empty() {
            return CriticalPath::default();
        }
        let eps = trace.span() * 1e-9 + 1e-12;
        let mut visited = vec![false; events.len()];
        // Start from the event that ends last (ties: the later starter,
        // i.e. the shorter tail — it is the one that was actually waited
        // on last).
        let mut cur = (0..events.len())
            .max_by(|&a, &b| {
                events[a]
                    .end_s
                    .total_cmp(&events[b].end_s)
                    .then(events[a].start_s.total_cmp(&events[b].start_s))
            })
            .expect("non-empty");
        let mut chain: Vec<CpSegment> = Vec::new();
        loop {
            visited[cur] = true;
            let e = &events[cur];
            chain.push(CpSegment {
                label: trace.label_of(e).to_string(),
                phase: trace.phase_of(e).to_string(),
                start_s: e.start_s,
                end_s: e.end_s,
            });
            // Predecessor: the latest-ending unvisited event finishing by
            // the time `e` starts; prefer a same-core handover on ties.
            let mut pred: Option<usize> = None;
            for (i, c) in events.iter().enumerate() {
                if visited[i] || c.end_s > e.start_s + eps {
                    continue;
                }
                let better = match pred {
                    None => true,
                    Some(p) => {
                        let d = c.end_s - events[p].end_s;
                        d > eps || (d.abs() <= eps && c.core == e.core && events[p].core != e.core)
                    }
                };
                if better {
                    pred = Some(i);
                }
            }
            let Some(p) = pred else { break };
            let gap = e.start_s - events[p].end_s;
            if gap > eps {
                chain.push(CpSegment {
                    label: "wait".into(),
                    phase: String::new(),
                    start_s: events[p].end_s,
                    end_s: e.start_s,
                });
            }
            cur = p;
        }
        chain.reverse();
        CriticalPath { segments: chain }
    }

    fn task(t: &mut Trace, core: usize, start: f64, end: f64, label: &str) {
        let label = t.intern(label);
        t.record(TraceEvent {
            task: 0,
            core,
            start_s: start,
            end_s: end,
            killed: false,
            ready_s: start,
            phase: 0,
            kind: EventKind::Task {
                label,
                speculative: false,
            },
        });
    }

    #[test]
    fn chain_follows_dependencies_not_wall_time() {
        let mut t = Trace::default();
        // Broadcast [0,1] feeds two tasks; the long one on core 0 sets the
        // makespan. A short unrelated task on core 1 must stay off the
        // path.
        let phase = t.intern("broadcast");
        t.record(TraceEvent {
            task: 0,
            core: 0,
            start_s: 0.0,
            end_s: 1.0,
            killed: false,
            ready_s: 0.0,
            phase,
            kind: EventKind::Broadcast {
                bytes: 10,
                dest_nodes: 1,
            },
        });
        task(&mut t, 0, 1.0, 4.0, "strip");
        task(&mut t, 1, 1.0, 1.5, "strip");
        let cp = CriticalPath::from_trace(&t);
        let labels: Vec<&str> = cp.segments.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["broadcast", "strip"]);
        assert_eq!(cp.time_for("broadcast"), 1.0);
        assert_eq!(cp.time_for("strip"), 3.0);
        assert_eq!(cp.total_s(), 4.0);
        assert_eq!(cp.shares()[0].0, "strip");
    }

    #[test]
    fn gaps_become_wait_segments() {
        let mut t = Trace::default();
        task(&mut t, 0, 0.0, 1.0, "a");
        task(&mut t, 0, 2.0, 3.0, "b"); // released late: 1s idle gap
        let cp = CriticalPath::from_trace(&t);
        let labels: Vec<&str> = cp.segments.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["a", "wait", "b"]);
        assert_eq!(cp.time_for("wait"), 1.0);
    }

    #[test]
    fn same_core_handover_preferred_on_ties() {
        let mut t = Trace::default();
        task(&mut t, 0, 0.0, 1.0, "other");
        task(&mut t, 1, 0.0, 1.0, "mine");
        task(&mut t, 1, 1.0, 2.0, "tail");
        let cp = CriticalPath::from_trace(&t);
        assert_eq!(cp.segments[0].label, "mine");
    }

    #[test]
    fn zero_duration_chains_terminate() {
        let mut t = Trace::default();
        for i in 0..5 {
            task(&mut t, 0, 1.0, 1.0, &format!("z{i}"));
        }
        task(&mut t, 0, 0.0, 1.0, "base");
        let cp = CriticalPath::from_trace(&t);
        assert!(cp.segments.len() <= 6);
        assert_eq!(cp.segments[0].label, "base");
    }

    /// Seeded random traces built to hit the walk's tie rules: start and
    /// end times drawn from a small grid (exact ties, same-core
    /// handovers), jittered by thirds of `eps` (near-ties, and chains of
    /// them spanning more than `eps`), with zero-duration events. Seeds
    /// from 600 on leave the grid unjittered: most ends then equal some
    /// other event's end, so any order the end sort gives equal keys is
    /// exercised too.
    #[test]
    fn indexed_walk_matches_the_rescanning_walk_on_random_traces() {
        use crate::fault::mix;
        let (mut links, mut waits, mut equal_ends, mut zero_width) = (0, 0, 0, 0);
        for seed in 0..1200u64 {
            let quantised = seed >= 600;
            let mut draws = 0u64;
            let mut next = |n: u64| {
                draws += 1;
                mix(seed << 20 ^ draws) % n
            };
            let n = 1 + next(150) as usize;
            let cores = 1 + next(4) as usize;
            let grid = 1 + next(16);
            let third_eps = if quantised {
                0.0
            } else {
                grid as f64 * 1e-9 / 3.0
            };
            let mut t = Trace::default();
            for _ in 0..n {
                let begin = next(grid) as f64;
                let jitter = |k: u64| (k as f64 - 4.0) * third_eps;
                let start = (begin + jitter(next(9))).max(0.0);
                let end = match next(3) {
                    0 => start, // zero duration
                    len => (begin + len as f64 + jitter(next(9))).max(start),
                };
                task(&mut t, next(cores as u64) as usize, start, end, "t");
            }
            let got = CriticalPath::from_trace(&t);
            assert_eq!(got, from_trace_rescanning(&t), "seed {seed}");
            links += got.segments.len();
            waits += got.segments.iter().filter(|s| s.label == "wait").count();
            if quantised {
                let mut ends: Vec<f64> = t.events.iter().map(|e| e.end_s).collect();
                ends.sort_by(f64::total_cmp);
                equal_ends += ends.windows(2).filter(|w| w[0] == w[1]).count();
                zero_width += t.events.iter().filter(|e| e.end_s == e.start_s).count();
            }
        }
        assert!(links > 3000 && waits > 100, "{links} links, {waits} waits");
        assert!(
            equal_ends > 20_000 && zero_width > 10_000,
            "{equal_ends} equal ends, {zero_width} zero-width events"
        );
    }

    #[test]
    fn end_keys_sort_as_total_cmp_sorts() {
        let mut values = vec![
            f64::NAN,
            f64::INFINITY,
            1.5,
            f64::MIN_POSITIVE / 4.0,
            0.0,
            -0.0,
            -f64::MIN_POSITIVE / 4.0,
            -1.5,
            f64::NEG_INFINITY,
            -f64::NAN,
        ];
        let mut by_key = values.clone();
        by_key.sort_by_key(|&v| total_order_key(v));
        values.sort_by(f64::total_cmp);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&by_key), bits(&values));
    }

    #[test]
    fn empty_trace_yields_empty_path() {
        let cp = CriticalPath::from_trace(&Trace::default());
        assert!(cp.segments.is_empty());
        assert_eq!(cp.total_s(), 0.0);
        assert!(cp.render().contains("critical path"));
    }
}
