//! `benchmark compare A.json B.json` — hold two result files (as `suite`
//! writes them; A is the baseline) against the benchmark's bounds.
//!
//! Per (end-to-end metric, workload): B's median may be worse than A's by
//! at most the metric's bound (or its absolute slack, if that is more). Where either
//! side's own quartile spread exceeds the bound the pair is *unresolved*,
//! not *ok* — unless every run of B beats every run of A. Failed
//! operations may not increase. When both files are of one seed, every
//! `model.*` value and every count must be bit-identical. Exits 1 on a
//! regression or a mismatch.

use crate::json::{self, Json};
use crate::metrics::{repeats_exactly, Better, EndToEnd, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// Too wide a spread to resolve a bound, but every run of B reads
    /// better than every run of A.
    Better,
    /// A side's run-to-run spread is wider than the bound.
    Unresolved,
    Regression,
}

impl Verdict {
    fn mark(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// How much worse B's median is than A's, as a share of A's (negative:
/// better), and the verdict under `m`'s bound.
pub fn judge(a: &[f64], b: &[f64], m: &EndToEnd) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    // Orient so that larger is worse.
    let sign = match m.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (mb - ma);
    let share = worse_by / ma.abs();
    let b_wins_every_pair = a.iter().all(|&x| b.iter().all(|&y| sign * (y - x) < 0.0));
    let too_wide = |v: &[f64]| spread(v).is_some_and(|s| s > m.bound);
    let verdict = if too_wide(a) || too_wide(b) {
        if b_wins_every_pair {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > (m.bound * ma.abs()).max(m.slack) {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (share, verdict)
}

/// One side's results: workload → metric → the value from each run.
#[derive(Default)]
struct Side {
    seed: Option<f64>,
    end_to_end: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    per_layer: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// workload → (attempted, failed) summed over its runs.
    ops: BTreeMap<String, (f64, f64)>,
}

fn load(path: &Path) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no \"runs\" array", path.display()))?;
    let mut side = Side {
        seed: doc.get("seed").and_then(Json::as_f64),
        ..Side::default()
    };
    for run in runs {
        let field = |k: &str| {
            run.get(k)
                .ok_or_else(|| format!("{}: run without {k:?}", path.display()))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let traced = field("trace")?.as_f64() == Some(1.0);
        let ops = side.ops.entry(workload.clone()).or_insert((0.0, 0.0));
        ops.0 += field("attempted")?.as_f64().unwrap_or(0.0);
        ops.1 += field("failed")?.as_f64().unwrap_or(0.0);
        let into = if traced {
            &mut side.per_layer
        } else {
            &mut side.end_to_end
        };
        let by_metric = into.entry(workload).or_default();
        for (metric, v) in field("metrics")?.as_obj().into_iter().flatten() {
            if let Some(value) = v.get("value").and_then(Json::as_f64) {
                by_metric.entry(metric.clone()).or_default().push(value);
            }
        }
    }
    Ok(side)
}

pub fn main(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut bad = 0usize;
    let mut unresolved = 0usize;

    println!("end-to-end: B's median against A's (share by which B is worse; negative is better)");
    for (workload, a_metrics) in &a.end_to_end {
        let Some(b_metrics) = b.end_to_end.get(workload) else {
            println!("{workload:<14} MISSING from B");
            bad += 1;
            continue;
        };
        let mut row = format!("{workload:<14}");
        for m in END_TO_END {
            let (Some(av), Some(bv)) = (a_metrics.get(m.name), b_metrics.get(m.name)) else {
                row.push_str(&format!(" | {} MISSING", m.name));
                bad += 1;
                continue;
            };
            let (share, verdict) = judge(av, bv, m);
            bad += (verdict == Verdict::Regression) as usize;
            unresolved += (verdict == Verdict::Unresolved) as usize;
            row.push_str(&format!(
                " | {} {:.4}->{:.4} {:+.1}% {}",
                m.name,
                median(av),
                median(bv),
                share * 100.0,
                verdict.mark()
            ));
        }
        let share = |ops: Option<&(f64, f64)>| ops.map_or(0.0, |o| o.1 / o.0.max(1.0));
        let (fa, fb) = (share(a.ops.get(workload)), share(b.ops.get(workload)));
        let failed_more = fb > fa;
        bad += failed_more as usize;
        row.push_str(&format!(
            " | failed_share {fa}->{fb} {}",
            if failed_more { "REGRESSION" } else { "ok" }
        ));
        println!("{row}");
    }

    if a.seed.is_some() && a.seed == b.seed {
        let mut mismatches = 0usize;
        for (workload, a_metrics) in &a.per_layer {
            for p in PER_LAYER.iter().filter(|p| repeats_exactly(p)) {
                let av = a_metrics.get(p.name).map(Vec::as_slice).unwrap_or_default();
                let bv = b
                    .per_layer
                    .get(workload)
                    .and_then(|m| m.get(p.name))
                    .map(Vec::as_slice)
                    .unwrap_or_default();
                let all: Vec<f64> = av.iter().chain(bv).copied().collect();
                let same = !bv.is_empty() && all.iter().all(|v| v.to_bits() == all[0].to_bits());
                if !same {
                    println!("{workload:<14} {} MISMATCH: A {av:?} B {bv:?}", p.name);
                    mismatches += 1;
                }
            }
        }
        println!(
            "model values and counts (seed {}): {}",
            a.seed.unwrap_or(f64::NAN),
            if mismatches == 0 {
                "bit-identical".to_string()
            } else {
                format!("{mismatches} MISMATCHES")
            }
        );
        bad += mismatches;
    } else {
        println!("model values and counts: not compared (the files are of different seeds)");
    }

    println!("{bad} regressions or mismatches, {unresolved} unresolved");
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn metric(better: Better, bound: f64, slack: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "s",
            better,
            bound,
            slack,
        }
    }
    const LOWER: EndToEnd = metric(Better::Lower, 0.10, 0.0);
    const HIGHER: EndToEnd = metric(Better::Higher, 0.10, 0.0);

    #[test]
    fn within_the_bound_is_ok_beyond_it_a_regression() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let (share, v) = judge(&a, &[1.08, 1.09, 1.07, 1.08, 1.10], &LOWER);
        assert!((share - 0.08).abs() < 1e-12);
        assert_eq!(v, Verdict::Ok);
        assert_eq!(
            judge(&a, &[1.12, 1.13, 1.11, 1.12, 1.14], &LOWER).1,
            Verdict::Regression
        );
        // Single runs have no spread to speak of: judged on the values.
        assert_eq!(judge(&[1.0], &[1.05], &LOWER).1, Verdict::Ok);
        assert_eq!(judge(&[1.0], &[1.2], &LOWER).1, Verdict::Regression);
    }

    #[test]
    fn direction_follows_the_metric() {
        let a = [100.0, 101.0, 99.0, 100.0];
        let (share, v) = judge(&a, &[85.0, 86.0, 84.0, 85.0], &HIGHER);
        assert!(share > 0.14 && v == Verdict::Regression);
        assert_eq!(
            judge(&a, &[120.0, 121.0, 119.0, 120.0], &HIGHER).1,
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        // A's interquartile distance is ~40 % of its median.
        let noisy = [0.8, 1.0, 1.2, 0.7, 1.3, 1.0];
        assert_eq!(
            judge(&noisy, &[1.0, 1.0, 1.0, 1.0], &LOWER).1,
            Verdict::Unresolved
        );
        // ... even when the medians are far apart:
        assert_eq!(
            judge(&noisy, &[1.25, 1.25, 1.25, 1.25], &LOWER).1,
            Verdict::Unresolved
        );
        // ... but not when every run of B beats every run of A.
        assert_eq!(
            judge(&noisy, &[0.5, 0.6, 0.55, 0.5], &LOWER).1,
            Verdict::Better
        );
    }

    #[test]
    fn absolute_slack_shields_small_baselines() {
        let setup = metric(Better::Lower, 0.25, 0.05); // 25 % or 0.05 s
        assert_eq!(judge(&[0.02], &[0.06], &setup).1, Verdict::Ok);
        assert_eq!(judge(&[2.0], &[2.6], &setup).1, Verdict::Regression);
    }
}
