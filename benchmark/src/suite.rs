//! `benchmark suite` — one run set: every workload in a process of its
//! own (so peak memory is per workload), untraced `--repeat` times and
//! traced once, every metric printed by name, and all of it written to
//! `<out>/results.json` for `compare`.

use crate::json::{self, Json};
use crate::workloads;
use crate::Flags;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Run this binary on one workload and return the JSON object it prints
/// last. The child's standard error (the metric table) passes through.
fn run_child(flags: &Flags, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(["--workload", workload])
        .args(["--seed", &flags.seed.to_string()])
        .args(["--seconds", &flags.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&flags.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if flags.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child, so none outlives the suite.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last)
        .map_err(|e| format!("{workload} (trace {}) printed no result: {e}", trace as u8))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) failed ({}): {last}",
            trace as u8, out.status
        ));
    }
    Ok(result)
}

pub fn main(flags: &Flags) -> Result<ExitCode, String> {
    std::fs::create_dir_all(&flags.out).map_err(|e| format!("{}: {e}", flags.out.display()))?;
    let started = Instant::now();
    let mut runs = Vec::new();
    for spec in workloads::ALL {
        if flags.workload.as_deref().is_some_and(|w| w != spec.name) {
            continue;
        }
        let modes = std::iter::repeat_n(false, flags.repeat).chain([true]);
        for trace in modes {
            let t = Instant::now();
            let Json::Obj(mut run) = run_child(flags, spec.name, trace)? else {
                return Err(format!("{}: result is not an object", spec.name));
            };
            run.insert("workload".into(), Json::Str(spec.name.into()));
            run.insert("trace".into(), Json::Num(trace as u8 as f64));
            run.insert("wall_s".into(), Json::Num(t.elapsed().as_secs_f64()));
            runs.push(Json::Obj(run));
        }
    }
    if runs.is_empty() {
        return Err(format!("no workload called {:?}", flags.workload));
    }
    let total_wall_s = started.elapsed().as_secs_f64();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Json::obj([
        ("seed", Json::Num(flags.seed as f64)),
        ("seconds", Json::Num(flags.seconds)),
        ("repeat", Json::Num(flags.repeat as f64)),
        ("smoke", Json::Bool(flags.smoke)),
        ("nproc", Json::Num(nproc as f64)),
        ("total_wall_s", Json::Num(total_wall_s)),
        ("runs", Json::Arr(runs)),
    ]);
    let path = flags.out.join("results.json");
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "wrote {} ({total_wall_s:.1} s, {nproc} host cores)",
        path.display()
    );
    Ok(ExitCode::SUCCESS)
}
