//! `benchmark` — the repo's host-clock benchmark.
//!
//! ```text
//! benchmark [run] --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! benchmark suite [--seed N] [--seconds S] [--repeat R] [--smoke] [--out DIR]
//! benchmark compare A.json B.json
//! benchmark describe
//! ```
//!
//! `run` measures one workload in this process and prints, as the last
//! line of standard output, one JSON object `{correct, attempted, failed,
//! metrics}` — end-to-end metrics untraced, per-layer metrics traced.
//! `suite` runs all seven, one child process each, and writes a results
//! file; `compare` holds two results files against the bounds; `describe`
//! prints the benchmark's definition, which is `BENCHMARK.json`.
//! See `README.md` beside this crate.

mod compare;
mod harness;
mod json;
mod metrics;
mod procfs;
mod spans;
mod stats;
mod suite;
mod workloads;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Flags of `run` and `suite`; anything unknown is an error.
pub struct Flags {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: usize,
    pub smoke: bool,
    pub out: PathBuf,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 7,
        seconds: RUN_SECONDS,
        trace: false,
        repeat: 1,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            f.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => f.workload = Some(value.to_string()),
            "--seed" => f.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                f.seconds = value.parse().map_err(|_| bad())?;
                if !(f.seconds > 0.0 && f.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                f.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeat" => {
                f.repeat = value.parse().map_err(|_| bad())?;
                if f.repeat == 0 {
                    return Err(bad());
                }
            }
            "--out" => f.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(f)
}

/// Point `TMPDIR` at a fresh directory under `out`, so the pilot's file
/// staging (`mdio::StagingArea::temp`) stays inside the checkout, and
/// remove it when the run ends.
struct ScratchTmp(PathBuf);

impl ScratchTmp {
    fn new(out: &Path) -> std::io::Result<Self> {
        let dir = out.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        let dir = dir.canonicalize()?;
        // Single-threaded here: no engine has started yet.
        std::env::set_var("TMPDIR", &dir);
        Ok(ScratchTmp(dir))
    }
}

impl Drop for ScratchTmp {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.workload.as_deref().ok_or("--workload is required")?;
    let spec = workloads::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let _tmp = ScratchTmp::new(&flags.out).map_err(|e| format!("{}: {e}", flags.out.display()))?;

    // The protocol every workload runs under: the serial default every
    // user gets, whatever MDTASK_THREADS says, and modelled-only virtual
    // durations so every virtual statistic repeats exactly while the
    // closures still really run.
    netsim::parallel::set_default_threads(netsim::Threads::Serial);
    netsim::set_deterministic_timing(true);

    let result = harness::run(
        spec,
        &harness::RunOpts {
            seed: flags.seed,
            seconds: flags.seconds,
            trace: flags.trace,
            smoke: flags.smoke,
        },
    );
    if let Some(spans) = &result.spans_json {
        let path = flags.out.join(format!("{name}.spans.json"));
        std::fs::write(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    for f in &result.failures {
        eprintln!("FAILED operation: {f}");
    }
    let unit_of = |metric: &str| {
        metrics::end_to_end(metric)
            .map(|m| m.unit)
            .or(metrics::per_layer(metric).map(|m| m.unit))
            .expect("only catalogued metrics are reported")
    };
    for (metric, value) in &result.metrics {
        eprintln!("{name:<14} {metric:<38} {value:>18.6} {}", unit_of(metric));
    }
    let line = Json::obj([
        ("correct", Json::Bool(result.failed == 0)),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        (
            "metrics",
            Json::obj(result.metrics.iter().map(|(k, v)| {
                (
                    k.as_str(),
                    Json::obj([
                        ("value", Json::Num(*v)),
                        ("unit", Json::Str(unit_of(k).into())),
                    ]),
                )
            })),
        ),
    ]);
    println!("{}", line.render());
    // A failed operation is a broken program, not a slow one.
    Ok(if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// How long one run measures when the driver (or `run.sh`) does not say.
const RUN_SECONDS: f64 = 12.0;

/// The benchmark's definition in the driver's schema: what the repo's
/// `BENCHMARK.json` holds (`benchmark describe > BENCHMARK.json`).
fn describe() -> String {
    let string = |s: &str| Json::Str(s.to_string()).render();
    let strings = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::Str(s.to_string())).collect());
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let workloads = workloads::ALL.iter().map(|w| {
        format!(
            "    {{\"name\": {}, \"why\": {}}}",
            string(w.name),
            string(w.why)
        )
    });
    let end_to_end = metrics::END_TO_END.iter().map(|m| {
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
            string(m.name),
            string(m.unit),
            string(m.better.as_str()),
            m.bound
        )
    });
    let per_layer = metrics::PER_LAYER.iter().map(|m| {
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
            string(m.name),
            string(m.unit),
            string(m.better.as_str())
        )
    });
    let list = |items: Vec<String>| items.join(",\n");
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}",
        strings(&command).render(),
        strings(&["benchmark"]).render(),
        list(workloads.collect()),
        list(end_to_end.collect()),
        list(per_layer.collect()),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "suite" | "compare" | "describe")) => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let outcome = match cmd {
        "compare" => match rest {
            [a, b] => compare::main(Path::new(a), Path::new(b)),
            _ => Err("usage: benchmark compare A.json B.json".to_string()),
        },
        "suite" => parse_flags(rest).and_then(|f| suite::main(&f)),
        "describe" => {
            println!("{}", describe());
            Ok(ExitCode::SUCCESS)
        }
        _ => parse_flags(rest).and_then(|f| run(&f)),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the catalogue in
    /// `metrics.rs` and `workloads::ALL` is what the binary reports and
    /// `compare` applies. They must not drift.
    #[test]
    fn benchmark_json_is_what_describe_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        assert_eq!(on_disk.trim_end(), describe());
        assert!(json::parse(&on_disk).is_ok());
    }

    #[test]
    fn flags_parse_the_drivers_command_line() {
        let args: Vec<String> = "--workload lf_8k --seed 3 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(f.workload.as_deref(), Some("lf_8k"));
        assert_eq!((f.seed, f.seconds, f.trace), (3, 10.0, true));
        for bad in [
            "--trace 2",
            "--seconds 0",
            "--seed x",
            "--frobnicate 1",
            "--seed",
        ] {
            let args: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_flags(&args).is_err(), "{bad}");
        }
    }
}
