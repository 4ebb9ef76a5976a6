//! Shared command-line parsing for the experiment binaries.
//!
//! Every binary gets the same four flags for free:
//!
//! * `--engine spark|dask|pilot|mpi` — restrict an engine sweep;
//! * `--threads 1|N|auto` — host-parallelism degree, installed as the
//!   process default (`netsim::parallel::set_default_threads`) before
//!   `parse` returns, so engines pick it up without further plumbing;
//! * `--trace-out PATH` — Chrome-trace JSON of a traced run;
//! * `--metrics-out PATH` — metrics-summary JSON.
//!
//! Binary-specific flags are declared with [`Cli::value`] /
//! [`Cli::switch`] and read back from [`Args`]. Unknown flags abort with
//! the full flag list, and `--help` prints it.

use netsim::Threads;
use std::collections::BTreeMap;
use taskframe::Engine;

struct Spec {
    flag: &'static str,
    /// Placeholder for a value-taking flag (`None` = boolean switch).
    value: Option<&'static str>,
    help: &'static str,
}

/// Flag-set builder: common flags plus the binary's own.
pub struct Cli {
    specs: Vec<Spec>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli::new()
    }
}

impl Cli {
    pub fn new() -> Cli {
        Cli { specs: Vec::new() }
    }

    /// Declare a binary-specific flag that takes a value.
    pub fn value(
        mut self,
        flag: &'static str,
        placeholder: &'static str,
        help: &'static str,
    ) -> Cli {
        self.specs.push(Spec {
            flag,
            value: Some(placeholder),
            help,
        });
        self
    }

    /// Declare `--scale N` and `--full`, read back by [`Args::scale`].
    pub fn scaled(self) -> Cli {
        self.value("--scale", "N", "divide dataset sizes by N")
            .switch("--full", "paper-sized datasets (scale = 1)")
    }

    /// Declare a binary-specific boolean switch.
    pub fn switch(mut self, flag: &'static str, help: &'static str) -> Cli {
        self.specs.push(Spec {
            flag,
            value: None,
            help,
        });
        self
    }

    fn usage(&self) -> String {
        let mut lines = vec![
            "  --engine spark|dask|pilot|mpi   restrict to one engine".to_string(),
            "  --threads 1|N|auto              host threads for real compute".to_string(),
            "  --trace-out PATH                write a Chrome-trace JSON".to_string(),
            "  --metrics-out PATH              write a metrics-summary JSON".to_string(),
        ];
        for s in &self.specs {
            let head = match s.value {
                Some(v) => format!("  {} {v}", s.flag),
                None => format!("  {}", s.flag),
            };
            lines.push(format!("{head:<34}{}", s.help));
        }
        lines.join("\n")
    }

    /// Parse `std::env::args`. `--help`/`-h` prints the flag list and
    /// exits; unknown flags panic with the same list.
    pub fn parse(self) -> Args {
        self.parse_from(std::env::args().skip(1))
    }

    /// Parse an explicit argument stream (testable entry point).
    pub fn parse_from(self, args: impl Iterator<Item = String>) -> Args {
        fn take(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        }
        let mut out = Args {
            engine: None,
            threads: None,
            trace_out: None,
            metrics_out: None,
            values: BTreeMap::new(),
            switches: Vec::new(),
        };
        let mut args = args;
        while let Some(a) = args.next() {
            match a.as_str() {
                "--engine" => {
                    let v = take(&mut args, "--engine");
                    out.engine = Some(
                        v.parse::<Engine>()
                            .unwrap_or_else(|e| panic!("--engine: {e}")),
                    );
                }
                "--threads" => {
                    let v = take(&mut args, "--threads");
                    let t = v
                        .parse::<Threads>()
                        .unwrap_or_else(|e| panic!("--threads: {e}"));
                    netsim::parallel::set_default_threads(t);
                    out.threads = Some(t);
                }
                "--trace-out" => out.trace_out = Some(take(&mut args, "--trace-out")),
                "--metrics-out" => out.metrics_out = Some(take(&mut args, "--metrics-out")),
                "--help" | "-h" => {
                    eprintln!("flags:\n{}", self.usage());
                    std::process::exit(0);
                }
                other => match self.specs.iter().find(|s| s.flag == other) {
                    Some(spec) if spec.value.is_some() => {
                        let v = take(&mut args, spec.flag);
                        out.values.insert(spec.flag, v);
                    }
                    Some(spec) => out.switches.push(spec.flag),
                    None => panic!("unknown flag {other}\nflags:\n{}", self.usage()),
                },
            }
        }
        out
    }
}

/// Parsed arguments: the common flags as fields, binary-specific flags
/// behind typed accessors.
pub struct Args {
    pub engine: Option<Engine>,
    pub threads: Option<Threads>,
    pub trace_out: Option<String>,
    pub metrics_out: Option<String>,
    values: BTreeMap<&'static str, String>,
    switches: Vec<&'static str>,
}

impl Args {
    /// Raw value of a binary-specific flag.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// Was a boolean switch given?
    pub fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    pub fn usize_or(&self, flag: &str, default: usize) -> usize {
        self.parsed_or(flag, default)
    }

    pub fn u64_or(&self, flag: &str, default: u64) -> u64 {
        self.parsed_or(flag, default)
    }

    pub fn str_or(&self, flag: &str, default: &str) -> String {
        self.get(flag).unwrap_or(default).to_string()
    }

    fn parsed_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        match self.get(flag) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("{flag}: invalid value {v:?}")),
        }
    }

    /// The dataset-size divisor of a [`Cli::scaled`] binary: 1 under
    /// `--full`, else `--scale` or `default`.
    pub fn scale(&self, default: usize) -> usize {
        if self.has("--full") {
            return 1;
        }
        let s = self.usize_or("--scale", default);
        assert!(s >= 1, "--scale must be >= 1");
        s
    }

    /// Did the user ask for any observability artifact?
    pub fn wants_observability(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }

    /// The engines a sweep should cover: the `--engine` filter, or all.
    pub fn engines(&self) -> Vec<Engine> {
        match self.engine {
            Some(e) => vec![e],
            None => Engine::ALL.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> std::vec::IntoIter<String> {
        s.iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn common_and_extra_flags_parse() {
        let args = Cli::new()
            .value("--plans", "N", "plan count")
            .switch("--fast", "skip slow parts")
            .parse_from(argv(&[
                "--engine",
                "dask",
                "--plans",
                "42",
                "--fast",
                "--metrics-out",
                "m.json",
            ]));
        assert_eq!(args.engine, Some(Engine::Dask));
        assert_eq!(args.usize_or("--plans", 7), 42);
        assert!(args.has("--fast"));
        assert_eq!(args.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(args.trace_out, None);
        assert_eq!(args.engines(), vec![Engine::Dask]);
    }

    #[test]
    fn defaults_apply_when_flags_absent() {
        let args = Cli::new()
            .value("--out", "PATH", "output path")
            .parse_from(argv(&[]));
        assert_eq!(args.engine, None);
        assert_eq!(args.str_or("--out", "results/x.json"), "results/x.json");
        assert_eq!(args.engines().len(), 4);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        Cli::new().parse_from(argv(&["--nope"]));
    }

    #[test]
    fn scale_flags_parse() {
        let scaled = |flags: &[&str]| Cli::new().scaled().parse_from(argv(flags)).scale(32);
        assert_eq!(scaled(&[]), 32);
        assert_eq!(scaled(&["--scale", "4"]), 4);
        assert_eq!(scaled(&["--full"]), 1);
    }

    #[test]
    fn threads_flag_parses() {
        let args = Cli::new().parse_from(argv(&["--threads", "2"]));
        assert_eq!(args.threads, Some(Threads::Fixed(2)));
    }
}
