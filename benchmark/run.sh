#!/usr/bin/env bash
# One run set: build the benchmark, run the seven workloads one process
# each (untraced, then traced), print every metric by name with its unit
# and write benchmark/out/results.json.
#
#   benchmark/run.sh                  # seed 7, 10 s per run
#   benchmark/run.sh --seed 8         # another seed
#   benchmark/run.sh --repeat 5       # five untraced runs per workload, for `compare`
#   benchmark/run.sh --smoke          # two iterations each: does everything still run and check out?
#   benchmark/run.sh --workload lf_8k # one workload only
#
# Compare two result files (baseline first) with
#   cargo run --release --offline --manifest-path benchmark/Cargo.toml -- compare A.json B.json
set -euo pipefail
# Inside benchmark/, .cargo/config.toml shares the repo's target directory.
cd "$(dirname "${BASH_SOURCE[0]}")"
exec cargo run --release --offline --quiet -- suite --out out "$@"
