#!/bin/sh
# End-of-session verification: the full workspace test suite. Host
# wall-clock is measured by benchmark/ (see benchmark/README.md), not here.
cd "$(dirname "$0")"
cargo test --workspace 2>&1 | tee test_output.txt | grep -cE "test result: ok"
