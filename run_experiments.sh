#!/bin/sh
# Regenerate every figure/table of the paper at laptop scale.
# Results land in results/exp_*.txt. Run binaries sequentially — the
# harness measures real kernel times, so nothing else should be running.
set -e
cd "$(dirname "$0")"
mkdir -p results
for exp in fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 tab1 tab2 tab3; do
    if [ -s "results/exp_$exp.txt" ] && [ -f "results/.exp_$exp.ok" ]; then
        echo "=== exp_$exp === (cached)"
        continue
    fi
    echo "=== exp_$exp ==="
    ./target/release/exp_$exp > results/exp_$exp.txt 2>&1 && touch "results/.exp_$exp.ok"
    echo "    done"
done
