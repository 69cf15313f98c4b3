#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs one workload, or all
# four in turn with `--workload all`:
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The build goes to $CARGO_TARGET_DIR
# (default `.bench_build`); results and spans go to `.bench_out/`.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/perfbench"

args=("$@")
for ((i = 0; i < ${#args[@]} - 1; i++)); do
    if [[ ${args[i]} == --workload && ${args[i + 1]} == all ]]; then
        for w in fleet_ingest fleet_dashboard stream_window stream_backfill; do
            args[i + 1]=$w
            "$bin" "${args[@]}"
        done
        exit 0
    fi
done
exec "$bin" "$@"
