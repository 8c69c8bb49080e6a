#!/usr/bin/env bash
# The A/A agreement check: the whole benchmark RUNS times per side on one
# build, the sides alternating, then `compare`. Exits non-zero on any `worse`
# or any rise in failed_share. Extra arguments go to `run` (e.g. --smoke).
# One process per workload, as the driver runs them: peak_rss_mb is a
# process's peak. Eight runs a side, so that one slow stretch of the box
# does not set a quartile.
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=${RUNS:-8}
SEED=${SEED:-1}
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-target}

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/sfc-benchmark"
out="$CARGO_TARGET_DIR/benchmark"
mkdir -p "$out"
rm -f "$out/a.json" "$out/b.json"

for i in $(seq 1 "$RUNS"); do
  # Alternate which side runs first; both sides of a pair share a seed.
  if (( i % 2 )); then order="a b"; else order="b a"; fi
  for side in $order; do
    for workload in paper_stretch ingest_durable query_static mixed_rw; do
      "$bin" run --workload "$workload" --seed $((SEED + i)) --out "$out/$side.json" "$@" > /dev/null
    done
  done
done
"$bin" compare "$out/a.json" "$out/b.json"
