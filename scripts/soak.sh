#!/usr/bin/env bash
# Deterministic chaos-plane soak tier: builds the soak_test target and runs
# every test carrying the `soak` ctest label (~30 s of seeded concurrent-
# session campaigns with kills, flaps, corruption, latency spikes, rekey
# storms, and cache-budget squeezes — DESIGN.md "Concurrency model & chaos
# plane").
#
# A red soak prints its campaign seed in every failure message; rerun that
# exact schedule with:
#
#   MCT_CHAOS_SEED=<seed> scripts/soak.sh
#
# Every campaign also writes an incident bundle (DESIGN.md §17) into
# $MCT_INCIDENT_DIR — on green runs too, so there is always a replayable
# artifact. Triage one with:
#
#   build/examples/mctool report <bundle.jsonl>
#
# The acceptance-scale 10k-concurrent-session campaign is skipped unless
# MCT_SOAK_10K=1 is set (several minutes on one core).
set -euo pipefail
cd "$(dirname "$0")/.."

# Bundles land here unless the caller pointed MCT_INCIDENT_DIR elsewhere.
# Absolute path: ctest runs tests from their own directories, and a
# relative incident dir would silently fail to open there.
MCT_INCIDENT_DIR="${MCT_INCIDENT_DIR:-build/incidents}"
mkdir -p "$MCT_INCIDENT_DIR"
MCT_INCIDENT_DIR="$(cd "$MCT_INCIDENT_DIR" && pwd)"
export MCT_INCIDENT_DIR

cmake -B build -S .
cmake --build build -j "$(nproc)" --target soak_test mctool

status=0
ctest --test-dir build --output-on-failure -L soak "$@" || status=$?

# Success and failure alike: print the effective seed and where the
# incident bundles went, so any campaign is reproducible from this log.
if [[ -n "${MCT_CHAOS_SEED:-}" ]]; then
  echo "soak: effective MCT_CHAOS_SEED=${MCT_CHAOS_SEED}"
else
  echo "soak: effective MCT_CHAOS_SEED=20260808 (suite default; override via MCT_CHAOS_SEED)"
fi
shopt -s nullglob
bundles=("$MCT_INCIDENT_DIR"/incident-*.jsonl)
if ((${#bundles[@]})); then
  echo "soak: incident bundles (render with build/examples/mctool report <path>):"
  for b in "${bundles[@]}"; do
    echo "  $b"
  done
else
  echo "soak: no incident bundles written"
fi
exit "$status"
