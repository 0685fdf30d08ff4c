#!/usr/bin/env bash
# Tier-1 verification in one shot: the plain release build + full ctest
# (the gate every PR must keep green), then the ASan+UBSan configuration
# via scripts/verify_sanitize.sh, then the forced-scalar crypto build, then
# the build with the observability hooks compiled out (-DMCT_OBS=OFF).
# Extra arguments are forwarded to the ctest invocations
# (e.g. `scripts/verify_all.sh -R StatePlane`). Every build also compiles
# the end-to-end benchmark's sources (chainbench/main.cpp, micro.cpp)
# as the build-only `chainbench_build_check` target, so an API change that
# would break the benchmark fails here first.
#
# The sanitizer pass is not optional garnish: the state-plane eviction,
# sweep, and crash-restart teardown paths (DESIGN.md "State plane",
# "Failure model") unlink cache nodes and destroy sessions mid-flight, and
# lifetime bugs there only surface under ASan.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== [1/6] tier-1: release build + ctest ==="
# Warnings are errors in the default tier, so the tier-1 build stays
# warning-free.
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)" "$@"

echo "=== [2/6] bench gate: smoke benches vs committed baselines ==="
# ctest runs this too (bench_smoke + bench_gate), but an explicit pass keeps
# the gate in the loop even when "$@" filters the test set, and prints the
# comparison where it is easy to see.
cmake --build build --target bench-smoke
python3 scripts/bench_compare.py build/bench-smoke-json bench/baselines/smoke

echo "=== [3/6] soak: seeded chaos campaigns (ctest label: soak) ==="
# Concurrent-session soaks under the deterministic chaos plane (DESIGN.md
# "Concurrency model & chaos plane"). A red soak prints MCT_CHAOS_SEED=<n>
# in every failure; scripts/soak.sh replays that exact schedule. With
# MCT_INCIDENT_DIR exported, every campaign leaves an incident bundle
# (DESIGN.md §17) in build/incidents — triage with `build/examples/mctool report`.
# Absolute path: ctest runs tests from their own directories, and a
# relative incident dir would silently fail to open there.
MCT_INCIDENT_DIR="${MCT_INCIDENT_DIR:-build/incidents}"
mkdir -p "$MCT_INCIDENT_DIR"
MCT_INCIDENT_DIR="$(cd "$MCT_INCIDENT_DIR" && pwd)"
export MCT_INCIDENT_DIR
ctest --test-dir build --output-on-failure -L soak
# Incident forensics gate: a campaign forced to violate liveness under a
# fixed seed must emit a bundle that parses and round-trips byte-identically
# (tests/http/incident_test.cpp; also part of the tier-1 ctest above — the
# explicit pass keeps the gate alive when "$@" filters the suite).
ctest --test-dir build --output-on-failure -R 'Incident\.'

echo "=== [4/6] sanitizers: ASan+UBSan build + ctest ==="
scripts/verify_sanitize.sh "$@"

echo "=== [5/6] forced-scalar: portable-only crypto build + ctest ==="
# -DMCT_FORCE_SCALAR=ON compiles the AES-NI/SHA-NI translation units out
# entirely — the configuration a non-x86 host builds (DESIGN.md "Crypto
# dispatch"). Running the full suite against it proves the portable scalar
# code still carries the protocol on its own, including the golden
# wire-byte tests (ciphertext is backend-invariant). MCT_FORCE_SCALAR=1 in
# the environment additionally exercises the runtime pin on that build.
cmake -B build-scalar -S . -DMCT_FORCE_SCALAR=ON
cmake --build build-scalar -j "$(nproc)"
MCT_FORCE_SCALAR=1 ctest --test-dir build-scalar --output-on-failure -j "$(nproc)" "$@"

echo "=== [6/6] obs-off: hooks compiled out + ctest ==="
# -DMCT_OBS=OFF drops MCT_OBS_ENABLED, so every trace/span/flight hook in
# the protocol code (most of them behind tls::SessionCore) compiles to
# nothing. The suite must stay green without them: counters, alerts and
# the failure record are plain members, not side effects of tracing.
cmake -B build-obs-off -S . -DMCT_OBS=OFF
cmake --build build-obs-off -j "$(nproc)"
ctest --test-dir build-obs-off --output-on-failure -j "$(nproc)" "$@"

echo "=== verify_all: OK ==="

# The numbers ROADMAP's quality aim tracks: .h/.cpp lines per tree.
lines() { find "$@" \( -name '*.h' -o -name '*.cpp' \) -print0 | xargs -0 cat | wc -l; }
echo "lines (.h/.cpp): src/ $(lines src), tests/ $(lines tests)," \
     "bench/+examples/ $(lines bench examples)"
