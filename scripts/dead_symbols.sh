#!/usr/bin/env bash
# List the strong src/ functions that no product binary keeps.
#
# Builds every product binary (each bench_* tool, each example including
# mctool, and chainbench_build_check) with -ffunction-sections and
# -Wl,--gc-sections in a build directory of its own, so each link drops
# every function its binary never reaches. Then prints, demangled and one
# per line, each strong (nm type T) function defined in a src/ library that
# none of the binaries kept.
#
# Read the list with care: a function inlined into every caller also shows
# up (its out-of-line copy is what the linker dropped), so grep each name
# before deleting it. It is an extra full build, so verify_all.sh does not
# run it (ROADMAP item 9).
#
# Usage: scripts/dead_symbols.sh [build-dir]     (default: build-gc)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
dir=${1:-$root/build-gc}

products=$(
    grep -oP '^mct_bench\(\K\w+' "$root/bench/CMakeLists.txt"
    grep -oP '^mct_example\(\K\w+' "$root/examples/CMakeLists.txt"
    echo chainbench_build_check
)

cmake -B "$dir" -S "$root" -DCMAKE_CXX_FLAGS=-ffunction-sections \
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections >/dev/null
# shellcheck disable=SC2086  # one target name per word
cmake --build "$dir" -j "$(nproc)" --target $products >/dev/null

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

find "$dir/src" -name 'libmct_*.a' -print0 |
    xargs -0 nm --defined-only 2>/dev/null |
    awk '$2 == "T" { print $3 }' | sort -u >"$tmp/defined"

for name in $products; do
    bin=$(find "$dir/bench" "$dir/examples" -maxdepth 1 -type f -name "$name" | head -n 1)
    if [[ -z "$bin" ]]; then
        echo "dead_symbols: $name was not built" >&2
        exit 1
    fi
    nm --defined-only "$bin" | awk '{ print $3 }'
done | sort -u >"$tmp/kept"

comm -23 "$tmp/defined" "$tmp/kept" | c++filt | sort
echo "dead_symbols: $(comm -23 "$tmp/defined" "$tmp/kept" | wc -l) strong src/ functions" \
    "kept by none of $(wc -w <<<"$products") product binaries" >&2
