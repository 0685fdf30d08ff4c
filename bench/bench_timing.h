// Manual steady-clock timing loop shared by the micro/ablation benches.
//
// Deliberately not google-benchmark: one loop shape (16 warmup calls,
// batches of 32 against a wall-clock deadline) for every micro/ablation
// bench, so their numbers compare with each other across runs.
#pragma once

#include <chrono>
#include <cstdint>

#include "bench_json.h"

namespace mct::bench {

// Ops/sec of fn() over roughly min_ms of wall time (1ms in smoke mode, so
// the bench-smoke target still exercises every series in milliseconds).
template <typename Fn>
double ops_per_sec(Fn&& fn, int min_ms = 200)
{
    using clock = std::chrono::steady_clock;
    if (smoke_mode()) min_ms = 1;
    for (int i = 0; i < 16; ++i) fn();
    uint64_t iters = 0;
    auto start = clock::now();
    auto deadline = start + std::chrono::milliseconds(min_ms);
    do {
        for (int i = 0; i < 32; ++i) fn();
        iters += 32;
    } while (clock::now() < deadline);
    auto elapsed = std::chrono::duration<double>(clock::now() - start).count();
    return static_cast<double>(iters) / elapsed;
}

}  // namespace mct::bench
