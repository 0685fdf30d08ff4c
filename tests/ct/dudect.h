// A dudect-style leakage test (Reparaz, Balasch and Verbauwhede, "Dude, is
// my code constant time?", DATE 2017): time one operation on a fixed-class
// input and on random-class inputs, interleaved in a seeded random order,
// and compare the two timing distributions with Welch's t-test.
//
// Every timing reads the calling thread's CPU clock, so time spent
// descheduled does not count. As in dudect, the test runs on the raw
// samples and on samples cropped at a ladder of upper percentiles (cropping
// removes the long tail that interrupts and cache refills add), and reports
// the largest |t|. dudect calls |t| > 10 "probably not constant time";
// kLeakageThreshold is that bound.
#pragma once

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace mct::ct {

inline constexpr double kLeakageThreshold = 10.0;

// Welch's t-statistic over two classes, accumulated online.
class Welch {
public:
    void push(int cls, double x)
    {
        n_[cls] += 1;
        double delta = x - mean_[cls];
        mean_[cls] += delta / n_[cls];
        m2_[cls] += delta * (x - mean_[cls]);
    }

    double t() const
    {
        if (n_[0] < 2 || n_[1] < 2) return 0;
        double v0 = m2_[0] / (n_[0] - 1), v1 = m2_[1] / (n_[1] - 1);
        double se = std::sqrt(v0 / n_[0] + v1 / n_[1]);
        return se > 0 ? (mean_[0] - mean_[1]) / se : 0;
    }

    double count(int cls) const { return n_[cls]; }

private:
    double n_[2] = {}, mean_[2] = {}, m2_[2] = {};
};

struct LeakageResult {
    double max_abs_t = 0;
    double median_ns[2] = {};  // per class, uncropped
    size_t samples = 0;
};

// The calling thread's CPU time, in ns.
inline uint64_t thread_cpu_ns()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000u +
           static_cast<uint64_t>(ts.tv_nsec);
}

// Runs `measurements` timed calls of op(input) and returns the largest |t|.
// make_input(cls, rng) builds one input of class 0 (fixed) or 1 (random);
// all inputs are built before the first timing, into one vector, so both
// classes are read from the same kind of memory.
template <typename MakeInput, typename Op>
LeakageResult leakage_test(size_t measurements, uint64_t seed, MakeInput make_input, Op op)
{
    std::mt19937_64 rng(seed);
    std::vector<int> classes(measurements);
    using Input = decltype(make_input(0, rng));
    std::vector<Input> inputs;
    inputs.reserve(measurements);
    for (size_t i = 0; i < measurements; ++i) {
        classes[i] = static_cast<int>(rng() & 1);
        inputs.push_back(make_input(classes[i], rng));
    }

    // A short warm-up (caches, branch predictors, lazy page faults) whose
    // timings are discarded.
    for (size_t i = 0; i < std::min<size_t>(measurements, 32); ++i) op(inputs[i]);

    std::vector<double> times(measurements);
    for (size_t i = 0; i < measurements; ++i) {
        uint64_t t0 = thread_cpu_ns();
        op(inputs[i]);
        uint64_t t1 = thread_cpu_ns();
        times[i] = static_cast<double>(t1 - t0);
    }

    // Crop thresholds at the percentiles dudect uses: 1 - 0.5^(10 k / 100).
    std::vector<double> sorted = times;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> crops;
    for (int k = 1; k <= 100; ++k) {
        double q = 1 - std::pow(0.5, 10.0 * k / 100);
        crops.push_back(sorted[static_cast<size_t>(q * (sorted.size() - 1))]);
    }

    LeakageResult result;
    result.samples = measurements;
    Welch raw;
    std::vector<Welch> cropped(crops.size());
    std::vector<double> by_class[2];
    for (size_t i = 0; i < measurements; ++i) {
        raw.push(classes[i], times[i]);
        by_class[classes[i]].push_back(times[i]);
        for (size_t c = 0; c < crops.size(); ++c) {
            if (times[i] < crops[c]) cropped[c].push(classes[i], times[i]);
        }
    }
    result.max_abs_t = std::fabs(raw.t());
    for (const Welch& w : cropped) {
        // dudect ignores a crop until both classes have enough samples.
        if (w.count(0) > 1000 && w.count(1) > 1000)
            result.max_abs_t = std::max(result.max_abs_t, std::fabs(w.t()));
    }
    for (int cls = 0; cls < 2; ++cls) {
        auto& v = by_class[cls];
        if (v.empty()) continue;
        std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
        result.median_ns[cls] = v[v.size() / 2];
    }
    return result;
}

}  // namespace mct::ct
