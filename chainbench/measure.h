// Measurement primitives for the chain benchmark: a cheap tick clock, a
// fixed-memory latency histogram, and the in-memory span recorder used by
// the traced run.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace chainbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// Span clock. On x86 the invariant TSC costs a fraction of steady_clock and
// keeps the traced run's own overhead small; elsewhere it is steady_clock
// nanoseconds. Convert with a TickRate measured over the same interval.
inline uint64_t ticks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
            .count());
#endif
}

// CPU time of the calling thread, in nanoseconds. It excludes the time the
// thread (or its vCPU) was not running.
inline uint64_t thread_cpu_ns()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000u + static_cast<uint64_t>(ts.tv_nsec);
}

// Ticks-to-nanoseconds rate, calibrated against steady_clock over an
// interval (the traced window, seconds long, so the rate error is tiny).
class TickRate {
public:
    void start()
    {
        t0_ = ticks();
        c0_ = Clock::now();
    }
    void stop()
    {
        uint64_t t1 = ticks();
        double ns = seconds_between(c0_, Clock::now()) * 1e9;
        ns_per_tick_ = t1 > t0_ ? ns / static_cast<double>(t1 - t0_) : 1.0;
    }
    double ns(uint64_t tick_count) const { return static_cast<double>(tick_count) * ns_per_tick_; }

private:
    uint64_t t0_ = 0;
    Clock::time_point c0_;
    double ns_per_tick_ = 1.0;
};

// Log-linear latency histogram in nanoseconds: exact below 1024 ns, then
// 1024 sub-buckets per power of two (relative bucket width <= 0.1%). Memory
// is fixed, so peak RSS does not grow with the number of operations timed.
class Histogram {
public:
    Histogram() : buckets_(kSub * (kMaxShift + 2), 0) {}

    void add(uint64_t ns)
    {
        ++buckets_[index(ns)];
        ++count_;
    }
    uint64_t count() const { return count_; }

    // Quantile q in [0, 1], interpolated by rank inside the bucket.
    double quantile_ns(double q) const
    {
        if (count_ == 0) return 0;
        double rank = q * static_cast<double>(count_ - 1);
        uint64_t below = 0;
        for (size_t i = 0; i < buckets_.size(); ++i) {
            uint64_t n = buckets_[i];
            if (n == 0) continue;
            if (static_cast<double>(below + n) > rank) {
                double frac = (rank - static_cast<double>(below) + 0.5) / static_cast<double>(n);
                return lower(i) + frac * width(i);
            }
            below += n;
        }
        return lower(buckets_.size() - 1);
    }

private:
    static constexpr size_t kSubBits = 10;
    static constexpr size_t kSub = size_t{1} << kSubBits;
    static constexpr size_t kMaxShift = 40;

    static size_t index(uint64_t v)
    {
        if (v < kSub) return static_cast<size_t>(v);
        size_t shift = std::min<size_t>(std::bit_width(v) - kSubBits - 1, kMaxShift);
        uint64_t top = std::min<uint64_t>(v >> shift, 2 * kSub - 1);
        return kSub + shift * kSub + static_cast<size_t>(top - kSub);
    }
    static double lower(size_t i)
    {
        if (i < kSub) return static_cast<double>(i);
        size_t shift = (i - kSub) / kSub;
        uint64_t top = kSub + (i - kSub) % kSub;
        return static_cast<double>(top << shift);
    }
    static double width(size_t i)
    {
        return i < kSub ? 1.0 : static_cast<double>(uint64_t{1} << ((i - kSub) / kSub));
    }

    std::vector<uint64_t> buckets_;
    uint64_t count_ = 0;
};

// In-memory spans for the traced run. Three kinds are recorded:
//   - one root span per operation ("op");
//   - one child span per call into a party, named party.function;
//   - one root span per batch of layer micro-calls, named layer.call.
// Every span is folded into per-name totals as it closes. Op spans and their
// children are also stored up to `keep` of them, micro-call spans always;
// the stored spans are written out as JSON lines at exit.
// Self time = span time minus the time its children cover; only op spans
// have children, so a party call's self time is its whole duration and the
// op span's self time is the driver's unattributed time.
class SpanRecorder {
public:
    static constexpr uint32_t kNoParent = UINT32_MAX;

    explicit SpanRecorder(size_t keep) : keep_(keep) { spans_.reserve(keep); }

    uint16_t intern(const std::string& name)
    {
        for (size_t i = 0; i < names_.size(); ++i)
            if (names_[i] == name) return static_cast<uint16_t>(i);
        names_.push_back(name);
        totals_.push_back({});
        return static_cast<uint16_t>(names_.size() - 1);
    }

    // Root operation span; children recorded until end_op() attach to it.
    void begin_op(uint16_t name)
    {
        op_name_ = name;
        op_children_ = 0;
        op_index_ = kNoParent;
        if (spans_.size() < keep_) {
            op_index_ = static_cast<uint32_t>(spans_.size());
            spans_.push_back({});
        }
        ++recorded_;
        open_ = true;
        op_start_ = ticks();
    }
    void end_op()
    {
        uint64_t end = ticks();
        uint64_t dur = end - op_start_;
        Total& t = totals_[op_name_];
        ++t.count;
        t.ticks += dur;
        t.self_ticks += dur - std::min(dur, op_children_);
        if (op_index_ != kNoParent) spans_[op_index_] = {kNoParent, op_name_, op_start_, end};
        open_ = false;
    }

    // Child of the open op span, or a root span (a micro-call batch) when
    // none is open. Op children are stored while the op itself was; roots
    // are always stored.
    void leaf(uint16_t name, uint64_t start, uint64_t end)
    {
        uint64_t dur = end - start;
        Total& t = totals_[name];
        ++t.count;
        t.ticks += dur;
        t.self_ticks += dur;
        ++recorded_;
        if (!open_) {
            spans_.push_back({kNoParent, name, start, end});
            return;
        }
        op_children_ += dur;
        if (op_index_ != kNoParent && spans_.size() < keep_)
            spans_.push_back({op_index_, name, start, end});
    }

    struct Total {
        uint64_t count = 0;
        uint64_t ticks = 0;
        uint64_t self_ticks = 0;
    };
    const Total& total(uint16_t name) const { return totals_[name]; }

    // Stored spans as JSON lines, then one summary line per name.
    bool write_jsonl(const std::string& path, const TickRate& rate) const
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (!f) return false;
        uint64_t base = spans_.empty() ? 0 : spans_.front().start;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::fprintf(f, "{\"id\":%zu,\"parent\":", i);
            if (s.parent == kNoParent)
                std::fprintf(f, "null");
            else
                std::fprintf(f, "%u", s.parent);
            std::fprintf(f, ",\"name\":\"%s\",\"start_ns\":%.0f,\"dur_ns\":%.0f}\n",
                         names_[s.name].c_str(), rate.ns(s.start - std::min(base, s.start)),
                         rate.ns(s.end - s.start));
        }
        for (size_t i = 0; i < names_.size(); ++i)
            std::fprintf(f,
                         "{\"summary\":\"%s\",\"count\":%llu,\"total_ns\":%.0f,\"self_ns\":%.0f}\n",
                         names_[i].c_str(), static_cast<unsigned long long>(totals_[i].count),
                         rate.ns(totals_[i].ticks), rate.ns(totals_[i].self_ticks));
        std::fprintf(f, "{\"recorded\":%llu,\"stored\":%zu}\n",
                     static_cast<unsigned long long>(recorded_), spans_.size());
        return std::fclose(f) == 0;
    }

private:
    struct Span {
        uint32_t parent = kNoParent;
        uint16_t name = 0;
        uint64_t start = 0;
        uint64_t end = 0;
    };

    size_t keep_;
    std::vector<Span> spans_;
    std::vector<std::string> names_;
    std::vector<Total> totals_;
    uint64_t recorded_ = 0;
    bool open_ = false;
    uint16_t op_name_ = 0;
    uint32_t op_index_ = kNoParent;
    uint64_t op_start_ = 0;
    uint64_t op_children_ = 0;
};

}  // namespace chainbench
