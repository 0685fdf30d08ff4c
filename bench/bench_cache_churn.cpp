// State-plane churn bench (DESIGN.md "State plane"): can the bounded
// session caches hold a million live resumption entries inside a configured
// memory budget while lookups stay fast and bounded?
//
// Three phases over one TlsSessionCache sized for the target population:
//
//   fill    insert until the cache holds the full target population, then
//           verify the byte accounting stayed inside the budget
//   churn   steady-state mix at capacity: every round inserts a fresh
//           ticket (forcing a degradation decision) and looks up a random
//           live one, with per-lookup latency recorded into a histogram
//           (p50/p99 in ns are the headline numbers)
//   sweep   stamp a TTL over the population, advance the clock, and reclaim
//           every expired entry through bounded incremental sweeps
//
// Smoke mode shrinks the population from 1M to 20k so bench-smoke runs in
// milliseconds; the JSON schema is identical.
#include <chrono>
#include <cstdio>

#include "bench_json.h"
#include "tls/resumption.h"
#include "util/rng.h"

using namespace mct;
using namespace mct::bench;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// Synthetic resumption ticket i: 16-byte session id + 48-byte master secret
// (exactly what the TLS session cache stores per session).
tls::TlsTicket make_ticket(uint64_t i)
{
    tls::TlsTicket t;
    t.session_id.resize(tls::kSessionIdSize);
    for (size_t b = 0; b < sizeof(uint64_t); ++b)
        t.session_id[b] = static_cast<uint8_t>(i >> (8 * b));
    t.session_id[15] = 0x5a;  // never all-zero
    t.master_secret.assign(48, static_cast<uint8_t>(i * 0x9e37 + 1));
    return t;
}

// xorshift64: cheap deterministic index stream for lookup targets.
struct IndexStream {
    uint64_t s = 0x2545f4914f6cdd1dULL;
    uint64_t next(uint64_t bound)
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s % bound;
    }
};

}  // namespace

int main()
{
    BenchReport report("cache_churn");
    const size_t target = smoke_mode() ? 20'000 : 1'000'000;

    // Budget: the per-entry charge is the ticket footprint (16 + 48 bytes)
    // plus the key copy plus the fixed node overhead. 5% headroom over the
    // target population makes the budget a real bound, not a formality —
    // the churn phase runs degradation decisions against it continuously.
    tls::TlsTicket probe = make_ticket(0);
    const uint64_t per_entry = probe.memory_footprint() + probe.session_id.size() +
                               tls::TlsSessionCache::kNodeOverhead;
    const uint64_t budget = per_entry * target * 21 / 20;

    util::CacheConfig cc;
    cc.capacity = target + target / 20;
    cc.memory_budget = budget;
    cc.policy = util::DegradationPolicy::evict_coldest;
    tls::TlsSessionCache cache(cc);

    uint64_t sim_clock = 1;
    cache.set_clock([&sim_clock] { return sim_clock; });

    std::printf("=== State-plane churn: %zu live entries, %.1f MB budget ===\n\n",
                target, double(budget) / 1e6);

    // --- Phase 1: fill to the target population ---
    auto start = Clock::now();
    for (uint64_t i = 0; i < target; ++i) cache.put(make_ticket(i));
    double fill_s = seconds_since(start);
    report.point("fill", "entries", double(cache.size()));
    report.point("fill", "bytes", double(cache.memory_bytes()));
    report.point("fill", "inserts_per_sec", double(target) / fill_s);
    std::printf("fill:  %zu entries, %.1f MB accounted (budget %.1f MB), %.2fM inserts/s\n",
                cache.size(), double(cache.memory_bytes()) / 1e6, double(budget) / 1e6,
                double(target) / fill_s / 1e6);
    const bool within_budget = cache.memory_bytes() <= budget;
    const bool at_population = cache.size() >= target;

    // --- Phase 2: churn at capacity with per-lookup latency ---
    const size_t churn_rounds = smoke_mode() ? 5'000 : 200'000;
    obs::Histogram* lookup_ns = report.metrics().histogram("lookup_ns");
    IndexStream idx;
    uint64_t hits = 0;
    start = Clock::now();
    for (uint64_t r = 0; r < churn_rounds; ++r) {
        cache.put(make_ticket(target + r));  // forces a degradation decision
        uint64_t probe_ns = now_ns();
        const tls::TlsTicket* hit = cache.find(make_ticket(target + r).session_id);
        lookup_ns->record(now_ns() - probe_ns);
        if (hit) ++hits;
        // And one lookup of an arbitrary (likely live) older entry.
        probe_ns = now_ns();
        hit = cache.find(make_ticket(idx.next(target)).session_id);
        lookup_ns->record(now_ns() - probe_ns);
        if (hit) ++hits;
    }
    double churn_s = seconds_since(start);
    uint64_t p50 = lookup_ns->quantile(0.50);
    uint64_t p99 = lookup_ns->quantile(0.99);
    report.point("churn", "ops_per_sec", 2.0 * double(churn_rounds) / churn_s);
    report.point("lookup_ns", "p50", double(p50));
    report.point("lookup_ns", "p99", double(p99));
    std::printf("churn: %.2fM put+2xfind ops/s at capacity, lookup p50=%lluns p99=%lluns\n",
                2.0 * double(churn_rounds) / churn_s / 1e6,
                static_cast<unsigned long long>(p50),
                static_cast<unsigned long long>(p99));
    util::CacheStats after_churn = cache.stats();
    report.point("churn", "evictions", double(after_churn.evictions));
    const bool still_bounded =
        cache.memory_bytes() <= budget && cache.size() <= cc.capacity;

    // --- Phase 3: TTL sweep reclaim ---
    // Re-stamp the population with a TTL by rebuilding a TTL'd cache config
    // view: entries inserted at sim_clock=1 with ttl=10 expire once the
    // clock passes 11. The existing cache has ttl=0, so emulate expiry by
    // advancing the clock beyond any TTL and sweeping a TTL'd copy.
    util::CacheConfig tc = cc;
    tc.ttl = 10;
    tls::TlsSessionCache ttl_cache(tc);
    ttl_cache.set_clock([&sim_clock] { return sim_clock; });
    const size_t ttl_population = smoke_mode() ? target : target / 4;
    for (uint64_t i = 0; i < ttl_population; ++i) ttl_cache.put(make_ticket(i));
    sim_clock = 100;  // everything is now stale
    start = Clock::now();
    size_t reclaimed = 0;
    while (ttl_cache.size() > 0)
        reclaimed += ttl_cache.sweep_expired(sim_clock, /*max_scan=*/4096);
    double sweep_s = seconds_since(start);
    report.point("sweep", "reclaimed_per_sec", double(reclaimed) / sweep_s);
    std::printf("sweep: reclaimed %zu stale entries at %.2fM/s (4096-entry batches)\n",
                reclaimed, double(reclaimed) / sweep_s / 1e6);

    std::printf("\nbounds: population %s (%zu >= %zu), bytes %s budget, churn %s\n",
                at_population ? "reached" : "MISSED", cache.size(), target,
                within_budget ? "within" : "OVER", still_bounded ? "bounded" : "UNBOUNDED");
    std::printf("Expected: the population fits the byte budget exactly (the budget was\n"
                "derived from the per-entry charge), churn at capacity degrades by\n"
                "evicting the coldest entry per insert instead of growing, and lookup\n"
                "p99 stays within a small multiple of p50.\n");
    return (at_population && within_budget && still_bounded) ? 0 : 1;
}
