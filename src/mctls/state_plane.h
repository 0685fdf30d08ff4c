// Session state plane: the bounded caches plus the background maintenance
// that keeps them honest (DESIGN.md "State plane").
//
// PR 3 gave sessions continuity (resumption, rekeying, excision) but left
// the stores unbounded in practice and all upkeep implicit. StatePlane
// owns the three cache kinds for one deployment — the server's TLS session
// cache, the server's mcTLS ticket cache, and one pairwise-key cache per
// middlebox — and drives three kinds of deadline work off a TickScheduler:
//
//   expiry sweeps     incremental TTL reclaim across every cache, bounded
//                     scan per tick so maintenance never stalls the data
//                     plane
//   rekey deadlines   epoch age limits: when a session has lived a full
//                     rekey_interval, on_rekey_due fires and the owner
//                     initiates the three-phase in-band rekey
//   excision grace    a middlebox reported down starts a grace timer; if it
//                     is still down when the timer fires, on_excise_due
//                     fires and the owner splices it out via the reduced-
//                     list abbreviated handshake. A restart inside the
//                     grace window cancels the timer.
//
// StatePlane is sans-IO like the sessions: the owner calls tick(now) from
// its event loop (the HTTP testbed pumps it between fetches) and wires the
// hooks. It never touches a wall clock.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mctls/resumption.h"
#include "tls/resumption.h"
#include "util/scheduler.h"
#include "util/session_cache.h"

namespace mct::mctls {

struct StatePlaneConfig {
    util::CacheConfig tls;        // TLS session cache bounds
    util::CacheConfig server;     // mcTLS server ticket bounds
    util::CacheConfig middlebox;  // per-relay pairwise-key cache bounds
    uint64_t sweep_interval = 0;  // clock units between expiry sweeps; 0 = off
    size_t sweep_batch = 1024;    // max entries scanned per cache per sweep
    uint64_t rekey_interval = 0;  // epoch age limit; 0 = never force a rekey
    uint64_t excise_grace = 0;    // dead-relay grace before excision; 0 = off
};

class StatePlane {
public:
    StatePlane(StatePlaneConfig cfg, size_t n_middleboxes);

    tls::TlsSessionCache& tls_cache() { return tls_; }
    ServerSessionCache& server_cache() { return server_; }
    MiddleboxSessionCache& middlebox_cache(size_t index) { return mbox_[index]; }

    // Shared monotonic clock for TTL stamping in every cache.
    void set_clock(std::function<uint64_t()> clock);

    util::TickScheduler& scheduler() { return sched_; }

    // Run every maintenance task due at or before `now`.
    void tick(uint64_t now) { sched_.tick(now); }
    // Earliest pending deadline (TickScheduler::kIdle when none): owners
    // with real timers can sleep exactly this long.
    uint64_t next_deadline() const { return sched_.next_deadline(); }

    // Middlebox liveness. down() starts the excision grace timer (no-op
    // when excise_grace is 0 or the relay is already pending); up() cancels
    // a pending timer, so a restart inside the window costs nothing.
    void middlebox_down(size_t index, uint64_t now);
    void middlebox_up(size_t index);

    // Drop every ticket the relay could use to rejoin. Called by the owner
    // once it has actually excised the middlebox from live sessions.
    void excise_middlebox(size_t index);

    // Scale every cache's standing bounds (capacity and memory budget) by
    // `factor` relative to the *configured* bounds — factor 0.5 halves them,
    // 1.0 restores the original config. Shrinking evicts immediately, so a
    // byte-budget invariant holds across the squeeze (the chaos plane's
    // cache-budget squeeze rides this). Unbounded budgets (0) stay 0.
    void scale_budgets(double factor);
    double budget_factor() const { return budget_factor_; }

    // Hooks fired from tick(). All optional.
    std::function<void(uint64_t now)> on_rekey_due;
    std::function<void(size_t index, uint64_t now)> on_excise_due;
    std::function<void(size_t reclaimed, uint64_t now)> on_sweep;

    struct Snapshot {
        util::CacheStats tls;
        util::CacheStats server;
        util::CacheStats middlebox;  // aggregated across relays
        uint64_t sweeps = 0;
        uint64_t swept_entries = 0;
        uint64_t rekeys_signalled = 0;
        uint64_t excisions_signalled = 0;
        uint64_t excisions_applied = 0;
    };
    Snapshot snapshot() const;

    const StatePlaneConfig& config() const { return cfg_; }

private:
    StatePlaneConfig cfg_;
    tls::TlsSessionCache tls_;
    ServerSessionCache server_;
    std::vector<MiddleboxSessionCache> mbox_;
    util::TickScheduler sched_;
    std::vector<uint64_t> excise_timer_;  // pending task id per relay; 0 = none
    double budget_factor_ = 1.0;
    uint64_t sweeps_ = 0;
    uint64_t swept_entries_ = 0;
    uint64_t rekeys_signalled_ = 0;
    uint64_t excisions_signalled_ = 0;
    uint64_t excisions_applied_ = 0;
};

}  // namespace mct::mctls
