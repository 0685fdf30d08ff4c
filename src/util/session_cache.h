// Bounded session-state cache (DESIGN.md "State plane").
//
// The template behind TlsSessionCache / ServerSessionCache /
// MiddleboxSessionCache: one LRU list over one hash index. Three bounds
// apply at once:
//
//   capacity       total live entries
//   memory_budget  byte-accurate accounting: each entry is charged its deep
//                  payload size (V::memory_footprint()) plus key bytes plus
//                  a fixed per-node bookkeeping constant
//   ttl            entries expire `ttl` clock units after insertion; staleness
//                  is enforced at lookup (a stale hit is purged and reported
//                  as a miss) and reclaimed incrementally by sweep_expired()
//
// When a put() would exceed a bound, the configured DegradationPolicy
// decides (the "degradation ladder"):
//
//   evict_coldest  drop the LRU entry until the new entry fits (classic
//                  bounded cache; the default)
//   decline        refuse the insert. The caller treats this exactly like a
//                  cache miss later on — the peer falls back to a full
//                  handshake — so overload degrades service, never breaks it
//   shed           drop a batch of the coldest entries to create headroom,
//                  amortizing eviction cost under churn
//
// Every decision is counted in CacheStats and optionally surfaced through a
// per-cache observer hook so callers can trace decisions into obs without
// this header depending on the obs library.
//
// The value type V must provide:
//   Bytes session_id            the key (raw bytes)
//   bool valid() const          invalid values are never stored
//   size_t memory_footprint()   deep payload size in bytes, excluding the key
//
// The cache is single-threaded, like the sans-IO sessions that use it.
// find() returns a borrowed pointer that stays valid until the next
// mutating call on the cache; callers copy what they need before mutating.
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <string>
#include <unordered_map>

#include "util/bytes.h"

namespace mct::util {

enum class DegradationPolicy : uint8_t {
    evict_coldest,  // make room by dropping the LRU entry
    decline,        // refuse the insert; peer falls back to a full handshake
    shed,           // drop a batch of coldest entries, then insert
};

// What put() did. `declined` is the overload signal: the entry was NOT
// stored and a later lookup will miss (callers fall back to the full
// handshake instead of erroring).
enum class PutOutcome : uint8_t { inserted, replaced, declined };

// Decision/traffic events a cache can report through its observer hook.
// `detail` is event-specific: bytes freed for evict/shed/expire, entry bytes
// for insert/decline.
enum class CacheEvent : uint8_t { hit, miss, expired, inserted, replaced, evicted, declined, shed };

struct CacheConfig {
    size_t capacity = 256;       // total entries; 0 = cache admits nothing
    uint64_t memory_budget = 0;  // total bytes; 0 = unbounded
    uint64_t ttl = 0;            // clock units after insert; 0 = no expiry
    DegradationPolicy policy = DegradationPolicy::evict_coldest;
    size_t shed_batch = 32;      // coldest entries dropped per shed decision
};

struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;        // includes expirations discovered at lookup
    uint64_t expirations = 0;   // stale entries purged at lookup
    uint64_t insertions = 0;
    uint64_t replacements = 0;  // duplicate-key puts (memory re-accounted)
    uint64_t evictions = 0;     // evict_coldest decisions
    uint64_t declines = 0;      // puts refused under the decline policy
    uint64_t shed = 0;          // entries dropped by shed decisions
    uint64_t swept = 0;         // stale entries reclaimed by sweep_expired()
    size_t entries = 0;         // live entries right now
    uint64_t bytes = 0;         // accounted bytes right now

    // The field walk: f(name, member of each stats passed). Publishing and
    // summing across caches are both written over it.
    template <class F, class... S>
    static void walk(F&& f, S&... s)
    {
        f("hits", s.hits...);
        f("misses", s.misses...);
        f("expirations", s.expirations...);
        f("insertions", s.insertions...);
        f("replacements", s.replacements...);
        f("evictions", s.evictions...);
        f("declines", s.declines...);
        f("shed", s.shed...);
        f("swept", s.swept...);
        f("entries", s.entries...);
        f("bytes", s.bytes...);
    }
};

template <class V>
class SessionCache {
public:
    // Fixed bookkeeping charge per entry: the LRU node's own fields plus the
    // two list pointers and the hash-map slot that anchor it. The payload
    // and key are charged exactly; this constant covers the containers.
    // Public so capacity planners (benches, deployment sizing) can derive a
    // byte budget from a known per-entry payload.
    static constexpr uint64_t kNodeOverhead = 96;

    SessionCache() = default;
    explicit SessionCache(CacheConfig cfg) : cfg_(cfg)
    {
        if (cfg_.shed_batch == 0) cfg_.shed_batch = 1;
    }

    // The index holds iterators into the list, so a copy would point into
    // the original: caches move but never copy.
    SessionCache(const SessionCache&) = delete;
    SessionCache& operator=(const SessionCache&) = delete;
    SessionCache(SessionCache&&) = default;
    SessionCache& operator=(SessionCache&&) = default;

    // Monotonic clock consulted by put()/find() for TTL stamping and
    // enforcement. Unset = time frozen at 0 (entries never expire).
    void set_clock(std::function<uint64_t()> clock) { clock_ = std::move(clock); }

    // Decision hook (eviction, decline, shed, ...). Called synchronously
    // from the deciding call: must be cheap and must not reenter the cache.
    void set_observer(std::function<void(CacheEvent, uint64_t)> observer)
    {
        observer_ = std::move(observer);
    }

    PutOutcome put(V value)
    {
        const uint64_t at = now();
        if (!value.valid()) return PutOutcome::declined;
        std::string key = key_of(value.session_id);

        bool replacing = false;
        auto it = index_.find(key);
        if (it != index_.end()) {
            // Duplicate session id: drop the old node first so its bytes are
            // never double-counted and the room check sees the true load.
            unlink(it->second);
            replacing = true;
        }

        uint64_t entry_bytes = kNodeOverhead + key.size() + value.memory_footprint();
        if (!make_room(entry_bytes)) {
            stats_.declines++;
            notify(CacheEvent::declined, entry_bytes);
            return PutOutcome::declined;
        }

        lru_.push_front(Node{std::move(key), std::move(value),
                             cfg_.ttl ? at + cfg_.ttl : 0, entry_bytes});
        index_[lru_.front().key] = lru_.begin();
        bytes_ += entry_bytes;
        if (replacing) {
            stats_.replacements++;
            notify(CacheEvent::replaced, entry_bytes);
            return PutOutcome::replaced;
        }
        stats_.insertions++;
        notify(CacheEvent::inserted, entry_bytes);
        return PutOutcome::inserted;
    }

    // TTL is enforced here: a hit past its deadline is purged and reported
    // as a miss, so stale tickets are never served.
    const V* find(ConstBytes session_id)
    {
        const uint64_t at = now();
        auto it = index_.find(key_of(session_id));
        if (it == index_.end()) {
            stats_.misses++;
            notify(CacheEvent::miss, 0);
            return nullptr;
        }
        if (expired(*it->second, at)) {
            stats_.expirations++;
            stats_.misses++;
            notify(CacheEvent::expired, unlink(it->second));
            return nullptr;
        }
        lru_.splice(lru_.begin(), lru_, it->second);  // touch
        stats_.hits++;
        notify(CacheEvent::hit, it->second->bytes);
        return &it->second->value;
    }

    void erase(ConstBytes session_id)
    {
        auto it = index_.find(key_of(session_id));
        if (it != index_.end()) unlink(it->second);
    }

    void clear()
    {
        lru_.clear();
        index_.clear();
        bytes_ = 0;
    }

    // Incremental expiry reclaim for the background sweep task: scans up to
    // `max_scan` entries from the cold end of the LRU list, removing every
    // stale one. Returns the number reclaimed. Bounded work per call, so a
    // scheduler tick never stalls the data plane.
    size_t sweep_expired(uint64_t at, size_t max_scan = SIZE_MAX)
    {
        if (cfg_.ttl == 0) return 0;
        size_t removed = 0;
        size_t scanned = 0;
        for (auto it = lru_.end(); it != lru_.begin() && scanned < max_scan; ++scanned) {
            auto cur = std::prev(it);
            if (!expired(*cur, at)) {
                it = cur;
                continue;
            }
            stats_.swept++;
            notify(CacheEvent::expired, unlink(cur));
            ++removed;
        }
        return removed;
    }

    size_t size() const { return lru_.size(); }
    uint64_t memory_bytes() const { return bytes_; }
    const CacheConfig& config() const { return cfg_; }

    // Runtime bound changes (operator tightening a budget under pressure, or
    // the chaos plane squeezing live caches). Shrinking evicts coldest
    // entries immediately until the cache is back within both bounds. The
    // degradation policy governs *inserts*; a shrink must reclaim, so it
    // always evicts (counted as evictions) even under `decline`.
    void set_capacity(size_t capacity)
    {
        cfg_.capacity = capacity;
        shrink_to_fit();
    }

    void set_memory_budget(uint64_t budget)
    {
        cfg_.memory_budget = budget;
        shrink_to_fit();
    }

    CacheStats stats() const
    {
        CacheStats s = stats_;
        s.entries = size();
        s.bytes = bytes_;
        return s;
    }

private:
    struct Node {
        std::string key;
        V value;
        uint64_t expires_at = 0;  // 0 = never
        uint64_t bytes = 0;
    };
    using List = std::list<Node>;

    static std::string key_of(ConstBytes id)
    {
        return std::string(reinterpret_cast<const char*>(id.data()), id.size());
    }

    uint64_t now() const { return clock_ ? clock_() : 0; }

    static bool expired(const Node& node, uint64_t at)
    {
        return node.expires_at != 0 && at >= node.expires_at;
    }

    void notify(CacheEvent e, uint64_t detail)
    {
        if (observer_) observer_(e, detail);
    }

    // Removes one entry; returns the bytes it freed.
    uint64_t unlink(typename List::iterator it)
    {
        uint64_t freed = it->bytes;
        bytes_ -= freed;
        index_.erase(it->key);
        lru_.erase(it);
        return freed;
    }

    void evict_coldest()
    {
        stats_.evictions++;
        notify(CacheEvent::evicted, unlink(std::prev(lru_.end())));
    }

    // True while the cache plus `extra` entries of `extra_bytes` in total
    // breaks a bound: (1, entry bytes) asks whether an insert fits, (0, 0)
    // whether a shrink is done.
    bool over_bounds(size_t extra, uint64_t extra_bytes) const
    {
        return lru_.size() + extra > cfg_.capacity ||
               (cfg_.memory_budget != 0 && bytes_ + extra_bytes > cfg_.memory_budget);
    }

    // Apply the degradation ladder until `incoming_bytes` fits. Returns
    // false when the insert must be declined: the policy says so, or nothing
    // is left to drop (capacity 0, or the newcomer alone exceeds the budget).
    bool make_room(uint64_t incoming_bytes)
    {
        while (over_bounds(1, incoming_bytes)) {
            if (cfg_.policy == DegradationPolicy::decline || lru_.empty()) return false;
            if (cfg_.policy == DegradationPolicy::evict_coldest) {
                evict_coldest();
                continue;
            }
            // shed: drop a batch of the coldest entries in one decision.
            uint64_t freed = 0;
            size_t dropped = 0;
            for (; dropped < cfg_.shed_batch && !lru_.empty(); ++dropped)
                freed += unlink(std::prev(lru_.end()));
            stats_.shed += dropped;
            notify(CacheEvent::shed, freed);
        }
        return true;
    }

    void shrink_to_fit()
    {
        while (over_bounds(0, 0)) evict_coldest();
    }

    CacheConfig cfg_;
    List lru_;  // front = most recently used
    std::unordered_map<std::string, typename List::iterator> index_;
    uint64_t bytes_ = 0;
    CacheStats stats_;  // entries/bytes are filled in by stats()
    std::function<uint64_t()> clock_;
    std::function<void(CacheEvent, uint64_t)> observer_;
};

}  // namespace mct::util
