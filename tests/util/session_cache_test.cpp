// SessionCache edge cases (DESIGN.md "State plane"): the bounds and the
// degradation ladder at their extremes — capacity 0 and 1, duplicate-key
// accounting, TTL at lookup, decline/shed policies, bounded sweeps, LRU
// order under tiny capacities — plus the stats/observer plumbing the
// testbed builds its telemetry on. The suite keeps its historical
// ShardCache name.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "util/session_cache.h"

namespace mct::util {
namespace {

struct Val {
    Bytes session_id;
    Bytes payload;

    bool valid() const { return !session_id.empty(); }
    size_t memory_footprint() const { return session_id.size() + payload.size(); }
};

using Cache = SessionCache<Val>;

Val val(const std::string& id, size_t payload_bytes = 8)
{
    Val v;
    v.session_id.assign(id.begin(), id.end());
    v.payload.assign(payload_bytes, 0xab);
    return v;
}

Bytes id_of(const std::string& id)
{
    return Bytes(id.begin(), id.end());
}

CacheConfig with_capacity(size_t capacity)
{
    CacheConfig cc;
    cc.capacity = capacity;
    return cc;
}

TEST(ShardCache, CapacityZeroAdmitsNothing)
{
    Cache cache(with_capacity(0));
    EXPECT_EQ(cache.put(val("a")), PutOutcome::declined);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.memory_bytes(), 0u);
    EXPECT_EQ(cache.find(id_of("a")), nullptr);
    CacheStats s = cache.stats();
    EXPECT_EQ(s.declines, 1u);
    EXPECT_EQ(s.insertions, 0u);
    EXPECT_EQ(s.misses, 1u);
}

TEST(ShardCache, CapacityOneKeepsExactlyTheNewest)
{
    Cache cache(with_capacity(1));
    EXPECT_EQ(cache.put(val("a")), PutOutcome::inserted);
    EXPECT_EQ(cache.put(val("b")), PutOutcome::inserted);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.find(id_of("a")), nullptr);
    ASSERT_NE(cache.find(id_of("b")), nullptr);
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ShardCache, DuplicateInsertReplacesWithoutDoubleCounting)
{
    Cache cache(with_capacity(4));
    EXPECT_EQ(cache.put(val("dup", /*payload=*/10)), PutOutcome::inserted);
    uint64_t first_bytes = cache.memory_bytes();
    ASSERT_GT(first_bytes, 0u);

    // Same session id, bigger payload: one entry, re-accounted exactly.
    EXPECT_EQ(cache.put(val("dup", /*payload=*/30)), PutOutcome::replaced);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.memory_bytes(), first_bytes + 20);

    // And shrinking back re-accounts downward, not cumulatively.
    EXPECT_EQ(cache.put(val("dup", /*payload=*/10)), PutOutcome::replaced);
    EXPECT_EQ(cache.memory_bytes(), first_bytes);
    CacheStats s = cache.stats();
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.replacements, 2u);
    EXPECT_EQ(s.evictions, 0u);
}

TEST(ShardCache, DuplicateInsertCountsAgainstCapacityOnce)
{
    // A replace on a full cache must not evict anything: the old node is
    // unlinked before the room check, so the entry count stays flat.
    Cache cache(with_capacity(2));
    cache.put(val("a"));
    cache.put(val("b"));
    EXPECT_EQ(cache.put(val("a", /*payload=*/16)), PutOutcome::replaced);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_NE(cache.find(id_of("b")), nullptr);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ShardCache, TtlEnforcedAtLookup)
{
    CacheConfig cc = with_capacity(8);
    cc.ttl = 10;
    Cache cache(cc);
    uint64_t clock = 5;
    cache.set_clock([&clock] { return clock; });
    cache.put(val("t"));

    clock = 14;  // one unit to spare
    EXPECT_NE(cache.find(id_of("t")), nullptr);
    clock = 15;  // stale: purged now
    EXPECT_EQ(cache.find(id_of("t")), nullptr);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.memory_bytes(), 0u);

    CacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.expirations, 1u);
    EXPECT_EQ(s.misses, 1u);  // the stale hit reports as a miss
}

TEST(ShardCache, LookupCopiesAndEnforcesTtl)
{
    CacheConfig cc = with_capacity(8);
    cc.ttl = 10;
    Cache cache(cc);
    uint64_t clock = 0;
    cache.set_clock([&clock] { return clock; });
    cache.put(val("t", 4));

    // A copy taken from a hit stays valid after the entry is purged.
    clock = 9;
    const Val* hit = cache.find(id_of("t"));
    ASSERT_NE(hit, nullptr);
    Val out = *hit;
    EXPECT_EQ(out.payload.size(), 4u);
    clock = 10;  // exactly ttl after the put: stale
    EXPECT_EQ(cache.find(id_of("t")), nullptr);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(out.payload.size(), 4u);
    EXPECT_EQ(out.session_id, id_of("t"));
}

TEST(ShardCache, DeclinePolicyRefusesInsteadOfEvicting)
{
    CacheConfig cc = with_capacity(2);
    cc.policy = DegradationPolicy::decline;
    Cache cache(cc);
    cache.put(val("a"));
    cache.put(val("b"));
    EXPECT_EQ(cache.put(val("c")), PutOutcome::declined);

    // The resident population is untouched; the newcomer simply misses
    // later (its peer falls back to a full handshake).
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_NE(cache.find(id_of("a")), nullptr);
    EXPECT_NE(cache.find(id_of("b")), nullptr);
    EXPECT_EQ(cache.find(id_of("c")), nullptr);
    EXPECT_EQ(cache.stats().declines, 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ShardCache, ShedPolicyDropsABatchOfColdest)
{
    CacheConfig cc = with_capacity(8);
    cc.policy = DegradationPolicy::shed;
    cc.shed_batch = 4;
    Cache cache(cc);
    for (int i = 0; i < 8; ++i) cache.put(val("k" + std::to_string(i)));
    EXPECT_EQ(cache.put(val("new")), PutOutcome::inserted);

    // One shed decision dropped the 4 coldest (k0..k3) in a batch.
    EXPECT_EQ(cache.size(), 5u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(cache.find(id_of("k" + std::to_string(i))), nullptr) << i;
    EXPECT_NE(cache.find(id_of("k7")), nullptr);
    EXPECT_NE(cache.find(id_of("new")), nullptr);
    EXPECT_EQ(cache.stats().shed, 4u);
}

TEST(ShardCache, MemoryBudgetEvictsUntilTheNewcomerFits)
{
    CacheConfig cc = with_capacity(1000);
    // Room for roughly two entries' worth of bytes.
    uint64_t per_entry = Cache::kNodeOverhead + 1 + 1 + 8;  // key + id + payload
    cc.memory_budget = 2 * per_entry;
    Cache cache(cc);
    EXPECT_EQ(cache.put(val("a")), PutOutcome::inserted);
    EXPECT_EQ(cache.put(val("b")), PutOutcome::inserted);
    EXPECT_EQ(cache.put(val("c")), PutOutcome::inserted);

    EXPECT_EQ(cache.size(), 2u);
    EXPECT_LE(cache.memory_bytes(), cc.memory_budget);
    EXPECT_EQ(cache.find(id_of("a")), nullptr);  // coldest paid for the room
    EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(ShardCache, FindTouchesLruOrder)
{
    Cache cache(with_capacity(2));
    cache.put(val("a"));
    cache.put(val("b"));
    ASSERT_NE(cache.find(id_of("a")), nullptr);  // warm A up
    cache.put(val("c"));                         // evicts B, not A

    EXPECT_NE(cache.find(id_of("a")), nullptr);
    EXPECT_EQ(cache.find(id_of("b")), nullptr);
}

TEST(ShardCache, SweepReclaimsIncrementallyWithBoundedScans)
{
    CacheConfig cc;
    cc.ttl = 10;
    Cache cache(cc);  // no clock: every entry is stamped at 0
    for (int i = 0; i < 64; ++i) cache.put(val("s" + std::to_string(i)));
    ASSERT_EQ(cache.size(), 64u);

    // Nothing stale yet: a sweep is a no-op.
    EXPECT_EQ(cache.sweep_expired(/*at=*/9), 0u);
    EXPECT_EQ(cache.size(), 64u);

    // All stale now; each bounded call reclaims at most max_scan entries,
    // so the background task never stalls the data plane.
    size_t total = 0;
    size_t calls = 0;
    while (cache.size() > 0) {
        size_t got = cache.sweep_expired(/*at=*/10, /*max_scan=*/16);
        EXPECT_LE(got, 16u);
        total += got;
        ++calls;
        ASSERT_LT(calls, 100u) << "sweep failed to converge";
    }
    EXPECT_EQ(total, 64u);
    EXPECT_GE(calls, 4u);
    EXPECT_EQ(cache.stats().swept, 64u);
    EXPECT_EQ(cache.memory_bytes(), 0u);
}

TEST(ShardCache, EraseAndClearRestoreAccountingToZero)
{
    Cache cache(with_capacity(8));
    cache.put(val("a"));
    cache.put(val("b"));
    cache.erase(id_of("a"));
    EXPECT_EQ(cache.size(), 1u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.memory_bytes(), 0u);
    EXPECT_EQ(cache.find(id_of("b")), nullptr);
}

TEST(ShardCache, InvalidValuesAreNeverStored)
{
    Cache cache(with_capacity(8));
    Val empty;
    EXPECT_EQ(cache.put(std::move(empty)), PutOutcome::declined);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(ShardCache, ObserverSeesEveryDecision)
{
    CacheConfig cc = with_capacity(1);
    Cache cache(cc);
    std::vector<CacheEvent> events;
    cache.set_observer([&events](CacheEvent e, uint64_t) { events.push_back(e); });

    cache.put(val("a"));
    cache.put(val("b"));        // evicts a
    (void)cache.find(id_of("b"));
    (void)cache.find(id_of("a"));

    ASSERT_EQ(events.size(), 5u);
    EXPECT_EQ(events[0], CacheEvent::inserted);
    EXPECT_EQ(events[1], CacheEvent::evicted);
    EXPECT_EQ(events[2], CacheEvent::inserted);
    EXPECT_EQ(events[3], CacheEvent::hit);
    EXPECT_EQ(events[4], CacheEvent::miss);
}

TEST(ShardCache, MoveCarriesEntriesAndAccounting)
{
    Cache cache(with_capacity(8));
    cache.put(val("a"));
    cache.put(val("b"));
    Cache moved(std::move(cache));
    EXPECT_EQ(moved.size(), 2u);
    EXPECT_NE(moved.find(id_of("a")), nullptr);
    EXPECT_GT(moved.memory_bytes(), 0u);
}

TEST(ShardCache, BudgetBoundaryExactFitIsAdmitted)
{
    // An insert that lands *exactly* on the byte budget must be admitted
    // without any degradation decision; one byte more must trigger one.
    uint64_t per_entry = Cache::kNodeOverhead + 1 + 1 + 8;  // key + id + payload
    CacheConfig cc = with_capacity(1000);
    cc.memory_budget = 2 * per_entry;
    Cache cache(cc);
    EXPECT_EQ(cache.put(val("a")), PutOutcome::inserted);
    EXPECT_EQ(cache.put(val("b")), PutOutcome::inserted);
    EXPECT_EQ(cache.memory_bytes(), cc.memory_budget);  // exactly full
    EXPECT_EQ(cache.stats().evictions, 0u);

    // One more byte anywhere cannot fit: the ladder fires.
    EXPECT_EQ(cache.put(val("c")), PutOutcome::inserted);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_LE(cache.memory_bytes(), cc.memory_budget);
}

TEST(ShardCache, BudgetBoundaryDeclineAtExactlyFull)
{
    // Threshold crossing under `decline`: the entry that would push the
    // cache past the budget is refused, the resident set is untouched, and
    // the accounting stays exactly at the boundary.
    uint64_t per_entry = Cache::kNodeOverhead + 1 + 1 + 8;
    CacheConfig cc = with_capacity(1000);
    cc.memory_budget = 2 * per_entry;
    cc.policy = DegradationPolicy::decline;
    Cache cache(cc);
    cache.put(val("a"));
    cache.put(val("b"));
    ASSERT_EQ(cache.memory_bytes(), cc.memory_budget);
    EXPECT_EQ(cache.put(val("c")), PutOutcome::declined);
    EXPECT_EQ(cache.memory_bytes(), cc.memory_budget);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().declines, 1u);

    // A same-key replace of identical size still fits (the old node is
    // unlinked before the room check), so exactly-full is not a deadlock.
    EXPECT_EQ(cache.put(val("a")), PutOutcome::replaced);
    EXPECT_EQ(cache.memory_bytes(), cc.memory_budget);
}

TEST(ShardCache, BudgetBoundaryShedCrossingDropsBatchThenAdmits)
{
    uint64_t per_entry = Cache::kNodeOverhead + 2 + 2 + 8;  // 2-char keys
    CacheConfig cc = with_capacity(1000);
    cc.memory_budget = 4 * per_entry;
    cc.policy = DegradationPolicy::shed;
    cc.shed_batch = 2;
    Cache cache(cc);
    for (int i = 0; i < 4; ++i) cache.put(val("k" + std::to_string(i)));
    ASSERT_EQ(cache.memory_bytes(), cc.memory_budget);

    // Crossing the full budget sheds one batch (2 coldest), then admits.
    EXPECT_EQ(cache.put(val("n0")), PutOutcome::inserted);
    EXPECT_EQ(cache.stats().shed, 2u);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_LE(cache.memory_bytes(), cc.memory_budget);
    EXPECT_EQ(cache.find(id_of("k0")), nullptr);
    EXPECT_EQ(cache.find(id_of("k1")), nullptr);
    EXPECT_NE(cache.find(id_of("n0")), nullptr);
}

TEST(ShardCache, SetMemoryBudgetShrinksToFitImmediately)
{
    uint64_t per_entry = Cache::kNodeOverhead + 2 + 2 + 8;
    CacheConfig cc = with_capacity(1000);
    cc.memory_budget = 8 * per_entry;
    Cache cache(cc);
    for (int i = 0; i < 8; ++i) cache.put(val("k" + std::to_string(i)));
    ASSERT_EQ(cache.size(), 8u);

    // Squeeze to half: the 4 coldest go immediately, not lazily on the
    // next put, so a budget invariant checker never sees an overshoot.
    cache.set_memory_budget(4 * per_entry);
    EXPECT_EQ(cache.size(), 4u);
    EXPECT_LE(cache.memory_bytes(), 4 * per_entry);
    EXPECT_EQ(cache.config().memory_budget, 4 * per_entry);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(cache.find(id_of("k" + std::to_string(i))), nullptr) << i;
    for (int i = 4; i < 8; ++i)
        EXPECT_NE(cache.find(id_of("k" + std::to_string(i))), nullptr) << i;
    EXPECT_EQ(cache.stats().evictions, 4u);

    // Restoring the budget does not resurrect anything.
    cache.set_memory_budget(8 * per_entry);
    EXPECT_EQ(cache.size(), 4u);
}

TEST(ShardCache, SetCapacityShrinksEvenUnderDeclinePolicy)
{
    // The degradation policy governs inserts; an operator shrink must
    // reclaim regardless, otherwise a `decline` cache could never be
    // squeezed below its standing population.
    CacheConfig cc = with_capacity(8);
    cc.policy = DegradationPolicy::decline;
    Cache cache(cc);
    for (int i = 0; i < 8; ++i) cache.put(val("k" + std::to_string(i)));
    cache.set_capacity(3);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.stats().evictions, 5u);
    EXPECT_NE(cache.find(id_of("k7")), nullptr);  // hottest survive
    EXPECT_EQ(cache.find(id_of("k0")), nullptr);
}

// Under evict_coldest, a put into a full cache always makes room by dropping
// the globally coldest entry: no decline, and the newest entries survive.
TEST(ShardCache, CapacityFourNeverDeclinesAndKeepsTheNewest)
{
    Cache cache(with_capacity(4));
    size_t declined = 0;
    for (int i = 0; i < 1000; ++i)
        if (cache.put(val("k" + std::to_string(i))) == PutOutcome::declined) ++declined;
    EXPECT_EQ(declined, 0u);
    EXPECT_EQ(cache.stats().declines, 0u);
    EXPECT_EQ(cache.size(), 4u);
    for (int i = 996; i < 1000; ++i)
        EXPECT_NE(cache.find(id_of("k" + std::to_string(i))), nullptr) << i;
}

TEST(ShardCache, CapacitySixteenKeepsTheSixteenNewest)
{
    Cache cache(with_capacity(16));
    for (int i = 0; i < 1000; ++i) cache.put(val("k" + std::to_string(i)));
    EXPECT_EQ(cache.size(), 16u);
    for (int i = 984; i < 1000; ++i)
        EXPECT_NE(cache.find(id_of("k" + std::to_string(i))), nullptr) << i;
}

TEST(ShardCache, SetCapacityKeepsTheMostRecentlyTouched)
{
    Cache cache(with_capacity(8));
    for (int i = 0; i < 8; ++i) cache.put(val("k" + std::to_string(i)));
    ASSERT_NE(cache.find(id_of("k1")), nullptr);
    ASSERT_NE(cache.find(id_of("k3")), nullptr);  // k3, then k1, are hottest

    cache.set_capacity(2);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 6u);
    EXPECT_NE(cache.find(id_of("k1")), nullptr);
    EXPECT_NE(cache.find(id_of("k3")), nullptr);
}

}  // namespace
}  // namespace mct::util
