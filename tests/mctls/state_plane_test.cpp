// State-plane behavior (DESIGN.md "State plane"): TTL enforcement on both
// mcTLS ticket kinds, the maintenance scheduler driving sweeps / rekey
// deadlines / excision grace, and the overload semantics end to end through
// the testbed — a declined or evicted ticket must degrade the next
// handshake (full instead of abbreviated, blind relay instead of rejoin),
// never fail the session.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "http/testbed.h"
#include "mctls/state_plane.h"

namespace mct::mctls {
namespace {

using net::operator""_ms;
using net::operator""_s;

ResumptionTicket server_ticket(uint8_t tag)
{
    ResumptionTicket t;
    t.session_id.assign(16, tag);
    t.s_cs.assign(48, 0x42);
    return t;
}

MiddleboxTicket relay_ticket(uint8_t tag)
{
    MiddleboxTicket t;
    t.session_id.assign(16, tag);
    t.pairwise_client.enc_key.assign(16, 1);
    t.pairwise_client.mac_key.assign(32, 2);
    t.pairwise_server.enc_key.assign(16, 3);
    t.pairwise_server.mac_key.assign(32, 4);
    return t;
}

TEST(StatePlane, ResumptionTicketTtlEnforcedAtLookup)
{
    util::CacheConfig cc;
    cc.ttl = 100;
    ServerSessionCache cache(cc);
    uint64_t clock = 50;
    cache.set_clock([&clock] { return clock; });
    ResumptionTicket t = server_ticket(7);
    Bytes id = t.session_id;
    cache.put(std::move(t));

    clock = 149;
    EXPECT_NE(cache.find(id), nullptr);
    // Stale at lookup: rejected AND purged, so the peer re-runs the full
    // handshake and the entry stops occupying budget.
    clock = 150;
    EXPECT_EQ(cache.find(id), nullptr);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().expirations, 1u);
}

TEST(StatePlane, MiddleboxTicketTtlEnforcedAtLookup)
{
    util::CacheConfig cc;
    cc.ttl = 100;
    MiddleboxSessionCache cache(cc);
    uint64_t clock = 0;
    cache.set_clock([&clock] { return clock; });
    MiddleboxTicket t = relay_ticket(9);
    Bytes id = t.session_id;
    cache.put(std::move(t));

    clock = 99;
    const MiddleboxTicket* hit = cache.find(id);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->pairwise_client.mac_key.size(), 32u);
    clock = 100;
    EXPECT_EQ(cache.find(id), nullptr);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(StatePlane, SweepTaskReclaimsEveryCacheKind)
{
    StatePlaneConfig cfg;
    cfg.tls.ttl = cfg.server.ttl = cfg.middlebox.ttl = 10;
    cfg.sweep_interval = 5;
    StatePlane plane(cfg, /*n_middleboxes=*/2);

    tls::TlsTicket tt;
    tt.session_id.assign(16, 1);
    tt.master_secret.assign(48, 2);
    plane.tls_cache().put(std::move(tt));  // no clock: stamped at 0
    plane.server_cache().put(server_ticket(2));
    plane.middlebox_cache(0).put(relay_ticket(3));
    plane.middlebox_cache(1).put(relay_ticket(4));

    size_t reclaimed_reported = 0;
    plane.on_sweep = [&](size_t reclaimed, uint64_t) { reclaimed_reported += reclaimed; };

    plane.tick(5);  // nothing stale yet
    EXPECT_EQ(plane.server_cache().size(), 1u);

    plane.tick(10);  // TTL passed: one sweep drains all four caches
    EXPECT_EQ(plane.tls_cache().size(), 0u);
    EXPECT_EQ(plane.server_cache().size(), 0u);
    EXPECT_EQ(plane.middlebox_cache(0).size(), 0u);
    EXPECT_EQ(plane.middlebox_cache(1).size(), 0u);
    EXPECT_EQ(reclaimed_reported, 4u);

    StatePlane::Snapshot snap = plane.snapshot();
    EXPECT_GE(snap.sweeps, 2u);
    EXPECT_EQ(snap.swept_entries, 4u);
}

TEST(StatePlane, RekeyDeadlineSignalsOwnerEveryInterval)
{
    StatePlaneConfig cfg;
    cfg.rekey_interval = 100;
    StatePlane plane(cfg, 0);

    std::vector<uint64_t> fired;
    plane.on_rekey_due = [&](uint64_t now) { fired.push_back(now); };

    plane.tick(99);
    EXPECT_TRUE(fired.empty());
    plane.tick(100);
    plane.tick(200);
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(plane.snapshot().rekeys_signalled, 2u);
    EXPECT_EQ(plane.next_deadline(), 300u);
}

TEST(StatePlane, ExciseGraceFiresOnlyIfStillDown)
{
    StatePlaneConfig cfg;
    cfg.excise_grace = 50;
    StatePlane plane(cfg, 2);
    plane.middlebox_cache(1).put(relay_ticket(8));

    std::vector<size_t> excised;
    plane.on_excise_due = [&](size_t index, uint64_t) {
        excised.push_back(index);
        plane.excise_middlebox(index);
    };

    // Relay 0 flaps inside the grace window: timer cancelled, no excision.
    plane.middlebox_down(0, /*now=*/10);
    plane.middlebox_up(0);
    plane.tick(100);
    EXPECT_TRUE(excised.empty());

    // Relay 1 stays down past the grace: excised, pairwise keys dropped.
    plane.middlebox_down(1, /*now=*/100);
    plane.tick(149);
    EXPECT_TRUE(excised.empty());
    plane.tick(150);
    ASSERT_EQ(excised.size(), 1u);
    EXPECT_EQ(excised[0], 1u);
    EXPECT_EQ(plane.middlebox_cache(1).size(), 0u);

    StatePlane::Snapshot snap = plane.snapshot();
    EXPECT_EQ(snap.excisions_signalled, 1u);
    EXPECT_EQ(snap.excisions_applied, 1u);

    // down() while a timer is already pending must not stack a second one.
    plane.middlebox_down(1, 200);
    plane.middlebox_down(1, 210);
    plane.tick(1000);
    EXPECT_EQ(excised.size(), 2u);
}

// ---- Overload degradation end to end (HTTP testbed) --------------------

struct Baseline {
    net::SimTime handshake_done = 0;
    net::SimTime done = 0;
};

const std::vector<size_t> kStream = {2000, 2000, 2000, 2000, 2000, 2000};

Baseline measure_baseline(http::TestbedConfig cfg)
{
    cfg.faults.clear();
    http::Testbed tb(cfg);
    auto fetch = tb.fetch_sequence(kStream);
    tb.run();
    EXPECT_TRUE(fetch->completed);
    return {fetch->handshake_done, fetch->done};
}

http::TestbedConfig resume_after_crash_config()
{
    http::TestbedConfig cfg;
    cfg.n_middleboxes = 1;
    cfg.handshake_deadline = 5_s;
    cfg.recovery = http::RecoveryPolicy::resume;
    cfg.retry = {/*max_attempts=*/5, /*backoff=*/300_ms, /*multiplier=*/2.0};
    return cfg;
}

void schedule_crash(http::TestbedConfig& cfg, const Baseline& base)
{
    net::SimTime kill_at = (base.handshake_done + base.done) / 2;
    cfg.faults = {{http::FaultEvent::Kind::kill_middlebox, kill_at, 0, 0},
                  {http::FaultEvent::Kind::restart_middlebox, kill_at + 500_ms, 0, 0}};
}

TEST(StatePlane, DeclinedServerTicketFallsBackToFullHandshake)
{
    // The server's ticket cache admits nothing (capacity 0), so every insert
    // is declined. The client still offers its cached session id on retry;
    // the server misses and the handshake completes FULL — overload degrades
    // the resumption service, never the session.
    http::TestbedConfig cfg = resume_after_crash_config();
    cfg.state_plane.server.capacity = 0;
    Baseline base = measure_baseline(cfg);
    schedule_crash(cfg, base);

    http::Testbed tb(cfg);
    auto fetch = tb.fetch_sequence(kStream);
    tb.run();

    EXPECT_TRUE(fetch->completed) << fetch->error;
    EXPECT_GE(fetch->attempts, 2u);
    EXPECT_FALSE(fetch->resumed);  // miss -> full handshake, not an error
    EXPECT_FALSE(fetch->fell_back_to_tls);

    StatePlane::Snapshot snap = tb.state_plane().snapshot();
    EXPECT_GE(snap.server.declines, 1u);  // every mint was refused
    EXPECT_EQ(snap.server.entries, 0u);
}

TEST(StatePlane, EvictedRelayTicketDegradesRejoinToBlindRelay)
{
    // The relay's pairwise-key cache admits nothing, modelling its ticket
    // being evicted between the resumption offer and the rejoin (the racing
    // window). The endpoints resume fine; the relay, finding no ticket for
    // the offered session id, must degrade to forwarding every record blind
    // instead of killing the session it can no longer join.
    http::TestbedConfig cfg = resume_after_crash_config();
    cfg.state_plane.middlebox.capacity = 0;
    Baseline base = measure_baseline(cfg);
    schedule_crash(cfg, base);

    obs::Hub hub;
    cfg.obs = &hub;
    http::Testbed tb(cfg);
    auto fetch = tb.fetch_sequence(kStream);
    tb.run();

    EXPECT_TRUE(fetch->completed) << fetch->error;
    EXPECT_GE(fetch->attempts, 2u);
    EXPECT_TRUE(fetch->resumed);  // the ENDPOINTS resumed; only the relay missed
    EXPECT_FALSE(fetch->fell_back_to_tls);

    // The restarted relay forwarded the resumed session blind: it verified
    // no MACs after the miss (it has no keys) yet records kept flowing.
    tb.publish_session_stats();
    StatePlane::Snapshot snap = tb.state_plane().snapshot();
    EXPECT_GE(snap.middlebox.declines, 1u);
    EXPECT_EQ(snap.middlebox.entries, 0u);
}

TEST(StatePlane, BoundedCachesSurviveRepeatedResumeCycles)
{
    // Tiny caches + repeated crash/restart cycles: every recovery path runs
    // against full caches making eviction decisions, and the accounting
    // stays exact (entries never exceed capacity).
    http::TestbedConfig cfg = resume_after_crash_config();
    cfg.state_plane.server.capacity = 2;
    cfg.state_plane.middlebox.capacity = 1;
    cfg.state_plane.tls.capacity = 2;
    Baseline base = measure_baseline(cfg);
    schedule_crash(cfg, base);

    http::Testbed tb(cfg);
    auto fetch = tb.fetch_sequence(kStream);
    tb.run();
    EXPECT_TRUE(fetch->completed) << fetch->error;

    StatePlane::Snapshot snap = tb.state_plane().snapshot();
    EXPECT_LE(snap.server.entries, 2u);
    EXPECT_LE(snap.middlebox.entries, 1u);
}

TEST(StatePlane, ScaleBudgetsSqueezesAndRestores)
{
    StatePlaneConfig cfg;
    cfg.server.capacity = 8;
    cfg.middlebox.capacity = 8;
    StatePlane plane(cfg, /*n_middleboxes=*/2);
    for (uint8_t i = 0; i < 8; ++i) {
        plane.server_cache().put(server_ticket(i));
        plane.middlebox_cache(0).put(relay_ticket(i));
        plane.middlebox_cache(1).put(relay_ticket(i));
    }
    ASSERT_EQ(plane.server_cache().size(), 8u);

    // Squeeze to a quarter: every cache sheds down to the scaled bound
    // immediately (coldest first), and the factor is observable.
    plane.scale_budgets(0.25);
    EXPECT_DOUBLE_EQ(plane.budget_factor(), 0.25);
    EXPECT_EQ(plane.server_cache().size(), 2u);
    EXPECT_EQ(plane.middlebox_cache(0).size(), 2u);
    EXPECT_EQ(plane.middlebox_cache(1).size(), 2u);
    EXPECT_GE(plane.snapshot().server.evictions, 6u);

    // Restore: bounds go back to the configured values; the population
    // regrows organically (nothing is resurrected).
    plane.scale_budgets(1.0);
    EXPECT_EQ(plane.server_cache().config().capacity, 8u);
    EXPECT_EQ(plane.server_cache().size(), 2u);
    for (uint8_t i = 8; i < 12; ++i) plane.server_cache().put(server_ticket(i));
    EXPECT_EQ(plane.server_cache().size(), 6u);
}

}  // namespace
}  // namespace mct::mctls
