// Concurrent-session soak under the deterministic chaos plane (DESIGN.md
// "Concurrency model & chaos plane"; ctest label: soak).
//
// Every assertion carries the campaign's seed hint, so a red run in CI is
// reproducible verbatim: export MCT_CHAOS_SEED=<seed> and rerun the test.
// The acceptance-scale campaign (10k concurrent sessions) is gated behind
// MCT_SOAK_10K=1 — the default campaigns keep `ctest -L soak` around half a
// minute.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "http/chaos.h"
#include "http/scenarios.h"
#include "obs/obs.h"

namespace mct::http {
namespace {

SoakConfig default_campaign()
{
    SoakConfig cfg;
    cfg.seed = chaos_seed_from_env(20260808);
    cfg.sessions = 150;
    cfg.concurrency = 24;
    cfg.n_middleboxes = 2;
    cfg.objects_per_fetch = 2;
    cfg.object_size = 2000;
    cfg.state_plane = soak_state_plane(cfg.sessions);
    return cfg;
}

void expect_green(const SoakReport& report)
{
    for (const auto& v : report.violations)
        ADD_FAILURE() << v << " [" << report.seed_hint() << "]";
    EXPECT_TRUE(report.green()) << report.violations.size()
                                << " invariant violations [" << report.seed_hint()
                                << "]";
    for (const auto& f : report.failure_samples)
        ADD_FAILURE() << "failed fetch: " << f << " [" << report.seed_hint() << "]";
}

TEST(Soak, CampaignCompletesWithInvariantsGreen)
{
    SoakConfig cfg = default_campaign();
    cfg.span_capacity = 1 << 17;  // telescoping checked across the campaign
    SoakReport report = run_soak(cfg);

    expect_green(report);
    EXPECT_EQ(report.completed, cfg.sessions) << report.seed_hint();
    EXPECT_EQ(report.failed, 0u) << report.seed_hint();
    EXPECT_EQ(report.mismatch_bytes, 0u) << report.seed_hint();
    // The campaign actually did something: faults fired, sessions resumed
    // through the shared caches, and concurrency was real.
    EXPECT_GT(report.events.size(), 10u) << report.seed_hint();
    EXPECT_GT(report.resumed, 0u) << report.seed_hint();
    EXPECT_GE(report.peak_live, cfg.concurrency) << report.seed_hint();
    EXPECT_GT(report.connections_per_sec, 0.0) << report.seed_hint();
    EXPECT_GT(report.ttfb_p99_ms, 0.0) << report.seed_hint();
    EXPECT_GE(report.ttfb_p99_ms, report.ttfb_p50_ms) << report.seed_hint();
}

TEST(Soak, SameSeedReproducesIdenticalSchedule)
{
    SoakConfig cfg = default_campaign();
    cfg.sessions = 60;
    SoakReport a = run_soak(cfg);
    SoakReport b = run_soak(cfg);

    EXPECT_EQ(a.schedule_digest, b.schedule_digest) << a.seed_hint();
    ASSERT_EQ(a.events.size(), b.events.size()) << a.seed_hint();
    for (size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].at, b.events[i].at) << "event " << i << " ["
                                                  << a.seed_hint() << "]";
        EXPECT_EQ(a.events[i].kind, b.events[i].kind) << "event " << i << " ["
                                                      << a.seed_hint() << "]";
        EXPECT_EQ(a.events[i].arg, b.events[i].arg) << "event " << i << " ["
                                                    << a.seed_hint() << "]";
    }
    EXPECT_EQ(a.completed, b.completed) << a.seed_hint();
    EXPECT_EQ(a.virtual_duration, b.virtual_duration) << a.seed_hint();

    SoakConfig other = cfg;
    other.seed = cfg.seed + 1;
    SoakReport c = run_soak(other);
    EXPECT_NE(a.schedule_digest, c.schedule_digest)
        << "different seeds drew identical campaigns [" << a.seed_hint() << "]";
}

TEST(Soak, LeastPrivilegeHoldsUnderChaosAudit)
{
    SoakConfig cfg = default_campaign();
    cfg.sessions = 40;
    cfg.concurrency = 8;
    cfg.audit_capture = true;  // offline wire audit of every session
    SoakReport report = run_soak(cfg);

    expect_green(report);
    EXPECT_EQ(report.completed, cfg.sessions) << report.seed_hint();
}

TEST(Soak, ScenarioMappedCampaign)
{
    // The CDN fan-in deployment, soaked: read-only edge, shed-policy ticket
    // caches, resumption stampede through the shared edge.
    SoakConfig cfg = scenario_soak(Scenario::cdn_edge_fanin, 80,
                                   chaos_seed_from_env(7));
    cfg.concurrency = 16;
    SoakReport report = run_soak(cfg);

    expect_green(report);
    EXPECT_EQ(report.completed + report.failed, 80u) << report.seed_hint();
    EXPECT_EQ(report.failed, 0u) << report.seed_hint();
}

// The split-TLS baseline under chaos: each relay terminates one TLS leg and
// opens the next. A relay whose upstream leg closes before it connects (a
// kill or flap during the SYN) must not start that leg's session.
// MCT_CHAOS_SEED replays one seed instead of the five.
TEST(Soak, SplitTlsCampaignAcrossSeeds)
{
    std::vector<uint64_t> seeds = {1, 2, 3, 7, 4242};
    if (uint64_t env = chaos_seed_from_env(0)) seeds = {env};
    for (uint64_t seed : seeds) {
        SoakConfig cfg = default_campaign();
        cfg.seed = seed;
        cfg.mode = Mode::split_tls;
        cfg.sessions = 80;
        cfg.concurrency = 12;
        cfg.state_plane = soak_state_plane(cfg.sessions);
        SoakReport report = run_soak(cfg);

        expect_green(report);
        EXPECT_EQ(report.completed + report.failed, cfg.sessions) << report.seed_hint();
    }
}

TEST(Soak, GaugesLandOnTheHub)
{
    obs::Hub hub;
    SoakConfig cfg = default_campaign();
    cfg.sessions = 30;
    cfg.chaos = false;  // quick clean pass; gauges publish either way
    cfg.hub = &hub;
    SoakReport report = run_soak(cfg);
    expect_green(report);

    std::string prom;
    hub.metrics.to_prometheus(&prom);
    EXPECT_NE(prom.find("sessions_live"), std::string::npos) << prom;
    EXPECT_NE(prom.find("cache_shed_rate"), std::string::npos) << prom;
    EXPECT_NE(prom.find("cache_decline_rate"), std::string::npos) << prom;
    EXPECT_NE(prom.find("cache_evict_rate"), std::string::npos) << prom;
    EXPECT_NE(prom.find("fetch_completed"), std::string::npos) << prom;
}

// Acceptance scale: 10k concurrent sessions with chaos, every invariant
// green, same-seed reproducibility asserted on the digest. Run with
// MCT_SOAK_10K=1 (several minutes of CPU on one core).
TEST(Soak, TenThousandConcurrentSessions)
{
    if (!std::getenv("MCT_SOAK_10K"))
        GTEST_SKIP() << "set MCT_SOAK_10K=1 to run the acceptance-scale soak";

    SoakConfig cfg;
    cfg.seed = chaos_seed_from_env(10000);
    cfg.sessions = 10000;
    cfg.concurrency = 10000;  // every chain live at once
    cfg.n_middleboxes = 1;
    cfg.objects_per_fetch = 1;
    cfg.object_size = 600;
    cfg.chaos_interval = 100_ms;
    cfg.stall_polls = 400;
    cfg.state_plane = soak_state_plane(cfg.sessions);
    SoakReport report = run_soak(cfg);

    expect_green(report);
    EXPECT_EQ(report.completed + report.failed, 10000u) << report.seed_hint();
    EXPECT_EQ(report.failed, 0u) << report.seed_hint();
    EXPECT_GE(report.peak_live, 10000u) << report.seed_hint();
    EXPECT_GT(report.connections_per_sec, 0.0) << report.seed_hint();
}

}  // namespace
}  // namespace mct::http
