// Incident-bundle forensics (DESIGN.md §17): a seeded campaign that is
// *forced* to violate the liveness invariant must emit a self-contained
// JSONL bundle from which the failing session's timeline is reconstructable
// without re-running — and the bundle must survive a byte-identical
// write -> parse -> write round trip (the contract `mctool report` builds on).
//
// The forced failure is deterministic, not chaotic: with a 1 ms invariant
// poll and a stall threshold of 2 polls, every handshake (≥ 20 ms of link
// RTT at 10 ms/hop) trips the watchdog under any seed; chaos stays off so
// the run is bit-stable.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "http/chaos.h"
#include "obs/incident.h"
#include "obs/obs.h"

namespace mct::http {
namespace {

std::string slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

SoakConfig forced_stall_campaign(const std::string& dir)
{
    SoakConfig cfg;
    cfg.seed = 4242;
    cfg.sessions = 4;
    cfg.concurrency = 4;
    cfg.n_middleboxes = 1;
    cfg.objects_per_fetch = 1;
    cfg.object_size = 400;
    cfg.chaos = false;  // the watchdog itself is the failure source
    cfg.resumption_stampede = false;
    cfg.poll_interval = 1_ms;
    cfg.stall_polls = 2;  // handshake RTT alone exceeds 2 polls
    cfg.state_plane = soak_state_plane(cfg.sessions);
    cfg.incident_dir = dir;
    cfg.incident_tag = "forced";
    return cfg;
}

TEST(Incident, ForcedLivenessFailureEmitsParseableBundle)
{
    std::string dir = ::testing::TempDir();
    SoakReport report = run_soak(forced_stall_campaign(dir));

    // The campaign must actually be red, with the liveness watchdog as the
    // cause — a green run here means the forcing knobs lost their teeth.
    ASSERT_FALSE(report.green());
    bool liveness = false;
    for (const auto& v : report.violations)
        if (v.rfind("liveness:", 0) == 0) liveness = true;
    EXPECT_TRUE(liveness) << "first violation: " << report.violations.front();

    // A bundle was written where we asked, deterministically named.
    ASSERT_FALSE(report.incident_path.empty());
    EXPECT_NE(report.incident_path.find("incident-forced-seed4242.jsonl"),
              std::string::npos);
    std::string first = slurp(report.incident_path);
    ASSERT_FALSE(first.empty());

    // Parse and round-trip: to_jsonl(parse(bytes)) == bytes, byte-identical.
    auto parsed = obs::read_incident_bundle(report.incident_path);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    const obs::IncidentBundle& b = parsed.value();
    EXPECT_EQ(obs::incident_to_jsonl(b), first);

    // Header carries everything needed to reproduce the run.
    EXPECT_EQ(b.meta.seed, 4242u);
    EXPECT_EQ(b.meta.rerun, "MCT_CHAOS_SEED=4242");
    EXPECT_EQ(b.meta.schedule_digest, report.schedule_digest);
    EXPECT_EQ(b.meta.violations, report.violations);
    EXPECT_EQ(b.meta.reason, report.violations.front());

    // The metrics registry snapshot rode along, including the per-alert-type
    // counters: stalled handshakes end in close_notify both globally and
    // under the sending actor's prefix.
    EXPECT_FALSE(b.counters.empty());
    EXPECT_TRUE(b.counters.count("fetch.completed"));
    EXPECT_TRUE(b.counters.count("alerts.sent.close_notify"));
    EXPECT_TRUE(b.counters.count("client.alerts.sent.close_notify"));

    // Timeline reconstruction: the stalled session's client ring is in the
    // bundle and shows its handshake starting — enough to see *where* it
    // stopped without re-running the campaign. (Under MCT_OBS=OFF the rings
    // exist but emission is compiled out, so only presence is asserted.)
    bool client_ring = false, hs_event = false, infra_ring = false;
    for (const auto& ring : b.rings) {
        if (ring.sid == 0) infra_ring = true;
        if (ring.sid == 0 || ring.label != "client") continue;
        client_ring = true;
        for (const auto& ev : ring.events)
            if (ev.type == "hs_start") hs_event = true;
    }
    EXPECT_TRUE(client_ring) << "no failing-session ring in bundle";
    EXPECT_TRUE(infra_ring) << "sid-0 infrastructure rings missing";
#if defined(MCT_OBS_ENABLED)
    EXPECT_TRUE(hs_event) << "client ring lacks handshake events";
#else
    (void)hs_event;
#endif
}

TEST(Incident, GreenRunWritesBundleOnlyWhenAskedTo)
{
    std::string dir = ::testing::TempDir();
    SoakConfig cfg;
    cfg.seed = 7;
    cfg.sessions = 3;
    cfg.concurrency = 3;
    cfg.n_middleboxes = 1;
    cfg.objects_per_fetch = 1;
    cfg.object_size = 400;
    cfg.chaos = false;
    cfg.resumption_stampede = false;
    cfg.state_plane = soak_state_plane(cfg.sessions);
    cfg.incident_dir = dir;
    cfg.incident_tag = "green";
    cfg.incident_on_green = true;

    SoakReport report = run_soak(cfg);
    ASSERT_TRUE(report.green()) << report.violations.front();
    ASSERT_FALSE(report.incident_path.empty());
    auto parsed = obs::read_incident_bundle(report.incident_path);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_EQ(parsed.value().meta.reason, "green");
    EXPECT_TRUE(parsed.value().meta.violations.empty());
    // Green bundles carry the infrastructure rings (the sid filter always
    // includes sid 0) even with no failed sessions to implicate.
    bool infra = false;
    for (const auto& ring : parsed.value().rings)
        if (ring.sid == 0) infra = true;
    EXPECT_TRUE(infra);

    // Opting out on green means no artifact.
    cfg.incident_tag = "quiet";
    cfg.incident_on_green = false;
    SoakReport quiet = run_soak(cfg);
    ASSERT_TRUE(quiet.green());
    EXPECT_TRUE(quiet.incident_path.empty());
}

}  // namespace
}  // namespace mct::http
