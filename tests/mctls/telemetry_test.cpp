// Session telemetry acceptance tests: a full mcTLS handshake must produce a
// trace with the handshake-phase spans, per-context byte counters for every
// configured context, and MAC counters matching the endpoint–writer–reader
// scheme (3 MACs generated per record at the sender, 2 verified at the
// receiving endpoint, 1 per record a middlebox opens). A fault-injection run
// must yield a causally ordered event trace on the sim clock, and a record's
// spans and events must share one order.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "http/testbed.h"
#include "obs/obs.h"
#include "tests/mctls/harness.h"

namespace mct::mctls::test {
namespace {

#if defined(MCT_OBS_ENABLED)
// First retained event matching (actor, type); nullptr when absent.
const obs::Event* find_event(const std::vector<obs::Event>& events,
                                  uint16_t actor, obs::EventType type)
{
    for (const auto& e : events)
        if (e.actor == actor && e.type == type) return &e;
    return nullptr;
}
#endif

TEST(Telemetry, FullHandshakeTraceCountersAndMacScheme)
{
    ChainEnv env;
    obs::Hub hub;
    obs::Journal journal({.capacity = 1 << 14});

    std::vector<ContextDescription> contexts = {
        ctx_row(1, "headers", 1, Permission::read),
        ctx_row(2, "body", 1, Permission::read),
    };
    auto infos = env.make_middleboxes(1);
    auto ccfg = env.client_config(infos, contexts);
    ccfg.journal = &journal;
    ccfg.trace_actor = "client";
    env.client = std::make_unique<Session>(std::move(ccfg));
    auto scfg = env.server_config();
    scfg.journal = &journal;
    scfg.trace_actor = "server";
    env.server = std::make_unique<Session>(std::move(scfg));
    auto mcfg = env.mbox_config(0);
    mcfg.journal = &journal;
    mcfg.trace_actor = "mbox0";
    env.mboxes.push_back(std::make_unique<MiddleboxSession>(std::move(mcfg)));

    env.handshake();
    ASSERT_TRUE(env.all_complete());

    // Three records in context 1, one in context 2.
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("GET /obj/1 HTTP/1.1")));
    ASSERT_TRUE(env.client->send_app_data(2, str_to_bytes("cookie: secret")));
    env.pump();

    obs::SessionStats client_stats = env.client->session_stats();
    obs::SessionStats server_stats = env.server->session_stats();
    obs::SessionStats mbox_stats = env.mboxes[0]->session_stats();

    EXPECT_TRUE(client_stats.established);
    EXPECT_TRUE(server_stats.established);
    EXPECT_TRUE(client_stats.failure.empty());
    EXPECT_GT(client_stats.handshake_wire_bytes, 0u);

    // Endpoint–writer–reader scheme: the sender computes all three MACs per
    // record; the receiving endpoint verifies the writer MAC and checks the
    // endpoint MAC (2); a reader middlebox verifies exactly one.
    EXPECT_EQ(client_stats.app_records_sent, 4u);
    EXPECT_EQ(client_stats.macs_generated, 3 * client_stats.app_records_sent);
    EXPECT_EQ(server_stats.app_records_received, 4u);
    EXPECT_EQ(server_stats.macs_verified, 2 * server_stats.app_records_received);
    EXPECT_EQ(mbox_stats.macs_verified, 4u);
    EXPECT_EQ(server_stats.mac_failures, 0u);
    EXPECT_EQ(mbox_stats.mac_failures, 0u);

    // Every configured context reports per-context byte counters.
    ASSERT_EQ(client_stats.contexts.size(), contexts.size());
    for (const auto& ctx : client_stats.contexts) {
        EXPECT_FALSE(ctx.name.empty());
        EXPECT_GT(ctx.bytes_out, 0u) << ctx.name;
        EXPECT_GT(ctx.records_out, 0u) << ctx.name;
    }

    // And they surface through the hub's metrics registry under the actor
    // prefix (the aggregation path benches/testbed use).
    hub.publish("client", client_stats);
    EXPECT_GT(hub.metrics.counter("client.ctx.headers.bytes_out")->value(), 0u);
    EXPECT_GT(hub.metrics.counter("client.ctx.body.bytes_out")->value(), 0u);
    EXPECT_EQ(hub.metrics.counter("client.macs_generated")->value(),
              client_stats.macs_generated);

#if defined(MCT_OBS_ENABLED)
    auto events = journal.events();
    ASSERT_FALSE(events.empty());
    uint16_t client_id = journal.intern("client");
    uint16_t server_id = journal.intern("server");
    uint16_t mbox_id = journal.intern("mbox0");

    // Handshake-phase spans, in causal (seq) order at the client.
    const obs::Event* start = find_event(events, client_id, obs::EventType::hs_start);
    const obs::Event* keys =
        find_event(events, client_id, obs::EventType::hs_key_distribution);
    const obs::Event* fin_sent =
        find_event(events, client_id, obs::EventType::hs_finished_sent);
    const obs::Event* complete =
        find_event(events, client_id, obs::EventType::hs_complete);
    ASSERT_NE(start, nullptr);
    ASSERT_NE(keys, nullptr);
    ASSERT_NE(fin_sent, nullptr);
    ASSERT_NE(complete, nullptr);
    EXPECT_LT(start->seq, keys->seq);
    EXPECT_LT(keys->seq, fin_sent->seq);
    EXPECT_LT(fin_sent->seq, complete->seq);
    EXPECT_EQ(keys->a, contexts.size());  // contexts keyed

    // The server saw the ClientHello and the middlebox injected its hello.
    EXPECT_NE(find_event(events, server_id, obs::EventType::hs_client_hello), nullptr);
    EXPECT_NE(find_event(events, mbox_id, obs::EventType::hs_key_distribution), nullptr);

    // Record-layer spans: seals carry b=3 (three MACs), endpoint opens b=2,
    // and the reader middlebox logged a read per context used.
    const obs::Event* seal = find_event(events, client_id, obs::EventType::record_seal);
    ASSERT_NE(seal, nullptr);
    EXPECT_EQ(seal->b, 3u);
    const obs::Event* open = find_event(events, server_id, obs::EventType::record_open);
    ASSERT_NE(open, nullptr);
    EXPECT_EQ(open->b, 2u);
    bool ctx1_read = false, ctx2_read = false;
    for (const auto& e : events) {
        if (e.actor == mbox_id && e.type == obs::EventType::mbox_read) {
            if (e.ctx == 1) ctx1_read = true;
            if (e.ctx == 2) ctx2_read = true;
        }
    }
    EXPECT_TRUE(ctx1_read);
    EXPECT_TRUE(ctx2_read);
#endif
}

TEST(Telemetry, RecordSpansPrecedeTheirRecordSeal)
{
#if !defined(MCT_OBS_ENABLED)
    GTEST_SKIP() << "span emission compiled out under MCT_OBS=OFF";
#else
    // Every record stage runs at the same sim timestamp, so only the one
    // journal-wide seq can order a record's spans against its record_seal:
    // the sender stamps the encrypt span just before the seal event.
    ChainEnv env;
    obs::Journal journal({.capacity = 1 << 12});
    std::vector<ContextDescription> contexts = {ctx_row(1, "body", 1, Permission::read)};
    auto infos = env.make_middleboxes(1);
    auto ccfg = env.client_config(infos, contexts);
    ccfg.journal = &journal;
    env.client = std::make_unique<Session>(std::move(ccfg));
    env.server = std::make_unique<Session>(env.server_config());
    env.mboxes.push_back(std::make_unique<MiddleboxSession>(env.mbox_config(0)));
    env.handshake();
    ASSERT_TRUE(env.all_complete());
    ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("GET / HTTP/1.1")));

    auto events = journal.events();
    const obs::Event* seal = find_event(events, journal.intern("mctls-client"),
                                        obs::EventType::record_seal);
    ASSERT_NE(seal, nullptr);
    ASSERT_NE(seal->trace_id, 0u);
    const obs::Event* last_span = nullptr;
    size_t spans = 0;
    for (const auto& e : events) {
        if (!e.is_span() || e.trace_id != seal->trace_id) continue;
        ++spans;
        if (!last_span || e.seq > last_span->seq) last_span = &e;
    }
    EXPECT_EQ(spans, 4u);  // record root + encode, mac, encrypt
    ASSERT_NE(last_span, nullptr);
    EXPECT_EQ(last_span->stage, obs::Stage::encrypt);
    EXPECT_EQ(last_span->ts, seal->ts);
    EXPECT_LT(last_span->seq, seal->seq);
#endif
}

TEST(Telemetry, FaultInjectionTraceIsCausallyOrdered)
{
    using http::FaultEvent;
    using net::operator""_ms;
    using net::operator""_s;

    // Fault-free baseline to time the kill inside the handshake.
    net::SimTime handshake_done = 0;
    {
        http::TestbedConfig base;
        base.n_middleboxes = 1;
        http::Testbed tb(base);
        auto fetch = tb.fetch(2000);
        tb.run();
        ASSERT_TRUE(fetch->completed);
        handshake_done = fetch->handshake_done;
    }

    obs::Hub hub;
    obs::Journal journal({.capacity = 1 << 16});

    net::SimTime kill_at = handshake_done / 2;
    http::TestbedConfig cfg;
    cfg.n_middleboxes = 1;
    cfg.handshake_deadline = 5_s;
    cfg.faults = {{FaultEvent::Kind::kill_middlebox, kill_at, 0, 0},
                  {FaultEvent::Kind::restart_middlebox, kill_at + 500_ms, 0, 0}};
    cfg.recovery = http::RecoveryPolicy::reconnect;
    cfg.retry = {/*max_attempts=*/5, /*backoff=*/300_ms, /*multiplier=*/2.0};
    cfg.obs = &hub;
    cfg.journal = &journal;
    http::Testbed tb(cfg);
    auto fetch = tb.fetch(2000);
    tb.run();
    ASSERT_TRUE(fetch->completed);
    EXPECT_GE(fetch->attempts, 2u);

    // Session snapshots aggregate through the hub regardless of MCT_OBS.
    // Each attempt publishes its own channel ("client", "client#2", ...);
    // the killed first attempt legitimately sealed no records, so sum.
    tb.publish_session_stats();
    uint64_t total_macs = 0;
    for (const auto& [name, counter] : hub.metrics.counters()) {
        if (name.find("client") == 0 && name.find(".macs_generated") != std::string::npos)
            total_macs += counter->value();
    }
    EXPECT_GT(total_macs, 0u);
    EXPECT_GT(hub.metrics.counter("loop.events_run")->value(), 0u);

#if defined(MCT_OBS_ENABLED)
    auto events = journal.events();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(journal.dropped(), 0u);

    // Total order: seq strictly increasing, and sim-clock timestamps
    // monotone across instant events (a span is stamped when it ends, but
    // its ts is its start).
    uint64_t last_ts = 0;
    for (size_t i = 0; i < events.size(); ++i) {
        if (i > 0) {
            EXPECT_GT(events[i].seq, events[i - 1].seq);
        }
        if (events[i].is_span()) continue;
        EXPECT_GE(events[i].ts, last_ts) << "event " << i;
        last_ts = events[i].ts;
    }

    // Causal chain across the fault: first attempt starts, the kill lands at
    // exactly kill_at on the sim clock, the attempt fails, a retry starts,
    // and the fetch completes — in that order.
    uint16_t testbed_id = journal.intern("testbed");
    auto first_of = [&](obs::EventType t) { return find_event(events, testbed_id, t); };
    const obs::Event* first_attempt = first_of(obs::EventType::attempt_start);
    const obs::Event* fault = first_of(obs::EventType::fault_injected);
    const obs::Event* failed = first_of(obs::EventType::attempt_failed);
    const obs::Event* done = first_of(obs::EventType::fetch_complete);
    ASSERT_NE(first_attempt, nullptr);
    ASSERT_NE(fault, nullptr);
    ASSERT_NE(failed, nullptr);
    ASSERT_NE(done, nullptr);
    EXPECT_EQ(fault->ts, kill_at);
    EXPECT_EQ(fault->a, static_cast<uint64_t>(FaultEvent::Kind::kill_middlebox));
    EXPECT_LT(first_attempt->seq, fault->seq);
    EXPECT_LT(fault->seq, failed->seq);
    EXPECT_LT(failed->seq, done->seq);

    // The retry is a second attempt_start after the failure.
    const obs::Event* retry = nullptr;
    for (const auto& e : events)
        if (e.actor == testbed_id && e.type == obs::EventType::attempt_start &&
            e.seq > failed->seq) {
            retry = &e;
            break;
        }
    ASSERT_NE(retry, nullptr);
    EXPECT_LT(retry->seq, done->seq);

    // The crash is visible at the network layer too (aborted TCP legs).
    uint16_t net_id = journal.intern("net");
    const obs::Event* abort_ev =
        find_event(events, net_id, obs::EventType::net_conn_abort);
    ASSERT_NE(abort_ev, nullptr);
    EXPECT_GE(abort_ev->ts, kill_at);
#endif
}

}  // namespace
}  // namespace mct::mctls::test
