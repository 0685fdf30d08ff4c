// Pins what the testbed publishes per mode: the set of metric names
// publish_session_stats() writes, their values, and §5.2's
// record_overhead_totals(), with sessions retained and with sessions
// retired into per-class aggregates (SplitTLS's mboxN-down / mboxN-up
// folds included). Two relays, three sequential fetches per run.
#include "http/testbed.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "crypto/sha2.h"

namespace mct::http {
namespace {

struct Published {
    size_t names = 0;
    std::string digest;  // SHA-256 over "name=value\n" lines, registry order
    Testbed::OverheadTotals overhead;
    std::string text;
};

Published run_mode(Mode mode, bool retain)
{
    obs::Hub hub;
    TestbedConfig cfg;
    cfg.mode = mode;
    cfg.n_middleboxes = 2;
    cfg.link = {20_ms, 0};
    cfg.retain_sessions = retain;
    cfg.obs = &hub;
    Testbed bed(std::move(cfg));
    for (size_t i = 0; i < 3; ++i) {
        auto fetch = bed.fetch_sequence({1200, 9000 + 1000 * i});
        bed.run();
        EXPECT_TRUE(fetch->completed) << to_string(mode) << " fetch " << i;
    }
    bed.publish_session_stats();

    Published p;
    for (const auto& [name, c] : hub.metrics.counters())
        p.text += name + "=" + std::to_string(c->value()) + "\n";
    for (const auto& [name, g] : hub.metrics.gauges()) {
        char v[32];
        std::snprintf(v, sizeof(v), "%.17g", g->value());
        p.text += name + "=" + v + "\n";
    }
    p.names = hub.metrics.counters().size() + hub.metrics.gauges().size();
    p.digest = to_hex(crypto::Sha256::digest(str_to_bytes(p.text)));
    p.overhead = bed.record_overhead_totals();
    return p;
}

struct Pin {
    Mode mode;
    bool retain;
    size_t names;
    const char* digest;
    uint64_t overhead_bytes;
    uint64_t records;
};

TEST(TestbedStatsPin, PublishedStatsPerMode)
{
    const Pin pins[] = {
        {Mode::mctls, true, 407,
         "fc760d746526d401a84aa712bfc3e53548304ce4e30b3ea65cb87396c6413746", 2320, 18},
        {Mode::mctls, false, 179,
         "7eff6868df33cfa6d3409bf092fa5dff7afb4330318645da5f35da7ede19bbde", 2320, 18},
        {Mode::split_tls, true, 371,
         "5568110fc2f327172fdc8af29551f5817757d31178ab80dbdaa85928437f641b", 1150, 18},
        {Mode::split_tls, false, 166,
         "2f5ef0cfda34f30b09904b3aeafbc2220f2b87df48715cd462491365b0053c9b", 1150, 18},
        {Mode::e2e_tls, true, 155,
         "69c9da5fe25264ae295d352671de4d346583f54727fe6ad3991cab97e5b48a3f", 1150, 18},
        {Mode::e2e_tls, false, 88,
         "64f5f03235e764b423b9daf1320ffb1be18faa81d3ab3ef035cc03322f39e1b0", 1150, 18},
        {Mode::no_encrypt, true, 131,
         "1aa2d05cff6d6bdbc0c1553ea09d1dd3ba788567e5a244df0693873b38573800", 0, 0},
        {Mode::no_encrypt, false, 75,
         "be0c370f9418107c8b57c3fd0ce1f0b5cffb4e0c74f5a2eacd321e5abbea307b", 0, 0},
    };
    for (const Pin& pin : pins) {
        SCOPED_TRACE(std::string(to_string(pin.mode)) + (pin.retain ? " retain" : " prune"));
        Published p = run_mode(pin.mode, pin.retain);
        EXPECT_EQ(p.names, pin.names);
        EXPECT_EQ(p.digest, pin.digest);
        EXPECT_EQ(p.overhead.overhead_bytes, pin.overhead_bytes);
        EXPECT_EQ(p.overhead.records, pin.records);
    }
}

// Retired SplitTLS relays fold each leg into its own class: a relay's
// downstream leg (impersonating the server) and upstream leg (a client of
// the next hop) are published apart, and neither counts toward §5.2's
// endpoint-to-endpoint overhead. The client's close_notify is relayed hop
// by hop, so every leg and the server end established, not truncated.
TEST(TestbedStatsPin, SplitTlsPruneFoldsRelayLegs)
{
    Published p = run_mode(Mode::split_tls, false);
    for (const char* line :
         {"mbox0-down.app_records_sent=12\n", "mbox0-down.app_records_received=6\n",
          "mbox0-up.app_records_sent=6\n", "mbox0-up.app_records_received=12\n",
          "mbox1-down.app_records_sent=12\n", "mbox1-up.app_records_received=12\n",
          "client.app_records_sent=6\n", "fetch.completed=3\n",
          "mbox1-down.established=1\n", "server.established=1\n",
          "server.alerts.received.close_notify=3\n"})
        EXPECT_NE(p.text.find(line), std::string::npos) << line;
    EXPECT_EQ(p.overhead.records, 18u);  // client 6 + server 12
}

}  // namespace
}  // namespace mct::http
