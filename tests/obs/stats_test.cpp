// SessionStats / CacheStats schema: the JSON bytes, the published metric
// names and values, and the per-class fold.
#include "obs/obs.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

namespace mct::obs {
namespace {

SessionStats sample(uint64_t k)
{
    SessionStats s;
    s.actor = "mbox0";
    s.established = k % 2 == 1;
    s.failure = k == 2 ? "tls: truncated" : "";
    s.resumed = k == 3;
    s.epoch = static_cast<uint32_t>(k);
    s.rekeys = k;
    s.handshake_wire_bytes = 100 * k;
    s.app_overhead_bytes = 10 * k;
    s.app_records_sent = k + 1;
    s.app_records_received = k + 2;
    s.macs_generated = k + 3;
    s.macs_verified = k + 4;
    s.mac_failures = k + 5;
    s.alerts_sent = k + 6;
    s.alerts_received = k + 7;
    s.alerts_sent_by_type = {{"close_notify", k}};
    s.alerts_received_by_type = {{"bad_record_mac", 1}, {"close_notify", k}};
    s.trace_events_dropped = k + 8;
    s.contexts = {{"req", 1, 11 * k, 12 * k, k, 2 * k}};
    if (k == 3) s.contexts.push_back({"resp", 2, 5, 6, 7, 8});
    return s;
}

std::string published(const MetricsRegistry& reg)
{
    std::string out;
    for (const auto& [name, c] : reg.counters())
        out += name + "=" + std::to_string(c->value()) + "\n";
    return out;
}

TEST(SessionStatsSchema, JsonKeyOrderAndValues)
{
    std::string out;
    sample(2).to_json(&out);
    EXPECT_EQ(out,
              "{\"actor\":\"mbox0\",\"established\":false,\"failure\":\"tls: truncated\","
              "\"resumed\":false,\"epoch\":2,\"rekeys\":2,\"handshake_wire_bytes\":200,"
              "\"app_overhead_bytes\":20,\"app_records_sent\":3,\"app_records_received\":4,"
              "\"macs_generated\":5,\"macs_verified\":6,\"mac_failures\":7,"
              "\"alerts_sent\":8,\"alerts_received\":9,"
              "\"alerts_sent_by_type\":{\"close_notify\":2},"
              "\"alerts_received_by_type\":{\"bad_record_mac\":1,\"close_notify\":2},"
              "\"trace_events_dropped\":10,"
              "\"contexts\":[{\"name\":\"req\",\"id\":1,\"bytes_out\":22,\"bytes_in\":24,"
              "\"records_out\":2,\"records_in\":4}]}");
}

TEST(SessionStatsSchema, PublishNamesAndValues)
{
    Hub hub;
    hub.publish("mbox0", sample(3));
    EXPECT_EQ(published(hub.metrics),
              "mbox0.alerts.received.bad_record_mac=1\n"
              "mbox0.alerts.received.close_notify=3\n"
              "mbox0.alerts.sent.close_notify=3\n"
              "mbox0.alerts_received=10\n"
              "mbox0.alerts_sent=9\n"
              "mbox0.app_overhead_bytes=30\n"
              "mbox0.app_records_received=5\n"
              "mbox0.app_records_sent=4\n"
              "mbox0.ctx.req.bytes_in=36\n"
              "mbox0.ctx.req.bytes_out=33\n"
              "mbox0.ctx.req.records_in=6\n"
              "mbox0.ctx.req.records_out=3\n"
              "mbox0.ctx.resp.bytes_in=6\n"
              "mbox0.ctx.resp.bytes_out=5\n"
              "mbox0.ctx.resp.records_in=8\n"
              "mbox0.ctx.resp.records_out=7\n"
              "mbox0.epoch=3\n"
              "mbox0.established=1\n"
              "mbox0.handshake_wire_bytes=300\n"
              "mbox0.mac_failures=8\n"
              "mbox0.macs_generated=6\n"
              "mbox0.macs_verified=7\n"
              "mbox0.rekeys=3\n"
              "mbox0.resumed=1\n"
              "mbox0.trace_events_dropped=11\n");
}

// The per-class aggregate a retired session folds into: counters add, flags
// OR, the epoch takes the max, contexts merge by name, identity stays.
TEST(SessionStatsSchema, FoldAggregatesPerClass)
{
    SessionStats agg;
    agg.actor = "mbox0";
    for (uint64_t k : {1, 2, 3}) agg.fold(sample(k));
    EXPECT_EQ(agg.actor, "mbox0");
    EXPECT_EQ(agg.failure, "");
    EXPECT_TRUE(agg.established);
    EXPECT_TRUE(agg.resumed);
    EXPECT_EQ(agg.epoch, 3u);
    EXPECT_EQ(agg.rekeys, 6u);
    EXPECT_EQ(agg.handshake_wire_bytes, 600u);
    EXPECT_EQ(agg.app_records_received, 12u);
    EXPECT_EQ(agg.trace_events_dropped, 30u);
    EXPECT_EQ(agg.alerts_sent_by_type, (std::map<std::string, uint64_t>{{"close_notify", 6}}));
    EXPECT_EQ(agg.alerts_received_by_type,
              (std::map<std::string, uint64_t>{{"bad_record_mac", 3}, {"close_notify", 6}}));
    ASSERT_EQ(agg.contexts.size(), 2u);
    EXPECT_EQ(agg.contexts[0].name, "req");
    EXPECT_EQ(agg.contexts[0].id, 1u);
    EXPECT_EQ(agg.contexts[0].bytes_out, 66u);
    EXPECT_EQ(agg.contexts[0].records_in, 12u);
    EXPECT_EQ(agg.contexts[1].name, "resp");
    EXPECT_EQ(agg.contexts[1].records_in, 8u);
}

TEST(SessionStatsSchema, PublishCacheNamesAndValues)
{
    util::CacheStats c{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
    Hub hub;
    hub.publish_cache("cache.mbox", c);
    EXPECT_EQ(published(hub.metrics),
              "cache.mbox.bytes=11\n"
              "cache.mbox.declines=7\n"
              "cache.mbox.entries=10\n"
              "cache.mbox.evictions=6\n"
              "cache.mbox.expirations=3\n"
              "cache.mbox.hits=1\n"
              "cache.mbox.insertions=4\n"
              "cache.mbox.misses=2\n"
              "cache.mbox.replacements=5\n"
              "cache.mbox.shed=8\n"
              "cache.mbox.swept=9\n");
}

}  // namespace
}  // namespace mct::obs
