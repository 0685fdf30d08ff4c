// Acceptance tests for the latency-attribution plane over the full testbed:
// client -> rbox (read) -> wbox (write) -> server, spans on.
//
// The central invariant is the telescoping property: crypto runs in zero sim
// time, so the sim-clock stages of one traced record (queue wait + transmit
// on every hop) must sum to the record's observed end-to-end latency (within
// 1%; in this deterministic sim they match exactly, the tolerance guards
// the contract, not the implementation).
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "http/testbed.h"
#include "obs/json.h"
#include "obs/perfetto.h"

namespace mct::http {
namespace {

using net::operator""_ms;

struct TraceSummary {
    uint64_t root_start = 0;
    uint64_t last_end = 0;
    uint64_t sim_stage_sum = 0;  // queue_wait + transmit durations
    uint64_t bytes = 0;
    bool has_root = false;
    bool has_deliver = false;
    bool resealed = false;
    std::vector<const obs::Event*> spans;
};

std::map<uint64_t, TraceSummary> summarize(const std::vector<obs::Event>& spans)
{
    std::map<uint64_t, TraceSummary> traces;
    for (const auto& s : spans) {
        if (!s.is_span() || s.stage == obs::Stage::handshake) continue;
        TraceSummary& t = traces[s.trace_id];
        t.spans.push_back(&s);
        t.last_end = std::max(t.last_end, s.end_ts);
        switch (s.stage) {
        case obs::Stage::record:
            t.has_root = true;
            t.root_start = s.ts;
            t.bytes = s.a;
            break;
        case obs::Stage::queue_wait:
        case obs::Stage::transmit:
            t.sim_stage_sum += s.end_ts - s.ts;
            break;
        case obs::Stage::deliver:
            t.has_deliver = true;
            break;
        case obs::Stage::reseal:
            t.resealed = true;
            break;
        default:
            break;
        }
    }
    return traces;
}

class LatencyAttribution : public ::testing::Test {
protected:
    void SetUp() override
    {
#if !defined(MCT_OBS_ENABLED)
        GTEST_SKIP() << "span emission compiled out under MCT_OBS=OFF";
#endif
    }

    void run(TestbedConfig cfg)
    {
        cfg.obs = &hub_;
        cfg.journal = &journal_;
        Testbed bed(cfg);
        bed.set_middlebox_customizer([](size_t index, mctls::MiddleboxConfig& mcfg) {
            if (index != 1) return;
            // Same-length rewrite on the body context so the writer path
            // reseals instead of passing records through.
            mcfg.transform = [](uint8_t ctx, mctls::Direction dir, Bytes payload) {
                if (ctx != 4 || dir != mctls::Direction::server_to_client)
                    return payload;
                for (auto& b : payload) b ^= 0x20;
                return payload;
            };
        });
        auto fetch = bed.fetch_sequence({1500, 40000});
        bed.run();
        ASSERT_TRUE(fetch->completed);
        ASSERT_FALSE(fetch->failed) << fetch->error;
        bed.publish_session_stats();
        ASSERT_EQ(journal_.dropped(), 0u) << "grow the journal for this test";
    }

    obs::Hub hub_;
    obs::Journal journal_{{.capacity = 65536}};
};

TEST_F(LatencyAttribution, StageTimesSumToEndToEndLatency)
{
    TestbedConfig cfg;
    cfg.mode = Mode::mctls;
    cfg.n_middleboxes = 2;
    cfg.permission_rows = {
        std::vector<mctls::Permission>(4, mctls::Permission::read),
        std::vector<mctls::Permission>(4, mctls::Permission::write),
    };
    cfg.per_hop_links = {{20_ms, 0}, {10_ms, 0}, {5_ms, 0}};
    run(cfg);

    std::vector<obs::Event> all = journal_.events();
    auto traces = summarize(all);
    size_t checked = 0, delivered = 0, resealed = 0;
    for (const auto& [id, t] : traces) {
        if (!t.has_root) continue;  // partial trace (should not happen here)
        ++checked;
        delivered += t.has_deliver ? 1 : 0;
        resealed += t.resealed ? 1 : 0;
        uint64_t e2e = t.last_end - t.root_start;
        ASSERT_GT(e2e, 0u) << "record crossed at least one 20 ms hop";
        double rel = e2e ? std::abs(static_cast<double>(t.sim_stage_sum) -
                                    static_cast<double>(e2e)) /
                               static_cast<double>(e2e)
                         : 0.0;
        EXPECT_LE(rel, 0.01) << "trace " << id << ": stages sum to "
                             << t.sim_stage_sum << " but end-to-end is " << e2e;
    }
    // Requests + responses for two objects, each crossing three hops.
    EXPECT_GE(checked, 4u);
    EXPECT_GE(delivered, 4u);   // traces reached the far endpoint
    EXPECT_GE(resealed, 1u);    // the write box actually rewrote body records
}

TEST_F(LatencyAttribution, SpanTreeChainsAcrossHops)
{
    TestbedConfig cfg;
    cfg.mode = Mode::mctls;
    cfg.n_middleboxes = 2;
    cfg.permission_rows = {
        std::vector<mctls::Permission>(4, mctls::Permission::read),
        std::vector<mctls::Permission>(4, mctls::Permission::write),
    };
    run(cfg);

    std::vector<obs::Event> all = journal_.events();
    auto traces = summarize(all);
    size_t full_chains = 0;
    for (const auto& [id, t] : traces) {
        if (!t.has_root || !t.has_deliver) continue;
        // Every non-root span's parent is a span of the same trace: the tree
        // is connected, so the exporter can walk client -> hop -> mbox ->
        // hop -> server without dangling references.
        std::map<uint64_t, const obs::Event*> by_id;
        for (const auto* s : t.spans) by_id[s->span_id] = s;
        bool connected = true;
        size_t hops = 0;
        for (const auto* s : t.spans) {
            if (s->parent_id == 0) continue;
            if (!by_id.count(s->parent_id)) {
                connected = false;
                ADD_FAILURE() << "trace " << id << ": " << obs::to_string(s->stage)
                              << " span " << s->span_id << " (actor "
                              << journal_.actor_name(s->actor) << ") parents missing "
                              << s->parent_id;
            }
            if (s->stage == obs::Stage::transmit) ++hops;
        }
        EXPECT_TRUE(connected) << "trace " << id;
        if (connected && hops == 3) ++full_chains;
    }
    // App records between the endpoints cross exactly three TCP hops.
    EXPECT_GE(full_chains, 4u);
}

TEST_F(LatencyAttribution, ExportsLoadablePerfettoJson)
{
    TestbedConfig cfg;
    cfg.mode = Mode::mctls;
    cfg.n_middleboxes = 2;
    cfg.mbox_permission = mctls::Permission::read;
    run(cfg);

    std::vector<obs::Event> events = journal_.events();
    std::string text = obs::to_chrome_trace({&events, &journal_});
    auto doc = obs::json_parse(text);
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    const obs::JsonValue* trace_events = doc.value().get("traceEvents");
    ASSERT_NE(trace_events, nullptr);
    ASSERT_TRUE(trace_events->is_array());
    size_t complete = 0;
    bool saw_hop_actor = false;
    for (const auto& item : trace_events->items) {
        const obs::JsonValue* ph = item.get("ph");
        if (ph && ph->str == "X") ++complete;
        const obs::JsonValue* name = item.get("name");
        if (name && name->str == "process_name") {
            const obs::JsonValue* args = item.get("args");
            if (args && args->get("name") &&
                args->get("name")->str.rfind("tcp:", 0) == 0)
                saw_hop_actor = true;
        }
    }
    EXPECT_GT(complete, 20u);       // handshake + records, many hops
    EXPECT_TRUE(saw_hop_actor);     // per-hop processes named tcp:a->b
    // Stage histograms landed in the hub for the Prometheus endpoint.
    EXPECT_GT(hub_.metrics.histogram("span.transmit.sim_us")->count(), 0u);
}

TEST_F(LatencyAttribution, BaselineTlsRecordsAreAlsoAttributed)
{
    TestbedConfig cfg;
    cfg.mode = Mode::e2e_tls;
    cfg.n_middleboxes = 1;  // blind relay
    run(cfg);

    std::vector<obs::Event> all = journal_.events();
    auto traces = summarize(all);
    size_t checked = 0;
    for (const auto& [id, t] : traces) {
        if (!t.has_root) continue;
        ++checked;
        // The TLS receiver closes every rooted trace, as mcTLS endpoints do.
        EXPECT_TRUE(t.has_deliver) << "trace " << id;
        uint64_t e2e = t.last_end - t.root_start;
        double rel = e2e ? std::abs(static_cast<double>(t.sim_stage_sum) -
                                    static_cast<double>(e2e)) /
                               static_cast<double>(e2e)
                         : 0.0;
        EXPECT_LE(rel, 0.01) << "trace " << id;
    }
    EXPECT_GE(checked, 2u);
}

}  // namespace
}  // namespace mct::http
