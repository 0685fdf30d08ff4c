// The in-memory chain driver (bench/chain.h): its livelock cap, and a tamper
// sweep that uses its tap to flip one byte of an app record on each hop of
// a client -> mbox0 (read) -> mbox1 (write) -> server chain.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/chain.h"
#include "tests/mctls/harness.h"

namespace mct::mctls {
namespace {

using test::ChainEnv;

// Emits one unit on every call, so a chain of two never goes quiet.
struct Chatterbox {
    size_t fed = 0;
    std::vector<Bytes> take_write_units() { return {Bytes{0x17}}; }
    std::vector<obs::SpanContext> take_unit_spans() { return {}; }
    void queue_rx_span(obs::SpanContext) {}
    Status feed(ConstBytes)
    {
        ++fed;
        return {};
    }
};

TEST(ChainDriver, LivelockStopsAtTheRoundCap)
{
    Chatterbox a, b;
    EXPECT_FALSE(chain::pump(a, chain::none, b));
    EXPECT_EQ(a.fed, static_cast<size_t>(chain::kMaxRounds));
    EXPECT_EQ(b.fed, static_cast<size_t>(chain::kMaxRounds));
}

// Hop h (chain.h numbering) -> the party that catches a flipped last byte of
// the first app record crossing it, by failing with a fatal bad_record_mac.
constexpr const char* kCatcher[] = {"mbox0", "mbox1", "server", "mbox1", "mbox0", "client"};

class ChainTamper : public ::testing::TestWithParam<size_t> {};

TEST_P(ChainTamper, AlteredRecordFailsClosed)
{
    const Bytes request(64, 0x5a), response(64, 0xa5);
    ChainEnv env;
    ContextDescription ctx;
    ctx.id = 1;
    ctx.purpose = "body";
    ctx.permissions = {Permission::read, Permission::write};
    auto infos = env.make_middleboxes(2);
    env.client = std::make_unique<Session>(env.client_config(infos, {ctx}));
    env.server = std::make_unique<Session>(env.server_config());
    // Every plaintext a middlebox application is handed.
    std::vector<Bytes> seen;
    for (size_t i = 0; i < 2; ++i) {
        auto mcfg = env.mbox_config(i);
        mcfg.observe = [&](uint8_t, Direction, ConstBytes p) { seen.push_back(to_bytes(p)); };
        mcfg.transform = [&](uint8_t, Direction, Bytes p) {
            seen.push_back(p);
            return p;
        };
        env.mboxes.push_back(std::make_unique<MiddleboxSession>(mcfg));
    }
    env.handshake();
    ASSERT_TRUE(env.all_complete());

    ASSERT_TRUE(env.client->send_app_data(1, request).ok());
    ASSERT_TRUE(env.server->send_app_data(1, response).ok());
    bool tampered = false;
    auto flip = [&](size_t hop, Bytes& unit) {
        if (hop != GetParam() || tampered || unit.empty() ||
            unit[0] != static_cast<uint8_t>(tls::ContentType::application_data))
            return;
        unit.back() ^= 0x01;
        tampered = true;
    };
    EXPECT_TRUE(chain::pump(*env.client, env.mboxes, *env.server, chain::NoProbe{}, flip));
    ASSERT_TRUE(tampered);

    for (const auto& p : seen) EXPECT_TRUE(p == request || p == response);
    for (const auto& chunk : env.server->take_app_data()) EXPECT_EQ(chunk.data, request);
    for (const auto& chunk : env.client->take_app_data()) EXPECT_EQ(chunk.data, response);

    auto caught = [](const auto& party) {
        return party.failed() && party.alert_sent() &&
               party.alert_sent()->level == tls::AlertLevel::fatal &&
               party.alert_sent()->description == tls::AlertDescription::bad_record_mac;
    };
    std::string catchers;
    if (caught(*env.client)) catchers += "client ";
    if (caught(*env.mboxes[0])) catchers += "mbox0 ";
    if (caught(*env.mboxes[1])) catchers += "mbox1 ";
    if (caught(*env.server)) catchers += "server ";
    EXPECT_EQ(catchers, std::string(kCatcher[GetParam()]) + " ");
}

INSTANTIATE_TEST_SUITE_P(EveryHop, ChainTamper, ::testing::Range<size_t>(0, 6),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                             return "hop" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace mct::mctls
