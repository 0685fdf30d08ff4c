// Parameterized property sweeps over the mcTLS session space:
// (middlebox count) x (context count) x (key-distribution mode) x
// (permission pattern). Every combination must handshake and move data
// correctly with access control intact.
#include <gtest/gtest.h>

#include <tuple>

#include "tests/mctls/harness.h"

namespace mct::mctls {
namespace {

using test::ChainEnv;

enum class PermPattern { all_none, all_read, all_write, alternating };

const char* to_cstr(PermPattern p)
{
    switch (p) {
    case PermPattern::all_none:
        return "none";
    case PermPattern::all_read:
        return "read";
    case PermPattern::all_write:
        return "write";
    case PermPattern::alternating:
        return "alternating";
    }
    return "?";
}

Permission pattern_permission(PermPattern pattern, size_t mbox, uint8_t ctx)
{
    switch (pattern) {
    case PermPattern::all_none:
        return Permission::none;
    case PermPattern::all_read:
        return Permission::read;
    case PermPattern::all_write:
        return Permission::write;
    case PermPattern::alternating:
        return static_cast<Permission>((mbox + ctx) % 3);
    }
    return Permission::none;
}

using SweepParam = std::tuple<size_t /*mboxes*/, size_t /*contexts*/, bool /*ckd*/,
                              PermPattern>;

class McTlsSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(McTlsSweep, HandshakeAndDataFlow)
{
    auto [n_mbox, n_ctx, ckd, pattern] = GetParam();

    ChainEnv env;
    std::vector<ContextDescription> contexts;
    for (size_t c = 0; c < n_ctx; ++c) {
        ContextDescription ctx;
        ctx.id = static_cast<uint8_t>(c + 1);
        ctx.purpose = "ctx" + std::to_string(c + 1);
        for (size_t m = 0; m < n_mbox; ++m)
            ctx.permissions.push_back(pattern_permission(pattern, m, ctx.id));
        contexts.push_back(std::move(ctx));
    }
    env.build(n_mbox, contexts, ckd);
    env.handshake();
    ASSERT_TRUE(env.all_complete())
        << "client: " << env.client->error() << " server: " << env.server->error();

    // Every middlebox ended up with exactly the granted permission.
    for (size_t m = 0; m < n_mbox; ++m) {
        for (const auto& ctx : contexts) {
            EXPECT_EQ(env.mboxes[m]->permission(ctx.id),
                      pattern_permission(pattern, m, ctx.id))
                << "mbox " << m << " ctx " << int(ctx.id);
        }
    }

    // Round-trip data on every context, both directions.
    for (const auto& ctx : contexts) {
        Bytes payload = str_to_bytes("payload-" + std::to_string(ctx.id));
        ASSERT_TRUE(env.client->send_app_data(ctx.id, payload).ok());
    }
    env.pump();
    auto at_server = env.server->take_app_data();
    ASSERT_EQ(at_server.size(), contexts.size());
    for (size_t i = 0; i < contexts.size(); ++i) {
        EXPECT_EQ(at_server[i].context_id, contexts[i].id);
        EXPECT_TRUE(at_server[i].from_endpoint);
    }

    for (const auto& ctx : contexts) {
        ASSERT_TRUE(env.server->send_app_data(ctx.id, str_to_bytes("resp")).ok());
    }
    env.pump();
    EXPECT_EQ(env.client->take_app_data().size(), contexts.size());
}

INSTANTIATE_TEST_SUITE_P(
    Chain, McTlsSweep,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 3u, 5u),
                       ::testing::Values(1u, 4u, 8u),
                       ::testing::Values(false, true),
                       ::testing::Values(PermPattern::all_none, PermPattern::all_read,
                                         PermPattern::all_write,
                                         PermPattern::alternating)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
        return "N" + std::to_string(std::get<0>(info.param)) + "_K" +
               std::to_string(std::get<1>(info.param)) +
               (std::get<2>(info.param) ? "_ckd" : "_def") + "_" +
               to_cstr(std::get<3>(info.param));
    });

// Record-protection property sweep: payload sizes x directions.
class RecordSweep
    : public ::testing::TestWithParam<std::tuple<size_t, Direction>> {};

TEST_P(RecordSweep, SealOpenRoundTrip)
{
    auto [size, dir] = GetParam();
    TestRng rng(303);
    Bytes rand_c = rng.bytes(32), rand_s = rng.bytes(32);
    EndpointKeys endpoint = derive_endpoint_keys(rng.bytes(48), rand_c, rand_s);
    ContextKeys ctx = derive_context_keys_ckd(rng.bytes(48), rand_c, rand_s, 7);

    Bytes payload = rng.bytes(size);
    RecordScratch scratch;
    for (uint64_t seq : {uint64_t{0}, uint64_t{1}, uint64_t{1000000}}) {
        Bytes frag = seal_record(ctx, endpoint, dir, seq, 7, payload, rng);
        auto open = open_record_endpoint(ctx, endpoint, dir, seq, 7, frag, scratch);
        ASSERT_TRUE(open.ok());
        EXPECT_EQ(to_bytes(open.value().payload), payload);
        EXPECT_TRUE(open.value().from_endpoint);
        // Opposite direction must fail.
        EXPECT_FALSE(
            open_record_endpoint(ctx, endpoint, opposite(dir), seq, 7, frag, scratch).ok());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Payloads, RecordSweep,
    ::testing::Combine(::testing::Values(0u, 1u, 15u, 16u, 100u, 1460u, 15000u),
                       ::testing::Values(Direction::client_to_server,
                                         Direction::server_to_client)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, Direction>>& info) {
        return "bytes" + std::to_string(std::get<0>(info.param)) +
               (std::get<1>(info.param) == Direction::client_to_server ? "_c2s"
                                                                       : "_s2c");
    });

}  // namespace
}  // namespace mct::mctls
