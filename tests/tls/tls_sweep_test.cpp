// Parameterized TLS baseline sweeps: payload sizes, message sequences, and
// certificate chain depths.
#include <gtest/gtest.h>

#include <tuple>

#include "bench/chain.h"
#include "pki/authority.h"
#include "tls/session.h"
#include "util/rng.h"

namespace mct::tls {
namespace {

struct Env {
    TestRng rng{900};
    pki::Authority ca{"Sweep CA", rng};
    pki::TrustStore store;

    Env() { store.add_root(ca.root_certificate()); }

    static void pump(Session& client, Session& server)
    {
        EXPECT_TRUE(chain::pump(client, chain::none, server));
    }
};

class TlsPayloadSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(TlsPayloadSweep, EchoRoundTrip)
{
    size_t size = GetParam();
    Env env;
    pki::Identity id = env.ca.issue("server.example.com", env.rng);

    SessionConfig ccfg;
    ccfg.role = Role::client;
    ccfg.server_name = "server.example.com";
    ccfg.trust = &env.store;
    ccfg.rng = &env.rng;
    SessionConfig scfg;
    scfg.role = Role::server;
    scfg.chain = {id.certificate};
    scfg.private_key = id.private_key;
    scfg.rng = &env.rng;

    Session client(ccfg);
    Session server(scfg);
    client.start();
    Env::pump(client, server);
    ASSERT_TRUE(client.handshake_complete());

    Bytes payload = env.rng.bytes(size);
    ASSERT_TRUE(client.send_app_data(payload).ok());
    Env::pump(client, server);
    EXPECT_EQ(server.take_app_data(), payload);

    ASSERT_TRUE(server.send_app_data(payload).ok());
    Env::pump(client, server);
    EXPECT_EQ(client.take_app_data(), payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TlsPayloadSweep,
                         ::testing::Values(0u, 1u, 100u, 1460u, 15871u, 15872u, 16000u,
                                           50000u, 200000u),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                             return "bytes" + std::to_string(info.param);
                         });

TEST(TlsChainDepth, IntermediateCaChainValidates)
{
    Env env;
    pki::Authority intermediate = env.ca.subordinate("Intermediate CA", env.rng);
    pki::Identity leaf = intermediate.issue("deep.example.com", env.rng);

    SessionConfig ccfg;
    ccfg.role = Role::client;
    ccfg.server_name = "deep.example.com";
    ccfg.trust = &env.store;
    ccfg.rng = &env.rng;
    SessionConfig scfg;
    scfg.role = Role::server;
    scfg.chain = {leaf.certificate, intermediate.root_certificate()};
    scfg.private_key = leaf.private_key;
    scfg.rng = &env.rng;

    Session client(ccfg);
    Session server(scfg);
    client.start();
    Env::pump(client, server);
    EXPECT_TRUE(client.handshake_complete()) << client.error();
    EXPECT_EQ(client.peer_chain().size(), 2u);
}

TEST(TlsMessageSequence, ManySmallMessagesPreserveOrder)
{
    Env env;
    pki::Identity id = env.ca.issue("server.example.com", env.rng);
    SessionConfig ccfg;
    ccfg.role = Role::client;
    ccfg.server_name = "server.example.com";
    ccfg.trust = &env.store;
    ccfg.rng = &env.rng;
    SessionConfig scfg;
    scfg.role = Role::server;
    scfg.chain = {id.certificate};
    scfg.private_key = id.private_key;
    scfg.rng = &env.rng;

    Session client(ccfg);
    Session server(scfg);
    client.start();
    Env::pump(client, server);

    Bytes expected;
    for (int i = 0; i < 50; ++i) {
        Bytes msg = str_to_bytes("msg-" + std::to_string(i) + ";");
        append(expected, msg);
        ASSERT_TRUE(client.send_app_data(msg).ok());
    }
    Env::pump(client, server);
    EXPECT_EQ(server.take_app_data(), expected);
}

}  // namespace
}  // namespace mct::tls
