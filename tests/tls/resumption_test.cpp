// TLS session resumption (DESIGN.md "Session continuity"): abbreviated
// handshakes from a cached ticket, clean fallback on a server cache miss,
// and the idempotent-shutdown guard around close_notify.
#include "tls/resumption.h"

#include <gtest/gtest.h>

#include "bench/chain.h"
#include "pki/authority.h"
#include "tls/session.h"
#include "util/rng.h"

namespace mct::tls {
namespace {

struct ResumptionFixture : ::testing::Test {
    TestRng rng{77};
    pki::Authority ca{"Root CA", rng};
    pki::TrustStore store;
    pki::Identity server_id = ca.issue("server.example.com", rng);
    TlsSessionCache cache;
    TlsTicket ticket;

    ResumptionFixture() { store.add_root(ca.root_certificate()); }

    SessionConfig client_config()
    {
        SessionConfig cfg;
        cfg.role = Role::client;
        cfg.server_name = "server.example.com";
        cfg.trust = &store;
        cfg.rng = &rng;
        return cfg;
    }

    SessionConfig server_config()
    {
        SessionConfig cfg;
        cfg.role = Role::server;
        cfg.chain = {server_id.certificate};
        cfg.private_key = server_id.private_key;
        cfg.rng = &rng;
        cfg.session_cache = &cache;
        return cfg;
    }

    static void run_handshake(Session& client, Session& server)
    {
        client.start();
        EXPECT_TRUE(chain::pump(client, chain::none, server));
    }

    // Run one full handshake and walk away with the client's ticket.
    void mint_ticket()
    {
        Session client(client_config());
        Session server(server_config());
        run_handshake(client, server);
        ASSERT_TRUE(client.handshake_complete()) << client.error();
        ASSERT_FALSE(client.resumed());
        ticket = client.ticket();
        ASSERT_TRUE(ticket.valid());
        ASSERT_EQ(cache.size(), 1u);
    }
};

TEST_F(ResumptionFixture, AbbreviatedHandshakeResumes)
{
    mint_ticket();

    // Measure the full handshake cost with a fresh pair (the cache assigns a
    // new id, but the flight shapes are identical to the priming handshake).
    Session full_client(client_config());
    Session full_server(server_config());
    run_handshake(full_client, full_server);
    ASSERT_TRUE(full_client.handshake_complete());
    uint64_t full_bytes = full_client.handshake_wire_bytes();

    SessionConfig ccfg = client_config();
    ccfg.ticket = &ticket;
    Session client(ccfg);
    Session server(server_config());
    run_handshake(client, server);
    ASSERT_TRUE(client.handshake_complete()) << client.error();
    ASSERT_TRUE(server.handshake_complete()) << server.error();
    EXPECT_TRUE(client.resumed());
    EXPECT_TRUE(server.resumed());
    // No certificates, no key exchange: the abbreviated flight is smaller.
    EXPECT_LT(client.handshake_wire_bytes(), full_bytes);

    ASSERT_TRUE(client.send_app_data(str_to_bytes("GET /")).ok());
    for (auto& unit : client.take_write_units()) ASSERT_TRUE(server.feed(unit).ok());
    EXPECT_EQ(bytes_to_str(server.take_app_data()), "GET /");
    ASSERT_TRUE(server.send_app_data(str_to_bytes("200 OK")).ok());
    for (auto& unit : server.take_write_units()) ASSERT_TRUE(client.feed(unit).ok());
    EXPECT_EQ(bytes_to_str(client.take_app_data()), "200 OK");
}

TEST_F(ResumptionFixture, CacheMissFallsBackToFullHandshake)
{
    mint_ticket();
    cache.erase(ticket.session_id);  // server lost the session state

    SessionConfig ccfg = client_config();
    ccfg.ticket = &ticket;
    Session client(ccfg);
    Session server(server_config());
    run_handshake(client, server);
    ASSERT_TRUE(client.handshake_complete()) << client.error();
    ASSERT_TRUE(server.handshake_complete()) << server.error();
    EXPECT_FALSE(client.resumed());
    EXPECT_FALSE(server.resumed());

    ASSERT_TRUE(client.send_app_data(str_to_bytes("ping")).ok());
    for (auto& unit : client.take_write_units()) ASSERT_TRUE(server.feed(unit).ok());
    EXPECT_EQ(bytes_to_str(server.take_app_data()), "ping");
    // The fallback minted a replacement ticket under a fresh id.
    EXPECT_TRUE(client.ticket().valid());
    EXPECT_NE(client.ticket().session_id, ticket.session_id);
}

TEST_F(ResumptionFixture, CloseAfterPeerFatalAlertEmitsNothing)
{
    Session client(client_config());
    Session server(server_config());
    run_handshake(client, server);
    ASSERT_TRUE(client.handshake_complete());

    // Undecryptable record: the server answers with a fatal bad_record_mac.
    Bytes garbage = {0x17, 0x03, 0x03, 0x00, 0x05, 'j', 'u', 'n', 'k', '!'};
    EXPECT_FALSE(server.feed(garbage).ok());
    for (auto& unit : server.take_write_units()) (void)client.feed(unit);
    ASSERT_TRUE(client.failed());

    // Shutdown racing the incoming fatal alert: no close_notify may follow.
    client.close();
    EXPECT_TRUE(client.take_write_units().empty());
}

TEST_F(ResumptionFixture, SimultaneousCloseEmitsOneCloseNotifyEach)
{
    Session client(client_config());
    Session server(server_config());
    run_handshake(client, server);
    ASSERT_TRUE(client.handshake_complete());

    // Both sides close before either sees the peer's close_notify.
    client.close();
    server.close();
    auto client_units = client.take_write_units();
    auto server_units = server.take_write_units();
    ASSERT_EQ(client_units.size(), 1u);
    ASSERT_EQ(server_units.size(), 1u);
    for (auto& unit : client_units) ASSERT_TRUE(server.feed(unit).ok());
    for (auto& unit : server_units) ASSERT_TRUE(client.feed(unit).ok());
    // The crossed close_notify is consumed silently: no response alert rides
    // on top of the one already sent.
    EXPECT_TRUE(client.take_write_units().empty());
    EXPECT_TRUE(server.take_write_units().empty());
    EXPECT_TRUE(client.closed());
    EXPECT_TRUE(server.closed());
    client.close();  // repeated close is idempotent
    EXPECT_TRUE(client.take_write_units().empty());
}

}  // namespace
}  // namespace mct::tls
