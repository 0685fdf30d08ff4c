#include "tls/session.h"

#include <gtest/gtest.h>

#include "bench/chain.h"
#include "pki/authority.h"
#include "tests/tls/handshake_edit.h"
#include "util/rng.h"

namespace mct::tls {
namespace {

struct TlsFixture : ::testing::Test {
    TestRng rng{90};
    pki::Authority ca{"Root CA", rng};
    pki::TrustStore store;
    pki::Identity server_id = ca.issue("server.example.com", rng);

    TlsFixture() { store.add_root(ca.root_certificate()); }

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
        return cfg;
    }

    // Pump bytes between the two sessions until both go quiet. A feed may
    // only report an error once its session has failed.
    static void run_handshake(Session& client, Session& server)
    {
        client.start();
        auto fails_closed = [&](chain::Party to, auto&& feed) {
            Session& receiver = to == chain::Party::server ? server : client;
            EXPECT_TRUE(feed().ok() || receiver.failed());
        };
        EXPECT_TRUE(chain::pump(client, chain::none, server, fails_closed));
    }
};

TEST_F(TlsFixture, HandshakeCompletes)
{
    Session client(client_config());
    Session server(server_config());
    run_handshake(client, server);
    EXPECT_TRUE(client.handshake_complete()) << client.error();
    EXPECT_TRUE(server.handshake_complete()) << server.error();
}

// The ClientKeyExchange is unsigned, so an on-path party can put any vec8
// in it. A low-order point or a key of the wrong length fails the server's
// handshake with illegal_parameter; nothing throws out of feed().
TEST_F(TlsFixture, BadClientDhShareFailsHandshake)
{
    for (const Bytes& share : {Bytes(32, 0), Bytes(31, 9)}) {
        Session client(client_config());
        Session server(server_config());
        client.start();
        bool rewritten = false;
        auto tap = [&](size_t hop, Bytes& unit) {
            if (hop != 0) return;
            unit = test::edit_handshake(unit, /*with_context_id=*/false, [&](HandshakeMessage& m) {
                if (m.type != HandshakeType::client_key_exchange) return;
                m = ClientKeyExchange{share}.to_message();
                rewritten = true;
            });
        };
        EXPECT_TRUE(chain::pump(client, chain::none, server, chain::NoProbe{}, tap));
        EXPECT_TRUE(rewritten);
        EXPECT_TRUE(server.failed()) << share.size();
        EXPECT_EQ(server.failure().alert, AlertDescription::illegal_parameter);
        EXPECT_EQ(server.failure().message, "tls: degenerate DH share");
        EXPECT_FALSE(client.handshake_complete());
    }
}

TEST_F(TlsFixture, AppDataFlowsBothWays)
{
    Session client(client_config());
    Session server(server_config());
    run_handshake(client, server);
    ASSERT_TRUE(client.handshake_complete());

    ASSERT_TRUE(client.send_app_data(str_to_bytes("GET / HTTP/1.1")).ok());
    for (auto& unit : client.take_write_units()) ASSERT_TRUE(server.feed(unit).ok());
    EXPECT_EQ(bytes_to_str(server.take_app_data()), "GET / HTTP/1.1");

    ASSERT_TRUE(server.send_app_data(str_to_bytes("200 OK")).ok());
    for (auto& unit : server.take_write_units()) ASSERT_TRUE(client.feed(unit).ok());
    EXPECT_EQ(bytes_to_str(client.take_app_data()), "200 OK");
}

TEST_F(TlsFixture, LargeAppDataFragmentsAndReassembles)
{
    Session client(client_config());
    Session server(server_config());
    run_handshake(client, server);
    Bytes big = rng.bytes(100000);
    ASSERT_TRUE(client.send_app_data(big).ok());
    auto units = client.take_write_units();
    EXPECT_GT(units.size(), 1u);  // multiple records
    for (auto& unit : units) ASSERT_TRUE(server.feed(unit).ok());
    EXPECT_EQ(server.take_app_data(), big);
}

TEST_F(TlsFixture, WrongServerNameFailsClient)
{
    auto cfg = client_config();
    cfg.server_name = "other.example.com";
    Session client(cfg);
    Session server(server_config());
    run_handshake(client, server);
    EXPECT_TRUE(client.failed());
    EXPECT_FALSE(client.handshake_complete());
}

TEST_F(TlsFixture, UntrustedServerFailsClient)
{
    TestRng rogue_rng{91};
    pki::Authority rogue{"Rogue CA", rogue_rng};
    pki::Identity fake = rogue.issue("server.example.com", rogue_rng);
    auto scfg = server_config();
    scfg.chain = {fake.certificate};
    scfg.private_key = fake.private_key;
    Session client(client_config());
    Session server(scfg);
    run_handshake(client, server);
    EXPECT_TRUE(client.failed());
}

TEST_F(TlsFixture, MitmKeySubstitutionDetected)
{
    // An attacker replacing the ServerKeyExchange public key cannot produce
    // a valid signature.
    Session client(client_config());
    Session server(server_config());
    client.start();
    auto hello = client.take_write_units();
    for (auto& unit : hello) ASSERT_TRUE(server.feed(unit).ok());
    auto server_flight = server.take_write_units();
    ASSERT_EQ(server_flight.size(), 1u);
    // Flip a byte in the middle of the flight (lands in SKE or certificate).
    Bytes tampered = server_flight[0];
    tampered[tampered.size() / 2] ^= 1;
    client.feed(tampered);
    EXPECT_TRUE(client.failed());
}

TEST_F(TlsFixture, TamperedAppRecordRejected)
{
    Session client(client_config());
    Session server(server_config());
    run_handshake(client, server);
    ASSERT_TRUE(client.send_app_data(Bytes(100, 'a')).ok());
    auto units = client.take_write_units();
    ASSERT_EQ(units.size(), 1u);
    units[0][units[0].size() - 1] ^= 1;
    EXPECT_FALSE(server.feed(units[0]).ok());
    EXPECT_TRUE(server.failed());
}

TEST_F(TlsFixture, AppDataBeforeHandshakeRejected)
{
    Session client(client_config());
    EXPECT_FALSE(client.send_app_data(str_to_bytes("early")).ok());
}

TEST_F(TlsFixture, NoTrustStoreSkipsVerification)
{
    auto cfg = client_config();
    cfg.trust = nullptr;
    Session client(cfg);
    Session server(server_config());
    run_handshake(client, server);
    EXPECT_TRUE(client.handshake_complete());
}

TEST_F(TlsFixture, HandshakeByteAccounting)
{
    Session client(client_config());
    Session server(server_config());
    run_handshake(client, server);
    // Both sides count all handshake-phase wire bytes; with symmetric
    // counting (sent + received) the totals must agree.
    EXPECT_GT(client.handshake_wire_bytes(), 500u);
    EXPECT_EQ(client.handshake_wire_bytes(), server.handshake_wire_bytes());
}

TEST_F(TlsFixture, AppOverheadAccounting)
{
    Session client(client_config());
    Session server(server_config());
    run_handshake(client, server);
    ASSERT_TRUE(client.send_app_data(Bytes(1000, 'x')).ok());
    client.take_write_units();
    EXPECT_EQ(client.app_records_sent(), 1u);
    // Header(5) + IV(16) + MAC(32) + padding(1..16).
    EXPECT_GE(client.app_overhead_bytes(), 5u + 16 + 32 + 1);
    EXPECT_LE(client.app_overhead_bytes(), 5u + 16 + 32 + 16);
}

TEST_F(TlsFixture, OpCountersMatchTable3TlsColumn)
{
    // SplitTLS column of Table 3 (one plain TLS handshake, per side):
    // client: 10 hash, 1 secret, 1 keygen, 1 verify, 1 enc, 1 dec.
    crypto::OpCounters client_ops, server_ops;
    auto ccfg = client_config();
    ccfg.ops = &client_ops;
    auto scfg = server_config();
    scfg.ops = &server_ops;
    Session client(ccfg);
    Session server(scfg);
    run_handshake(client, server);
    ASSERT_TRUE(client.handshake_complete());

    EXPECT_EQ(client_ops.secret_comp, 1u);
    EXPECT_EQ(client_ops.key_gen, 1u);
    EXPECT_EQ(client_ops.asym_verify, 1u);
    EXPECT_EQ(client_ops.sym_encrypt, 1u);
    EXPECT_EQ(client_ops.sym_decrypt, 1u);
    EXPECT_EQ(client_ops.hash, 10u);

    EXPECT_EQ(server_ops.secret_comp, 1u);
    EXPECT_EQ(server_ops.key_gen, 1u);
    EXPECT_EQ(server_ops.asym_verify, 0u);  // no client auth
    EXPECT_EQ(server_ops.sym_encrypt, 1u);
    EXPECT_EQ(server_ops.sym_decrypt, 1u);
    EXPECT_EQ(server_ops.hash, 10u);
}

TEST_F(TlsFixture, PeerChainExposed)
{
    Session client(client_config());
    Session server(server_config());
    run_handshake(client, server);
    ASSERT_EQ(client.peer_chain().size(), 1u);
    EXPECT_EQ(client.peer_chain().front().subject, "server.example.com");
}

}  // namespace
}  // namespace mct::tls
