// §5.4: "clients and servers can easily fall back to regular TLS if an
// mcTLS connection cannot be negotiated."
//
// mcTLS and TLS peers cannot interoperate on one connection (the mcTLS
// record header adds a context-id byte), so a mixed pairing must fail
// cleanly and promptly — after which the client simply reconnects with a
// plain TLS session. These tests pin down both halves of that story.
#include <gtest/gtest.h>

#include "tests/mctls/harness.h"
#include "tls/alert.h"
#include "tls/session.h"

namespace mct::mctls {
namespace {

using test::ChainEnv;
using test::ctx_row;

TEST(TlsFallback, McTlsClientAgainstTlsServerFailsCleanly)
{
    ChainEnv env;
    env.build(0, {ctx_row(1, "d", 0, Permission::none)});

    tls::SessionConfig scfg;
    scfg.role = tls::Role::server;
    scfg.chain = {env.server_id.certificate};
    scfg.private_key = env.server_id.private_key;
    scfg.rng = &env.rng;
    tls::Session tls_server(scfg);

    env.client->start();
    ASSERT_TRUE(chain::pump(*env.client, chain::none, tls_server));
    // The mcTLS record header carries an extra context-id byte, so the TLS
    // server cannot even frame the ClientHello: it rejects the stream with a
    // fatal decode_error alert. The alert codec's tolerant framing lets the
    // mcTLS client parse that 5-byte alert record despite the header
    // mismatch, so the client surfaces a typed peer-origin failure instead
    // of a silent stall.
    EXPECT_FALSE(env.client->handshake_complete());
    ASSERT_TRUE(tls_server.failed());
    ASSERT_TRUE(tls_server.alert_sent().has_value());
    EXPECT_EQ(tls_server.alert_sent()->level, tls::AlertLevel::fatal);
    EXPECT_EQ(tls_server.alert_sent()->description, tls::AlertDescription::decode_error);

    ASSERT_TRUE(env.client->failed());
    ASSERT_TRUE(env.client->peer_alert().has_value());
    EXPECT_EQ(env.client->peer_alert()->description, tls::AlertDescription::decode_error);
    EXPECT_EQ(env.client->failure().origin, tls::SessionError::Origin::peer);
    EXPECT_EQ(env.client->failure().alert, tls::AlertDescription::decode_error);
}

TEST(TlsFallback, RetryWithTlsSucceeds)
{
    // The fallback itself: after the mcTLS attempt fails, a fresh TLS
    // session against the same server identity completes.
    ChainEnv env;
    env.build(0, {ctx_row(1, "d", 0, Permission::none)});

    tls::SessionConfig scfg;
    scfg.role = tls::Role::server;
    scfg.chain = {env.server_id.certificate};
    scfg.private_key = env.server_id.private_key;
    scfg.rng = &env.rng;

    // Attempt 1: mcTLS (fails, see previous test).
    {
        tls::Session tls_server(scfg);
        env.client->start();
        ASSERT_TRUE(chain::pump(*env.client, chain::none, tls_server));
        ASSERT_FALSE(env.client->handshake_complete());
    }

    // Attempt 2: plain TLS.
    tls::SessionConfig ccfg;
    ccfg.role = tls::Role::client;
    ccfg.server_name = "server.example.com";
    ccfg.trust = &env.store;
    ccfg.rng = &env.rng;
    tls::Session tls_client(ccfg);
    tls::Session tls_server(scfg);
    tls_client.start();
    ASSERT_TRUE(chain::pump(tls_client, chain::none, tls_server));
    EXPECT_TRUE(tls_client.handshake_complete());
    EXPECT_TRUE(tls_server.handshake_complete());
}

TEST(TlsFallback, TlsClientAgainstMcTlsServerFailsCleanly)
{
    // The reverse direction: a legacy TLS client's hello has no middlebox
    // list; the mcTLS server rejects it instead of limping along.
    ChainEnv env;
    env.build(0, {ctx_row(1, "d", 0, Permission::none)});

    tls::SessionConfig ccfg;
    ccfg.role = tls::Role::client;
    ccfg.server_name = "server.example.com";
    ccfg.trust = &env.store;
    ccfg.rng = &env.rng;
    tls::Session tls_client(ccfg);

    // The 5-byte TLS ClientHello misframes under the 6-byte mcTLS header
    // into an incomplete record, so the server waits rather than erroring.
    // The handshake deadline is what converts that stall into a typed,
    // alerted failure.
    mctls::SessionConfig scfg = env.server_config();
    scfg.handshake_timeout = 1000;
    env.server = std::make_unique<Session>(scfg);

    tls_client.start();
    for (auto& unit : tls_client.take_write_units()) (void)env.server->feed(unit);
    EXPECT_FALSE(env.server->handshake_complete());
    (void)env.server->tick(0);  // arms the deadline
    EXPECT_FALSE(env.server->failed());
    (void)env.server->tick(1001);

    ASSERT_TRUE(env.server->failed());
    EXPECT_EQ(env.server->failure().origin, tls::SessionError::Origin::timeout);
    ASSERT_TRUE(env.server->alert_sent().has_value());
    EXPECT_EQ(env.server->alert_sent()->level, tls::AlertLevel::fatal);
    EXPECT_EQ(env.server->alert_sent()->description, tls::AlertDescription::handshake_timeout);

    // The timeout alert crosses the framing gap back to the TLS client,
    // which surfaces it as a typed peer-origin failure.
    for (auto& unit : env.server->take_write_units()) (void)tls_client.feed(unit);
    ASSERT_TRUE(tls_client.failed());
    ASSERT_TRUE(tls_client.peer_alert().has_value());
    EXPECT_EQ(tls_client.peer_alert()->description, tls::AlertDescription::handshake_timeout);
    EXPECT_EQ(tls_client.failure().origin, tls::SessionError::Origin::peer);
}

}  // namespace
}  // namespace mct::mctls
