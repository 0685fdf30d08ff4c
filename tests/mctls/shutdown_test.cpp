// Graceful shutdown and truncation detection (DESIGN.md "Failure model").
//
// close_notify travels on the control context: the closer sends it, the peer
// responds in kind, and both sides land in closed() without a failure. A
// transport EOF *without* close_notify is a truncation attack and must be
// surfaced as a typed failure, and data arriving after the close exchange is
// a protocol violation answered with a fatal alert.
#include <gtest/gtest.h>

#include "tests/mctls/harness.h"
#include "tls/alert.h"
#include "tls/session.h"

namespace mct::mctls {
namespace {

using test::ChainEnv;
using test::ctx_row;

TEST(Shutdown, GracefulBidirectionalClose)
{
    ChainEnv env;
    env.build(0, {ctx_row(1, "data", 0, Permission::none)});
    env.handshake();
    ASSERT_TRUE(env.all_complete());

    Bytes msg = {'h', 'i'};
    ASSERT_TRUE(env.client->send_app_data(1, msg).ok());
    env.pump();
    ASSERT_EQ(env.server->take_app_data().size(), 1u);

    env.client->close();
    EXPECT_TRUE(env.client->close_sent());
    // Half-close: the initiator stays open until the peer's close_notify.
    EXPECT_FALSE(env.client->closed());
    env.pump();

    EXPECT_TRUE(env.client->closed());
    EXPECT_TRUE(env.server->closed());
    EXPECT_FALSE(env.client->failed());
    EXPECT_FALSE(env.server->failed());
    EXPECT_FALSE(env.client->truncated());
    EXPECT_FALSE(env.server->truncated());

    // Both directions carried a close_notify warning alert.
    ASSERT_TRUE(env.server->peer_alert().has_value());
    EXPECT_TRUE(env.server->peer_alert()->is_close_notify());
    ASSERT_TRUE(env.client->peer_alert().has_value());
    EXPECT_TRUE(env.client->peer_alert()->is_close_notify());
}

TEST(Shutdown, CloseNotifyForwardedThroughMiddlebox)
{
    ChainEnv env;
    env.build(1, {ctx_row(1, "data", 1, Permission::read)});
    env.handshake();
    ASSERT_TRUE(env.all_complete());

    env.client->close();
    env.pump();

    EXPECT_TRUE(env.client->closed());
    EXPECT_TRUE(env.server->closed());
    // The middlebox saw close_notify in both directions: session over, but
    // nothing went wrong locally.
    EXPECT_TRUE(env.mboxes[0]->torn_down());
    EXPECT_FALSE(env.mboxes[0]->failed());
    EXPECT_FALSE(env.mboxes[0]->truncated());
}

TEST(Shutdown, SendAfterCloseRejected)
{
    ChainEnv env;
    env.build(0, {ctx_row(1, "data", 0, Permission::none)});
    env.handshake();

    env.client->close();
    env.pump();
    ASSERT_TRUE(env.client->closed());
    ASSERT_TRUE(env.server->closed());

    Bytes msg = {'x'};
    EXPECT_FALSE(env.client->send_app_data(1, msg).ok());
    EXPECT_FALSE(env.server->send_app_data(1, msg).ok());
    // Refusing to send is not a session failure.
    EXPECT_FALSE(env.client->failed());
    EXPECT_FALSE(env.server->failed());
}

TEST(Shutdown, DataArrivingAfterCloseIsFatal)
{
    ChainEnv env;
    env.build(0, {ctx_row(1, "data", 0, Permission::none)});
    env.handshake();

    // Capture an application record but delay its delivery until after the
    // close exchange completes.
    Bytes msg = {'l', 'a', 't', 'e'};
    ASSERT_TRUE(env.server->send_app_data(1, msg).ok());
    auto stale = env.server->take_write_units();
    ASSERT_EQ(stale.size(), 1u);

    env.client->close();
    env.pump();
    ASSERT_TRUE(env.client->closed());

    EXPECT_FALSE(env.client->feed(stale[0]).ok());
    EXPECT_TRUE(env.client->failed());
    EXPECT_EQ(env.client->failure().alert, tls::AlertDescription::unexpected_message);
    ASSERT_TRUE(env.client->alert_sent().has_value());
    EXPECT_EQ(env.client->alert_sent()->level, tls::AlertLevel::fatal);
}

TEST(Shutdown, MissingCloseNotifyIsTruncation)
{
    ChainEnv env;
    env.build(0, {ctx_row(1, "data", 0, Permission::none)});
    env.handshake();
    ASSERT_TRUE(env.all_complete());

    // Transport EOF with no close_notify: classic truncation attack (§2).
    env.client->transport_closed();
    EXPECT_TRUE(env.client->truncated());
    EXPECT_TRUE(env.client->failed());
    EXPECT_EQ(env.client->failure().origin, tls::SessionError::Origin::truncated);
    // A dead transport gets no alert echo.
    EXPECT_FALSE(env.client->alert_sent().has_value());
}

TEST(Shutdown, MiddleboxTransportDeathAlertsSurvivingSide)
{
    ChainEnv env;
    env.build(1, {ctx_row(1, "data", 1, Permission::read)});
    env.handshake();
    ASSERT_TRUE(env.all_complete());

    // The client-side TCP leg dies under the middlebox: it tears down and
    // originates a fatal middlebox_failure alert toward the server, which
    // surfaces a typed peer-origin failure.
    env.mboxes[0]->transport_closed(/*from_client_side=*/true);
    EXPECT_TRUE(env.mboxes[0]->torn_down());
    EXPECT_TRUE(env.mboxes[0]->truncated());
    env.pump();

    ASSERT_TRUE(env.server->failed());
    EXPECT_EQ(env.server->failure().origin, tls::SessionError::Origin::peer);
    EXPECT_EQ(env.server->failure().alert, tls::AlertDescription::middlebox_failure);
}

TEST(Shutdown, TlsGracefulCloseAndTruncationParity)
{
    // The plain-TLS baseline gets the same semantics: close_notify exchange
    // ends in closed(), EOF without it is truncation.
    ChainEnv env;  // borrow the PKI fixtures only

    tls::SessionConfig scfg;
    scfg.role = tls::Role::server;
    scfg.chain = {env.server_id.certificate};
    scfg.private_key = env.server_id.private_key;
    scfg.rng = &env.rng;

    tls::SessionConfig ccfg;
    ccfg.role = tls::Role::client;
    ccfg.server_name = "server.example.com";
    ccfg.trust = &env.store;
    ccfg.rng = &env.rng;

    tls::Session client(ccfg);
    tls::Session server(scfg);
    client.start();
    ASSERT_TRUE(chain::pump(client, chain::none, server));
    ASSERT_TRUE(client.handshake_complete() && server.handshake_complete());

    server.close();
    EXPECT_FALSE(server.closed());  // waits for the client's close_notify
    ASSERT_TRUE(chain::pump(client, chain::none, server));
    EXPECT_TRUE(client.closed());
    EXPECT_TRUE(server.closed());
    EXPECT_FALSE(client.failed());
    EXPECT_FALSE(server.failed());

    // Truncation on a second pair.
    tls::Session client2(ccfg);
    tls::Session server2(scfg);
    client2.start();
    ASSERT_TRUE(chain::pump(client2, chain::none, server2));
    ASSERT_TRUE(client2.handshake_complete());
    client2.transport_closed();
    EXPECT_TRUE(client2.truncated());
    EXPECT_EQ(client2.failure().origin, tls::SessionError::Origin::truncated);
}

}  // namespace
}  // namespace mct::mctls
