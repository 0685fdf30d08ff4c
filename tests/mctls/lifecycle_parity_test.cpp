// Lifecycle parity (DESIGN.md "Failure model"): tls::Session and
// mctls::Session must apply the same teardown rules — handshake deadline,
// idempotent close_notify, truncation on a bare EOF, per-type alert counts —
// so one typed suite runs every case over both. The middlebox cases at the
// bottom cover the rules it shares with the endpoints (deadline, alert
// bookkeeping) and the two-sided teardown it keeps for itself.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tests/mctls/harness.h"
#include "tls/alert.h"
#include "tls/record.h"
#include "tls/session.h"

namespace mct::mctls {
namespace {

using test::ChainEnv;
using test::ctx_row;
using AlertCounts = std::map<std::string, uint64_t>;

constexpr uint64_t kTimeout = 100;

struct TlsFlavor {
    using Session = tls::Session;
    static constexpr bool kWithContextId = false;

    static std::unique_ptr<Session> make(ChainEnv& env, tls::Role role)
    {
        tls::SessionConfig cfg;
        cfg.role = role;
        cfg.rng = &env.rng;
        cfg.handshake_timeout = kTimeout;
        if (role == tls::Role::client) {
            cfg.server_name = "server.example.com";
            cfg.trust = &env.store;
        } else {
            cfg.chain = {env.server_id.certificate};
            cfg.private_key = env.server_id.private_key;
        }
        return std::make_unique<Session>(cfg);
    }
};

struct McTlsFlavor {
    using Session = mctls::Session;
    static constexpr bool kWithContextId = true;

    static std::unique_ptr<Session> make(ChainEnv& env, tls::Role role)
    {
        SessionConfig cfg = role == tls::Role::client
                                ? env.client_config({}, {ctx_row(1, "data", 0, Permission::none)})
                                : env.server_config();
        cfg.handshake_timeout = kTimeout;
        return std::make_unique<Session>(cfg);
    }
};

// Alert records with `description` among `units`, decoded with the given
// framing (every unit starts on a record boundary).
size_t alerts_on_wire(const std::vector<Bytes>& units, bool with_context_id,
                      tls::AlertDescription description)
{
    size_t n = 0;
    tls::RecordCodec codec(with_context_id);
    for (const auto& unit : units) codec.feed(unit);
    while (true) {
        auto next = codec.next_view();
        if (!next || !next.value().has_value()) break;
        const tls::RecordView& rec = *next.value();
        if (rec.type != tls::ContentType::alert) continue;
        auto alert = tls::Alert::parse(rec.payload);
        if (alert && alert.value().description == description) ++n;
    }
    return n;
}

template <typename Flavor>
struct LifecycleParity : ::testing::Test {
    ChainEnv env;
    std::unique_ptr<typename Flavor::Session> client = Flavor::make(env, tls::Role::client);
    std::unique_ptr<typename Flavor::Session> server = Flavor::make(env, tls::Role::server);
    // Every unit each side put on the wire.
    std::vector<Bytes> client_wire;
    std::vector<Bytes> server_wire;

    void deliver_client()
    {
        for (auto& unit : client->take_write_units()) {
            (void)server->feed(unit);
            client_wire.push_back(std::move(unit));
        }
    }
    void deliver_server()
    {
        for (auto& unit : server->take_write_units()) {
            (void)client->feed(unit);
            server_wire.push_back(std::move(unit));
        }
    }
    void pump()
    {
        EXPECT_TRUE(chain::pump(*client, chain::none, *server, chain::NoProbe{},
                                [&](size_t hop, const Bytes& unit) {
                                    (hop == 0 ? client_wire : server_wire).push_back(unit);
                                }));
    }
    void handshake()
    {
        client->start();
        pump();
        ASSERT_TRUE(client->handshake_complete()) << client->error();
        ASSERT_TRUE(server->handshake_complete()) << server->error();
    }
    size_t close_notifies(const std::vector<Bytes>& wire) const
    {
        return alerts_on_wire(wire, Flavor::kWithContextId, tls::AlertDescription::close_notify);
    }
};

using Flavors = ::testing::Types<TlsFlavor, McTlsFlavor>;
TYPED_TEST_SUITE(LifecycleParity, Flavors);

TYPED_TEST(LifecycleParity, TickFiresAtDeadlineNotBefore)
{
    this->client->start();
    (void)this->client->take_write_units();

    ASSERT_TRUE(this->client->tick(1000).ok());  // arms: deadline 1100
    ASSERT_TRUE(this->client->tick(1000 + kTimeout - 1).ok());
    EXPECT_FALSE(this->client->failed());
    EXPECT_TRUE(this->client->take_write_units().empty());

    EXPECT_FALSE(this->client->tick(1000 + kTimeout).ok());
    EXPECT_TRUE(this->client->failed());
    EXPECT_EQ(this->client->failure().origin, tls::SessionError::Origin::timeout);
    ASSERT_TRUE(this->client->alert_sent().has_value());
    EXPECT_EQ(this->client->alert_sent()->description, tls::AlertDescription::handshake_timeout);
    EXPECT_EQ(alerts_on_wire(this->client->take_write_units(), TypeParam::kWithContextId,
                             tls::AlertDescription::handshake_timeout),
              1u);
    // A dead session keeps reporting its failure and sends nothing more.
    EXPECT_FALSE(this->client->tick(5000).ok());
    EXPECT_TRUE(this->client->take_write_units().empty());
}

TYPED_TEST(LifecycleParity, TickIsInertOnceEstablished)
{
    ASSERT_TRUE(this->client->tick(1).ok());
    this->handshake();
    EXPECT_TRUE(this->client->tick(1 + 10 * kTimeout).ok());
    EXPECT_TRUE(this->client->handshake_complete());
    EXPECT_FALSE(this->client->alert_sent().has_value());
}

TYPED_TEST(LifecycleParity, CloseTwicePutsOneCloseNotifyOnTheWire)
{
    this->handshake();
    this->client->close();
    this->client->close();
    this->pump();
    this->client->close();
    this->pump();

    EXPECT_EQ(this->close_notifies(this->client_wire), 1u);
    EXPECT_EQ(this->close_notifies(this->server_wire), 1u);
    EXPECT_TRUE(this->client->closed());
    EXPECT_TRUE(this->server->closed());
    EXPECT_FALSE(this->client->failed());
    EXPECT_FALSE(this->server->failed());
}

TYPED_TEST(LifecycleParity, CloseRacingPeerCloseNotifySendsOneEach)
{
    this->handshake();
    // Both sides close before either close_notify lands.
    this->client->close();
    this->server->close();
    this->pump();
    EXPECT_EQ(this->close_notifies(this->client_wire), 1u);
    EXPECT_EQ(this->close_notifies(this->server_wire), 1u);
    EXPECT_TRUE(this->client->closed());
    EXPECT_TRUE(this->server->closed());
    EXPECT_FALSE(this->client->failed());
    EXPECT_FALSE(this->server->failed());
}

TYPED_TEST(LifecycleParity, CloseAfterAnsweringPeerCloseNotifyIsNoOp)
{
    this->handshake();
    this->client->close();
    this->deliver_client();  // the server answers with its own close_notify
    this->server->close();   // ...so a local close has nothing left to send
    this->pump();
    EXPECT_EQ(this->close_notifies(this->client_wire), 1u);
    EXPECT_EQ(this->close_notifies(this->server_wire), 1u);
    EXPECT_TRUE(this->client->closed());
    EXPECT_TRUE(this->server->closed());
}

TYPED_TEST(LifecycleParity, TransportClosedIsTruncationWithoutAlert)
{
    this->handshake();
    this->client->transport_closed();
    EXPECT_TRUE(this->client->truncated());
    EXPECT_TRUE(this->client->failed());
    EXPECT_EQ(this->client->failure().origin, tls::SessionError::Origin::truncated);
    EXPECT_FALSE(this->client->alert_sent().has_value());
    EXPECT_TRUE(this->client->take_write_units().empty());
    EXPECT_EQ(this->client->session_stats().alerts_sent, 0u);
}

TYPED_TEST(LifecycleParity, AlertCountsByTypeAfterGracefulClose)
{
    this->handshake();
    this->client->close();
    this->pump();
    for (const auto* s : {this->client.get(), this->server.get()}) {
        auto stats = s->session_stats();
        EXPECT_EQ(stats.alerts_sent, 1u);
        EXPECT_EQ(stats.alerts_received, 1u);
        EXPECT_EQ(stats.alerts_sent_by_type, (AlertCounts{{"close_notify", 1}}));
        EXPECT_EQ(stats.alerts_received_by_type, (AlertCounts{{"close_notify", 1}}));
    }
}

TYPED_TEST(LifecycleParity, AlertCountsByTypeAfterDeadlineFailure)
{
    this->client->start();
    ASSERT_TRUE(this->client->tick(0).ok());
    ASSERT_FALSE(this->client->tick(kTimeout).ok());
    this->pump();  // ClientHello, then the fatal alert, reach the server

    EXPECT_TRUE(this->server->failed());
    EXPECT_EQ(this->server->failure().origin, tls::SessionError::Origin::peer);
    auto c = this->client->session_stats();
    auto s = this->server->session_stats();
    EXPECT_EQ(c.alerts_sent_by_type, (AlertCounts{{"handshake_timeout", 1}}));
    EXPECT_TRUE(c.alerts_received_by_type.empty());
    EXPECT_TRUE(s.alerts_sent_by_type.empty());
    EXPECT_EQ(s.alerts_received_by_type, (AlertCounts{{"handshake_timeout", 1}}));
}

TYPED_TEST(LifecycleParity, CloseLeavesHandshakeWireBytesAlone)
{
    // handshake_wire_bytes() counts handshake records only (Figure 8);
    // teardown alerts in either direction must not move it.
    this->handshake();
    uint64_t client_bytes = this->client->handshake_wire_bytes();
    uint64_t server_bytes = this->server->handshake_wire_bytes();
    this->client->close();
    this->pump();
    ASSERT_TRUE(this->client->closed() && this->server->closed());
    EXPECT_EQ(this->client->handshake_wire_bytes(), client_bytes);
    EXPECT_EQ(this->server->handshake_wire_bytes(), server_bytes);
}

// ---- Middlebox: shared deadline and bookkeeping, two-sided teardown ------

struct MiddleboxLifecycle : ::testing::Test {
    ChainEnv env;

    void build(uint64_t handshake_timeout)
    {
        auto infos = env.make_middleboxes(1);
        env.client = std::make_unique<Session>(
            env.client_config(infos, {ctx_row(1, "data", 1, Permission::read)}));
        env.server = std::make_unique<Session>(env.server_config());
        auto cfg = env.mbox_config(0);
        cfg.handshake_timeout = handshake_timeout;
        env.mboxes.push_back(std::make_unique<MiddleboxSession>(cfg));
    }
    MiddleboxSession& mbox() { return *env.mboxes[0]; }
};

TEST_F(MiddleboxLifecycle, TickFiresAtDeadlineNotBefore)
{
    build(kTimeout);
    ASSERT_TRUE(mbox().tick(1000).ok());
    ASSERT_TRUE(mbox().tick(1000 + kTimeout - 1).ok());
    EXPECT_FALSE(mbox().failed());
    EXPECT_TRUE(mbox().take_to_client().empty());
    EXPECT_TRUE(mbox().take_to_server().empty());

    EXPECT_FALSE(mbox().tick(1000 + kTimeout).ok());
    EXPECT_TRUE(mbox().failed());
    EXPECT_TRUE(mbox().torn_down());
    EXPECT_EQ(mbox().failure().origin, tls::SessionError::Origin::timeout);
    // A middlebox failure alerts both endpoints.
    EXPECT_EQ(alerts_on_wire(mbox().take_to_client(), true,
                             tls::AlertDescription::handshake_timeout),
              1u);
    EXPECT_EQ(alerts_on_wire(mbox().take_to_server(), true,
                             tls::AlertDescription::handshake_timeout),
              1u);
    auto stats = mbox().session_stats();
    EXPECT_EQ(stats.alerts_sent, 1u);
    EXPECT_EQ(stats.alerts_sent_by_type, (AlertCounts{{"handshake_timeout", 1}}));
}

TEST_F(MiddleboxLifecycle, TickIsInertOnceKeysAreReady)
{
    build(kTimeout);
    ASSERT_TRUE(mbox().tick(1).ok());
    env.handshake();
    ASSERT_TRUE(env.all_complete());
    EXPECT_TRUE(mbox().tick(1 + 10 * kTimeout).ok());
    EXPECT_FALSE(mbox().failed());
    EXPECT_FALSE(mbox().alert_sent().has_value());
}

TEST_F(MiddleboxLifecycle, TransportClosedIsTruncationAndAlertsSurvivingSideOnly)
{
    build(0);
    env.handshake();
    ASSERT_TRUE(env.all_complete());
    mbox().transport_closed(/*from_client_side=*/false);
    EXPECT_TRUE(mbox().truncated());
    EXPECT_TRUE(mbox().torn_down());
    EXPECT_FALSE(mbox().failed());
    EXPECT_EQ(mbox().failure().origin, tls::SessionError::Origin::truncated);
    EXPECT_EQ(alerts_on_wire(mbox().take_to_client(), true,
                             tls::AlertDescription::middlebox_failure),
              1u);
    EXPECT_TRUE(mbox().take_to_server().empty());
    // A second EOF report changes nothing.
    mbox().transport_closed(/*from_client_side=*/true);
    EXPECT_TRUE(mbox().take_to_server().empty());
    EXPECT_EQ(mbox().session_stats().alerts_sent_by_type,
              (AlertCounts{{"middlebox_failure", 1}}));
}

TEST_F(MiddleboxLifecycle, AlertCountsByTypeForRelayedCloseNotify)
{
    build(0);
    env.handshake();
    ASSERT_TRUE(env.all_complete());
    env.client->close();
    env.pump();
    auto stats = mbox().session_stats();
    EXPECT_TRUE(mbox().torn_down());
    EXPECT_EQ(stats.alerts_sent, 0u);
    EXPECT_TRUE(stats.alerts_sent_by_type.empty());
    EXPECT_EQ(stats.alerts_received, 2u);
    EXPECT_EQ(stats.alerts_received_by_type, (AlertCounts{{"close_notify", 2}}));
}

}  // namespace
}  // namespace mct::mctls
