// Failure injection and attack scenarios against full mcTLS sessions:
// on-path adversaries replaying, reordering, deleting, splicing, and
// downgrading. The threat model (§3.2) requires all of these to be detected
// (denial of service excepted).
#include <gtest/gtest.h>

#include "mctls/key_schedule.h"
#include "mctls/messages.h"
#include "mctls/resumption.h"
#include "tests/mctls/harness.h"
#include "tests/tls/handshake_edit.h"
#include "util/serde.h"

namespace mct::mctls {
namespace {

using test::ChainEnv;
using test::ctx_row;

// Capture the record units a party emits without delivering them.
struct Interceptor {
    std::vector<Bytes> units;
    void capture(std::vector<Bytes> taken)
    {
        for (auto& unit : taken) units.push_back(std::move(unit));
    }
};

struct DirectPair {
    ChainEnv env;

    DirectPair()
    {
        env.build(0, {ctx_row(1, "a", 0, Permission::none),
                      ctx_row(2, "b", 0, Permission::none)});
        env.handshake();
        EXPECT_TRUE(env.all_complete());
    }
};

TEST(McTlsAttack, RecordReplayDetected)
{
    DirectPair pair;
    ASSERT_TRUE(pair.env.client->send_app_data(1, str_to_bytes("once")).ok());
    auto units = pair.env.client->take_write_units();
    ASSERT_EQ(units.size(), 1u);
    ASSERT_TRUE(pair.env.server->feed(units[0]).ok());
    EXPECT_EQ(pair.env.server->take_app_data().size(), 1u);
    // Replay: implicit sequence number no longer matches.
    EXPECT_FALSE(pair.env.server->feed(units[0]).ok());
    EXPECT_TRUE(pair.env.server->failed());
}

TEST(McTlsAttack, RecordReorderDetected)
{
    DirectPair pair;
    ASSERT_TRUE(pair.env.client->send_app_data(1, str_to_bytes("first")).ok());
    ASSERT_TRUE(pair.env.client->send_app_data(2, str_to_bytes("second")).ok());
    auto units = pair.env.client->take_write_units();
    ASSERT_EQ(units.size(), 2u);
    EXPECT_FALSE(pair.env.server->feed(units[1]).ok());  // deliver out of order
}

TEST(McTlsAttack, RecordDeletionDetected)
{
    // Deleting an entire record is exactly what global sequence numbers are
    // for (§3.4): the next record fails to verify.
    DirectPair pair;
    ASSERT_TRUE(pair.env.client->send_app_data(1, str_to_bytes("dropped")).ok());
    ASSERT_TRUE(pair.env.client->send_app_data(2, str_to_bytes("kept")).ok());
    auto units = pair.env.client->take_write_units();
    ASSERT_EQ(units.size(), 2u);
    EXPECT_FALSE(pair.env.server->feed(units[1]).ok());
    EXPECT_TRUE(pair.env.server->failed());
}

TEST(McTlsAttack, CrossContextSpliceDetected)
{
    // Re-tagging a record with another context id must fail: the context id
    // is inside the MAC input and each context has distinct keys.
    DirectPair pair;
    ASSERT_TRUE(pair.env.client->send_app_data(1, str_to_bytes("ctx1 data")).ok());
    auto units = pair.env.client->take_write_units();
    ASSERT_EQ(units.size(), 1u);
    Bytes spliced = units[0];
    // Record header: type(1) version(2) context(1) length(2) — rewrite the
    // context byte.
    ASSERT_EQ(spliced[3], 1);
    spliced[3] = 2;
    EXPECT_FALSE(pair.env.server->feed(spliced).ok());
}

TEST(McTlsAttack, CrossDirectionReflectionDetected)
{
    // Reflecting a client record back at the client fails (per-direction
    // keys and MACs).
    DirectPair pair;
    ASSERT_TRUE(pair.env.client->send_app_data(1, str_to_bytes("mine")).ok());
    auto units = pair.env.client->take_write_units();
    ASSERT_EQ(units.size(), 1u);
    EXPECT_FALSE(pair.env.client->feed(units[0]).ok());
}

TEST(McTlsAttack, HandshakeMessageDeletionStallsOrFails)
{
    // Drop the server's key material flight: the client must never complete
    // (it cannot compute context keys), and it must not crash.
    ChainEnv env;
    env.build(0, {ctx_row(1, "d", 0, Permission::none)});
    env.client->start();
    for (auto& unit : env.client->take_write_units()) (void)env.server->feed(unit);
    auto server_units = env.server->take_write_units();  // SH..SHD
    for (auto& unit : server_units) (void)env.client->feed(unit);
    for (auto& unit : env.client->take_write_units()) (void)env.server->feed(unit);
    // Swallow the server's final flight entirely.
    env.server->take_write_units();
    EXPECT_FALSE(env.client->handshake_complete());
    EXPECT_FALSE(env.client->failed());  // still waiting, not wedged in error
}

TEST(McTlsAttack, CipherSuiteDowngradeRejected)
{
    // An attacker rewriting the ClientHello's suites to something weaker is
    // caught at the latest by Finished verification (transcript mismatch).
    ChainEnv env;
    env.build(0, {ctx_row(1, "d", 0, Permission::none)});
    env.client->start();
    auto hello_units = env.client->take_write_units();
    ASSERT_EQ(hello_units.size(), 1u);
    Bytes tampered = hello_units[0];
    // ClientHello body: record hdr(6) + hs hdr(4) + version(2) + random(32)
    // + suite-list len(1) + first suite(2). Rewrite the suite id bytes.
    size_t suite_off = 6 + 4 + 2 + 32 + 1;
    ASSERT_LT(suite_off + 1, tampered.size());
    tampered[suite_off] = 0x00;
    tampered[suite_off + 1] = 0x2f;  // TLS_RSA_WITH_AES_128_CBC_SHA
    (void)env.server->feed(tampered);
    // Either the server rejects immediately (no common suite) or the
    // handshake dies at Finished; it must never complete.
    env.pump();
    EXPECT_FALSE(env.server->handshake_complete());
    EXPECT_FALSE(env.client->handshake_complete());
}

TEST(McTlsAttack, MiddleboxListTamperingDetected)
{
    // An on-path attacker inserts itself by rewriting the middlebox list in
    // flight. Finished verification catches the transcript mismatch even
    // though the list itself is unauthenticated in the ClientHello.
    ChainEnv env;
    env.build(0, {ctx_row(1, "d", 0, Permission::none)});
    env.client->start();
    auto hello_units = env.client->take_write_units();
    Bytes tampered = hello_units[0];
    tampered[tampered.size() - 2] ^= 0x01;  // flip inside the extension bytes
    (void)env.server->feed(tampered);
    env.pump();
    EXPECT_FALSE(env.client->handshake_complete());
    EXPECT_FALSE(env.server->handshake_complete());
}

// A client-key-distribution (CKD) session through one read middlebox whose
// key material the client seals with `material` instead of its own grant.
// The material is sealed under the real K_C-M: a first run of the same
// seeded chain reads it from the middlebox's ticket, and the second run,
// byte-identical up to this point, reseals the client's MiddleboxKeyMaterial
// on its way to the middlebox. Returns the middlebox of the second run.
std::unique_ptr<MiddleboxSession> ckd_with_material(
    const std::vector<MiddleboxMaterialEntry>& material)
{
    auto contexts = std::vector{ctx_row(1, "data", 1, Permission::read)};
    ChainEnv first;
    first.build(1, contexts, /*ckd=*/true);
    first.handshake();
    EXPECT_TRUE(first.all_complete());
    AuthEncKey pairwise(first.mboxes[0]->ticket().pairwise_client);

    ChainEnv env;
    env.build(1, contexts, /*ckd=*/true);
    env.client->start();
    TestRng rng(5);
    bool resealed = false;
    auto tap = [&](size_t hop, Bytes& unit) {
        if (hop != 0) return;
        unit = tls::test::edit_handshake(unit, /*with_context_id=*/true,
                                         [&](tls::HandshakeMessage& m) {
            auto km = MiddleboxKeyMaterial::parse(m.body);
            if (m.type != tls::HandshakeType::middlebox_key_material || !km.ok() ||
                km.value().entity != 0)
                return;
            km.value().sealed = authenc_seal(pairwise, key_material_ad(kEntityClient, 0),
                                             serialize_middlebox_material(material), rng);
            m = km.value().to_message();
            resealed = true;
        });
    };
    EXPECT_TRUE(chain::pump(*env.client, env.mboxes, *env.server, chain::NoProbe{}, tap));
    EXPECT_TRUE(resealed);
    return std::move(env.mboxes[0]);
}

MiddleboxMaterialEntry ckd_entry(uint8_t id, Permission perm, bool writer_keys)
{
    MiddleboxMaterialEntry e;
    e.context_id = id;
    e.permission = perm;
    e.complete_keys = derive_context_keys_ckd(Bytes(48, 1), Bytes(32, 2), Bytes(32, 3), id)
                          .serialize(writer_keys);
    return e;
}

TEST(McTlsAttack, MiddleboxRejectsCkdKeysForUnknownContext)
{
    auto mbox = ckd_with_material({ckd_entry(1, Permission::read, false),
                                   ckd_entry(9, Permission::read, false)});
    EXPECT_TRUE(mbox->failed());
    EXPECT_EQ(mbox->failure().alert, tls::AlertDescription::illegal_parameter);
    EXPECT_EQ(mbox->failure().message, "mctls mbox: key material for unknown context");
    EXPECT_EQ(mbox->context_keys(9), nullptr);
}

// Complete keys that do not parse fail the relay rather than leave it
// without access to the context.
TEST(McTlsAttack, MiddleboxRejectsCkdKeysThatDoNotParse)
{
    MiddleboxMaterialEntry entry = ckd_entry(1, Permission::read, false);
    entry.complete_keys = {1, 2, 3};
    auto mbox = ckd_with_material({entry});
    EXPECT_TRUE(mbox->failed());
    EXPECT_FALSE(mbox->handshake_complete());
    EXPECT_EQ(mbox->failure().alert, tls::AlertDescription::decode_error);
    EXPECT_EQ(mbox->permission(1), Permission::none);
}

// CKD keys with a MAC key of the wrong length fail the relay with
// decode_error. A MAC key is 32 bytes: a shorter one would key a different
// HMAC than the endpoints', and a longer one does not fit a
// crypto::InstalledKey, which throws rather than truncate; neither may
// install, and nothing throws out of feed().
TEST(McTlsAttack, MiddleboxRejectsCkdMacKeysThatAreNot32Bytes)
{
    for (size_t mac_size : {31, 33, 255}) {
        Writer keys;
        keys.u8(0);  // reader keys only
        for (int d = 0; d < 2; ++d) keys.vec8(Bytes(16, 0x11));
        for (int d = 0; d < 2; ++d) keys.vec8(Bytes(d == 0 ? mac_size : 32, 0x22));
        MiddleboxMaterialEntry entry = ckd_entry(1, Permission::read, false);
        entry.complete_keys = keys.take();
        auto mbox = ckd_with_material({entry});
        EXPECT_TRUE(mbox->failed()) << mac_size;
        EXPECT_FALSE(mbox->handshake_complete()) << mac_size;
        EXPECT_EQ(mbox->failure().alert, tls::AlertDescription::decode_error) << mac_size;
        EXPECT_EQ(mbox->failure().message, "mctls: bad context key size") << mac_size;
        EXPECT_EQ(mbox->permission(1), Permission::none) << mac_size;
    }
}

// The ClientKeyExchange is unsigned, so an on-path party can put any vec8
// in it. A low-order point or a key of the wrong length fails the server's
// handshake with illegal_parameter; nothing throws out of feed().
TEST(McTlsAttack, BadClientDhShareFailsHandshake)
{
    for (const Bytes& share : {Bytes(32, 0), Bytes(31, 9)}) {
        ChainEnv env;
        env.build(0, {ctx_row(1, "d", 0, Permission::none)});
        env.client->start();
        bool rewritten = false;
        auto tap = [&](size_t hop, Bytes& unit) {
            if (hop != 0) return;
            unit = tls::test::edit_handshake(unit, /*with_context_id=*/true,
                                             [&](tls::HandshakeMessage& m) {
                if (m.type != tls::HandshakeType::client_key_exchange) return;
                m = tls::ClientKeyExchange{share}.to_message();
                rewritten = true;
            });
        };
        EXPECT_TRUE(chain::pump(*env.client, env.mboxes, *env.server, chain::NoProbe{}, tap));
        EXPECT_TRUE(rewritten);
        EXPECT_TRUE(env.server->failed()) << share.size();
        EXPECT_EQ(env.server->failure().alert, tls::AlertDescription::illegal_parameter);
        EXPECT_EQ(env.server->failure().message, "mctls: degenerate DH share");
        EXPECT_FALSE(env.client->handshake_complete());
    }
}

// A write grant must carry writer keys, and a read grant must not.
TEST(McTlsAttack, MiddleboxRejectsCkdPermissionWithoutMatchingKeys)
{
    for (auto [perm, writer_keys] : {std::pair{Permission::write, false},
                                     std::pair{Permission::read, true},
                                     std::pair{Permission::none, false}}) {
        auto mbox = ckd_with_material({ckd_entry(1, perm, writer_keys)});
        EXPECT_TRUE(mbox->failed()) << to_string(perm);
        EXPECT_EQ(mbox->failure().alert, tls::AlertDescription::illegal_parameter);
        EXPECT_EQ(mbox->failure().message, "mctls mbox: key material permission mismatch");
        EXPECT_EQ(mbox->permission(1), Permission::none);
    }
}

// The control: the same reseal with material that matches the grant
// completes the handshake and gives the middlebox its read access.
TEST(McTlsAttack, CkdResealWithMatchingMaterialIsAccepted)
{
    auto mbox = ckd_with_material({ckd_entry(1, Permission::read, false)});
    EXPECT_TRUE(mbox->handshake_complete()) << mbox->error();
    EXPECT_EQ(mbox->permission(1), Permission::read);
}

TEST(McTlsAttack, TruncatedFlightWaitsWithoutCrash)
{
    ChainEnv env;
    env.build(0, {ctx_row(1, "d", 0, Permission::none)});
    env.client->start();
    auto units = env.client->take_write_units();
    ASSERT_EQ(units.size(), 1u);
    // Deliver half the ClientHello; the server should simply wait.
    ConstBytes view{units[0]};
    ASSERT_TRUE(env.server->feed(view.subspan(0, units[0].size() / 2)).ok());
    EXPECT_FALSE(env.server->handshake_complete());
    EXPECT_FALSE(env.server->failed());
    // Deliver the rest; handshake proceeds normally.
    ASSERT_TRUE(env.server->feed(view.subspan(units[0].size() / 2)).ok());
    env.pump();
    EXPECT_TRUE(env.client->handshake_complete());
}

TEST(McTlsAttack, GarbageBytesRejected)
{
    ChainEnv env;
    env.build(0, {ctx_row(1, "d", 0, Permission::none)});
    TestRng rng(404);
    Bytes garbage = rng.bytes(64);
    EXPECT_FALSE(env.server->feed(garbage).ok());
    EXPECT_TRUE(env.server->failed());
}

TEST(McTlsAttack, AppDataBeforeHandshakeRejected)
{
    ChainEnv env;
    env.build(0, {ctx_row(1, "d", 0, Permission::none)});
    // Construct a syntactically valid application-data record out of thin air.
    tls::RecordCodec codec(true);
    Bytes fake = codec.encode({tls::ContentType::application_data, 1, Bytes(64, 0)});
    EXPECT_FALSE(env.server->feed(fake).ok());
}

}  // namespace
}  // namespace mct::mctls
