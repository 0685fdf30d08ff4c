#include "mctls/session.h"

#include <gtest/gtest.h>

#include "crypto/hmac.h"
#include "mctls/context_crypto.h"

#include "tests/mctls/harness.h"

namespace mct::mctls {
namespace {

using test::ChainEnv;
using test::ctx_row;

TEST(McTlsHandshake, NoMiddleboxCompletes)
{
    ChainEnv env;
    env.build(0, {ctx_row(1, "data", 0, Permission::none)});
    env.handshake();
    EXPECT_TRUE(env.client->handshake_complete()) << env.client->error();
    EXPECT_TRUE(env.server->handshake_complete()) << env.server->error();
}

TEST(McTlsHandshake, OneMiddleboxCompletes)
{
    ChainEnv env;
    env.build(1, {ctx_row(1, "data", 1, Permission::write)});
    env.handshake();
    EXPECT_TRUE(env.all_complete())
        << env.client->error() << "/" << env.server->error() << "/"
        << env.mboxes[0]->error();
    EXPECT_EQ(env.mboxes[0]->permission(1), Permission::write);
}

TEST(McTlsHandshake, FourMiddleboxChainCompletes)
{
    ChainEnv env;
    env.build(4, {ctx_row(1, "headers", 4, Permission::read),
                  ctx_row(2, "body", 4, Permission::write)});
    env.handshake();
    EXPECT_TRUE(env.all_complete());
    for (auto& mbox : env.mboxes) {
        EXPECT_EQ(mbox->permission(1), Permission::read);
        EXPECT_EQ(mbox->permission(2), Permission::write);
    }
}

TEST(McTlsHandshake, ManyContextsComplete)
{
    ChainEnv env;
    std::vector<ContextDescription> contexts;
    for (uint8_t id = 1; id <= 16; ++id)
        contexts.push_back(ctx_row(id, "ctx" + std::to_string(id), 1, Permission::write));
    env.build(1, contexts);
    env.handshake();
    EXPECT_TRUE(env.all_complete());
}

TEST(McTlsHandshake, PerMiddleboxPermissionsHonored)
{
    // M0 reads, M1 has no access.
    ChainEnv env;
    ContextDescription ctx;
    ctx.id = 1;
    ctx.purpose = "selective";
    ctx.permissions = {Permission::read, Permission::none};
    env.build(2, {ctx});
    env.handshake();
    ASSERT_TRUE(env.all_complete());
    EXPECT_EQ(env.mboxes[0]->permission(1), Permission::read);
    EXPECT_EQ(env.mboxes[1]->permission(1), Permission::none);
}

TEST(McTlsHandshake, ReadOnlyMiddleboxHoldsNoWriterKey)
{
    // Contributory mode: a middlebox granted read access combines only the
    // reader halves, so it holds reader keys and no writer key at all: no
    // raw bytes, and the only writer MAC it can compute is the empty key's.
    // It cannot open as a writer.
    ChainEnv env;
    env.build(1, {ctx_row(1, "headers", 1, Permission::read),
                  ctx_row(2, "body", 1, Permission::write)});
    env.handshake();
    ASSERT_TRUE(env.all_complete());

    const ContextKeys* reader = env.mboxes[0]->context_keys(1);
    const ContextKeys* writer = env.mboxes[0]->context_keys(2);
    ASSERT_NE(reader, nullptr);
    ASSERT_NE(writer, nullptr);
    EXPECT_TRUE(reader->can_read());
    EXPECT_FALSE(reader->can_write());
    EXPECT_TRUE(writer->can_write());
    auto tag = [](const crypto::MacKey& key) {
        crypto::HmacSha256 mac(key.expanded());
        return mac.finish();
    };
    for (int d = 0; d < 2; ++d) {
        EXPECT_TRUE(reader->writer_mac[d].empty());
        EXPECT_EQ(tag(reader->writer_mac[d]), crypto::HmacSha256::mac({}, {}));
        EXPECT_EQ(tag(writer->writer_mac[d]),
                  crypto::HmacSha256::mac(writer->writer_mac[d].bytes(), {}));
    }

    // The client's first record on the read-only context: the middlebox's
    // keys open it as a reader and are refused as a writer.
    ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("GET /")).ok());
    auto units = env.client->take_write_units();
    ASSERT_EQ(units.size(), 1u);
    constexpr size_t kHeader = 6;  // type, version, context id, length
    ConstBytes fragment = ConstBytes{units[0]}.subspan(kHeader);
    RecordScratch scratch;
    auto as_writer =
        open_record_writer(*reader, Direction::client_to_server, 0, 1, fragment, scratch);
    ASSERT_FALSE(as_writer.ok());
    EXPECT_EQ(as_writer.error().message, "mctls: no write access to context");
    auto as_reader =
        open_record_reader(*reader, Direction::client_to_server, 0, 1, fragment, scratch);
    ASSERT_TRUE(as_reader.ok()) << as_reader.error().message;
    EXPECT_EQ(to_bytes(as_reader.value()), str_to_bytes("GET /"));
}

TEST(McTlsData, EndToEndBothDirections)
{
    ChainEnv env;
    env.build(1, {ctx_row(1, "data", 1, Permission::read)});
    env.handshake();
    ASSERT_TRUE(env.all_complete());

    ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("request")).ok());
    env.pump();
    auto at_server = env.server->take_app_data();
    ASSERT_EQ(at_server.size(), 1u);
    EXPECT_EQ(bytes_to_str(at_server[0].data), "request");
    EXPECT_TRUE(at_server[0].from_endpoint);
    EXPECT_EQ(at_server[0].context_id, 1);

    ASSERT_TRUE(env.server->send_app_data(1, str_to_bytes("response")).ok());
    env.pump();
    auto at_client = env.client->take_app_data();
    ASSERT_EQ(at_client.size(), 1u);
    EXPECT_EQ(bytes_to_str(at_client[0].data), "response");
}

TEST(McTlsData, ReaderObservesPlaintext)
{
    ChainEnv env;
    auto infos = env.make_middleboxes(1);
    env.client = std::make_unique<Session>(
        env.client_config(infos, {ctx_row(1, "data", 1, Permission::read)}));
    env.server = std::make_unique<Session>(env.server_config());
    auto mcfg = env.mbox_config(0);
    Bytes seen;
    mcfg.observe = [&](uint8_t ctx, Direction, ConstBytes payload) {
        EXPECT_EQ(ctx, 1);
        append(seen, payload);
    };
    env.mboxes.push_back(std::make_unique<MiddleboxSession>(mcfg));
    env.handshake();
    ASSERT_TRUE(env.all_complete());

    ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("visible to reader")).ok());
    env.pump();
    EXPECT_EQ(bytes_to_str(seen), "visible to reader");
    EXPECT_EQ(env.mboxes[0]->records_read(), 1u);
}

TEST(McTlsData, NoAccessMiddleboxForwardsBlind)
{
    ChainEnv env;
    auto infos = env.make_middleboxes(1);
    env.client = std::make_unique<Session>(
        env.client_config(infos, {ctx_row(1, "private", 1, Permission::none)}));
    env.server = std::make_unique<Session>(env.server_config());
    auto mcfg = env.mbox_config(0);
    bool observed = false;
    mcfg.observe = [&](uint8_t, Direction, ConstBytes) { observed = true; };
    env.mboxes.push_back(std::make_unique<MiddleboxSession>(mcfg));
    env.handshake();
    ASSERT_TRUE(env.all_complete());

    ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("secret")).ok());
    env.pump();
    auto at_server = env.server->take_app_data();
    ASSERT_EQ(at_server.size(), 1u);
    EXPECT_EQ(bytes_to_str(at_server[0].data), "secret");
    EXPECT_FALSE(observed);
    EXPECT_EQ(env.mboxes[0]->records_forwarded_blind(), 1u);
    EXPECT_EQ(env.mboxes[0]->permission(1), Permission::none);
}

TEST(McTlsData, WriterModifiesAndEndpointDetectsLegalChange)
{
    ChainEnv env;
    auto infos = env.make_middleboxes(1);
    env.client = std::make_unique<Session>(
        env.client_config(infos, {ctx_row(1, "body", 1, Permission::write)}));
    env.server = std::make_unique<Session>(env.server_config());
    auto mcfg = env.mbox_config(0);
    mcfg.transform = [](uint8_t, Direction, Bytes payload) {
        std::string s = bytes_to_str(payload);
        for (auto& c : s) c = static_cast<char>(toupper(c));
        return str_to_bytes(s);
    };
    env.mboxes.push_back(std::make_unique<MiddleboxSession>(mcfg));
    env.handshake();
    ASSERT_TRUE(env.all_complete());

    ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("compress me")).ok());
    env.pump();
    auto at_server = env.server->take_app_data();
    ASSERT_EQ(at_server.size(), 1u);
    EXPECT_EQ(bytes_to_str(at_server[0].data), "COMPRESS ME");
    EXPECT_FALSE(at_server[0].from_endpoint);  // endpoint detects legal change
    EXPECT_EQ(env.mboxes[0]->records_rewritten(), 1u);
}

TEST(McTlsData, ReadOnlyMiddleboxCannotForgeUndetected)
{
    // A read-only middlebox maliciously rewriting records: endpoints reject.
    ChainEnv env;
    auto infos = env.make_middleboxes(1);
    env.client = std::make_unique<Session>(
        env.client_config(infos, {ctx_row(1, "data", 1, Permission::read)}));
    env.server = std::make_unique<Session>(env.server_config());
    auto mcfg = env.mbox_config(0);
    env.mboxes.push_back(std::make_unique<MiddleboxSession>(mcfg));
    env.handshake();
    ASSERT_TRUE(env.all_complete());

    ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("please read only")).ok());
    // Intercept the record between client and middlebox and let the
    // *middlebox itself* try to tamper: model as on-wire corruption of the
    // reader-forwarded fragment.
    auto units = env.client->take_write_units();
    ASSERT_EQ(units.size(), 1u);
    ASSERT_TRUE(env.mboxes[0]->feed_from_client(units[0]).ok());
    auto forwarded = env.mboxes[0]->take_to_server();
    ASSERT_EQ(forwarded.size(), 1u);
    Bytes tampered = forwarded[0];
    tampered[tampered.size() - 1] ^= 1;
    EXPECT_FALSE(env.server->feed(tampered).ok());
    EXPECT_TRUE(env.server->failed());
}

TEST(McTlsData, MultipleContextsInterleaved)
{
    ChainEnv env;
    env.build(1, {ctx_row(1, "headers", 1, Permission::read),
                  ctx_row(2, "body", 1, Permission::none)});
    env.handshake();
    ASSERT_TRUE(env.all_complete());

    ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("hdr1")).ok());
    ASSERT_TRUE(env.client->send_app_data(2, str_to_bytes("body1")).ok());
    ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("hdr2")).ok());
    env.pump();
    auto chunks = env.server->take_app_data();
    ASSERT_EQ(chunks.size(), 3u);
    EXPECT_EQ(chunks[0].context_id, 1);
    EXPECT_EQ(bytes_to_str(chunks[0].data), "hdr1");
    EXPECT_EQ(chunks[1].context_id, 2);
    EXPECT_EQ(bytes_to_str(chunks[1].data), "body1");
    EXPECT_EQ(chunks[2].context_id, 1);
    EXPECT_EQ(bytes_to_str(chunks[2].data), "hdr2");
}

TEST(McTlsData, LargePayloadFragmentsAcrossRecords)
{
    ChainEnv env;
    env.build(1, {ctx_row(1, "data", 1, Permission::read)});
    env.handshake();
    ASSERT_TRUE(env.all_complete());
    Bytes big = env.rng.bytes(60000);
    ASSERT_TRUE(env.client->send_app_data(1, big).ok());
    env.pump();
    auto chunks = env.server->take_app_data();
    EXPECT_GT(chunks.size(), 1u);
    Bytes got;
    for (auto& c : chunks) append(got, c.data);
    EXPECT_EQ(got, big);
}

TEST(McTlsHandshake, ClientKeyDistributionMode)
{
    ChainEnv env;
    env.build(1, {ctx_row(1, "data", 1, Permission::write)}, /*ckd=*/true);
    env.handshake();
    ASSERT_TRUE(env.all_complete());
    EXPECT_TRUE(env.client->client_key_distribution());
    EXPECT_TRUE(env.server->client_key_distribution());

    ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("over ckd")).ok());
    env.pump();
    auto chunks = env.server->take_app_data();
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(bytes_to_str(chunks[0].data), "over ckd");
}

TEST(McTlsHandshake, ServerPolicyDowngradesPermissions)
{
    // Online-banking scenario (§4.2): server denies everything.
    ChainEnv env;
    PermissionPolicy deny = [](const MiddleboxInfo&, const ContextDescription&, Permission) {
        return Permission::none;
    };
    env.build(1, {ctx_row(1, "account-data", 1, Permission::write)}, false, deny);
    env.handshake();
    ASSERT_TRUE(env.client->handshake_complete()) << env.client->error();
    ASSERT_TRUE(env.server->handshake_complete()) << env.server->error();
    // The middlebox never receives a usable key half from the server.
    EXPECT_EQ(env.mboxes[0]->permission(1), Permission::none);
    EXPECT_EQ(env.server->granted_permission(0, 1), Permission::none);

    // Data still flows end-to-end; the middlebox forwards blind.
    ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("balance: $42")).ok());
    env.pump();
    auto chunks = env.server->take_app_data();
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(bytes_to_str(chunks[0].data), "balance: $42");
    EXPECT_EQ(env.mboxes[0]->records_forwarded_blind(), 1u);
}

TEST(McTlsHandshake, UntrustedMiddleboxRejectedByClient)
{
    ChainEnv env;
    auto infos = env.make_middleboxes(1);
    env.client = std::make_unique<Session>(
        env.client_config(infos, {ctx_row(1, "data", 1, Permission::read)}));
    env.server = std::make_unique<Session>(env.server_config());
    // Middlebox presents a certificate from an unknown CA.
    TestRng rogue_rng{555};
    pki::Authority rogue{"Rogue CA", rogue_rng};
    pki::Identity fake = rogue.issue(infos[0].name, rogue_rng);
    auto mcfg = env.mbox_config(0);
    mcfg.chain = {fake.certificate};
    mcfg.private_key = fake.private_key;
    env.mboxes.push_back(std::make_unique<MiddleboxSession>(mcfg));
    env.handshake();
    EXPECT_TRUE(env.client->failed());
    EXPECT_FALSE(env.client->handshake_complete());
}

TEST(McTlsHandshake, MiddleboxNotInListFails)
{
    ChainEnv env;
    auto infos = env.make_middleboxes(1);
    env.client = std::make_unique<Session>(
        env.client_config(infos, {ctx_row(1, "data", 1, Permission::read)}));
    env.server = std::make_unique<Session>(env.server_config());
    auto mcfg = env.mbox_config(0);
    mcfg.name = "imposter.evil.net";
    env.mboxes.push_back(std::make_unique<MiddleboxSession>(mcfg));
    env.handshake();
    EXPECT_TRUE(env.mboxes[0]->failed());
    EXPECT_FALSE(env.client->handshake_complete());
}

TEST(McTlsHandshake, TamperedHandshakeDetected)
{
    ChainEnv env;
    env.build(0, {ctx_row(1, "data", 0, Permission::none)});
    env.client->start();
    auto hello = env.client->take_write_units();
    ASSERT_EQ(hello.size(), 1u);
    ASSERT_TRUE(env.server->feed(hello[0]).ok());
    auto flight = env.server->take_write_units();
    ASSERT_EQ(flight.size(), 1u);
    Bytes tampered = flight[0];
    tampered[tampered.size() / 2] ^= 1;
    (void)env.client->feed(tampered);
    EXPECT_TRUE(env.client->failed());
}

TEST(McTlsHandshake, InvalidConfigsThrow)
{
    ChainEnv env;
    auto cfg = env.client_config({}, {});
    EXPECT_THROW(Session{cfg}, std::invalid_argument);  // no contexts

    ContextDescription bad;
    bad.id = kControlContext;
    bad.permissions = {};
    auto cfg2 = env.client_config({}, {bad});
    EXPECT_THROW(Session{cfg2}, std::invalid_argument);  // reserved id

    auto cfg3 = env.client_config({}, {ctx_row(1, "x", 3, Permission::read)});
    EXPECT_THROW(Session{cfg3}, std::invalid_argument);  // row size mismatch

    auto cfg4 = env.client_config({}, {ctx_row(2, "x", 0, Permission::none),
                                       ctx_row(2, "y", 0, Permission::none)});
    EXPECT_THROW(Session{cfg4}, std::invalid_argument);  // one id twice
}

TEST(McTlsHandshake, HandshakeByteAccountingGrowsWithMiddleboxes)
{
    uint64_t bytes_0, bytes_2;
    {
        ChainEnv env;
        env.build(0, {ctx_row(1, "d", 0, Permission::none)});
        env.handshake();
        ASSERT_TRUE(env.all_complete());
        bytes_0 = env.client->handshake_wire_bytes();
    }
    {
        ChainEnv env;
        env.build(2, {ctx_row(1, "d", 2, Permission::write)});
        env.handshake();
        ASSERT_TRUE(env.all_complete());
        bytes_2 = env.client->handshake_wire_bytes();
    }
    EXPECT_GT(bytes_2, bytes_0 + 500);  // bundles + key material per middlebox
}

TEST(McTlsData, ThreeMacOverheadPerRecord)
{
    ChainEnv env;
    env.build(0, {ctx_row(1, "d", 0, Permission::none)});
    env.handshake();
    ASSERT_TRUE(env.client->send_app_data(1, Bytes(1000, 'x')).ok());
    env.pump();
    // Header(6) + IV(16) + 3 MACs(96) + padding.
    EXPECT_GE(env.client->app_overhead_bytes(), 6u + 16 + 96 + 1);
    EXPECT_LE(env.client->app_overhead_bytes(), 6u + 16 + 96 + 16);
}

}  // namespace
}  // namespace mct::mctls
