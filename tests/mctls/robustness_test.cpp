// Deterministic fuzz-style robustness: every parser and session entry point
// must survive arbitrary malformed input without crashing, hanging, or
// completing a handshake it should not.
#include <gtest/gtest.h>

#include "http/message.h"
#include "mctls/messages.h"
#include "mctls/types.h"
#include "pki/certificate.h"
#include "tests/mctls/harness.h"
#include "tls/record.h"

namespace mct::mctls {
namespace {

using test::ChainEnv;
using test::ctx_row;

TEST(Robustness, RandomBytesIntoEverySessionRole)
{
    TestRng rng(1001);
    for (int trial = 0; trial < 50; ++trial) {
        ChainEnv env;
        env.build(1, {ctx_row(1, "d", 1, Permission::read)});
        Bytes garbage = rng.bytes(1 + rng.below(300));
        // Server, middlebox (both sides), and mid-handshake client all get
        // garbage; none may crash, none may complete.
        (void)env.server->feed(garbage);
        (void)env.mboxes[0]->feed_from_client(garbage);
        (void)env.mboxes[0]->feed_from_server(garbage);
        env.client->start();
        (void)env.client->feed(garbage);
        EXPECT_FALSE(env.server->handshake_complete());
        EXPECT_FALSE(env.client->handshake_complete());
    }
}

TEST(Robustness, BitflippedHandshakeNeverCompletesWrong)
{
    // Flip one byte anywhere in the first two flights; the handshake must
    // either fail or stall — never complete with mismatched transcripts.
    TestRng rng(1002);
    for (int trial = 0; trial < 30; ++trial) {
        ChainEnv env;
        env.build(0, {ctx_row(1, "d", 0, Permission::none)});
        env.client->start();
        auto hello = env.client->take_write_units();
        ASSERT_EQ(hello.size(), 1u);
        Bytes mutated = hello[0];
        // Skip the 6-byte record header: its context-id byte is meaningless
        // (and so unauthenticated) for plaintext handshake records, exactly
        // like TLS record headers before CCS. Everything from the handshake
        // message onward is transcript-protected.
        size_t offset = 6 + rng.below(mutated.size() - 6);
        mutated[offset] ^= static_cast<uint8_t>(1 + rng.below(255));
        (void)env.server->feed(mutated);
        env.pump();
        // Either side completing implies both verified identical transcripts,
        // impossible after the flip (the client hashed the original).
        EXPECT_FALSE(env.client->handshake_complete() &&
                     env.server->handshake_complete());
    }
}

TEST(Robustness, TruncationSweepOfServerFlight)
{
    // Deliver every prefix of the server's first flight: the client must
    // wait (incomplete) or fail (malformed), never crash or complete.
    ChainEnv env;
    env.build(0, {ctx_row(1, "d", 0, Permission::none)});
    env.client->start();
    auto hello = env.client->take_write_units();
    (void)env.server->feed(hello[0]);
    auto flight = env.server->take_write_units();
    ASSERT_EQ(flight.size(), 1u);

    for (size_t cut = 0; cut < flight[0].size(); cut += 13) {
        ChainEnv fresh;
        fresh.build(0, {ctx_row(1, "d", 0, Permission::none)});
        fresh.client->start();
        fresh.client->take_write_units();
        (void)fresh.client->feed(ConstBytes{flight[0]}.subspan(0, cut));
        EXPECT_FALSE(fresh.client->handshake_complete());
    }
}

TEST(Robustness, ParsersRejectRandomInput)
{
    TestRng rng(1003);
    for (int trial = 0; trial < 200; ++trial) {
        Bytes junk = rng.bytes(rng.below(200));
        (void)MiddleboxListExtension::parse(junk);
        (void)ServerModeExtension::parse(junk);
        (void)MiddleboxHello::parse(junk);
        (void)MiddleboxKeyExchange::parse(junk);
        (void)MiddleboxKeyMaterial::parse(junk);
        (void)parse_middlebox_material(junk);
        (void)parse_endpoint_material(junk);
        (void)ContextKeys::parse(junk);
        (void)pki::Certificate::parse(junk);
        // HTTP parsers (never throw; incremental).
        http::RequestParser rp;
        rp.feed(junk);
        (void)rp.next();
        http::ResponseParser sp;
        sp.feed(junk);
        (void)sp.next();
    }
    SUCCEED();  // reaching here without UB/crash is the assertion
}

TEST(Robustness, ExtensionRoundTripWithExtremes)
{
    MiddleboxListExtension ext;
    for (int i = 0; i < 20; ++i)
        ext.middleboxes.push_back({"very-long-middlebox-name-" + std::to_string(i) +
                                       std::string(100, 'x'),
                                   "addr" + std::to_string(i)});
    for (int c = 1; c <= 50; ++c) {
        ContextDescription ctx;
        ctx.id = static_cast<uint8_t>(c);
        ctx.purpose = std::string(80, 'p');
        ctx.permissions.assign(20, Permission::write);
        ext.contexts.push_back(std::move(ctx));
    }
    auto parsed = MiddleboxListExtension::parse(ext.serialize());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().middleboxes.size(), 20u);
    EXPECT_EQ(parsed.value().contexts.size(), 50u);
}

// A party keeps one entry per context id, so a list naming one id twice
// has no meaning and is refused at parse.
TEST(Robustness, ExtensionWithRepeatedContextIdRejected)
{
    MiddleboxListExtension ext;
    ext.middleboxes.push_back({"m", "m"});
    for (uint8_t id : {4, 7, 4}) {
        ContextDescription ctx;
        ctx.id = id;
        ctx.permissions.assign(1, Permission::read);
        ext.contexts.push_back(std::move(ctx));
    }
    auto parsed = MiddleboxListExtension::parse(ext.serialize());
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().message, "mctls: duplicate context id");
    ext.contexts.pop_back();
    EXPECT_TRUE(MiddleboxListExtension::parse(ext.serialize()).ok());
}

TEST(Robustness, RecordStreamInterleavedWithGarbageFailsNotCrashes)
{
    ChainEnv env;
    env.build(0, {ctx_row(1, "d", 0, Permission::none)});
    env.handshake();
    ASSERT_TRUE(env.all_complete());
    ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("good")).ok());
    auto units = env.client->take_write_units();
    Bytes stream = units[0];
    append(stream, Bytes{0xde, 0xad, 0xbe, 0xef, 0x00, 0x00});
    (void)env.server->feed(stream);
    // The good record landed before the garbage killed the session.
    EXPECT_EQ(env.server->take_app_data().size(), 1u);
    EXPECT_TRUE(env.server->failed());
}

TEST(Robustness, DuplicateChangeCipherSpecIsFatal)
{
    // Each endpoint receives exactly one CCS per handshake. A replayed or
    // injected second one is an unexpected_message failure, as in baseline
    // TLS, not something to swallow on an established session.
    ChainEnv env;
    env.build(1, {ctx_row(1, "d", 1, Permission::read)});
    env.handshake();
    ASSERT_TRUE(env.all_complete());
    tls::RecordCodec codec(/*with_context_id=*/true);
    Bytes ccs = codec.encode({tls::ContentType::change_cipher_spec, kControlContext, Bytes{1}});
    for (Session* s : {env.client.get(), env.server.get()}) {
        EXPECT_FALSE(s->feed(ccs).ok());
        EXPECT_TRUE(s->failed());
        EXPECT_EQ(s->failure().origin, tls::SessionError::Origin::local);
        EXPECT_EQ(s->failure().alert, tls::AlertDescription::unexpected_message);
        ASSERT_TRUE(s->alert_sent().has_value());
        EXPECT_EQ(s->alert_sent()->description, tls::AlertDescription::unexpected_message);
    }
}

}  // namespace
}  // namespace mct::mctls
