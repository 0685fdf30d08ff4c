#include "mctls/context_crypto.h"

#include <gtest/gtest.h>

#include <deque>

#include "util/rng.h"

namespace mct::mctls {
namespace {

struct CryptoFixture : ::testing::Test {
    TestRng rng{111};
    Bytes rand_c = rng.bytes(32);
    Bytes rand_s = rng.bytes(32);
    EndpointKeys endpoint = derive_endpoint_keys(rng.bytes(48), rand_c, rand_s);
    ContextKeys ctx = derive_context_keys_ckd(rng.bytes(48), rand_c, rand_s, 1);

    ContextKeys reader_view() const
    {
        ContextKeys view = ctx;
        view.writer_mac[0].clear();
        view.writer_mac[1].clear();
        return view;
    }

    // Opens under a fresh scratch each; the returned views stay valid while
    // the fixture lives.
    Result<EndpointOpenView> open_endpoint(const ContextKeys& keys, Direction dir, uint64_t seq,
                                           uint8_t context_id, ConstBytes frag)
    {
        return open_record_endpoint(keys, endpoint, dir, seq, context_id, frag,
                                    scratches.emplace_back());
    }
    Result<WriterOpenView> open_writer(const ContextKeys& keys, Direction dir, uint64_t seq,
                                       uint8_t context_id, ConstBytes frag)
    {
        return open_record_writer(keys, dir, seq, context_id, frag, scratches.emplace_back());
    }
    Result<ConstBytes> open_reader(const ContextKeys& keys, Direction dir, uint64_t seq,
                                   uint8_t context_id, ConstBytes frag)
    {
        return open_record_reader(keys, dir, seq, context_id, frag, scratches.emplace_back());
    }
    Bytes reseal(const ContextKeys& keys, ConstBytes payload, ConstBytes endpoint_mac)
    {
        Bytes out;
        reseal_record_writer_into(keys, Direction::client_to_server, 0, 1, payload, endpoint_mac,
                                  rng, out);
        return out;
    }

    std::deque<RecordScratch> scratches;  // deque: growth never moves a scratch
};

TEST_F(CryptoFixture, EndpointRoundTrip)
{
    Bytes payload = str_to_bytes("hello contexts");
    Bytes frag = seal_record(ctx, endpoint, Direction::client_to_server, 0, 1, payload, rng);
    auto open = open_endpoint(ctx, Direction::client_to_server, 0, 1, frag);
    ASSERT_TRUE(open.ok()) << open.error().message;
    EXPECT_EQ(to_bytes(open.value().payload), payload);
    EXPECT_TRUE(open.value().from_endpoint);
}

TEST_F(CryptoFixture, ReaderCanReadAndDetectThirdParty)
{
    Bytes payload = str_to_bytes("data");
    Bytes frag = seal_record(ctx, endpoint, Direction::client_to_server, 5, 1, payload, rng);
    auto read = open_reader(reader_view(), Direction::client_to_server, 5, 1, frag);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(to_bytes(read.value()), payload);

    // Corrupt the first ciphertext block (after the 16-byte IV): the payload
    // plaintext garbles and the reader MAC no longer matches.
    Bytes tampered = frag;
    tampered[17] ^= 1;
    EXPECT_FALSE(
        open_reader(reader_view(), Direction::client_to_server, 5, 1, tampered).ok());

    // Flipping an IV bit here only perturbs endpoint-MAC bytes (payload is 4
    // bytes; the rest of plaintext block 0 is MAC material). The payload is
    // intact and the writer MAC verifies, so the endpoint accepts the data —
    // but it can no longer attribute it to the peer endpoint. This mirrors a
    // limit of the paper's scheme: a third party can make endpoint-original
    // data *look* writer-modified, though it cannot alter the content.
    Bytes iv_flip = frag;
    iv_flip[8] ^= 1;
    auto open = open_endpoint(ctx, Direction::client_to_server, 5, 1, iv_flip);
    ASSERT_TRUE(open.ok());
    EXPECT_FALSE(open.value().from_endpoint);
    EXPECT_EQ(to_bytes(open.value().payload), payload);
}

TEST_F(CryptoFixture, WriterModificationFlow)
{
    Bytes payload = str_to_bytes("original content");
    Bytes frag = seal_record(ctx, endpoint, Direction::client_to_server, 0, 1, payload, rng);

    // Writer opens, modifies, reseals (forwarding the endpoint MAC).
    auto opened = open_writer(ctx, Direction::client_to_server, 0, 1, frag);
    ASSERT_TRUE(opened.ok());
    Bytes new_payload = str_to_bytes("modified content!");
    Bytes resealed = reseal(ctx, new_payload, opened.value().endpoint_mac);

    // Receiving endpoint: writer MAC valid, endpoint MAC mismatch flags the
    // legal modification.
    auto open = open_endpoint(ctx, Direction::client_to_server, 0, 1, resealed);
    ASSERT_TRUE(open.ok()) << open.error().message;
    EXPECT_EQ(to_bytes(open.value().payload), new_payload);
    EXPECT_FALSE(open.value().from_endpoint);

    // A reader downstream of the writer still verifies.
    auto read = open_reader(reader_view(), Direction::client_to_server, 0, 1, resealed);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(to_bytes(read.value()), new_payload);
}

TEST_F(CryptoFixture, ReaderForgeryDetectedByEndpointAndWriter)
{
    // A reader (no writer key) re-seals modified data: it can only produce
    // a valid reader MAC, so writers and endpoints must reject it.
    Bytes payload = str_to_bytes("legit");
    Bytes frag = seal_record(ctx, endpoint, Direction::client_to_server, 0, 1, payload, rng);
    auto opened = open_writer(ctx, Direction::client_to_server, 0, 1, frag);
    ASSERT_TRUE(opened.ok());

    // Simulate the rogue reader: it holds K_readers but not K_writers, so
    // model it as resealing with a wrong (zeroed) writer key.
    Bytes forged_payload = str_to_bytes("evil!");
    ContextKeys rogue = ctx;
    rogue.writer_mac[0] = Bytes(32, 0);
    rogue.writer_mac[1] = Bytes(32, 0);
    Bytes forged = reseal(rogue, forged_payload, opened.value().endpoint_mac);

    // Writers and endpoints detect the illegal modification...
    EXPECT_FALSE(open_writer(ctx, Direction::client_to_server, 0, 1, forged).ok());
    EXPECT_FALSE(
        open_endpoint(ctx, Direction::client_to_server, 0, 1, forged).ok());
    // ...but other readers cannot (the §3.4 caveat: readers cannot police
    // readers, because they share K_readers).
    EXPECT_TRUE(open_reader(reader_view(), Direction::client_to_server, 0, 1, forged).ok());
}

TEST_F(CryptoFixture, SequenceNumberBindsRecord)
{
    Bytes frag = seal_record(ctx, endpoint, Direction::client_to_server, 7, 1,
                             str_to_bytes("x"), rng);
    EXPECT_TRUE(open_endpoint(ctx, Direction::client_to_server, 7, 1, frag).ok());
    EXPECT_FALSE(
        open_endpoint(ctx, Direction::client_to_server, 8, 1, frag).ok());
}

TEST_F(CryptoFixture, ContextIdBindsRecord)
{
    Bytes frag = seal_record(ctx, endpoint, Direction::client_to_server, 0, 1,
                             str_to_bytes("x"), rng);
    EXPECT_FALSE(
        open_endpoint(ctx, Direction::client_to_server, 0, 2, frag).ok());
}

TEST_F(CryptoFixture, DirectionBindsRecord)
{
    Bytes frag = seal_record(ctx, endpoint, Direction::client_to_server, 0, 1,
                             str_to_bytes("x"), rng);
    EXPECT_FALSE(
        open_endpoint(ctx, Direction::server_to_client, 0, 1, frag).ok());
}

TEST_F(CryptoFixture, NoReadAccessNoDecrypt)
{
    ContextKeys none;
    Bytes frag = seal_record(ctx, endpoint, Direction::client_to_server, 0, 1,
                             str_to_bytes("secret"), rng);
    EXPECT_FALSE(open_reader(none, Direction::client_to_server, 0, 1, frag).ok());
}

TEST_F(CryptoFixture, WrongContextKeysFail)
{
    TestRng other_rng{112};
    ContextKeys other = derive_context_keys_ckd(other_rng.bytes(48), rand_c, rand_s, 1);
    Bytes frag = seal_record(ctx, endpoint, Direction::client_to_server, 0, 1,
                             str_to_bytes("x"), rng);
    EXPECT_FALSE(open_reader(other, Direction::client_to_server, 0, 1, frag).ok());
}

TEST_F(CryptoFixture, EmptyPayloadRoundTrip)
{
    Bytes frag = seal_record(ctx, endpoint, Direction::client_to_server, 0, 1, {}, rng);
    auto open = open_endpoint(ctx, Direction::client_to_server, 0, 1, frag);
    ASSERT_TRUE(open.ok());
    EXPECT_TRUE(open.value().payload.empty());
    EXPECT_TRUE(open.value().from_endpoint);
}

TEST_F(CryptoFixture, TruncatedFragmentRejected)
{
    Bytes frag = seal_record(ctx, endpoint, Direction::client_to_server, 0, 1,
                             str_to_bytes("payload"), rng);
    EXPECT_FALSE(open_endpoint(ctx, Direction::client_to_server, 0, 1,
                                      ConstBytes{frag}.subspan(0, 32))
                     .ok());
}

}  // namespace
}  // namespace mct::mctls
