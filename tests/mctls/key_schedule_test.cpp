#include "mctls/key_schedule.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/hmac.h"

#include "util/rng.h"

namespace mct::mctls {
namespace {

struct KsFixture : ::testing::Test {
    TestRng rng{101};
    Bytes rand_c = rng.bytes(32);
    Bytes rand_s = rng.bytes(32);
    Bytes pre = rng.bytes(32);
};

TEST_F(KsFixture, SharedSecretDeterministic)
{
    EXPECT_EQ(derive_shared_secret(pre, rand_c, rand_s),
              derive_shared_secret(pre, rand_c, rand_s));
    EXPECT_EQ(derive_shared_secret(pre, rand_c, rand_s).size(), 48u);
}

TEST_F(KsFixture, SharedSecretDependsOnRandoms)
{
    Bytes other = rng.bytes(32);
    EXPECT_NE(derive_shared_secret(pre, rand_c, rand_s),
              derive_shared_secret(pre, other, rand_s));
    EXPECT_NE(derive_shared_secret(pre, rand_c, rand_s),
              derive_shared_secret(pre, rand_s, rand_c));  // order matters
}

TEST_F(KsFixture, PairwiseKeyShapes)
{
    Bytes secret = derive_shared_secret(pre, rand_c, rand_s);
    AuthEncKey key = derive_pairwise_key(secret, rand_c, rand_s);
    EXPECT_EQ(key.enc_key.size(), 16u);
    EXPECT_EQ(key.mac_key.size(), 32u);
    EXPECT_NE(key.enc_key, Bytes(16, 0));
}

TEST_F(KsFixture, EndpointKeysAllDistinct)
{
    Bytes secret = derive_shared_secret(pre, rand_c, rand_s);
    EndpointKeys keys = derive_endpoint_keys(secret, rand_c, rand_s);
    EXPECT_TRUE(keys.valid());
    EXPECT_NE(keys.record_mac[0], keys.record_mac[1]);
    EXPECT_NE(keys.control_enc[0], keys.control_enc[1]);
    EXPECT_NE(keys.key_material.enc_key, keys.control_enc[0]);
    EXPECT_EQ(keys.record_mac[0].size(), 32u);
    EXPECT_EQ(keys.control_enc[0].size(), 16u);
}

TEST_F(KsFixture, PartialKeysVaryByContext)
{
    Bytes secret = rng.bytes(32);
    auto p1 = derive_partial_keys(secret, rand_c, 1);
    auto p2 = derive_partial_keys(secret, rand_c, 2);
    EXPECT_NE(p1.reader_half, p2.reader_half);
    EXPECT_NE(p1.reader_half, p1.writer_half);
    EXPECT_EQ(p1.reader_half.size(), 32u);
}

TEST_F(KsFixture, CombineIsSymmetricInputsSensitive)
{
    Bytes sc = rng.bytes(32), ss = rng.bytes(32);
    auto client_half = derive_partial_keys(sc, rand_c, 1);
    auto server_half = derive_partial_keys(ss, rand_s, 1);
    ContextKeys a = combine_context_keys(client_half, server_half, rand_c, rand_s);
    ContextKeys b = combine_context_keys(client_half, server_half, rand_c, rand_s);
    EXPECT_EQ(a.reader_enc[0], b.reader_enc[0]);
    EXPECT_EQ(a.writer_mac[1], b.writer_mac[1]);

    // A different server half must change every derived key (consent!).
    auto other_half = derive_partial_keys(rng.bytes(32), rand_s, 1);
    ContextKeys c = combine_context_keys(client_half, other_half, rand_c, rand_s);
    EXPECT_NE(a.reader_enc[0], c.reader_enc[0]);
    EXPECT_NE(a.reader_mac[0], c.reader_mac[0]);
}

TEST_F(KsFixture, ReaderAndWriterKeysIndependent)
{
    // Same reader halves, different writer halves: reader keys unchanged,
    // writer keys change.
    Bytes sc = rng.bytes(32), ss = rng.bytes(32);
    auto ch = derive_partial_keys(sc, rand_c, 1);
    auto sh = derive_partial_keys(ss, rand_s, 1);
    auto sh2 = sh;
    std::ranges::copy(rng.bytes(32), sh2.writer_half.begin());
    ContextKeys a = combine_context_keys(ch, sh, rand_c, rand_s);
    ContextKeys b = combine_context_keys(ch, sh2, rand_c, rand_s);
    EXPECT_EQ(a.reader_enc[0], b.reader_enc[0]);
    EXPECT_NE(a.writer_mac[0], b.writer_mac[0]);
}

TEST_F(KsFixture, ReaderOnlyCombineMatchesReaderKeysWithoutWriterKey)
{
    PartialContextKeys c = derive_partial_keys(rng.bytes(32), rand_c, 1);
    PartialContextKeys s = derive_partial_keys(rng.bytes(32), rand_s, 1);
    ContextKeys full = combine_context_keys(c, s, rand_c, rand_s);
    ContextKeys reader = combine_reader_keys(c.reader_half, s.reader_half, rand_c, rand_s);
    EXPECT_TRUE(reader.can_read());
    EXPECT_FALSE(reader.can_write());
    for (int d = 0; d < 2; ++d) {
        EXPECT_EQ(reader.reader_enc[d], full.reader_enc[d]);
        EXPECT_EQ(reader.reader_mac[d], full.reader_mac[d]);
        EXPECT_TRUE(reader.writer_mac[d].empty());
    }
}

TEST_F(KsFixture, OverwritingAKeyChangesTheKeyInUse)
{
    // Raw bytes and expanded state are one value: assigning new bytes
    // re-expands, clearing drops both (an empty key MACs as the empty key).
    auto tag = [](const crypto::MacKey& key) {
        crypto::HmacSha256 mac(key.expanded());
        mac.update(str_to_bytes("record"));
        return mac.finish();
    };
    ContextKeys keys = derive_context_keys_ckd(rng.bytes(48), rand_c, rand_s, 1);
    Bytes derived = tag(keys.writer_mac[0]);
    EXPECT_EQ(derived, crypto::HmacSha256::mac(keys.writer_mac[0].bytes(), str_to_bytes("record")));
    keys.writer_mac[0] = Bytes(32, 0);
    EXPECT_NE(tag(keys.writer_mac[0]), derived);
    EXPECT_EQ(tag(keys.writer_mac[0]),
              crypto::HmacSha256::mac(Bytes(32, 0), str_to_bytes("record")));
    keys.writer_mac[0].clear();
    EXPECT_TRUE(keys.writer_mac[0].empty());
    EXPECT_EQ(tag(keys.writer_mac[0]), crypto::HmacSha256::mac({}, str_to_bytes("record")));
}

TEST_F(KsFixture, ParseRejectsWrongSizeEncryptionKey)
{
    ContextKeys keys = derive_context_keys_ckd(rng.bytes(48), rand_c, rand_s, 1);
    Bytes wire = keys.serialize(false);
    ASSERT_TRUE(ContextKeys::parse(wire).ok());
    wire[1] = 15;  // first reader_enc length prefix: one byte short
    wire.erase(wire.begin() + 2);
    EXPECT_FALSE(ContextKeys::parse(wire).ok());
}

TEST_F(KsFixture, CkdKeysVaryByContext)
{
    Bytes secret = derive_shared_secret(pre, rand_c, rand_s);
    ContextKeys a = derive_context_keys_ckd(secret, rand_c, rand_s, 1);
    ContextKeys b = derive_context_keys_ckd(secret, rand_c, rand_s, 2);
    EXPECT_NE(a.reader_enc[0], b.reader_enc[0]);
    EXPECT_TRUE(a.can_read());
    EXPECT_TRUE(a.can_write());
}

TEST_F(KsFixture, ContextKeysSerializeRoundTripWriter)
{
    Bytes secret = derive_shared_secret(pre, rand_c, rand_s);
    ContextKeys keys = derive_context_keys_ckd(secret, rand_c, rand_s, 3);
    auto parsed = ContextKeys::parse(keys.serialize(/*writer=*/true));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().reader_enc[0], keys.reader_enc[0]);
    EXPECT_EQ(parsed.value().writer_mac[1], keys.writer_mac[1]);
    EXPECT_TRUE(parsed.value().can_write());
}

TEST_F(KsFixture, ContextKeysSerializeReadOnlyOmitsWriterKeys)
{
    Bytes secret = derive_shared_secret(pre, rand_c, rand_s);
    ContextKeys keys = derive_context_keys_ckd(secret, rand_c, rand_s, 3);
    auto parsed = ContextKeys::parse(keys.serialize(/*writer=*/false));
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(parsed.value().can_read());
    EXPECT_FALSE(parsed.value().can_write());
}

TEST_F(KsFixture, ContextKeysParseRejectsGarbage)
{
    EXPECT_FALSE(ContextKeys::parse(Bytes{0x01, 0x02}).ok());
    EXPECT_FALSE(ContextKeys::parse({}).ok());
}

TEST(DirectionTest, Opposite)
{
    EXPECT_EQ(opposite(Direction::client_to_server), Direction::server_to_client);
    EXPECT_EQ(opposite(Direction::server_to_client), Direction::client_to_server);
}

}  // namespace
}  // namespace mct::mctls
