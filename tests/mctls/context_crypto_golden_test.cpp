// Golden wire-byte pins for the mcTLS triple-MAC scheme, captured before the
// zero-copy fast path landed, plus append, error and zero-allocation checks
// for the *_into seals and scratch-based opens.
#include <gtest/gtest.h>

#include "crypto/ed25519.h"
#include "mctls/context_crypto.h"
#include "mctls/key_schedule.h"
#include "util/rng.h"

namespace mct::mctls {
namespace {

struct Fixture {
    Bytes rand_c, rand_s;
    EndpointKeys endpoint;
    ContextKeys ctx;

    Fixture()
    {
        TestRng keyrng(11);
        rand_c = keyrng.bytes(32);
        rand_s = keyrng.bytes(32);
        endpoint = derive_endpoint_keys(keyrng.bytes(48), rand_c, rand_s);
        ctx = derive_context_keys_ckd(keyrng.bytes(48), rand_c, rand_s, 1);
    }
};

TEST(ContextCryptoGolden, SealResealSignedWireBytes)
{
    Fixture f;
    TestRng ivrng(13);
    Bytes payload = str_to_bytes("the quick brown fox");
    Bytes sealed = seal_record(f.ctx, f.endpoint, Direction::client_to_server, 5, 1, payload, ivrng);
    EXPECT_EQ(to_hex(sealed),
              "c4ca37b7f8ad8aff5424e3deaf36a0718121e655d43a7436834d211e93b3ba0a"
              "1ecb518d79ca4c895859fd19a861aacf488082a1a166fcf5c79e0b8e7fe93308"
              "3bbda32be501a169b566ddff2eb65a8b7ec5fe4a4180d8dc1243d8d1bb24ad29"
              "6d82c63a2a0f0ee388f30fcd1ff249dc9a601e0eceb742d6b7496bedf1d88f29"
              "8d9bffd336f4b28d73fa050f0e260ae0");
    EXPECT_EQ(sealed.size(), sealed_record_size(payload.size()));

    RecordScratch scratch;
    auto opened = open_record_writer(f.ctx, Direction::client_to_server, 5, 1, sealed, scratch);
    ASSERT_TRUE(opened.ok());
    Bytes resealed;
    reseal_record_writer_into(f.ctx, Direction::client_to_server, 5, 1,
                              str_to_bytes("THE QUICK BROWN FOX"), opened.value().endpoint_mac,
                              ivrng, resealed);
    EXPECT_EQ(to_hex(resealed),
              "a202a2257a25f4c84aa578c52eef38736432efc7d81d959f49d9af4c10a6042a"
              "6e5d8aa80c808e1ed5500611c42f5325f7c9a3eb70ad6e4ef618ccfa3bd545c4"
              "84f8bac2824cee2712835b1dc049c7900f9f33fa58cc6c29f7b8cd3cf06648ad"
              "4672b857f5f0e9f70c6afce6c142e8ea8831416a16500d0043171178f0470385"
              "4a374871879f1600a14ede3f4b7ab3ad");

    TestRng edrng(17);
    auto signer = crypto::ed25519_keypair(edrng);
    EXPECT_EQ(to_hex(seal_record_signed(f.ctx, f.endpoint, Direction::client_to_server, 5, 1,
                                        payload, signer.private_key, ivrng)),
              "d10b2c9710f0f7635973d0e7375fd6240e536b3680c943a910ca503754dd1966"
              "bdafa7ef0a1bd2cba8f871a9c14a33082921015022d4bcecfc0f458b4e0bafb8"
              "7348b5c0e6257d1f97350c34947313d15d6f4baea2271e63381bc538f79cf119"
              "c8f83d8cac4f55e7eac9a7735ed08bd91c4804e1f0014c1b45dc408827b9087a"
              "a91bdb5e54420d6664a31755e2aeefb0fdb7d2b68c11ca6d2141e1989326a0ac"
              "48713ca7f42fe93c45dcbf02bf6ea9b007cff7abf8bf4c42399b29f44b906079"
              "b46eb349b5c5ce7051d98cd111d7efb2");
    EXPECT_EQ(to_hex(seal_record(f.ctx, f.endpoint, Direction::server_to_client, 0, 2, {}, ivrng)),
              "b9d34b092e6ad29764b73c80038a9e54abdb7caf7f0e5bc38fd462c8f631a5d2"
              "92ba586975946caf268616f431cc9574fe774d465e72c0a217c39fdb638e9779"
              "2081776ed6ef286bfefadabf983da41239fce058741d7044a362c5b582c139b5"
              "3f0c1ae70e2bfb632ff88846aab4c6ae86c2b8bb9ce1837ce9d9a493edfdb80a");
}

TEST(ContextCryptoGolden, IntoVariantsMatchOwningForms)
{
    Fixture f;
    Bytes payload = str_to_bytes("the quick brown fox jumps over the lazy dog");
    TestRng rng_a(13), rng_b(13);
    Bytes sealed = seal_record(f.ctx, f.endpoint, Direction::client_to_server, 5, 1, payload, rng_a);
    Bytes into = str_to_bytes("hdr");
    seal_record_into(f.ctx, f.endpoint, Direction::client_to_server, 5, 1, payload, rng_b, into);
    EXPECT_EQ(into, concat(str_to_bytes("hdr"), sealed));

    // Reseal appends after existing content, too.
    RecordScratch scratch;
    auto writer = open_record_writer(f.ctx, Direction::client_to_server, 5, 1, sealed, scratch);
    ASSERT_TRUE(writer.ok());
    Bytes resealed;
    reseal_record_writer_into(f.ctx, Direction::client_to_server, 5, 1, payload,
                              writer.value().endpoint_mac, rng_a, resealed);
    Bytes resealed_into = str_to_bytes("hdr");
    reseal_record_writer_into(f.ctx, Direction::client_to_server, 5, 1, payload,
                              writer.value().endpoint_mac, rng_b, resealed_into);
    EXPECT_EQ(resealed_into, concat(str_to_bytes("hdr"), resealed));
    EXPECT_EQ(resealed.size(), sealed_record_size(payload.size()));
}

TEST(ContextCryptoGolden, ScratchOpensReturnPayloadAndEndpointMac)
{
    Fixture f;
    TestRng ivrng(21);
    Bytes payload = TestRng(3).bytes(700);
    Bytes sealed = seal_record(f.ctx, f.endpoint, Direction::client_to_server, 9, 1, payload, ivrng);

    RecordScratch scratch;
    auto ep = open_record_endpoint(f.ctx, f.endpoint, Direction::client_to_server, 9, 1, sealed,
                                   scratch);
    ASSERT_TRUE(ep.ok());
    EXPECT_EQ(to_bytes(ep.value().payload), payload);
    EXPECT_TRUE(ep.value().from_endpoint);

    auto rd = open_record_reader(f.ctx, Direction::client_to_server, 9, 1, sealed, scratch);
    ASSERT_TRUE(rd.ok());
    EXPECT_EQ(to_bytes(rd.value()), payload);

    // The writer's endpoint MAC is the sender's: resealing the unchanged
    // payload with it still opens as endpoint-original.
    auto wr = open_record_writer(f.ctx, Direction::client_to_server, 9, 1, sealed, scratch);
    ASSERT_TRUE(wr.ok());
    EXPECT_EQ(to_bytes(wr.value().payload), payload);
    Bytes resealed;
    reseal_record_writer_into(f.ctx, Direction::client_to_server, 9, 1, payload,
                              wr.value().endpoint_mac, ivrng, resealed);
    EXPECT_EQ(scratch.records, 3u);
    RecordScratch downstream;
    auto again = open_record_endpoint(f.ctx, f.endpoint, Direction::client_to_server, 9, 1,
                                      resealed, downstream);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again.value().from_endpoint);
}

TEST(ContextCryptoGolden, ScratchSteadyStateIsAllocationFree)
{
    Fixture f;
    TestRng ivrng(33);
    RecordScratch scratch;
    // Warm up once at the largest payload we will open.
    Bytes big = seal_record(f.ctx, f.endpoint, Direction::client_to_server, 0, 1,
                            Bytes(1500, 0x5a), ivrng);
    ASSERT_TRUE(open_record_endpoint(f.ctx, f.endpoint, Direction::client_to_server, 0, 1, big,
                                     scratch)
                    .ok());
    uint64_t baseline = scratch.heap_allocations;
    for (uint64_t seq = 1; seq <= 200; ++seq) {
        Bytes sealed = seal_record(f.ctx, f.endpoint, Direction::client_to_server, seq, 1,
                                   Bytes(1460, uint8_t(seq)), ivrng);
        auto opened = open_record_endpoint(f.ctx, f.endpoint, Direction::client_to_server, seq, 1,
                                           sealed, scratch);
        ASSERT_TRUE(opened.ok());
    }
    EXPECT_EQ(scratch.records, 201u);
    EXPECT_EQ(scratch.heap_allocations, baseline);  // zero allocations in steady state
}

TEST(ContextCryptoGolden, ScratchOpenErrorsNameTheFailedCheck)
{
    Fixture f;
    TestRng ivrng(44);
    Bytes sealed = seal_record(f.ctx, f.endpoint, Direction::client_to_server, 2, 1,
                               str_to_bytes("payload"), ivrng);
    RecordScratch scratch;
    Bytes tampered = sealed;
    tampered[sealed.size() - 1] ^= 1;
    auto writer = open_record_writer(f.ctx, Direction::client_to_server, 2, 1, tampered, scratch);
    ASSERT_FALSE(writer.ok());
    EXPECT_EQ(writer.error().message, "cbc: bad padding");

    // Wrong sequence number: the writer and reader MACs no longer match.
    auto w2 = open_record_writer(f.ctx, Direction::client_to_server, 3, 1, sealed, scratch);
    ASSERT_FALSE(w2.ok());
    EXPECT_EQ(w2.error().message, "mctls: illegal modification (writer MAC mismatch)");
    auto r2 = open_record_reader(f.ctx, Direction::client_to_server, 3, 1, sealed, scratch);
    ASSERT_FALSE(r2.ok());
    EXPECT_EQ(r2.error().message, "mctls: third-party modification (reader MAC mismatch)");

    auto short_frag = open_record_endpoint(f.ctx, f.endpoint, Direction::client_to_server, 2, 1,
                                           ConstBytes(sealed).subspan(0, 16), scratch);
    ASSERT_FALSE(short_frag.ok());
    EXPECT_EQ(short_frag.error().message, "cbc: bad ciphertext length");
}

}  // namespace
}  // namespace mct::mctls
