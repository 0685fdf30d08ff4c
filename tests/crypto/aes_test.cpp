#include "crypto/aes.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace mct::crypto {
namespace {

// FIPS 197 Appendix C.1.
TEST(Aes128, Fips197Vector)
{
    Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
    Bytes pt = from_hex("00112233445566778899aabbccddeeff");
    Aes128 cipher(key);
    uint8_t ct[16];
    cipher.encrypt_block(pt.data(), ct);
    EXPECT_EQ(to_hex({ct, 16}), "69c4e0d86a7b0430d8cdb78070b4c55a");
    uint8_t back[16];
    cipher.decrypt_block(ct, back);
    EXPECT_EQ(Bytes(back, back + 16), pt);
}

TEST(Aes128, EncryptDecryptRoundTripRandomBlocks)
{
    TestRng rng(11);
    Bytes key = rng.bytes(16);
    Aes128 cipher(key);
    for (int i = 0; i < 50; ++i) {
        Bytes pt = rng.bytes(16);
        uint8_t ct[16], back[16];
        cipher.encrypt_block(pt.data(), ct);
        cipher.decrypt_block(ct, back);
        EXPECT_EQ(Bytes(back, back + 16), pt);
        EXPECT_NE(Bytes(ct, ct + 16), pt);
    }
}

// IV i = AES_K(be128(i)), K being the first 16 bytes drawn from the seed Rng.
TEST(IvSource, OutputIsAesOfBigEndianCounterUnderFirstDrawnKey)
{
    TestRng seed(31), replay(31);
    IvSource ivs(seed);
    Aes128 cipher(replay.bytes(16));
    EXPECT_EQ(seed.next(), replay.next());  // K is the only draw
    for (uint64_t i = 0; i < 300; ++i) {
        uint8_t counter[16] = {};
        for (int b = 0; b < 8; ++b) counter[15 - b] = static_cast<uint8_t>(i >> (8 * b));
        uint8_t expect[16];
        cipher.encrypt_block(counter, expect);
        uint8_t iv[16];
        ivs.fill(iv);
        ASSERT_EQ(to_hex({iv, 16}), to_hex({expect, 16})) << "i=" << i;
    }
}

// A fill of several blocks is the concatenation of single-block fills; a
// partial trailing block takes a prefix and consumes one counter value.
TEST(IvSource, MultiBlockAndPartialFillsFollowTheCounter)
{
    TestRng a(32), b(32);
    IvSource whole(a), pieces(b);
    Bytes run(48);
    whole.fill(run);
    Bytes got;
    for (int i = 0; i < 3; ++i) append(got, pieces.bytes(16));
    EXPECT_EQ(got, run);
    Bytes head = whole.bytes(5);
    Bytes next = pieces.bytes(16);
    EXPECT_EQ(head, Bytes(next.begin(), next.begin() + 5));
    EXPECT_EQ(whole.bytes(16), pieces.bytes(16));
}

TEST(Aes128, RejectsBadKeySize)
{
    EXPECT_THROW(Aes128(Bytes(15, 0)), std::invalid_argument);
    EXPECT_THROW(Aes128(Bytes(32, 0)), std::invalid_argument);
}

// One-shot helpers over the append-into CBC API.
Bytes cbc_encrypt(ConstBytes key, ConstBytes plaintext, Rng& rng)
{
    Bytes out;
    aes128_cbc_encrypt_into(Aes128(key), plaintext, rng, out);
    return out;
}

Result<Bytes> cbc_decrypt(ConstBytes key, ConstBytes iv_and_ciphertext)
{
    Bytes out;
    auto n = aes128_cbc_decrypt_into(Aes128(key), iv_and_ciphertext, out);
    if (!n) return n.error();
    EXPECT_EQ(n.value(), out.size());
    return out;
}

TEST(Cbc, RoundTripVariousLengths)
{
    TestRng rng(12);
    Bytes key = rng.bytes(16);
    for (size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 1000u}) {
        Bytes pt = rng.bytes(len);
        Bytes ct = cbc_encrypt(key, pt, rng);
        EXPECT_EQ(ct.size() % 16, 0u);
        EXPECT_EQ(ct.size(), cbc_ciphertext_size(len));  // IV + at least one padding byte
        auto back = cbc_decrypt(key, ct);
        ASSERT_TRUE(back.ok());
        EXPECT_EQ(back.value(), pt);
    }
}

TEST(Cbc, DistinctIvDistinctCiphertext)
{
    TestRng rng(13);
    Bytes key = rng.bytes(16);
    Bytes pt = str_to_bytes("same plaintext");
    Bytes c1 = cbc_encrypt(key, pt, rng);
    Bytes c2 = cbc_encrypt(key, pt, rng);
    EXPECT_NE(c1, c2);
}

TEST(Cbc, WrongKeyFailsOrGarbles)
{
    TestRng rng(14);
    Bytes key = rng.bytes(16);
    Bytes other = rng.bytes(16);
    Bytes pt = str_to_bytes("attack at dawn");
    Bytes ct = cbc_encrypt(key, pt, rng);
    auto back = cbc_decrypt(other, ct);
    if (back.ok()) {
        EXPECT_NE(back.value(), pt);
    }
}

TEST(Cbc, TruncatedCiphertextRejected)
{
    TestRng rng(15);
    Bytes key = rng.bytes(16);
    Bytes ct = cbc_encrypt(key, str_to_bytes("hello"), rng);
    EXPECT_FALSE(cbc_decrypt(key, ConstBytes{ct}.subspan(0, 16)).ok());
    EXPECT_FALSE(cbc_decrypt(key, ConstBytes{ct}.subspan(0, 17)).ok());
    EXPECT_FALSE(cbc_decrypt(key, {}).ok());
}

TEST(Cbc, BitFlipGarblesPlaintext)
{
    TestRng rng(16);
    Bytes key = rng.bytes(16);
    Bytes pt(64, 0x41);
    Bytes ct = cbc_encrypt(key, pt, rng);
    ct[20] ^= 0x01;
    auto back = cbc_decrypt(key, ct);
    if (back.ok()) {
        EXPECT_NE(back.value(), pt);
    }
}

}  // namespace
}  // namespace mct::crypto
