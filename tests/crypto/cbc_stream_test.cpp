// CbcEncryptStream and the raw-decrypt / padding helpers behind the record
// fast path, plus empty-input edge cases (exercised under MCT_SANITIZE to
// catch zero-length memcpy/span UB).
#include <gtest/gtest.h>

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "util/rng.h"

namespace mct::crypto {
namespace {

TEST(CbcEncryptStream, MatchesOneShotEncryptAcrossSplits)
{
    TestRng keyrng(70);
    Bytes key = keyrng.bytes(16);
    Aes128 cipher(key);
    for (size_t len : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 100u, 1460u}) {
        Bytes pt = TestRng(len + 3).bytes(len);
        TestRng iv_a(5), iv_b(5), iv_c(5);
        Bytes oneshot;
        aes128_cbc_encrypt_into(cipher, pt, iv_a, oneshot);
        EXPECT_EQ(oneshot.size(), cbc_ciphertext_size(len)) << "len=" << len;

        Bytes streamed;
        {
            CbcEncryptStream enc(cipher, iv_b, streamed);
            enc.update(pt);
            enc.finish();
        }
        EXPECT_EQ(streamed, oneshot) << "len=" << len;

        // Split into uneven updates, including empty ones.
        Bytes split;
        {
            CbcEncryptStream enc(cipher, iv_c, split);
            size_t cut = len / 3;
            enc.update(ConstBytes{pt}.subspan(0, cut));
            enc.update({});
            enc.update(ConstBytes{pt}.subspan(cut));
            enc.finish();
        }
        EXPECT_EQ(split, oneshot) << "len=" << len;
    }
}

TEST(CbcEncryptStream, AppendsAfterExistingContent)
{
    TestRng rng(71);
    Bytes key = rng.bytes(16);
    Aes128 cipher(key);
    Bytes out = str_to_bytes("header");
    TestRng iv(9);
    CbcEncryptStream enc(cipher, iv, out);
    enc.update(str_to_bytes("body"));
    enc.finish();
    EXPECT_EQ(to_bytes(ConstBytes(out).subspan(0, 6)), str_to_bytes("header"));
    TestRng iv2(9);
    Bytes oneshot;
    aes128_cbc_encrypt_into(cipher, str_to_bytes("body"), iv2, oneshot);
    EXPECT_EQ(to_bytes(ConstBytes(out).subspan(6)), oneshot);
}

TEST(CbcDecrypt, RawIntoRoundTripAndLengthCheck)
{
    TestRng rng(72);
    Bytes key = rng.bytes(16);
    Aes128 cipher(key);
    Bytes pt = rng.bytes(50);
    Bytes ct;
    aes128_cbc_encrypt_into(cipher, pt, rng, ct);

    Bytes raw;
    ASSERT_TRUE(aes128_cbc_decrypt_raw_into(cipher, ct, raw));
    size_t pad = pkcs7_padding(raw);
    ASSERT_GT(pad, 0u);
    EXPECT_EQ(to_bytes(ConstBytes(raw).subspan(0, raw.size() - pad)), pt);

    Bytes keep = str_to_bytes("x");
    EXPECT_FALSE(aes128_cbc_decrypt_raw_into(cipher, ConstBytes(ct).subspan(1), keep));
    EXPECT_FALSE(aes128_cbc_decrypt_raw_into(cipher, ConstBytes(ct).subspan(0, 16), keep));
    EXPECT_EQ(keep, str_to_bytes("x"));  // untouched on length failure
}

TEST(CbcDecrypt, Pkcs7PaddingValidation)
{
    Bytes block(16, 16);
    EXPECT_EQ(pkcs7_padding(block), 16u);
    Bytes one(16, 0xaa);
    one.back() = 1;
    EXPECT_EQ(pkcs7_padding(one), 1u);
    Bytes zero(16, 0xaa);
    zero.back() = 0;
    EXPECT_EQ(pkcs7_padding(zero), 0u);  // 0 is never valid
    Bytes overlong(16, 0xaa);
    overlong.back() = 17;
    EXPECT_EQ(pkcs7_padding(overlong), 0u);
    Bytes mismatched(16, 0xaa);
    mismatched[14] = 3;
    mismatched[15] = 2;
    EXPECT_EQ(pkcs7_padding(mismatched), 0u);
    EXPECT_EQ(pkcs7_padding({}), 0u);  // empty input is invalid, not UB
}

TEST(CbcDecrypt, DecryptIntoFailureLeavesPrefixIntact)
{
    TestRng rng(73);
    Aes128 cipher(rng.bytes(16));
    const Bytes prefix = str_to_bytes("prefix");

    // Success appends the unpadded plaintext after the prefix.
    Bytes pt = rng.bytes(33);
    Bytes ct;
    aes128_cbc_encrypt_into(cipher, pt, rng, ct);
    Bytes out = prefix;
    auto n = aes128_cbc_decrypt_into(cipher, ct, out);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), pt.size());
    EXPECT_EQ(out, concat(prefix, pt));

    // Bad length: not IV plus a positive multiple of the block size.
    out = prefix;
    auto short_ct = aes128_cbc_decrypt_into(cipher, ConstBytes(ct).subspan(0, 16), out);
    ASSERT_FALSE(short_ct.ok());
    EXPECT_EQ(short_ct.error().message, "cbc: bad ciphertext length");
    EXPECT_EQ(out, prefix);
    auto ragged = aes128_cbc_decrypt_into(cipher, ConstBytes(ct).subspan(1), out);
    ASSERT_FALSE(ragged.ok());
    EXPECT_EQ(out, prefix);

    // Bad padding: IV || C1 of a one-block all-zero plaintext decrypts to a
    // block ending in 0x00, which is never valid PKCS#7.
    Bytes zeros_ct;
    aes128_cbc_encrypt_into(cipher, Bytes(16, 0), rng, zeros_ct);
    out = prefix;
    auto bad_pad = aes128_cbc_decrypt_into(cipher, ConstBytes(zeros_ct).subspan(0, 32), out);
    ASSERT_FALSE(bad_pad.ok());
    EXPECT_EQ(bad_pad.error().message, "cbc: bad padding");
    EXPECT_EQ(out, prefix);
}

TEST(EmptyInputs, EncryptDecryptEmptyPayload)
{
    TestRng rng(74);
    Aes128 cipher(rng.bytes(16));
    Bytes ct;
    aes128_cbc_encrypt_into(cipher, {}, rng, ct);
    EXPECT_EQ(ct.size(), 32u);  // IV + one padding block
    Bytes back;
    auto n = aes128_cbc_decrypt_into(cipher, ct, back);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 0u);
    EXPECT_TRUE(back.empty());
}

TEST(EmptyInputs, HmacStreamingWithEmptyUpdates)
{
    Bytes key = str_to_bytes("key");
    HmacSha256 h(key);
    h.update({});
    h.update(str_to_bytes("data"));
    h.update({});
    EXPECT_EQ(h.finish(), HmacSha256::mac(key, str_to_bytes("data")));

    // finish_tag returns the identical 32 bytes as finish.
    HmacSha256 h2(key);
    h2.update(str_to_bytes("data"));
    auto tag = h2.finish_tag();
    EXPECT_EQ(Bytes(tag.begin(), tag.end()), HmacSha256::mac(key, str_to_bytes("data")));

    // Empty key normalizes on the stack without reading a null span.
    EXPECT_EQ(HmacSha256::mac({}, {}).size(), 32u);
}

}  // namespace
}  // namespace mct::crypto
