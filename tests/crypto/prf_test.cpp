#include "crypto/prf.h"

#include <gtest/gtest.h>

#include <string_view>

#include "crypto/hmac.h"
#include "crypto/sha2.h"

namespace mct::crypto {
namespace {

TEST(Prf, Deterministic)
{
    Bytes secret = str_to_bytes("secret");
    Bytes seed = str_to_bytes("seed");
    EXPECT_EQ(prf(secret, "label", seed, 48), prf(secret, "label", seed, 48));
}

TEST(Prf, OutputLengthHonored)
{
    Bytes secret = str_to_bytes("s");
    for (size_t len : {0u, 1u, 31u, 32u, 33u, 48u, 100u}) {
        EXPECT_EQ(prf(secret, "l", {}, len).size(), len);
    }
}

TEST(Prf, PrefixConsistency)
{
    // P_hash is a stream: a longer output must extend a shorter one.
    Bytes secret = str_to_bytes("secret");
    Bytes seed = str_to_bytes("seed");
    Bytes short_out = prf(secret, "key expansion", seed, 16);
    Bytes long_out = prf(secret, "key expansion", seed, 64);
    EXPECT_EQ(Bytes(long_out.begin(), long_out.begin() + 16), short_out);
}

TEST(Prf, LabelSeparation)
{
    Bytes secret = str_to_bytes("secret");
    Bytes seed = str_to_bytes("seed");
    EXPECT_NE(prf(secret, "master secret", seed, 48), prf(secret, "key expansion", seed, 48));
}

TEST(Prf, SeedSeparation)
{
    Bytes secret = str_to_bytes("secret");
    EXPECT_NE(prf(secret, "l", str_to_bytes("a"), 32), prf(secret, "l", str_to_bytes("b"), 32));
}

TEST(Prf, SecretSeparation)
{
    Bytes seed = str_to_bytes("seed");
    EXPECT_NE(prf(str_to_bytes("s1"), "l", seed, 32), prf(str_to_bytes("s2"), "l", seed, 32));
}

TEST(Prf, MatchesManualPSha256FirstBlock)
{
    // First 32 output bytes must equal HMAC(secret, A(1) || label || seed).
    Bytes secret = str_to_bytes("secret");
    Bytes seed = str_to_bytes("seed");
    Bytes label_seed = concat(str_to_bytes("test label"), seed);
    Bytes a1 = HmacSha256::mac(secret, label_seed);
    Bytes expected = HmacSha256::mac(secret, concat(a1, label_seed));
    EXPECT_EQ(prf(secret, "test label", seed, 32), expected);
}

// Pins the PRF stream across implementation changes: SHA-256 over the
// outputs of a grid of secret lengths (below, at and above the HMAC block
// size), labels, seed lengths and output lengths. The digest was computed
// with the allocating one-shot implementation this keyed overload replaced.
TEST(Prf, SeededGridMatchesPinnedDigest)
{
    Sha256 all;
    Bytes out;
    for (size_t secret_len : {0u, 32u, 48u, 64u, 65u, 100u}) {
        Bytes secret(secret_len);
        for (size_t i = 0; i < secret_len; ++i)
            secret[i] = static_cast<uint8_t>(0x11 * (i + 1) + secret_len);
        HmacKey key(secret);
        for (std::string_view label : {"", "k", "reader keys"}) {
            for (size_t seed_len = 0; seed_len <= 80; ++seed_len) {
                Bytes seed(seed_len);
                for (size_t i = 0; i < seed_len; ++i) seed[i] = static_cast<uint8_t>(31 * i + 7);
                for (size_t n = 0; n <= 200; ++n) {
                    out.assign(n, 0);
                    prf(key, label, seed, out);
                    all.update(out);
                }
            }
        }
    }
    EXPECT_EQ(to_hex(all.finish()),
              "c0b4489bcf028cbe9ac9ff062a0f35b5387ffcf002b6a6b7e3306cec48592e7e");
}

}  // namespace
}  // namespace mct::crypto
