#include "crypto/ed25519.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "crypto/drbg.h"
#include "crypto/sha2.h"
#include "util/rng.h"

namespace mct::crypto {
namespace {

// The group order L, little-endian.
const char kLHex[] = "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010";

// RFC 8032 §7.1 TEST 1 (empty message).
TEST(Ed25519, Rfc8032Test1)
{
    Bytes seed = from_hex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
    Bytes expected_pub =
        from_hex("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a");
    EXPECT_EQ(ed25519_public_from_seed(seed), expected_pub);

    Bytes sig = ed25519_sign(seed, {});
    EXPECT_EQ(to_hex(sig),
              "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
              "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b");
    EXPECT_TRUE(ed25519_verify(expected_pub, {}, sig));
}

// RFC 8032 §7.1 TEST 2 (one-byte message 0x72).
TEST(Ed25519, Rfc8032Test2)
{
    Bytes seed = from_hex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
    Bytes pub = ed25519_public_from_seed(seed);
    EXPECT_EQ(to_hex(pub), "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c");
    Bytes msg{0x72};
    Bytes sig = ed25519_sign(seed, msg);
    EXPECT_TRUE(ed25519_verify(pub, msg, sig));
}

TEST(Ed25519, SignVerifyRoundTrip)
{
    TestRng rng(41);
    for (int i = 0; i < 5; ++i) {
        auto kp = ed25519_keypair(rng);
        Bytes msg = rng.bytes(100 + i * 37);
        Bytes sig = ed25519_sign(kp.private_key, msg);
        EXPECT_TRUE(ed25519_verify(kp.public_key, msg, sig));
    }
}

TEST(Ed25519, WrongMessageRejected)
{
    TestRng rng(42);
    auto kp = ed25519_keypair(rng);
    Bytes sig = ed25519_sign(kp.private_key, str_to_bytes("hello"));
    EXPECT_FALSE(ed25519_verify(kp.public_key, str_to_bytes("hellp"), sig));
}

TEST(Ed25519, WrongKeyRejected)
{
    TestRng rng(43);
    auto kp1 = ed25519_keypair(rng);
    auto kp2 = ed25519_keypair(rng);
    Bytes msg = str_to_bytes("message");
    Bytes sig = ed25519_sign(kp1.private_key, msg);
    EXPECT_FALSE(ed25519_verify(kp2.public_key, msg, sig));
}

TEST(Ed25519, TamperedSignatureRejected)
{
    TestRng rng(44);
    auto kp = ed25519_keypair(rng);
    Bytes msg = str_to_bytes("message");
    Bytes sig = ed25519_sign(kp.private_key, msg);
    for (size_t pos : {0u, 31u, 32u, 63u}) {
        Bytes bad = sig;
        bad[pos] ^= 0x01;
        EXPECT_FALSE(ed25519_verify(kp.public_key, msg, bad));
    }
}

TEST(Ed25519, SignatureIsDeterministic)
{
    TestRng rng(45);
    auto kp = ed25519_keypair(rng);
    Bytes msg = str_to_bytes("deterministic");
    EXPECT_EQ(ed25519_sign(kp.private_key, msg), ed25519_sign(kp.private_key, msg));
}

TEST(Ed25519, RejectsMalformedInputs)
{
    TestRng rng(46);
    auto kp = ed25519_keypair(rng);
    Bytes msg = str_to_bytes("m");
    Bytes sig = ed25519_sign(kp.private_key, msg);
    EXPECT_FALSE(ed25519_verify(Bytes(31, 0), msg, sig));          // short key
    EXPECT_FALSE(ed25519_verify(kp.public_key, msg, Bytes(63, 0)));  // short sig
    EXPECT_FALSE(ed25519_verify(kp.public_key, msg, Bytes(64, 0xff)));
}

TEST(Ed25519, HighSRejected)
{
    // Add L to s: still a valid equation mod L but must be rejected
    // (malleability check s < L).
    TestRng rng(47);
    auto kp = ed25519_keypair(rng);
    Bytes msg = str_to_bytes("malleable?");
    Bytes sig = ed25519_sign(kp.private_key, msg);

    // The exact boundary: s = L with the signature's valid R.
    Bytes at_l = sig;
    Bytes l = from_hex(kLHex);
    std::copy(l.begin(), l.end(), at_l.begin() + 32);
    EXPECT_FALSE(ed25519_verify(kp.public_key, msg, at_l));
    // The same with the identity as public key and R: there s*B = R + k*A
    // holds for s = L (L*B is the identity), so only the s < L check
    // rejects it.
    Bytes identity = from_hex("01" + std::string(62, '0'));
    EXPECT_FALSE(ed25519_verify(identity, msg, concat(identity, l)));

    // s + L, added bytewise little-endian.
    Bytes bad = sig;
    unsigned carry = 0;
    for (size_t i = 0; i < 32; ++i) {
        unsigned sum = bad[32 + i] + l[i] + carry;
        bad[32 + i] = static_cast<uint8_t>(sum);
        carry = sum >> 8;
    }
    EXPECT_FALSE(ed25519_verify(kp.public_key, msg, bad));
}

// Pins every signature byte (Ed25519 is deterministic) across changes to the
// scalar or point code; the digest predates the fixed-width scalar layer.
TEST(Ed25519, SeededSignaturesMatchPinnedDigest)
{
    HmacDrbg drbg(str_to_bytes("ed25519 pinned signatures"));
    Sha256 all;
    for (int i = 0; i < 1000; ++i) {
        Bytes seed = drbg.bytes(32);
        Bytes msg = drbg.bytes(i % 300);
        Bytes pub = ed25519_public_from_seed(seed);
        Bytes sig = ed25519_sign(seed, msg);
        ASSERT_TRUE(ed25519_verify(pub, msg, sig)) << "i=" << i;
        all.update(pub);
        all.update(sig);
    }
    auto d = all.finish();
    EXPECT_EQ(to_hex(Bytes(d.begin(), d.end())),
              "f436efbb642bf33e80b6cd4b4d03ad3fff516f2990af6443b1c51e2f67a2fce8");
}

// Boundary values of the mod-L scalar layer (expected values computed with
// exact integers; all little-endian).
TEST(Ed25519, ScalarBoundaryValues)
{
    const std::string zero(64, '0');
    const std::string l = kLHex;
    const std::string l_minus_1 = "ec" + l.substr(2);
    const std::string one = "01" + zero.substr(2);
    // 64-byte inputs: the 32-byte value zero-extended.
    const struct {
        std::string in, want;
    } reduce_cases[] = {
        {zero + zero, zero},
        {l + zero, zero},
        {l_minus_1 + zero, l_minus_1},
        {"ee" + l.substr(2) + zero, one},  // L + 1
        {std::string(128, 'f'),            // 2^512 - 1
         "000f9c44e31106a447938568a71b0ed065bef517d273ecce3d9a307c1b419903"},
    };
    for (const auto& c : reduce_cases) {
        Bytes in = from_hex(c.in);
        Bytes out(32);
        detail::sc_reduce(out.data(), in.data());
        EXPECT_EQ(to_hex(out), c.want) << "sc_reduce(" << c.in << ")";
    }

    // (L-1) + (L-1)(L-1) = (L-1) L = 0 mod L.
    Bytes m = from_hex(l_minus_1);
    Bytes out(32, 0xaa);
    detail::sc_muladd(out.data(), m.data(), m.data(), m.data());
    EXPECT_EQ(to_hex(out), zero);
}

// The clamped secret scalar a of a seed (RFC 8032 §5.1.5).
std::array<uint8_t, 32> secret_scalar(ConstBytes seed)
{
    Sha512 h;
    h.update(seed);
    auto d = h.finish();
    std::array<uint8_t, 32> a;
    std::copy(d.begin(), d.begin() + 32, a.begin());
    a[0] &= 248;
    a[31] &= 63;
    a[31] |= 64;
    return a;
}

// A signature with a chosen R by the key's owner: s = k*a, so that
// s*B - k*A is the identity. Verifies iff R is the identity's encoding.
Bytes sign_with_r(ConstBytes seed, ConstBytes pub, ConstBytes msg, const Bytes& r_enc)
{
    Sha512 h;
    h.update(r_enc);
    h.update(pub);
    h.update(msg);
    auto d = h.finish();
    uint8_t k[32], zero[32] = {};
    detail::sc_reduce(k, d.data());
    Bytes sig = r_enc;
    sig.resize(64);
    detail::sc_muladd(sig.data() + 32, zero, k, secret_scalar(seed).data());
    return sig;
}

// y = p + 1: a second, non-canonical encoding of the identity's y = 1.
const char kIdentityPlusPHex[] = "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f";

TEST(Ed25519, NonCanonicalREncodingRejected)
{
    Bytes seed = from_hex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
    Bytes pub = ed25519_public_from_seed(seed);
    Bytes msg = str_to_bytes("non-canonical R");
    Bytes identity = from_hex("01" + std::string(62, '0'));
    // R = identity, s = k*a: s*B = R + k*A holds, and R is canonical.
    EXPECT_TRUE(ed25519_verify(pub, msg, sign_with_r(seed, pub, msg, identity)));
    // The same point with y = p + 1: the equation holds as well (y reduces
    // to 1), but RFC 8032 §5.1.3 rejects an encoding with y >= p.
    EXPECT_FALSE(
        ed25519_verify(pub, msg, sign_with_r(seed, pub, msg, from_hex(kIdentityPlusPHex))));
}

TEST(Ed25519, NonCanonicalPublicKeyRejected)
{
    Bytes msg = str_to_bytes("non-canonical A");
    // A = identity encoded as y = p + 1 with R = identity and s = 0: s*B =
    // R + k*A holds for every message once y is reduced.
    Bytes identity = from_hex("01" + std::string(62, '0'));
    Bytes sig = concat(identity, Bytes(32, 0));
    EXPECT_FALSE(ed25519_verify(from_hex(kIdentityPlusPHex), msg, sig));
    // Every encoding with y in [p, 2^255), either sign bit.
    for (int low = 0; low < 19; ++low) {
        for (uint8_t sign : {0x00, 0x80}) {
            Bytes a(32, 0xff);
            a[0] = static_cast<uint8_t>(0xed + low);
            a[31] = static_cast<uint8_t>(0x7f | sign);
            EXPECT_FALSE(ed25519_verify(a, msg, sig)) << "y = p + " << low;
        }
    }
}

TEST(Ed25519, SmallOrderPublicKeysRejected)
{
    // The eight points of order 1, 2, 4 and 8, canonically encoded. With
    // R = identity and s = 0 the equation is R = -k*A, which holds whenever
    // the order of A divides k: for every message with the identity, for
    // half of them with the order-2 point, and so on. 8*A = identity
    // rejects the key before any of that.
    const char* small_order[] = {
        "0100000000000000000000000000000000000000000000000000000000000000",
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000080",
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
    };
    Bytes sig = concat(from_hex("01" + std::string(62, '0')), Bytes(32, 0));
    for (const char* hex : small_order) {
        for (int m = 0; m < 16; ++m) {
            Bytes msg{static_cast<uint8_t>(m)};
            EXPECT_FALSE(ed25519_verify(from_hex(hex), msg, sig)) << hex << " msg " << m;
        }
    }
}

// The comb's signed radix-16 digits: in range, summing back to the scalar,
// and between them reaching every digit -8..8 that the table select takes.
TEST(Ed25519, CombRecodingCoversEveryDigit)
{
    std::vector<Bytes> scalars{Bytes(32, 0x00), Bytes(32, 0x88), Bytes(32, 0x77),
                               Bytes(32, 0xff)};
    TestRng rng(48);
    for (int i = 0; i < 200; ++i) scalars.push_back(rng.bytes(32));
    bool seen[17] = {};
    for (Bytes& a : scalars) {
        a[31] &= 0x7f;  // the comb's precondition
        int8_t e[64];
        detail::sc_recode_radix16(e, a.data());
        for (int i = 0; i < 64; ++i) {
            ASSERT_GE(e[i], -8);
            ASSERT_LE(e[i], i == 63 ? 8 : 7) << "digit " << i;
            seen[e[i] + 8] = true;
        }
        // Sum e[i] * 16^i back into nibbles, carrying signed.
        int carry = 0;
        for (int i = 0; i < 64; ++i) {
            int n = e[i] + carry;
            carry = n >> 4;
            int nibble = (a[i / 2] >> (4 * (i % 2))) & 15;
            ASSERT_EQ(n & 15, nibble) << "nibble " << i;
        }
        ASSERT_EQ(carry, 0);
    }
    for (int d = -8; d <= 8; ++d) EXPECT_TRUE(seen[d + 8]) << "digit " << d;
}

}  // namespace
}  // namespace mct::crypto
