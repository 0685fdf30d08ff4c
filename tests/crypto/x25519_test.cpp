#include "crypto/x25519.h"

#include <gtest/gtest.h>

#include "crypto/drbg.h"
#include "util/rng.h"

namespace mct::crypto {
namespace {

Bytes base_u()
{
    Bytes u(32, 0);
    u[0] = 9;
    return u;
}

// RFC 7748 §5.2 iterated test, 1 iteration: k = u = 9.
TEST(X25519, Rfc7748Iteration1)
{
    Bytes k = base_u();
    EXPECT_EQ(to_hex(x25519(k, base_u())),
              "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
}

// RFC 7748 §5.2 iterated test, 1,000 iterations: k, u = x25519(k, u), k.
TEST(X25519, Rfc7748Iteration1000)
{
    Bytes k = base_u(), u = base_u();
    for (int i = 0; i < 1000; ++i) {
        Bytes next = x25519(k, u);
        u = k;
        k = next;
    }
    EXPECT_EQ(to_hex(k), "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

// RFC 7748 §6.1: both public keys (the fixed-base comb) and the shared
// secret (the ladder) from each side.
TEST(X25519, Rfc7748AliceBob)
{
    Bytes alice = from_hex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
    Bytes bob = from_hex("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
    Bytes alice_pub = x25519_public_key(alice);
    Bytes bob_pub = x25519_public_key(bob);
    EXPECT_EQ(to_hex(alice_pub),
              "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
    EXPECT_EQ(to_hex(bob_pub), "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
    const char shared[] = "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742";
    EXPECT_EQ(to_hex(x25519_shared(alice, bob_pub).take()), shared);
    EXPECT_EQ(to_hex(x25519_shared(bob, alice_pub).take()), shared);
}

// The fixed-base public key against the ladder on u = 9: seeded scalars,
// then the clamping boundaries (smallest and largest clamped scalar, and
// inputs whose cleared bits are set).
TEST(X25519, PublicKeyMatchesLadderOnBasePoint)
{
    HmacDrbg drbg(str_to_bytes("x25519 fixed-base differential"));
    for (int i = 0; i < 1000; ++i) {
        Bytes k = drbg.bytes(32);
        ASSERT_EQ(x25519_public_key(k), x25519(k, base_u())) << to_hex(k);
    }
    Bytes top_only(32, 0);
    top_only[31] = 0x40;
    Bytes low_bits(32, 0);
    low_bits[0] = 0x07;
    Bytes high_bit(32, 0);
    high_bit[31] = 0x80;
    Bytes one_above = top_only;
    one_above[0] = 0x08;
    for (const Bytes& k : {Bytes(32, 0x00), Bytes(32, 0xff), top_only, low_bits, high_bit,
                           one_above, Bytes(32, 0x7f), Bytes(32, 0x80)}) {
        EXPECT_EQ(x25519_public_key(k), x25519(k, base_u())) << to_hex(k);
    }
}

TEST(X25519, DiffieHellmanAgreement)
{
    TestRng rng(31);
    for (int i = 0; i < 5; ++i) {
        auto alice = x25519_keypair(rng);
        auto bob = x25519_keypair(rng);
        auto s1 = x25519_shared(alice.private_key, bob.public_key);
        auto s2 = x25519_shared(bob.private_key, alice.public_key);
        ASSERT_TRUE(s1.ok());
        ASSERT_TRUE(s2.ok());
        EXPECT_EQ(s1.value(), s2.value());
    }
}

TEST(X25519, DistinctPeersDistinctSecrets)
{
    TestRng rng(32);
    auto alice = x25519_keypair(rng);
    auto bob = x25519_keypair(rng);
    auto carol = x25519_keypair(rng);
    auto s_ab = x25519_shared(alice.private_key, bob.public_key).take();
    auto s_ac = x25519_shared(alice.private_key, carol.public_key).take();
    EXPECT_NE(s_ab, s_ac);
}

TEST(X25519, ScalarClampingMakesBitsIrrelevant)
{
    // Flipping the bits cleared by clamping must not change the result.
    TestRng rng(33);
    Bytes k = rng.bytes(32);
    Bytes k2 = k;
    k2[0] ^= 0x07;   // low 3 bits
    k2[31] ^= 0x80;  // top bit
    EXPECT_EQ(x25519(k, base_u()), x25519(k2, base_u()));
}

TEST(X25519, ZeroPointRejected)
{
    TestRng rng(34);
    auto kp = x25519_keypair(rng);
    Bytes zero(32, 0);
    EXPECT_FALSE(x25519_shared(kp.private_key, zero).ok());
}

TEST(X25519, KeypairPublicMatchesScalarMult)
{
    TestRng rng(35);
    auto kp = x25519_keypair(rng);
    EXPECT_EQ(kp.public_key, x25519(kp.private_key, base_u()));
}

TEST(X25519, RejectsBadSizes)
{
    EXPECT_THROW(x25519(Bytes(31, 0), base_u()), std::invalid_argument);
    EXPECT_THROW(x25519(base_u(), Bytes(33, 0)), std::invalid_argument);
}

TEST(X25519, SharedSecretRejectsBadLengthsAsErrors)
{
    // The peer public key arrives off the wire, so x25519_shared must report
    // bad lengths as Results, never throw (sessions only handle errors).
    TestRng rng(36);
    auto kp = x25519_keypair(rng);
    EXPECT_FALSE(x25519_shared(kp.private_key, Bytes(31, 9)).ok());
    EXPECT_FALSE(x25519_shared(kp.private_key, Bytes(33, 9)).ok());
    EXPECT_FALSE(x25519_shared(kp.private_key, {}).ok());
    EXPECT_FALSE(x25519_shared(Bytes(31, 1), base_u()).ok());
}

}  // namespace
}  // namespace mct::crypto
