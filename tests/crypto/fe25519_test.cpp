#include "crypto/fe25519.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace mct::crypto {
namespace {

Fe random_fe(Rng& rng)
{
    return fe_from_bytes(rng.bytes(32).data());
}

Bytes encode(const Fe& f)
{
    Bytes out(32);
    fe_to_bytes(out.data(), f);
    return out;
}

TEST(Fe25519, EncodeDecodeRoundTrip)
{
    TestRng rng(21);
    for (int i = 0; i < 20; ++i) {
        Bytes b = rng.bytes(32);
        b[31] &= 0x7f;  // canonical encodings only
        Fe f = fe_from_bytes(b.data());
        // Values >= p re-encode reduced; values < p round-trip exactly.
        Fe g = fe_from_bytes(encode(f).data());
        EXPECT_TRUE(fe_equal(f, g));
    }
}

TEST(Fe25519, ZeroAndOne)
{
    EXPECT_TRUE(fe_is_zero(fe_zero()));
    EXPECT_FALSE(fe_is_zero(fe_one()));
    EXPECT_TRUE(fe_equal(fe_add(fe_zero(), fe_one()), fe_one()));
    EXPECT_TRUE(fe_equal(fe_mul(fe_one(), fe_one()), fe_one()));
}

TEST(Fe25519, PReducesToZero)
{
    // p = 2^255 - 19 encodes as ed ff ... ff 7f.
    Bytes p(32, 0xff);
    p[0] = 0xed;
    p[31] = 0x7f;
    EXPECT_TRUE(fe_is_zero(fe_from_bytes(p.data())));
}

TEST(Fe25519, EncodingIsFullyReduced)
{
    // Every value in [p, 2^255) encodes as value - p, and p - 1 as itself.
    for (int low = 0; low < 19; ++low) {
        Bytes v(32, 0xff);
        v[0] = static_cast<uint8_t>(0xed + low);
        v[31] = 0x7f;
        Bytes want(32, 0);
        want[0] = static_cast<uint8_t>(low);
        EXPECT_EQ(encode(fe_from_bytes(v.data())), want) << "p + " << low;
    }
    Bytes p_minus_1(32, 0xff);
    p_minus_1[0] = 0xec;
    p_minus_1[31] = 0x7f;
    EXPECT_EQ(encode(fe_from_bytes(p_minus_1.data())), p_minus_1);
    // Unreduced limbs from additions reduce as well: (p - 1) + (p - 1) = p - 2.
    Fe m1 = fe_from_bytes(p_minus_1.data());
    Bytes p_minus_2 = p_minus_1;
    p_minus_2[0] = 0xeb;
    EXPECT_EQ(encode(fe_add(m1, m1)), p_minus_2);
}

TEST(Fe25519, AddSubInverse)
{
    TestRng rng(22);
    for (int i = 0; i < 20; ++i) {
        Fe a = random_fe(rng), b = random_fe(rng);
        EXPECT_TRUE(fe_equal(fe_sub(fe_add(a, b), b), a));
    }
}

TEST(Fe25519, MulCommutativeAssociative)
{
    TestRng rng(23);
    Fe a = random_fe(rng), b = random_fe(rng), c = random_fe(rng);
    EXPECT_TRUE(fe_equal(fe_mul(a, b), fe_mul(b, a)));
    EXPECT_TRUE(fe_equal(fe_mul(fe_mul(a, b), c), fe_mul(a, fe_mul(b, c))));
}

TEST(Fe25519, Distributive)
{
    TestRng rng(24);
    Fe a = random_fe(rng), b = random_fe(rng), c = random_fe(rng);
    EXPECT_TRUE(fe_equal(fe_mul(a, fe_add(b, c)), fe_add(fe_mul(a, b), fe_mul(a, c))));
}

TEST(Fe25519, SquareMatchesMul)
{
    TestRng rng(25);
    Fe a = random_fe(rng);
    EXPECT_TRUE(fe_equal(fe_sq(a), fe_mul(a, a)));
}

TEST(Fe25519, InvertIsInverse)
{
    TestRng rng(26);
    for (int i = 0; i < 10; ++i) {
        Fe a = random_fe(rng);
        if (fe_is_zero(a)) continue;
        EXPECT_TRUE(fe_equal(fe_mul(a, fe_invert(a)), fe_one()));
    }
}

TEST(Fe25519, InvertZeroIsZero)
{
    EXPECT_TRUE(fe_is_zero(fe_invert(fe_zero())));
}

TEST(Fe25519, NegAddsToZero)
{
    TestRng rng(27);
    Fe a = random_fe(rng);
    EXPECT_TRUE(fe_is_zero(fe_add(a, fe_neg(a))));
}

TEST(Fe25519, MulSmallMatchesMul)
{
    TestRng rng(28);
    Fe a = random_fe(rng);
    EXPECT_TRUE(fe_equal(fe_mul_small(a, 121665), fe_mul(a, fe_from_u64(121665))));
}

TEST(Fe25519, SqrtM1SquaresToMinusOne)
{
    Fe m1 = fe_neg(fe_one());
    EXPECT_TRUE(fe_equal(fe_sq(kFeSqrtM1), m1));
}

TEST(Fe25519, SqrtOfSquares)
{
    TestRng rng(29);
    for (int i = 0; i < 10; ++i) {
        Fe a = random_fe(rng);
        Fe a2 = fe_sq(a);
        Fe root;
        ASSERT_TRUE(fe_sqrt_ratio(a2, fe_one(), root));
        EXPECT_TRUE(fe_equal(fe_sq(root), a2));
    }
}

TEST(Fe25519, NonResidueHasNoRoot)
{
    // 2 is a non-residue mod p (p ≡ 5 mod 8). sqrt(2) must fail; sqrt(4) works.
    Fe root;
    EXPECT_FALSE(fe_sqrt_ratio(fe_from_u64(2), fe_one(), root));
    ASSERT_TRUE(fe_sqrt_ratio(fe_from_u64(4), fe_one(), root));
    EXPECT_TRUE(fe_equal(fe_sq(root), fe_from_u64(4)));
}

TEST(Fe25519, SqrtRatioOfQuotients)
{
    // u/v = a^2 for u = a^2 v: the root squares to u/v without an inversion.
    TestRng rng(31);
    for (int i = 0; i < 10; ++i) {
        Fe a = random_fe(rng), v = random_fe(rng);
        Fe u = fe_mul(fe_sq(a), v);
        Fe root;
        ASSERT_TRUE(fe_sqrt_ratio(u, v, root));
        EXPECT_TRUE(fe_equal(fe_mul(fe_sq(root), v), u));
        // 2 is a non-residue, so 2u/v has no root.
        EXPECT_FALSE(fe_sqrt_ratio(fe_mul_small(u, 2), v, root));
    }
}

TEST(Fe25519, CswapSwapsConditionally)
{
    TestRng rng(30);
    Fe a = random_fe(rng), b = random_fe(rng);
    Fe a0 = a, b0 = b;
    fe_cswap(a, b, 0);
    EXPECT_TRUE(fe_equal(a, a0));
    EXPECT_TRUE(fe_equal(b, b0));
    fe_cswap(a, b, 1);
    EXPECT_TRUE(fe_equal(a, b0));
    EXPECT_TRUE(fe_equal(b, a0));
}

TEST(Fe25519, ParityOfSmallConstants)
{
    EXPECT_EQ(fe_is_negative(fe_zero()), 0u);
    EXPECT_EQ(fe_is_negative(fe_one()), 1u);
    EXPECT_EQ(fe_is_negative(fe_from_u64(2)), 0u);
}

// fe_pow22523 against Fermat's little theorem:
// (a^(2^252-3) * a^3)^8 = a^(2^255) = a^(p+19) = a^20.
TEST(Fe25519, Pow22523MatchesExponent)
{
    TestRng rng(32);
    for (int i = 0; i < 10; ++i) {
        Fe a = random_fe(rng);
        Fe a3 = fe_mul(fe_sq(a), a);
        Fe lhs = fe_sq(fe_sq(fe_sq(fe_mul(fe_pow22523(a), a3))));
        Fe a5 = fe_mul(fe_sq(fe_sq(a)), a);
        Fe a20 = fe_sq(fe_sq(a5));
        EXPECT_TRUE(fe_equal(lhs, a20));
    }
}

}  // namespace
}  // namespace mct::crypto
