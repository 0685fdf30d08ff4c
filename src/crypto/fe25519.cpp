#include "crypto/fe25519.h"

namespace mct::crypto {

namespace {

using fe_detail::kMask;

uint64_t load64_le(const uint8_t* p)
{
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = v << 8 | p[i];
    return v;
}

void store64_le(uint8_t* p, uint64_t v)
{
    for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

// a^(2^k), k >= 1.
Fe sq_times(Fe a, int k)
{
    for (int i = 0; i < k; ++i) a = fe_sq(a);
    return a;
}

// The shared head of both exponentiation chains: returns a^(2^250 - 1)
// and sets a11 = a^11.
Fe pow_2_250_minus_1(const Fe& a, Fe& a11)
{
    Fe a2 = fe_sq(a);
    Fe a9 = fe_mul(sq_times(a2, 2), a);
    a11 = fe_mul(a9, a2);
    Fe e5 = fe_mul(fe_sq(a11), a9);          // 2^5 - 1
    Fe e10 = fe_mul(sq_times(e5, 5), e5);    // 2^10 - 1
    Fe e20 = fe_mul(sq_times(e10, 10), e10);
    Fe e40 = fe_mul(sq_times(e20, 20), e20);
    Fe e50 = fe_mul(sq_times(e40, 10), e10);
    Fe e100 = fe_mul(sq_times(e50, 50), e50);
    Fe e200 = fe_mul(sq_times(e100, 100), e100);
    return fe_mul(sq_times(e200, 50), e50);  // 2^250 - 1
}

}  // namespace

Fe fe_from_bytes(const uint8_t in[32])
{
    Fe f;
    f.v[0] = load64_le(in) & kMask;
    f.v[1] = (load64_le(in + 6) >> 3) & kMask;
    f.v[2] = (load64_le(in + 12) >> 6) & kMask;
    f.v[3] = (load64_le(in + 19) >> 1) & kMask;
    f.v[4] = (load64_le(in + 24) >> 12) & kMask;
    return f;
}

void fe_to_bytes(uint8_t out[32], const Fe& f)
{
    // Two carry passes leave t in [0, 2^255) with limbs < 2^51. Adding 19
    // carries out of bit 255 exactly when t >= p; that carry, folded back
    // as +19, plus 2^255 - 19 taken off again by dropping bit 255, leaves
    // t mod p without a comparison.
    Fe t = fe_detail::carry(f.v[0], f.v[1], f.v[2], f.v[3], f.v[4]);
    t = fe_detail::carry(t.v[0], t.v[1], t.v[2], t.v[3], t.v[4]);
    t = fe_detail::carry(t.v[0] + 19, t.v[1], t.v[2], t.v[3], t.v[4]);
    t.v[0] += (uint64_t{1} << 51) - 19;
    for (int i = 1; i < 5; ++i) t.v[i] += (uint64_t{1} << 51) - 1;
    for (int i = 0; i < 4; ++i) {
        t.v[i + 1] += t.v[i] >> 51;
        t.v[i] &= kMask;
    }
    t.v[4] &= kMask;

    store64_le(out, t.v[0] | t.v[1] << 51);
    store64_le(out + 8, t.v[1] >> 13 | t.v[2] << 38);
    store64_le(out + 16, t.v[2] >> 26 | t.v[3] << 25);
    store64_le(out + 24, t.v[3] >> 39 | t.v[4] << 12);
}

Fe fe_invert(const Fe& a)
{
    Fe a11;
    Fe e250 = pow_2_250_minus_1(a, a11);
    return fe_mul(sq_times(e250, 5), a11);  // 2^255 - 32 + 11 = p - 2
}

Fe fe_pow22523(const Fe& a)
{
    Fe a11;
    Fe e250 = pow_2_250_minus_1(a, a11);
    return fe_mul(sq_times(e250, 2), a);  // 2^252 - 4 + 1
}

uint64_t fe_sqrt_ratio(const Fe& u, const Fe& v, Fe& out)
{
    Fe v3 = fe_mul(fe_sq(v), v);
    Fe v7 = fe_mul(fe_sq(v3), v);
    Fe x = fe_mul(fe_mul(u, v3), fe_pow22523(fe_mul(u, v7)));
    Fe vxx = fe_mul(v, fe_sq(x));
    uint64_t root = fe_equal(vxx, u);
    uint64_t flipped = fe_equal(vxx, fe_neg(u));
    fe_cmov(x, fe_mul(x, kFeSqrtM1), flipped);
    out = x;
    return root | flipped;
}

uint64_t fe_equal(const Fe& a, const Fe& b)
{
    uint8_t sa[32], sb[32];
    fe_to_bytes(sa, a);
    fe_to_bytes(sb, b);
    uint64_t acc = 0;
    for (int i = 0; i < 32; ++i) acc |= sa[i] ^ sb[i];
    return (acc - 1) >> 63;
}

uint64_t fe_is_negative(const Fe& a)
{
    uint8_t s[32];
    fe_to_bytes(s, a);
    return s[0] & 1;
}

}  // namespace mct::crypto
