// Field arithmetic modulo p = 2^255 - 19.
//
// Representation: five 51-bit limbs (radix 2^51) with 128-bit intermediate
// products; the layout follows the well-known "donna-c64" construction.
// Backs both X25519 (Montgomery ladder) and Ed25519 (Edwards group ops).
//
// Limb bounds: fe_mul, fe_sq, fe_sub, fe_neg, fe_mul_small and
// fe_from_bytes return "tight" elements (limbs < 2^51 + 2^13). fe_add does
// not carry, so it returns "loose" ones (limbs < 2^52 + 2^14) from tight
// inputs, and a loose input gives at most 2^53 + 2^15. fe_mul, fe_sq and
// fe_mul_small accept limbs < 2^54; fe_sub's subtrahend must be at most
// loose.
//
// Nothing here allocates, and nothing branches on or indexes by field data:
// every function is constant time in its field inputs.
#pragma once

#include <array>
#include <cstdint>

namespace mct::crypto {

struct Fe {
    std::array<uint64_t, 5> v{};
};

namespace fe_detail {

using uint128 = unsigned __int128;

constexpr uint64_t kMask = (uint64_t{1} << 51) - 1;

// One carry pass, over 64-bit limbs (< 2^63) or over the 128-bit column
// sums of a product, written out limb by limb so the limbs stay in
// registers. Every limb ends < 2^51 but limb 1, which may exceed it by the
// folded top carry (< 2^13).
template <typename Limb>
inline Fe carry(Limb h0, Limb h1, Limb h2, Limb h3, Limb h4)
{
    h1 += h0 >> 51;
    h2 += h1 >> 51;
    h3 += h2 >> 51;
    h4 += h3 >> 51;
    auto low = [](Limb h) { return static_cast<uint64_t>(h) & kMask; };
    uint64_t l0 = low(h0) + static_cast<uint64_t>(h4 >> 51) * 19;
    return {{l0 & kMask, low(h1) + (l0 >> 51), low(h2), low(h3), low(h4)}};
}

}  // namespace fe_detail

constexpr Fe fe_zero()
{
    return {};
}

constexpr Fe fe_one()
{
    return {{1, 0, 0, 0, 0}};
}

constexpr Fe fe_from_u64(uint64_t x)
{
    return {{x & fe_detail::kMask, x >> 51, 0, 0, 0}};
}

// The curve constants: d = -121665/121666, 2d, and sqrt(-1) = 2^((p-1)/4).
inline constexpr Fe kFeD{{929955233495203, 466365720129213, 1662059464998953,
                          2033849074728123, 1442794654840575}};
inline constexpr Fe kFeD2{{1859910466990425, 932731440258426, 1072319116312658,
                           1815898335770999, 633789495995903}};
inline constexpr Fe kFeSqrtM1{{1718705420411056, 234908883556509, 2233514472574048,
                               2117202627021982, 765476049583133}};

// Load 32 little-endian bytes, ignoring the top bit (RFC 7748 convention).
// Values in [p, 2^255) load unreduced; arithmetic reduces them.
Fe fe_from_bytes(const uint8_t in[32]);
// Fully reduced 32-byte little-endian encoding.
void fe_to_bytes(uint8_t out[32], const Fe& f);

inline Fe fe_add(const Fe& a, const Fe& b)
{
    return {{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2], a.v[3] + b.v[3],
             a.v[4] + b.v[4]}};
}

inline Fe fe_sub(const Fe& a, const Fe& b)
{
    // a + 4p - b keeps every limb non-negative for a loose b.
    constexpr uint64_t k4p0 = 0x1fffffffffffb4, k4p = 0x1ffffffffffffc;
    return fe_detail::carry(a.v[0] + k4p0 - b.v[0], a.v[1] + k4p - b.v[1],
                            a.v[2] + k4p - b.v[2], a.v[3] + k4p - b.v[3], a.v[4] + k4p - b.v[4]);
}

inline Fe fe_neg(const Fe& a)
{
    return fe_sub(fe_zero(), a);
}

inline Fe fe_mul(const Fe& a, const Fe& b)
{
    using fe_detail::uint128;
    const uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
    const uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
    const uint64_t b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19, b4_19 = b4 * 19;
    return fe_detail::carry(
        (uint128)a0 * b0 + (uint128)a1 * b4_19 + (uint128)a2 * b3_19 + (uint128)a3 * b2_19 +
            (uint128)a4 * b1_19,
        (uint128)a0 * b1 + (uint128)a1 * b0 + (uint128)a2 * b4_19 + (uint128)a3 * b3_19 +
            (uint128)a4 * b2_19,
        (uint128)a0 * b2 + (uint128)a1 * b1 + (uint128)a2 * b0 + (uint128)a3 * b4_19 +
            (uint128)a4 * b3_19,
        (uint128)a0 * b3 + (uint128)a1 * b2 + (uint128)a2 * b1 + (uint128)a3 * b0 +
            (uint128)a4 * b4_19,
        (uint128)a0 * b4 + (uint128)a1 * b3 + (uint128)a2 * b2 + (uint128)a3 * b1 +
            (uint128)a4 * b0);
}

// a^2 in 15 limb products instead of fe_mul's 25.
inline Fe fe_sq(const Fe& a)
{
    using fe_detail::uint128;
    const uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
    const uint64_t d0 = a0 * 2, d1 = a1 * 2, d2_19 = a2 * 38, d3_19 = a3 * 38;
    const uint64_t a3_19 = a3 * 19, a4_19 = a4 * 19;
    return fe_detail::carry(
        (uint128)a0 * a0 + (uint128)d1 * a4_19 + (uint128)d2_19 * a3,
        (uint128)d0 * a1 + (uint128)d2_19 * a4 + (uint128)a3 * a3_19,
        (uint128)d0 * a2 + (uint128)a1 * a1 + (uint128)d3_19 * a4,
        (uint128)d0 * a3 + (uint128)d1 * a2 + (uint128)a4 * a4_19,
        (uint128)d0 * a4 + (uint128)d1 * a3 + (uint128)a2 * a2);
}

// a * s for a small constant s < 2^17 (121665 in the ladder).
inline Fe fe_mul_small(const Fe& a, uint64_t s)
{
    using fe_detail::uint128;
    return fe_detail::carry((uint128)a.v[0] * s, (uint128)a.v[1] * s, (uint128)a.v[2] * s,
                            (uint128)a.v[3] * s, (uint128)a.v[4] * s);
}

// Constant-time conditional swap (swap is 0 or 1).
inline void fe_cswap(Fe& a, Fe& b, uint64_t swap)
{
    const uint64_t mask = 0 - swap;
    for (int i = 0; i < 5; ++i) {
        uint64_t x = mask & (a.v[i] ^ b.v[i]);
        a.v[i] ^= x;
        b.v[i] ^= x;
    }
}

// Constant-time conditional move: f = g if move is 1, unchanged if 0.
inline void fe_cmov(Fe& f, const Fe& g, uint64_t move)
{
    uint64_t mask = 0 - move;
    for (int i = 0; i < 5; ++i) f.v[i] ^= mask & (f.v[i] ^ g.v[i]);
}

// a^(p-2) mod p (multiplicative inverse; fe_invert(0) == 0), by the
// 254-squaring, 11-multiplication addition chain.
Fe fe_invert(const Fe& a);
// a^((p-5)/8) = a^(2^252-3), the exponent of the combined square root.
Fe fe_pow22523(const Fe& a);

// Sets out to a square root of u/v and returns 1 if u/v is a square (0/0
// counts, with root 0); returns 0 otherwise. One exponentiation, no
// separate inversion: out = u v^3 (u v^7)^((p-5)/8), times sqrt(-1) if
// needed.
uint64_t fe_sqrt_ratio(const Fe& u, const Fe& v, Fe& out);

// 0/1 results, computed on the fully reduced encoding.
uint64_t fe_equal(const Fe& a, const Fe& b);
inline uint64_t fe_is_zero(const Fe& a)
{
    return fe_equal(a, fe_zero());
}
// Parity of the fully reduced value (used as the Ed25519 sign bit).
uint64_t fe_is_negative(const Fe& a);

}  // namespace mct::crypto
