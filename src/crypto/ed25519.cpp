#include "crypto/ed25519.h"

#include <array>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "crypto/fe25519.h"
#include "crypto/sha2.h"

namespace mct::crypto {

namespace {

// ---- Scalars mod L (sc_*) ----

// Group order L = 2^252 + 27742317777372353535851937790883648493, as
// little-endian bytes.
constexpr std::array<int64_t, 32> kL = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                                        0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                                        0,    0,    0,    0,    0,    0,    0,    0,
                                        0,    0,    0,    0,    0,    0,    0,    0x10};

// x mod L into 32 little-endian bytes, where x is 64 signed radix-2^8 limbs
// (TweetNaCl's modL). Each limb x[32..63], at 2^256 and up, folds down via
// 2^256 = 16 * 2^252 ≡ -16 * (L - 2^252) (mod L) with signed carries; then
// the bits at and above 2^252 go the same way, and a final conditional add
// of L (a multiply by the 0/-1 carry, not a branch) makes the result
// canonical. Fixed loop bounds, no data-dependent branch or index.
void mod_l(uint8_t out[32], int64_t x[64])
{
    for (int i = 63; i >= 32; --i) {
        int64_t carry = 0;
        int j = i - 32;
        for (; j < i - 12; ++j) {
            x[j] += carry - 16 * x[i] * kL[j - (i - 32)];
            carry = (x[j] + 128) >> 8;
            x[j] -= carry * 256;
        }
        x[j] += carry;
        x[i] = 0;
    }
    int64_t carry = 0;
    for (int j = 0; j < 32; ++j) {
        x[j] += carry - (x[31] >> 4) * kL[j];
        carry = x[j] >> 8;
        x[j] &= 255;
    }
    for (int j = 0; j < 32; ++j) x[j] -= carry * kL[j];
    for (int i = 0; i < 32; ++i) {
        x[i + 1] += x[i] >> 8;
        out[i] = static_cast<uint8_t>(x[i] & 255);
    }
}

// s < L for a public 32-byte little-endian s (RFC 8032 §5.1.7 rejects
// s >= L to stop malleability).
bool is_canonical_s(ConstBytes s_le)
{
    for (size_t i = 32; i-- > 0;) {
        if (s_le[i] != kL[i]) return s_le[i] < kL[i];
    }
    return false;  // s == L
}

// ---- Points on -x^2 + y^2 = 1 + d x^2 y^2 (ge_*) ----

struct P2 {  // projective: x = X/Z, y = Y/Z
    Fe x, y, z;
};
struct P3 {  // extended: P2 plus T = XY/Z
    Fe x, y, z, t;
};
struct P1P1 {  // completed: x = X/Z, y = Y/T, what one addition or doubling yields
    Fe x, y, z, t;
};
struct Precomp {  // affine table entry (Z = 1): y+x, y-x, 2dxy
    Fe yplusx, yminusx, t2d;
};
struct Cached {  // a P3 ready to be added: Y+X, Y-X, 2dT, Z
    Fe yplusx, yminusx, t2d, z;
};

#include "crypto/curve25519_tables.inc"

constexpr P3 kIdentity{fe_zero(), fe_one(), fe_one(), fe_zero()};

P2 to_p2(const P1P1& p)
{
    return {fe_mul(p.x, p.t), fe_mul(p.y, p.z), fe_mul(p.z, p.t)};
}

P3 to_p3(const P1P1& p)
{
    return {fe_mul(p.x, p.t), fe_mul(p.y, p.z), fe_mul(p.z, p.t), fe_mul(p.x, p.y)};
}

Cached to_cached(const P3& p)
{
    return {fe_add(p.y, p.x), fe_sub(p.y, p.x), fe_mul(p.t, kFeD2), p.z};
}

P1P1 dbl(const P2& p)
{
    Fe zz = fe_sq(p.z);
    Fe yy = fe_sq(p.y), xx = fe_sq(p.x);
    Fe h = fe_add(yy, xx), g = fe_sub(yy, xx);
    return {fe_sub(fe_sq(fe_add(p.x, p.y)), h), h, g, fe_sub(fe_add(zz, zz), g)};
}

// p + q (sign > 0) or p - q: negating q swaps its y+x and y-x and flips
// its 2dT. q is a Cached point or an affine Precomp (one product fewer).
template <typename Q>
P1P1 add(const P3& p, const Q& q, int sign = 1)
{
    Fe a = fe_mul(fe_add(p.y, p.x), sign > 0 ? q.yplusx : q.yminusx);
    Fe b = fe_mul(fe_sub(p.y, p.x), sign > 0 ? q.yminusx : q.yplusx);
    Fe c = fe_mul(q.t2d, p.t);
    Fe z = p.z;
    if constexpr (std::is_same_v<Q, Cached>) z = fe_mul(p.z, q.z);
    Fe d = fe_add(z, z);
    return {fe_sub(a, b), fe_add(a, b), sign > 0 ? fe_add(d, c) : fe_sub(d, c),
            sign > 0 ? fe_sub(d, c) : fe_add(d, c)};
}

// zinv = 1/Z, so that callers with two points can share one inversion.
void encode(uint8_t out[32], const P3& p, const Fe& zinv)
{
    fe_to_bytes(out, fe_mul(p.y, zinv));
    out[31] ^= static_cast<uint8_t>(fe_is_negative(fe_mul(p.x, zinv)) << 7);
}

// Decodes -A from public bytes (verify only; variable time). Rejects a y
// that is not canonical (y >= p), a y with no x on the curve, and x = 0
// with the sign bit set.
bool decode_negated(P3& out, const uint8_t in[32])
{
    Fe y = fe_from_bytes(in);
    uint8_t canonical[32];
    fe_to_bytes(canonical, y);
    canonical[31] |= in[31] & 0x80;
    if (std::memcmp(canonical, in, 32) != 0) return false;
    Fe yy = fe_sq(y), x;  // x^2 = (y^2 - 1) / (d y^2 + 1)
    if (!fe_sqrt_ratio(fe_sub(yy, fe_one()), fe_add(fe_mul(kFeD, yy), fe_one()), x))
        return false;
    uint64_t sign = in[31] >> 7;
    if (fe_is_zero(x) && sign) return false;
    if (fe_is_negative(x) == sign) x = fe_neg(x);
    out = {x, y, fe_one(), fe_mul(x, y)};
    return true;
}

// 8 * p is the identity: p lies in the torsion subgroup. The group has no
// element of order 16, so X = 0 after three doublings means the identity.
bool has_small_order(const P3& p)
{
    P2 q{p.x, p.y, p.z};
    for (int i = 0; i < 3; ++i) q = to_p2(dbl(q));
    return fe_is_zero(q.x);
}

// The comb's table entry (|b|) * 256^pos * B, negated if b < 0, read from
// every entry of the row with masks: neither the row entry taken nor the
// sign shows in the memory access pattern or the branches.
Precomp select_base(int pos, int8_t b)
{
    uint64_t negative = static_cast<uint64_t>(static_cast<int64_t>(b)) >> 63;
    int64_t sign_mask = -static_cast<int64_t>(negative);
    uint64_t babs = static_cast<uint64_t>((b ^ sign_mask) - sign_mask);
    // OR together every entry ANDed with its match mask: at most one mask
    // is all ones, and b = 0 (no match) leaves the identity (1, 1, 0).
    uint64_t none = (babs - 1) >> 63;
    Precomp t{{{none, 0, 0, 0, 0}}, {{none, 0, 0, 0, 0}}, {}};
    for (uint64_t j = 0; j < 8; ++j) {
        uint64_t mask = 0 - (((babs ^ (j + 1)) - 1) >> 63);
        const Precomp& e = kBaseComb[pos][j];
        for (int k = 0; k < 5; ++k) {
            t.yplusx.v[k] |= e.yplusx.v[k] & mask;
            t.yminusx.v[k] |= e.yminusx.v[k] & mask;
            t.t2d.v[k] |= e.t2d.v[k] & mask;
        }
    }
    fe_cswap(t.yplusx, t.yminusx, negative);
    fe_cmov(t.t2d, fe_neg(t.t2d), negative);
    return t;
}

// a * B by the fixed-base comb (constant time): the odd digits' entries are
// summed, the sum multiplied by 16, then the even digits' entries added.
P3 base_mul(const uint8_t a[32])
{
    int8_t e[64];
    detail::sc_recode_radix16(e, a);
    P3 h = kIdentity;
    for (int i = 1; i < 64; i += 2) h = to_p3(add(h, select_base(i / 2, e[i])));
    P1P1 t = dbl({h.x, h.y, h.z});
    for (int j = 0; j < 3; ++j) t = dbl(to_p2(t));
    h = to_p3(t);
    for (int i = 0; i < 64; i += 2) h = to_p3(add(h, select_base(i / 2, e[i])));
    return h;
}

// a * A + b * B, both scalars as signed radix-16 digits, interleaved
// (Straus): four doublings per digit position, then one addition for each
// nonzero digit. Variable time: verify's inputs are all public.
P3 double_scalar_mul_vartime(const uint8_t a[32], const P3& A, const uint8_t b[32])
{
    int8_t ea[64], eb[64];
    detail::sc_recode_radix16(ea, a);
    detail::sc_recode_radix16(eb, b);
    Cached multiples[8];  // A, 2A, ..., 8A
    multiples[0] = to_cached(A);
    for (int i = 1; i < 8; ++i) multiples[i] = to_cached(to_p3(add(A, multiples[i - 1])));

    P3 r = kIdentity;
    for (int i = 63; i >= 0; --i) {
        P1P1 t = dbl({r.x, r.y, r.z});
        for (int j = 0; j < 3; ++j) t = dbl(to_p2(t));
        r = to_p3(t);
        if (ea[i]) r = to_p3(add(r, multiples[std::abs(ea[i]) - 1], ea[i]));
        if (eb[i]) r = to_p3(add(r, kBaseComb[0][std::abs(eb[i]) - 1], eb[i]));
    }
    return r;
}

// SHA-512(seed): the clamped secret scalar a in bytes 0..31, the nonce
// prefix in bytes 32..63.
std::array<uint8_t, 64> expand_seed(ConstBytes seed)
{
    if (seed.size() != 32) throw std::invalid_argument("ed25519: seed must be 32 bytes");
    Sha512 h;
    h.update(seed);
    auto d = h.finish();
    d[0] &= 248;
    d[31] &= 63;
    d[31] |= 64;
    return d;
}

// SHA-512(parts...) mod L.
template <typename... Parts>
std::array<uint8_t, 32> hash_mod_l(const Parts&... parts)
{
    Sha512 h;
    (h.update(parts), ...);
    std::array<uint8_t, 32> out;
    detail::sc_reduce(out.data(), h.finish().data());
    return out;
}

}  // namespace

namespace detail {

void sc_reduce(uint8_t out[32], const uint8_t in[64])
{
    int64_t x[64];
    for (int i = 0; i < 64; ++i) x[i] = in[i];
    mod_l(out, x);
}

void sc_muladd(uint8_t out[32], const uint8_t r[32], const uint8_t k[32], const uint8_t a[32])
{
    // Schoolbook product in unnormalised limbs (each < 32 * 255^2 + 255);
    // mod_l carries and reduces them.
    int64_t x[64] = {};
    for (int i = 0; i < 32; ++i) x[i] = r[i];
    for (int i = 0; i < 32; ++i) {
        for (int j = 0; j < 32; ++j) x[i + j] += int64_t{k[i]} * a[j];
    }
    mod_l(out, x);
}

void sc_recode_radix16(int8_t e[64], const uint8_t a[32])
{
    for (int i = 0; i < 32; ++i) {
        e[2 * i] = static_cast<int8_t>(a[i] & 15);
        e[2 * i + 1] = static_cast<int8_t>(a[i] >> 4);
    }
    // Each digit in [0, 15] plus an incoming carry moves to [-8, 8) by
    // handing 16 to the next digit.
    int8_t carry = 0;
    for (int i = 0; i < 63; ++i) {
        e[i] = static_cast<int8_t>(e[i] + carry);
        carry = static_cast<int8_t>((e[i] + 8) >> 4);
        e[i] = static_cast<int8_t>(e[i] - carry * 16);
    }
    e[63] = static_cast<int8_t>(e[63] + carry);
}

void base_mul_montgomery_u(uint8_t out[32], const uint8_t a[32])
{
    // u = (1 + y) / (1 - y) = (Z + Y) / (Z - Y); the identity maps to 0,
    // as the ladder's point at infinity does (fe_invert(0) == 0).
    P3 p = base_mul(a);
    fe_to_bytes(out, fe_mul(fe_add(p.z, p.y), fe_invert(fe_sub(p.z, p.y))));
}

}  // namespace detail

Bytes ed25519_public_from_seed(ConstBytes seed)
{
    P3 a = base_mul(expand_seed(seed).data());
    Bytes out(32);
    encode(out.data(), a, fe_invert(a.z));
    return out;
}

Ed25519KeyPair ed25519_keypair(Rng& rng)
{
    Ed25519KeyPair kp;
    kp.private_key = rng.bytes(32);
    kp.public_key = ed25519_public_from_seed(kp.private_key);
    return kp;
}

Bytes ed25519_sign(ConstBytes seed, ConstBytes message)
{
    auto exp = expand_seed(seed);
    auto r = hash_mod_l(ConstBytes(exp).subspan(32), message);
    P3 a = base_mul(exp.data()), big_r = base_mul(r.data());
    // One inversion encodes both: 1/Z_A = Z_R / (Z_A Z_R), and vice versa.
    Fe inv = fe_invert(fe_mul(a.z, big_r.z));
    uint8_t a_pub[32];
    encode(a_pub, a, fe_mul(inv, big_r.z));
    Bytes sig(kEd25519SignatureSize);  // R, then s
    encode(sig.data(), big_r, fe_mul(inv, a.z));

    auto k = hash_mod_l(ConstBytes(sig).first(32), ConstBytes(a_pub), message);
    detail::sc_muladd(sig.data() + 32, r.data(), k.data(), exp.data());
    return sig;
}

bool ed25519_verify(ConstBytes public_key, ConstBytes message, ConstBytes signature)
{
    if (public_key.size() != 32 || signature.size() != 64) return false;
    ConstBytes r_enc = signature.subspan(0, 32);
    ConstBytes s_le = signature.subspan(32, 32);
    if (!is_canonical_s(s_le)) return false;
    P3 neg_a;
    if (!decode_negated(neg_a, public_key.data()) || has_small_order(neg_a)) return false;

    // R' = s*B - k*A. R is never decoded: encode(R') is canonical, so a
    // non-canonical R fails the comparison below.
    auto k = hash_mod_l(r_enc, public_key, message);
    P3 r_check = double_scalar_mul_vartime(k.data(), neg_a, s_le.data());
    uint8_t r_check_enc[32];
    encode(r_check_enc, r_check, fe_invert(r_check.z));
    return std::memcmp(r_check_enc, r_enc.data(), 32) == 0;
}

}  // namespace mct::crypto
