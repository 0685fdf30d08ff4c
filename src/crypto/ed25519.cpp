#include "crypto/ed25519.h"

#include <array>
#include <stdexcept>

#include "crypto/fe25519.h"
#include "crypto/sha2.h"

namespace mct::crypto {

namespace {

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

// Twisted Edwards curve -x^2 + y^2 = 1 + d x^2 y^2.
const Fe& curve_d()
{
    static const Fe d = [] {
        Fe num = fe_neg(fe_from_u64(121665));
        Fe den = fe_from_u64(121666);
        return fe_mul(num, fe_invert(den));
    }();
    return d;
}

const Fe& curve_2d()
{
    static const Fe d2 = fe_add(curve_d(), curve_d());
    return d2;
}

// Extended homogeneous coordinates: x = X/Z, y = Y/Z, T = XY/Z.
struct Point {
    Fe x, y, z, t;
};

Point identity()
{
    return {fe_zero(), fe_one(), fe_one(), fe_zero()};
}

Point point_add(const Point& p, const Point& q)
{
    Fe a = fe_mul(fe_sub(p.y, p.x), fe_sub(q.y, q.x));
    Fe b = fe_mul(fe_add(p.y, p.x), fe_add(q.y, q.x));
    Fe c = fe_mul(fe_mul(p.t, curve_2d()), q.t);
    Fe d = fe_mul(fe_add(p.z, p.z), q.z);
    Fe e = fe_sub(b, a);
    Fe f = fe_sub(d, c);
    Fe g = fe_add(d, c);
    Fe h = fe_add(b, a);
    return {fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

Point point_double(const Point& p)
{
    Fe xx = fe_sq(p.x);
    Fe yy = fe_sq(p.y);
    Fe zz2 = fe_mul_small(fe_sq(p.z), 2);
    Fe xy2 = fe_sq(fe_add(p.x, p.y));
    Fe y_num = fe_add(yy, xx);           // -a*x^2 + y^2 with a = -1
    Fe z_num = fe_sub(yy, xx);
    Fe x_num = fe_sub(xy2, y_num);       // 2xy
    Fe t_num = fe_sub(zz2, z_num);
    return {fe_mul(x_num, t_num), fe_mul(y_num, z_num), fe_mul(z_num, t_num),
            fe_mul(x_num, y_num)};
}

// scalar (little-endian bytes) * point, simple MSB-first double-and-add.
Point point_mul(ConstBytes scalar_le, const Point& p)
{
    Point acc = identity();
    for (size_t byte = scalar_le.size(); byte-- > 0;) {
        for (int bit = 7; bit >= 0; --bit) {
            acc = point_double(acc);
            if ((scalar_le[byte] >> bit) & 1) acc = point_add(acc, p);
        }
    }
    return acc;
}

Bytes point_encode(const Point& p)
{
    Fe zinv = fe_invert(p.z);
    Fe x = fe_mul(p.x, zinv);
    Fe y = fe_mul(p.y, zinv);
    Bytes out = fe_to_bytes(y);
    if (fe_is_negative(x)) out[31] |= 0x80;
    return out;
}

bool point_decode(ConstBytes b32, Point& out)
{
    if (b32.size() != 32) return false;
    bool sign = b32[31] & 0x80;
    Fe y = fe_from_bytes(b32);  // fe_from_bytes ignores the top bit
    // x^2 = (y^2 - 1) / (d y^2 + 1)
    Fe yy = fe_sq(y);
    Fe num = fe_sub(yy, fe_one());
    Fe den = fe_add(fe_mul(curve_d(), yy), fe_one());
    Fe x2 = fe_mul(num, fe_invert(den));
    Fe x;
    if (!fe_sqrt(x2, x)) return false;
    if (fe_is_zero(x) && sign) return false;  // -0 is invalid
    if (fe_is_negative(x) != sign) x = fe_neg(x);
    out = {x, y, fe_one(), fe_mul(x, y)};
    return true;
}

const Point& base_point()
{
    static const Point B = [] {
        // By = 4/5; Bx is the even root.
        Fe y = fe_mul(fe_from_u64(4), fe_invert(fe_from_u64(5)));
        Bytes enc = fe_to_bytes(y);  // sign bit 0 = even x
        Point b;
        if (!point_decode(enc, b)) throw std::logic_error("ed25519: base point decode failed");
        return b;
    }();
    return B;
}

std::array<uint8_t, 32> reduce_mod_l(ConstBytes wide_le)
{
    std::array<uint8_t, 32> out;
    detail::sc_reduce(out.data(), wide_le.data());
    return out;
}

struct ExpandedSeed {
    Bytes scalar;  // clamped a, little-endian
    Bytes prefix;  // second half of SHA-512(seed)
};

ExpandedSeed expand_seed(ConstBytes seed)
{
    if (seed.size() != 32) throw std::invalid_argument("ed25519: seed must be 32 bytes");
    Bytes h = Sha512::digest(seed);
    ExpandedSeed out;
    out.scalar = Bytes(h.begin(), h.begin() + 32);
    out.scalar[0] &= 248;
    out.scalar[31] &= 63;
    out.scalar[31] |= 64;
    out.prefix = Bytes(h.begin() + 32, h.end());
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

}  // namespace detail

Bytes ed25519_public_from_seed(ConstBytes seed)
{
    auto exp = expand_seed(seed);
    return point_encode(point_mul(exp.scalar, base_point()));
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
    Bytes a_pub = point_encode(point_mul(exp.scalar, base_point()));

    auto r = reduce_mod_l(Sha512::digest(concat(exp.prefix, message)));
    Bytes sig = point_encode(point_mul(r, base_point()));  // R; s goes after it

    auto k = reduce_mod_l(Sha512::digest(concat(sig, a_pub, message)));
    sig.resize(kEd25519SignatureSize);
    detail::sc_muladd(sig.data() + 32, r.data(), k.data(), exp.scalar.data());
    return sig;
}

bool ed25519_verify(ConstBytes public_key, ConstBytes message, ConstBytes signature)
{
    if (public_key.size() != 32 || signature.size() != 64) return false;
    Point a;
    if (!point_decode(public_key, a)) return false;
    ConstBytes r_enc = signature.subspan(0, 32);
    ConstBytes s_le = signature.subspan(32, 32);
    if (!is_canonical_s(s_le)) return false;
    Point r;
    if (!point_decode(r_enc, r)) return false;

    auto k = reduce_mod_l(
        Sha512::digest(concat(to_bytes(r_enc), to_bytes(public_key), to_bytes(message))));

    // Check s*B == R + k*A.
    Point sb = point_mul(s_le, base_point());
    Point rka = point_add(r, point_mul(k, a));
    return point_encode(sb) == point_encode(rka);
}

}  // namespace mct::crypto
