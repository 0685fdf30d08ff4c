#include "crypto/x25519.h"

#include <stdexcept>

#include "crypto/ed25519.h"
#include "crypto/fe25519.h"

namespace mct::crypto {

namespace {

Bytes clamp(ConstBytes scalar)
{
    if (scalar.size() != 32) throw std::invalid_argument("x25519: inputs must be 32 bytes");
    Bytes k = to_bytes(scalar);
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
    return k;
}

}  // namespace

Bytes x25519(ConstBytes scalar32, ConstBytes u32)
{
    if (u32.size() != 32) throw std::invalid_argument("x25519: inputs must be 32 bytes");
    Bytes k = clamp(scalar32);
    // The Montgomery ladder: one conditional swap per scalar bit, the same
    // field operations whatever the bit.
    Fe x1 = fe_from_bytes(u32.data());
    Fe x2 = fe_one(), z2 = fe_zero();
    Fe x3 = x1, z3 = fe_one();
    uint64_t swap = 0;
    for (int t = 254; t >= 0; --t) {
        uint64_t k_t = (k[t / 8] >> (t % 8)) & 1;
        swap ^= k_t;
        fe_cswap(x2, x3, swap);
        fe_cswap(z2, z3, swap);
        swap = k_t;

        Fe a = fe_add(x2, z2);
        Fe aa = fe_sq(a);
        Fe b = fe_sub(x2, z2);
        Fe bb = fe_sq(b);
        Fe e = fe_sub(aa, bb);
        Fe c = fe_add(x3, z3);
        Fe d = fe_sub(x3, z3);
        Fe da = fe_mul(d, a);
        Fe cb = fe_mul(c, b);
        x3 = fe_sq(fe_add(da, cb));
        z3 = fe_mul(x1, fe_sq(fe_sub(da, cb)));
        x2 = fe_mul(aa, bb);
        z2 = fe_mul(e, fe_add(aa, fe_mul_small(e, 121665)));
    }
    fe_cswap(x2, x3, swap);
    fe_cswap(z2, z3, swap);
    Bytes out(32);
    fe_to_bytes(out.data(), fe_mul(x2, fe_invert(z2)));
    return out;
}

Bytes x25519_private_key(Rng& rng)
{
    return clamp(rng.bytes(32));
}

Bytes x25519_public_key(ConstBytes private_key)
{
    // k * 9 on the Montgomery curve is k * B on the birationally equivalent
    // Edwards curve, mapped back: the fixed-base comb instead of the ladder.
    Bytes k = clamp(private_key);
    Bytes out(32);
    detail::base_mul_montgomery_u(out.data(), k.data());
    return out;
}

X25519KeyPair x25519_keypair(Rng& rng)
{
    X25519KeyPair kp;
    kp.private_key = x25519_private_key(rng);
    kp.public_key = x25519_public_key(kp.private_key);
    return kp;
}

Result<Bytes> x25519_shared(ConstBytes private_key, ConstBytes peer_public)
{
    if (private_key.size() != 32) return err("x25519: private key must be 32 bytes");
    if (peer_public.size() != 32) return err("x25519: peer public key must be 32 bytes");
    Bytes shared = x25519(private_key, peer_public);
    uint8_t acc = 0;
    for (uint8_t b : shared) acc |= b;
    if (acc == 0) return err("x25519: low-order peer public key");
    return shared;
}

}  // namespace mct::crypto
