// Ed25519 signatures (RFC 8032).
//
// Stands in for the paper's RSA signing keys (PK+_E / PK-_E, Sign): every
// certificate and ServerKeyExchange/MiddleboxKeyExchange signature in the
// TLS baseline and mcTLS handshakes uses this scheme.
#pragma once

#include "util/bytes.h"
#include "util/rng.h"

namespace mct::crypto {

constexpr size_t kEd25519PublicKeySize = 32;
constexpr size_t kEd25519PrivateKeySize = 32;  // seed
constexpr size_t kEd25519SignatureSize = 64;

struct Ed25519KeyPair {
    Bytes public_key;   // 32 bytes
    Bytes private_key;  // 32-byte seed
};

Ed25519KeyPair ed25519_keypair(Rng& rng);

// Derive the public key from a 32-byte seed.
Bytes ed25519_public_from_seed(ConstBytes seed);

Bytes ed25519_sign(ConstBytes seed, ConstBytes message);

// Accepts iff encode(s*B - k*A) equals the signature's R bytes. Rejects
// s >= L, a public key or R with a non-canonical y (y >= p, RFC 8032
// §5.1.3), and a small-order public key (8*A is the identity).
bool ed25519_verify(ConstBytes public_key, ConstBytes message, ConstBytes signature);

namespace detail {

// Scalar arithmetic mod the group order L on little-endian byte strings
// (exposed for the boundary tests). Results are canonical (< L); neither
// function allocates or branches or indexes on its inputs.
void sc_reduce(uint8_t out[32], const uint8_t in[64]);  // in mod L
void sc_muladd(uint8_t out[32], const uint8_t r[32], const uint8_t k[32],
               const uint8_t a[32]);  // r + k * a mod L

// The recoding of a (a[31] <= 127) into 64 signed radix-16 digits that
// the fixed-base comb and verify's double-scalar product walk: a = sum
// e[i] * 16^i with e[i] in [-8, 8). Only e[63] can be 8. Constant time.
void sc_recode_radix16(int8_t e[64], const uint8_t a[32]);

// a * B on the fixed-base comb (a[31] <= 127), returned as the Montgomery
// u-coordinate (1 + y) / (1 - y): for a clamped scalar, the X25519 public
// key. Constant time in a.
void base_mul_montgomery_u(uint8_t out[32], const uint8_t a[32]);

}  // namespace detail

}  // namespace mct::crypto
