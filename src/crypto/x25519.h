// X25519 Diffie-Hellman (RFC 7748).
//
// Plays the role of the paper's ephemeral Diffie-Hellman exchange
// (DH+_E / DH-_E, DHCombine) in both the TLS baseline and mcTLS handshakes.
#pragma once

#include "util/bytes.h"
#include "util/result.h"
#include "util/rng.h"

namespace mct::crypto {

constexpr size_t kX25519KeySize = 32;

struct X25519KeyPair {
    Bytes public_key;   // 32 bytes
    Bytes private_key;  // 32 bytes (clamped scalar)
};

// Scalar multiplication k * u on the Montgomery curve.
Bytes x25519(ConstBytes scalar32, ConstBytes u32);

// The two halves of key generation, for callers that may never need the
// public key: 32 bytes drawn from `rng` and clamped, and the base-point
// multiplication (the curve work) for that private key.
Bytes x25519_private_key(Rng& rng);
Bytes x25519_public_key(ConstBytes private_key);

// x25519_private_key then x25519_public_key.
X25519KeyPair x25519_keypair(Rng& rng);

// DHCombine: shared secret from our private key and the peer's public key.
// Fails on an all-zero result (low-order peer point) and on a wrong-sized
// peer key — the peer's share arrives off the wire, so a bad length must be
// a handshake error, never a thrown exception.
Result<Bytes> x25519_shared(ConstBytes private_key, ConstBytes peer_public);

}  // namespace mct::crypto
