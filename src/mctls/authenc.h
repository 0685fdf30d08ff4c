// Authenticated encryption for handshake key material (AuthEnc in Fig. 1).
//
// Encrypt-then-MAC: AES-128-CBC then HMAC-SHA256 over associated data and
// ciphertext. Used for every MiddleboxKeyMaterial message, keyed with
// K_C-M / K_S-M (to middleboxes) or K_endpoints (between endpoints).
#pragma once

#include "crypto/key.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/rng.h"

namespace mct::mctls {

// An AuthEnc key's raw bytes alone. Session caches keep keys in this form:
// the session that resumes from a ticket installs its keys (expanded on
// first use), so a cache of thousands of tickets holds no key schedules.
struct AuthEncKeyBytes {
    Bytes enc_key;  // 16 bytes
    Bytes mac_key;  // 32 bytes
};

// An installed AuthEnc key. Each half is expanded on its first use and kept
// (crypto/key.h), so sealing and opening key material never re-derives a
// key schedule or HMAC pads.
struct AuthEncKey {
    crypto::CipherKey enc_key;  // 16 bytes
    crypto::MacKey mac_key;     // 32 bytes

    AuthEncKey() = default;
    AuthEncKey(ConstBytes enc, ConstBytes mac) : enc_key(enc), mac_key(mac) {}
    explicit AuthEncKey(const AuthEncKeyBytes& raw) : AuthEncKey(raw.enc_key, raw.mac_key) {}

    AuthEncKeyBytes raw() const { return {to_bytes(enc_key.bytes()), to_bytes(mac_key.bytes())}; }
};

Bytes authenc_seal(const AuthEncKey& key, ConstBytes associated_data, ConstBytes plaintext,
                   Rng& rng);

Result<Bytes> authenc_open(const AuthEncKey& key, ConstBytes associated_data,
                           ConstBytes sealed);

}  // namespace mct::mctls
