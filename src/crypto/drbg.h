// HMAC-DRBG with SHA-256 (NIST SP 800-90A), implementing the Rng interface.
//
// Protocol randomness (hello randoms, secrets, session ids, ephemeral keys,
// and the key of each session's CBC IV source, crypto::IvSource in
// crypto/aes.h) is drawn from a DRBG so experiments are reproducible from a
// seed while exercising the same code paths a production entropy source
// would. CBC IVs themselves come from the IV source, one AES block each.
#pragma once

#include <array>

#include "crypto/hmac.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace mct::crypto {

class HmacDrbg final : public Rng {
public:
    explicit HmacDrbg(ConstBytes seed);

    // Allocation-free: the key is held expanded, V on the object.
    void fill(MutableBytes out) override;

    void reseed(ConstBytes entropy);

private:
    void update(ConstBytes provided);

    HmacKey key_;
    HmacTag v_;
};

}  // namespace mct::crypto
