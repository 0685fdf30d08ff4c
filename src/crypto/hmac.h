// HMAC (RFC 2104) over SHA-256.
#pragma once

#include <array>

#include "crypto/sha2.h"
#include "util/bytes.h"

namespace mct::crypto {

class HmacSha256 {
public:
    static constexpr size_t kTagSize = Sha256::kDigestSize;

    explicit HmacSha256(ConstBytes key);

    void update(ConstBytes data);

    // Allocation-free tag for the record fast path.
    std::array<uint8_t, kTagSize> finish_tag();
    Bytes finish();

    static Bytes mac(ConstBytes key, ConstBytes data);

private:
    Sha256 inner_;
    // Key XOR opad, kept on the stack for the outer hash so constructing
    // and finishing an HMAC never touches the heap (the record path runs
    // three of these per record).
    std::array<uint8_t, Sha256::kBlockSize> opad_key_;
};

}  // namespace mct::crypto
