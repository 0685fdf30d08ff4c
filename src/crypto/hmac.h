// HMAC (RFC 2104) over SHA-256.
#pragma once

#include <array>

#include "crypto/sha2.h"
#include "util/bytes.h"

namespace mct::crypto {

// An HMAC-SHA256 key in expanded form: the SHA-256 chaining states after
// the key XOR ipad and key XOR opad blocks. Built once when a key is
// installed, so each MAC under it starts hashing data straight away and
// finishes with a single outer compression.
class HmacKey {
public:
    explicit HmacKey(ConstBytes key);

    const Sha256State& inner() const { return inner_; }
    const Sha256State& outer() const { return outer_; }

private:
    Sha256State inner_;
    Sha256State outer_;
};

class HmacSha256 {
public:
    static constexpr size_t kTagSize = Sha256::kDigestSize;

    explicit HmacSha256(const HmacKey& key);
    // Expands `key` for this one MAC; code that MACs repeatedly under one
    // key keeps an HmacKey instead.
    explicit HmacSha256(ConstBytes key);

    void update(ConstBytes data);

    // Allocation-free tag for the record fast path.
    std::array<uint8_t, kTagSize> finish_tag();
    Bytes finish();

    static Bytes mac(ConstBytes key, ConstBytes data);

private:
    Sha256 inner_;
    Sha256State outer_;
};

}  // namespace mct::crypto
