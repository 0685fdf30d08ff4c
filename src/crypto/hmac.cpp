#include "crypto/hmac.h"

#include <cstring>

#include "crypto/cpu.h"

namespace mct::crypto {

HmacKey::HmacKey(ConstBytes key)
{
    std::array<uint8_t, Sha256::kBlockSize> k{};
    if (key.size() > Sha256::kBlockSize) {
        Sha256 h;
        h.update(key);
        auto digest = h.finish();
        std::memcpy(k.data(), digest.data(), digest.size());
    } else if (!key.empty()) {  // empty spans may carry a null data()
        std::memcpy(k.data(), key.data(), key.size());
    }
    for (auto& b : k) b ^= 0x36;
    Sha256 inner;
    inner.update(k);
    inner_ = inner.midstate();
    for (auto& b : k) b ^= 0x36 ^ 0x5c;
    Sha256 outer;
    outer.update(k);
    outer_ = outer.midstate();
}

HmacSha256::HmacSha256(const HmacKey& key) : inner_(key.inner(), 1), outer_(key.outer()) {}

HmacSha256::HmacSha256(ConstBytes key) : HmacSha256(HmacKey(key)) {}

void HmacSha256::update(ConstBytes data)
{
    inner_.update(data);
}

std::array<uint8_t, HmacSha256::kTagSize> HmacSha256::finish_tag()
{
    // The outer hash is always one block: the 32-byte inner digest, the
    // 0x80 pad byte, zeros, and the bit length of opad block + digest.
    constexpr uint64_t kOuterBits = (Sha256::kBlockSize + Sha256::kDigestSize) * 8;
    std::array<uint8_t, Sha256::kBlockSize> block{};
    auto inner_digest = inner_.finish();
    std::memcpy(block.data(), inner_digest.data(), inner_digest.size());
    block[Sha256::kDigestSize] = 0x80;
    block[Sha256::kBlockSize - 2] = static_cast<uint8_t>(kOuterBits >> 8);
    block[Sha256::kBlockSize - 1] = static_cast<uint8_t>(kOuterBits);
    inner_.backend().sha256_compress(outer_.data(), block.data(), 1);
    return Sha256::state_digest(outer_);
}

Bytes HmacSha256::finish()
{
    auto d = finish_tag();
    return Bytes(d.begin(), d.end());
}

Bytes HmacSha256::mac(ConstBytes key, ConstBytes data)
{
    HmacSha256 h(key);
    h.update(data);
    return h.finish();
}

}  // namespace mct::crypto
