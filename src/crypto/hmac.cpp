#include "crypto/hmac.h"

#include <cstring>

namespace mct::crypto {

HmacSha256::HmacSha256(ConstBytes key)
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
    std::array<uint8_t, Sha256::kBlockSize> ipad_key;
    for (size_t i = 0; i < k.size(); ++i) {
        ipad_key[i] = k[i] ^ 0x36;
        opad_key_[i] = k[i] ^ 0x5c;
    }
    inner_.update(ipad_key);
}

void HmacSha256::update(ConstBytes data)
{
    inner_.update(data);
}

std::array<uint8_t, HmacSha256::kTagSize> HmacSha256::finish_tag()
{
    auto inner_digest = inner_.finish();
    Sha256 outer;
    outer.update(opad_key_);
    outer.update(inner_digest);
    return outer.finish();
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
