#include "crypto/drbg.h"

#include <algorithm>

namespace mct::crypto {

namespace {

constexpr std::array<uint8_t, Sha256::kDigestSize> kInitialKey{};  // all 0x00

}  // namespace

HmacDrbg::HmacDrbg(ConstBytes seed) : key_(kInitialKey)
{
    v_.fill(0x01);
    update(seed);
}

// SP 800-90A §10.1.2.2: K = HMAC(K, V || round || provided), V = HMAC(K, V),
// with the second round only when data was provided.
void HmacDrbg::update(ConstBytes provided)
{
    for (uint8_t round = 0x00; round <= 0x01; ++round) {
        if (round == 0x01 && provided.empty()) break;
        key_ = HmacKey(hmac_sha256(key_, {v_, ConstBytes{&round, 1}, provided}));
        v_ = hmac_sha256(key_, {v_});
    }
}

void HmacDrbg::reseed(ConstBytes entropy)
{
    update(entropy);
}

void HmacDrbg::fill(MutableBytes out)
{
    size_t produced = 0;
    while (produced < out.size()) {
        v_ = hmac_sha256(key_, {v_});
        size_t take = std::min(v_.size(), out.size() - produced);
        std::copy_n(v_.begin(), take, out.begin() + static_cast<ptrdiff_t>(produced));
        produced += take;
    }
    update({});
}

}  // namespace mct::crypto
