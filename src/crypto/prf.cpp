#include "crypto/prf.h"

#include <algorithm>
#include <cstring>

#include "crypto/cpu.h"
#include "crypto/hmac.h"

namespace mct::crypto {

namespace {

// A(i) || label || seed for every label || seed up to this size minus
// 41 bytes (32 for A(i), 9 of padding) is padded once per call.
constexpr size_t kFusedBuffer = 4 * Sha256::kBlockSize;

}  // namespace

void prf(const HmacKey& secret, std::string_view label, ConstBytes seed, MutableBytes out)
{
    if (out.empty()) return;
    constexpr size_t kDigest = Sha256::kDigestSize;
    ConstBytes label_bytes{reinterpret_cast<const uint8_t*>(label.data()), label.size()};
    HmacTag a = hmac_sha256(secret, {label_bytes, seed});  // A(1) = HMAC(secret, label || seed)

    // The block inputs differ only in their first 32 bytes, A(i): write the
    // label || seed tail and the padding once, then only A(i) per block.
    const CryptoDispatch& d = dispatch();
    uint8_t msg[kFusedBuffer];
    size_t msg_len = kDigest + label_bytes.size() + seed.size();
    bool fused = msg_len + 9 <= sizeof msg;
    size_t blocks = 0;
    if (fused) {
        std::copy(label_bytes.begin(), label_bytes.end(), msg + kDigest);
        std::copy(seed.begin(), seed.end(), msg + kDigest + label_bytes.size());
        blocks = detail::hmac_pad(msg, msg_len, msg_len);
    }
    for (size_t produced = 0;;) {
        HmacTag tag;
        if (fused) {
            std::memcpy(msg, a.data(), kDigest);
            tag = detail::hmac_padded(d, secret, msg, blocks);
        } else {
            tag = hmac_sha256(secret, {a, label_bytes, seed});
        }
        size_t take = std::min(tag.size(), out.size() - produced);
        std::copy_n(tag.begin(), take, out.begin() + static_cast<ptrdiff_t>(produced));
        produced += take;
        if (produced == out.size()) return;
        a = hmac_sha256(secret, {a});  // A(i+1) = HMAC(secret, A(i))
    }
}

Bytes prf(ConstBytes secret, std::string_view label, ConstBytes seed, size_t out_len)
{
    Bytes out(out_len);
    prf(HmacKey(secret), label, seed, out);
    return out;
}

}  // namespace mct::crypto
