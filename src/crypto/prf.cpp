#include "crypto/prf.h"

#include <algorithm>

#include "crypto/hmac.h"

namespace mct::crypto {

void prf(const HmacKey& secret, std::string_view label, ConstBytes seed, MutableBytes out)
{
    if (out.empty()) return;
    ConstBytes label_bytes{reinterpret_cast<const uint8_t*>(label.data()), label.size()};
    HmacSha256 first(secret);
    first.update(label_bytes);
    first.update(seed);
    auto a = first.finish_tag();  // A(1) = HMAC(secret, label || seed)
    for (size_t produced = 0;;) {
        HmacSha256 block(secret);
        block.update(a);
        block.update(label_bytes);
        block.update(seed);
        auto tag = block.finish_tag();
        size_t take = std::min(tag.size(), out.size() - produced);
        std::copy_n(tag.begin(), take, out.begin() + static_cast<ptrdiff_t>(produced));
        produced += take;
        if (produced == out.size()) return;
        HmacSha256 next(secret);
        next.update(a);
        a = next.finish_tag();  // A(i+1) = HMAC(secret, A(i))
    }
}

Bytes prf(ConstBytes secret, std::string_view label, ConstBytes seed, size_t out_len)
{
    Bytes out(out_len);
    prf(HmacKey(secret), label, seed, out);
    return out;
}

}  // namespace mct::crypto
