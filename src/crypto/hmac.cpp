#include "crypto/hmac.h"

#include <algorithm>
#include <cstring>

#include "crypto/cpu.h"

namespace mct::crypto {

namespace {

constexpr size_t kBlock = Sha256::kBlockSize;
constexpr size_t kDigest = Sha256::kDigestSize;
// The one-shot's stack buffer; a message shorter than this (every PRF,
// DRBG and small-record MAC) is hashed in one dispatch call.
constexpr size_t kBuffer = 16 * kBlock;

// The one-block shape of HMAC's outer hash, which an HMAC of a 32-byte
// message (a PRF A(i), a DRBG V) shares: 32 bytes, then the padding
// hmac_pad() gives them, built at compile time.
constexpr std::array<uint8_t, kBlock> kDigestBlock = [] {
    std::array<uint8_t, kBlock> block{};
    detail::hmac_pad(block.data(), kDigest, kDigest);
    return block;
}();

// The outer hash: the inner digest, written big-endian from the inner
// chaining state straight into the padded block, compressed once from the
// key's outer midstate. The only HMAC outer-block routine.
HmacTag hmac_outer(const CryptoDispatch& d, const Sha256State& outer, const Sha256State& inner)
{
    std::array<uint8_t, kBlock> block = kDigestBlock;
    Sha256::store_digest(inner, block.data());
    Sha256State state = outer;
    d.sha256_compress(state.data(), block.data(), 1);
    return Sha256::state_digest(state);
}

}  // namespace

namespace detail {

HmacTag hmac_padded(const CryptoDispatch& d, const HmacKey& key, const uint8_t* padded,
                    size_t blocks)
{
    Sha256State inner = key.inner();
    d.sha256_compress(inner.data(), padded, blocks);
    return hmac_outer(d, key.outer(), inner);
}

}  // namespace detail

HmacKey::HmacKey(ConstBytes key)
{
    uint8_t pad[kBlock] = {};
    if (key.size() > kBlock) {
        Sha256 h;
        h.update(key);
        auto digest = h.finish();
        std::memcpy(pad, digest.data(), digest.size());
    } else if (!key.empty()) {  // empty spans may carry a null data()
        std::memcpy(pad, key.data(), key.size());
    }
    const CryptoDispatch& d = dispatch();
    for (auto& b : pad) b ^= 0x36;
    inner_ = Sha256::initial_state();
    d.sha256_compress(inner_.data(), pad, 1);
    for (auto& b : pad) b ^= 0x36 ^ 0x5c;
    outer_ = Sha256::initial_state();
    d.sha256_compress(outer_.data(), pad, 1);
}

HmacTag hmac_sha256(const HmacKey& key, std::initializer_list<ConstBytes> parts)
{
    const CryptoDispatch& d = dispatch();
    Sha256State inner = key.inner();
    if (parts.size() == 1 && parts.begin()->size() == kDigest) {
        // The outer hash's shape: one block from the template, with no
        // padding to write.
        std::array<uint8_t, kBlock> block = kDigestBlock;
        std::memcpy(block.data(), parts.begin()->data(), kDigest);
        d.sha256_compress(inner.data(), block.data(), 1);
        return hmac_outer(d, key.outer(), inner);
    }
    uint8_t buf[kBuffer + kBlock];  // the slack holds the final padding
    size_t fill = 0;
    uint64_t total = 0;
    for (ConstBytes part : parts) {
        total += part.size();
        while (!part.empty()) {
            if (fill == 0 && part.size() >= kBuffer) {
                size_t blocks = part.size() / kBlock;
                d.sha256_compress(inner.data(), part.data(), blocks);
                part = part.subspan(blocks * kBlock);
                continue;
            }
            size_t take = std::min(part.size(), kBuffer - fill);
            std::memcpy(buf + fill, part.data(), take);
            fill += take;
            part = part.subspan(take);
            if (fill == kBuffer) {
                d.sha256_compress(inner.data(), buf, kBuffer / kBlock);
                fill = 0;
            }
        }
    }
    size_t blocks = detail::hmac_pad(buf, fill, total);
    d.sha256_compress(inner.data(), buf, blocks);
    return hmac_outer(d, key.outer(), inner);
}

HmacSha256::HmacSha256(const HmacKey& key) : inner_(key.inner(), 1), outer_(key.outer()) {}

HmacSha256::HmacSha256(ConstBytes key) : HmacSha256(HmacKey(key)) {}

void HmacSha256::update(ConstBytes data)
{
    inner_.update(data);
}

HmacTag HmacSha256::finish_tag()
{
    inner_.finish();
    return hmac_outer(inner_.backend(), outer_, inner_.midstate());
}

Bytes HmacSha256::finish()
{
    auto d = finish_tag();
    return Bytes(d.begin(), d.end());
}

Bytes HmacSha256::mac(ConstBytes key, ConstBytes data)
{
    auto tag = hmac_sha256(HmacKey(key), {data});
    return Bytes(tag.begin(), tag.end());
}

}  // namespace mct::crypto
