// HMAC (RFC 2104) over SHA-256.
//
// One core serves every MAC in the library: hmac_sha256() below (PRF, DRBG,
// record and key-material MACs), and HmacSha256 for callers that stream a
// message in pieces. Both finish through the same outer-block routine.
#pragma once

#include <array>
#include <initializer_list>

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

using HmacTag = std::array<uint8_t, Sha256::kDigestSize>;

// HMAC-SHA256 under `key` of the concatenation of `parts`, without a hash
// object: the message, the 0x80 byte and the bit length are written into
// one stack buffer, every inner block is compressed in one dispatch call
// from the key's inner midstate, and the inner digest is written straight
// into the single outer block. A message longer than the buffer (1 KiB) is
// compressed one buffer at a time, and long parts in place. Allocation-free.
HmacTag hmac_sha256(const HmacKey& key, std::initializer_list<ConstBytes> parts);

// Streaming HMAC, for messages built up in pieces.
class HmacSha256 {
public:
    static constexpr size_t kTagSize = Sha256::kDigestSize;

    explicit HmacSha256(const HmacKey& key);
    // Expands `key` for this one MAC; code that MACs repeatedly under one
    // key keeps an HmacKey instead.
    explicit HmacSha256(ConstBytes key);

    void update(ConstBytes data);

    // Allocation-free tag.
    HmacTag finish_tag();
    Bytes finish();

    static Bytes mac(ConstBytes key, ConstBytes data);

private:
    Sha256 inner_;
    Sha256State outer_;
};

struct CryptoDispatch;

namespace detail {

// Pads the last `len` bytes of an HMAC inner message, `message_len` bytes
// in all (the earlier ones already compressed, in whole blocks), in place
// at `buf`: 0x80, zeros, and the bit length of the key block plus the
// message. `buf` must have room up to the end of the block that holds
// len + 9 bytes. Returns the padded tail's length in blocks. constexpr, so
// the fixed outer block is padded by it at compile time.
constexpr size_t hmac_pad(uint8_t* buf, size_t len, uint64_t message_len)
{
    constexpr size_t kBlock = Sha256::kBlockSize;
    // The key block precedes the message, so the length counts it too.
    uint64_t bits = (kBlock + message_len) * 8;
    size_t end = (len + 9 + kBlock - 1) / kBlock * kBlock;
    buf[len] = 0x80;
    for (size_t i = len + 1; i < end - 8; ++i) buf[i] = 0;
    for (size_t i = 0; i < 8; ++i) buf[end - 8 + i] = static_cast<uint8_t>(bits >> (56 - 8 * i));
    return end / kBlock;
}

// HMAC of a message hmac_pad() has padded: its `blocks` inner blocks in one
// dispatch call from the key's inner midstate, then the outer block.
HmacTag hmac_padded(const CryptoDispatch& d, const HmacKey& key, const uint8_t* padded,
                    size_t blocks);

}  // namespace detail

}  // namespace mct::crypto
