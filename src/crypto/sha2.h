// SHA-256 and SHA-512 (FIPS 180-4).
//
// Round constants and initial hash values are compile-time tables, so first
// use costs nothing: SHA-256's are derived from the fractional parts of
// prime roots (the FIPS definition) by exact integer arithmetic in the
// compiler, SHA-512's are the FIPS 180-4 values written out. The whole
// construction is validated against published test vectors in tests/crypto.
//
// SHA-256 compression routes through the crypto dispatch table
// (crypto/cpu.h): SHA-NI when the CPU has it, the portable scalar rounds
// otherwise, with identical digests either way.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "util/bytes.h"

namespace mct::crypto {

struct CryptoDispatch;

// The eight 32-bit chaining words of SHA-256.
using Sha256State = std::array<uint32_t, 8>;

class Sha256 {
public:
    static constexpr size_t kDigestSize = 32;
    static constexpr size_t kBlockSize = 64;

    Sha256();
    // Continues a hash whose first `blocks` 64-byte blocks left `midstate`
    // (HMAC starts from its pre-hashed key pads this way).
    Sha256(const Sha256State& midstate, uint64_t blocks);

    void update(ConstBytes data);
    // Pads in place and compresses each final block once.
    std::array<uint8_t, kDigestSize> finish();

    // The chaining state; meaningful on a block boundary (nothing buffered).
    const Sha256State& midstate() const { return state_; }
    // The dispatch table this object was bound to at construction.
    const CryptoDispatch& backend() const { return *dispatch_; }

    // The FIPS 180-4 initial hash value: the state before the first block.
    static const Sha256State& initial_state();

    // Big-endian serialization of a chaining state into out[0, 32): the
    // digest once the final block has been compressed. On little-endian
    // hosts it is two 16-byte stores, so a compression that loads these
    // bytes next (HMAC's outer block) is forwarded from the store buffer
    // instead of waiting for 32 single-byte stores to retire.
    static void store_digest(const Sha256State& state, uint8_t* out)
    {
        if constexpr (std::endian::native == std::endian::little) {
            typedef uint32_t Lanes __attribute__((vector_size(16)));
            for (size_t half = 0; half < 2; ++half) {
                Lanes x;
                std::memcpy(&x, state.data() + 4 * half, sizeof x);
                x = (x << 24) | ((x << 8) & 0xff0000) | ((x >> 8) & 0xff00) | (x >> 24);
                std::memcpy(out + 16 * half, &x, sizeof x);
            }
        } else {
            std::memcpy(out, state.data(), kDigestSize);
        }
    }
    static std::array<uint8_t, kDigestSize> state_digest(const Sha256State& state)
    {
        std::array<uint8_t, kDigestSize> out;
        store_digest(state, out.data());
        return out;
    }

    static Bytes digest(ConstBytes data);

private:
    Sha256State state_;
    std::array<uint8_t, kBlockSize> buffer_;
    size_t buffered_ = 0;
    uint64_t total_bytes_ = 0;
    // Bound at construction so one object never mixes backends mid-stream.
    const CryptoDispatch* dispatch_;
};

class Sha512 {
public:
    static constexpr size_t kDigestSize = 64;
    static constexpr size_t kBlockSize = 128;

    Sha512();

    void update(ConstBytes data);
    std::array<uint8_t, kDigestSize> finish();

    static Bytes digest(ConstBytes data);

private:
    void compress(const uint8_t* block);

    std::array<uint64_t, 8> state_;
    std::array<uint8_t, kBlockSize> buffer_;
    size_t buffered_ = 0;
    uint64_t total_bytes_ = 0;
};

}  // namespace mct::crypto
