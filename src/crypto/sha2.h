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
#include <cstdint>

#include "util/bytes.h"

namespace mct::crypto {

struct CryptoDispatch;

class Sha256 {
public:
    static constexpr size_t kDigestSize = 32;
    static constexpr size_t kBlockSize = 64;

    Sha256();

    void update(ConstBytes data);
    std::array<uint8_t, kDigestSize> finish();

    static Bytes digest(ConstBytes data);

private:
    std::array<uint32_t, 8> state_;
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
