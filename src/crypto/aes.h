// AES-128 (FIPS 197) block cipher plus CBC mode with PKCS#7 padding.
//
// The S-box and round constants are derived from their algebraic definition
// (GF(2^8) inversion + affine map) at compile time and the cipher is
// validated against the FIPS 197 vectors in tests/crypto. CBC+HMAC matches
// the paper's AES128-SHA256 record protection.
//
// All bulk work routes through the active crypto dispatch table
// (crypto/cpu.h): AES-NI on CPUs that have it, the portable scalar code
// otherwise. Ciphertext bytes are identical either way (CBC is
// deterministic in key, IV and input); tests/crypto/backend_equiv_test.cpp
// holds the two arms to byte equality.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"
#include "util/result.h"
#include "util/rng.h"

namespace mct::crypto {

struct CryptoDispatch;

class Aes128 {
public:
    static constexpr size_t kBlockSize = 16;
    static constexpr size_t kKeySize = 16;
    static constexpr size_t kScheduleSize = 176;  // 11 round keys, flat

    // Precondition: key.size() == kKeySize. Keys are derived inside this
    // library (PRF output), so a bad size is a programming error, not a
    // remote-triggerable condition; it throws std::invalid_argument.
    explicit Aes128(ConstBytes key);

    void encrypt_block(const uint8_t in[16], uint8_t out[16]) const;
    void decrypt_block(const uint8_t in[16], uint8_t out[16]) const;

    // Raw schedules + the dispatch table this object was bound to at
    // construction, for the mode helpers below (internal use).
    const uint8_t* round_keys() const { return rk_.data(); }
    const uint8_t* dec_round_keys() const { return drk_.data(); }
    const CryptoDispatch& backend() const { return *dispatch_; }

private:
    // Encryption schedule and the equivalent-inverse-cipher schedule (see
    // crypto/cpu.h); both are filled at construction so any backend can
    // drive this object.
    alignas(16) std::array<uint8_t, kScheduleSize> rk_;
    alignas(16) std::array<uint8_t, kScheduleSize> drk_;
    const CryptoDispatch* dispatch_;
};

// The source of every CBC IV a session draws: AES-128 in counter mode,
// IV i = AES_K(be128(i)), where K is 16 bytes drawn once from the party's
// own Rng. K is never derived from a key another party holds, so every IV is
// unpredictable to every other party, readers included (an IV derived from a
// shared context key and the sequence number would repeat across the
// endpoint's seal and a writer's reseal of one record under one key). The
// counter never resets. One AES block per IV, where an HMAC-DRBG draw costs
// 8 SHA-256 compressions; the schedule is expanded once, so fill() does not
// allocate. A partial trailing block is truncated.
class IvSource final : public Rng {
public:
    explicit IvSource(Rng& seed);

    void fill(MutableBytes out) override;

private:
    Aes128 cipher_;
    uint64_t counter_ = 0;
};

// Exact IV+ciphertext size CBC produces for `plaintext_len` plaintext bytes.
constexpr size_t cbc_ciphertext_size(size_t plaintext_len)
{
    return Aes128::kBlockSize +
           (plaintext_len / Aes128::kBlockSize + 1) * Aes128::kBlockSize;
}

// Streaming CBC encryption: appends IV and ciphertext to `out` as data
// arrives, so callers can encrypt multiple spans (payload || MACs) without
// concatenating them first. Wire-identical to aes128_cbc_encrypt_into over the
// concatenation of all update() spans. finish() must be called exactly once;
// it appends the final PKCS#7-padded block. The stream owns the tail of
// `out` while alive: the caller must not append to (or shrink) `out`
// between construction and finish(). The key schedule and dispatch table
// are taken from `cipher`, so a protector's cached Aes128 pays for key
// expansion exactly once.
class CbcEncryptStream {
public:
    CbcEncryptStream(const Aes128& cipher, Rng& rng, Bytes& out);
    void update(ConstBytes data);
    void finish();

private:
    void emit_block(const uint8_t block[Aes128::kBlockSize]);

    const Aes128& cipher_;
    const CryptoDispatch& dispatch_;  // cached: one indirection per call, not per block
    Bytes& out_;
    uint8_t chain_[Aes128::kBlockSize];    // previous ciphertext block (or IV)
    uint8_t pending_[Aes128::kBlockSize];  // partial plaintext block
    size_t pending_len_ = 0;
};

// CBC with PKCS#7 padding; a fresh IV is drawn from `rng` (in a session, its
// IvSource) and prepended to the ciphertext (TLS 1.2 explicit-IV style).
// Every CBC call appends to a caller-owned buffer and takes an
// already-expanded key schedule, so steady-state callers do no per-record
// heap allocation or key expansion. `plaintext` may view into `out` (e.g.
// sealing a buffer onto its own tail) provided the caller reserved capacity
// so the append does not reallocate.
void aes128_cbc_encrypt_into(const Aes128& cipher, ConstBytes plaintext, Rng& rng, Bytes& out);

// Appends the decrypted, still-padded plaintext to `out`; returns false if
// the input is not IV plus a positive multiple of the block size. Padding is
// NOT validated here — callers that need a padding oracle defense validate
// with pkcs7_padding() and run their MAC regardless.
bool aes128_cbc_decrypt_raw_into(const Aes128& cipher, ConstBytes iv_and_ciphertext, Bytes& out);

// PKCS#7 pad length of a raw-decrypted buffer; 0 means invalid padding.
size_t pkcs7_padding(ConstBytes padded);

// Appends the unpadded plaintext to `out` and returns its length. On a bad
// length or bad padding it returns an error and leaves `out` exactly as it
// was, so callers may decrypt onto the tail of a buffer they still use.
Result<size_t> aes128_cbc_decrypt_into(const Aes128& cipher, ConstBytes iv_and_ciphertext,
                                       Bytes& out);

}  // namespace mct::crypto
