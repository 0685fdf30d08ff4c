// CPU feature probe and the crypto dispatch table.
//
// Every bulk symmetric primitive behind the src/crypto API (AES-128
// block and CBC, the SHA-256 compression function) routes through one
// CryptoDispatch table of function pointers. The portable scalar
// implementations (aes.cpp, sha2.cpp) are always present and are the
// reference the hardware backends (aes_ni.cpp, sha2_ni.cpp) must match
// byte-for-byte: CBC and SHA-256 are deterministic functions of key, IV and
// input, so wire bytes are identical no matter which table ran — the
// backend-equivalence tests (tests/crypto/backend_equiv_test.cpp) and the
// golden record tests pin this.
//
// Selection happens once, on first use: a CPUID probe (cpu.cpp) picks the
// accelerated table when the CPU has the instructions, unless the
// MCT_FORCE_SCALAR environment variable is set (to anything but "0"/"") or
// the library was built with -DMCT_FORCE_SCALAR=ON, which compiles the
// hardware backends out entirely (the portable-only configuration CI runs
// on machines without AES-NI/SHA-NI).
#pragma once

#include <cstddef>
#include <cstdint>

namespace mct::crypto {

struct CpuFeatures {
    bool aesni = false;   // AESENC/AESDEC/AESKEYGENASSIST/AESIMC
    bool ssse3 = false;   // PSHUFB (byte shuffles the NI kernels use)
    bool sse41 = false;   // PBLENDW (SHA-NI state packing)
    bool sha_ni = false;  // SHA256RNDS2/SHA256MSG1/SHA256MSG2
};

// One-time CPUID probe; cached after the first call.
const CpuFeatures& cpu_features();

// The dispatch table. AES round-key buffers are the 11 round keys of
// FIPS 197 laid out flat (176 bytes, round 0 first). `drk` is the
// equivalent-inverse-cipher schedule AESDEC consumes: rk[10], then
// InvMixColumns(rk[9..1]), then rk[0]. Scalar implementations ignore `drk`;
// both schedules are produced by aes128_expand so one Aes128 object can be
// driven by any table.
struct CryptoDispatch {
    const char* name;  // "scalar", "aesni", "shani", "aesni+shani"

    void (*aes128_expand)(const uint8_t key[16], uint8_t rk[176], uint8_t drk[176]);
    void (*aes128_encrypt_block)(const uint8_t rk[176], const uint8_t in[16], uint8_t out[16]);
    void (*aes128_decrypt_block)(const uint8_t rk[176], const uint8_t drk[176],
                                 const uint8_t in[16], uint8_t out[16]);
    // CBC over `nblocks` whole blocks. `chain` carries the IV (or previous
    // ciphertext block) in and the last ciphertext block out, so streaming
    // callers can chain across calls. `in` and `out` must not overlap,
    // except that `in` may end where `out` begins (append-into-self).
    void (*aes128_cbc_encrypt_blocks)(const uint8_t rk[176], uint8_t chain[16],
                                      const uint8_t* in, uint8_t* out, size_t nblocks);
    void (*aes128_cbc_decrypt_blocks)(const uint8_t rk[176], const uint8_t drk[176],
                                      const uint8_t iv[16], const uint8_t* in, uint8_t* out,
                                      size_t nblocks);
    // SHA-256 compression over `nblocks` consecutive 64-byte blocks.
    void (*sha256_compress)(uint32_t state[8], const uint8_t* blocks, size_t nblocks);
};

// The portable scalar table (always available).
const CryptoDispatch& scalar_dispatch();

// The best hardware table this build + CPU supports, or nullptr when there
// is none (non-x86, CPU without the instructions, or -DMCT_FORCE_SCALAR=ON
// builds). Entries the CPU cannot run fall back to the scalar pointers, so
// a partial CPU (AES-NI without SHA-NI) still gets a table.
const CryptoDispatch* accelerated_dispatch();

// The active table: accelerated_dispatch() when present, unless the
// MCT_FORCE_SCALAR env var pins the scalar table. Resolved once; the result
// is stable for the life of the process (tests override via
// ScopedDispatchOverride below).
const CryptoDispatch& dispatch();

// Test-only: pin dispatch() to a specific table within a scope, so
// differential suites can run the same bytes through both arms in one
// process. Not thread-safe; construct only in single-threaded test code.
class ScopedDispatchOverride {
public:
    explicit ScopedDispatchOverride(const CryptoDispatch& table);
    ~ScopedDispatchOverride();
    ScopedDispatchOverride(const ScopedDispatchOverride&) = delete;
    ScopedDispatchOverride& operator=(const ScopedDispatchOverride&) = delete;

private:
    const CryptoDispatch* previous_;
};

namespace detail {

// Portable reference implementations (aes.cpp, sha2.cpp).
void aes128_expand_scalar(const uint8_t key[16], uint8_t rk[176], uint8_t drk[176]);
void aes128_encrypt_block_scalar(const uint8_t rk[176], const uint8_t in[16], uint8_t out[16]);
void aes128_decrypt_block_scalar(const uint8_t rk[176], const uint8_t drk[176],
                                 const uint8_t in[16], uint8_t out[16]);
void aes128_cbc_encrypt_blocks_scalar(const uint8_t rk[176], uint8_t chain[16], const uint8_t* in,
                                      uint8_t* out, size_t nblocks);
void aes128_cbc_decrypt_blocks_scalar(const uint8_t rk[176], const uint8_t drk[176],
                                      const uint8_t iv[16], const uint8_t* in, uint8_t* out,
                                      size_t nblocks);
void sha256_compress_scalar(uint32_t state[8], const uint8_t* blocks, size_t nblocks);

// The FIPS 180-4 SHA-256 round constants (derived at compile time in
// sha2.cpp); shared so the SHA-NI kernel uses the same derivation.
const uint32_t* sha256_round_constants();

#if (defined(__x86_64__) || defined(__i386__)) && !defined(MCT_FORCE_SCALAR_BUILD)
#define MCT_X86_CRYPTO_BACKENDS 1
// AES-NI kernels (aes_ni.cpp); call only when cpu_features().aesni+ssse3.
void aes128_expand_aesni(const uint8_t key[16], uint8_t rk[176], uint8_t drk[176]);
void aes128_encrypt_block_aesni(const uint8_t rk[176], const uint8_t in[16], uint8_t out[16]);
void aes128_decrypt_block_aesni(const uint8_t rk[176], const uint8_t drk[176],
                                const uint8_t in[16], uint8_t out[16]);
void aes128_cbc_encrypt_blocks_aesni(const uint8_t rk[176], uint8_t chain[16], const uint8_t* in,
                                     uint8_t* out, size_t nblocks);
void aes128_cbc_decrypt_blocks_aesni(const uint8_t rk[176], const uint8_t drk[176],
                                     const uint8_t iv[16], const uint8_t* in, uint8_t* out,
                                     size_t nblocks);
// SHA-NI kernel (sha2_ni.cpp); call only when cpu_features().sha_ni+ssse3+sse41.
void sha256_compress_shani(uint32_t state[8], const uint8_t* blocks, size_t nblocks);
#endif

}  // namespace detail

}  // namespace mct::crypto
