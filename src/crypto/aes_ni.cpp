// AES-NI backend for the crypto dispatch table (crypto/cpu.h).
//
// Compiled with -maes (CMake adds the flags on x86 only); nothing here runs
// unless the CPUID probe reported AES-NI support, so the unguarded
// intrinsics are safe. Every function is the byte-identical counterpart of
// its scalar reference in aes.cpp: same schedules, same chaining — the
// differential suite in tests/crypto/backend_equiv_test.cpp holds the two
// to equality.
#include "crypto/cpu.h"

#ifdef MCT_X86_CRYPTO_BACKENDS

#include <immintrin.h>

namespace mct::crypto::detail {

namespace {

inline __m128i load(const uint8_t* p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline void store(uint8_t* p, __m128i v)
{
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

// One key-schedule round: the aeskeygenassist result contributes
// SubWord(RotWord(w3)) ^ rcon in its high word.
inline __m128i expand_step(__m128i key, __m128i assist)
{
    assist = _mm_shuffle_epi32(assist, _MM_SHUFFLE(3, 3, 3, 3));
    key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
    key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
    key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
    return _mm_xor_si128(key, assist);
}

inline __m128i encrypt_one(const __m128i rk[11], __m128i block)
{
    block = _mm_xor_si128(block, rk[0]);
    for (int r = 1; r < 10; ++r) block = _mm_aesenc_si128(block, rk[r]);
    return _mm_aesenclast_si128(block, rk[10]);
}

inline void load_schedule(const uint8_t rk176[176], __m128i rk[11])
{
    for (int r = 0; r < 11; ++r) rk[r] = load(rk176 + 16 * r);
}

}  // namespace

void aes128_expand_aesni(const uint8_t key[16], uint8_t rk[176], uint8_t drk[176])
{
    __m128i k[11];
    k[0] = load(key);
    k[1] = expand_step(k[0], _mm_aeskeygenassist_si128(k[0], 0x01));
    k[2] = expand_step(k[1], _mm_aeskeygenassist_si128(k[1], 0x02));
    k[3] = expand_step(k[2], _mm_aeskeygenassist_si128(k[2], 0x04));
    k[4] = expand_step(k[3], _mm_aeskeygenassist_si128(k[3], 0x08));
    k[5] = expand_step(k[4], _mm_aeskeygenassist_si128(k[4], 0x10));
    k[6] = expand_step(k[5], _mm_aeskeygenassist_si128(k[5], 0x20));
    k[7] = expand_step(k[6], _mm_aeskeygenassist_si128(k[6], 0x40));
    k[8] = expand_step(k[7], _mm_aeskeygenassist_si128(k[7], 0x80));
    k[9] = expand_step(k[8], _mm_aeskeygenassist_si128(k[8], 0x1b));
    k[10] = expand_step(k[9], _mm_aeskeygenassist_si128(k[9], 0x36));
    for (int r = 0; r < 11; ++r) store(rk + 16 * r, k[r]);
    // Equivalent-inverse-cipher schedule, same layout the scalar expand
    // derives via InvMixColumns (AESIMC computes exactly that).
    store(drk, k[10]);
    for (int r = 1; r <= 9; ++r) store(drk + 16 * r, _mm_aesimc_si128(k[10 - r]));
    store(drk + 160, k[0]);
}

void aes128_encrypt_block_aesni(const uint8_t rk176[176], const uint8_t in[16], uint8_t out[16])
{
    __m128i rk[11];
    load_schedule(rk176, rk);
    store(out, encrypt_one(rk, load(in)));
}

void aes128_decrypt_block_aesni(const uint8_t rk176[176], const uint8_t drk176[176],
                                const uint8_t in[16], uint8_t out[16])
{
    (void)rk176;
    __m128i dk[11];
    load_schedule(drk176, dk);
    __m128i block = _mm_xor_si128(load(in), dk[0]);
    for (int r = 1; r < 10; ++r) block = _mm_aesdec_si128(block, dk[r]);
    store(out, _mm_aesdeclast_si128(block, dk[10]));
}

void aes128_cbc_encrypt_blocks_aesni(const uint8_t rk176[176], uint8_t chain[16],
                                     const uint8_t* in, uint8_t* out, size_t nblocks)
{
    __m128i rk[11];
    load_schedule(rk176, rk);
    __m128i c = load(chain);
    for (size_t b = 0; b < nblocks; ++b) {
        c = encrypt_one(rk, _mm_xor_si128(load(in + 16 * b), c));
        store(out + 16 * b, c);
    }
    store(chain, c);
}

void aes128_cbc_decrypt_blocks_aesni(const uint8_t rk176[176], const uint8_t drk176[176],
                                     const uint8_t iv[16], const uint8_t* in, uint8_t* out,
                                     size_t nblocks)
{
    (void)rk176;
    __m128i dk[11];
    load_schedule(drk176, dk);
    __m128i prev = load(iv);
    size_t b = 0;
    // Four blocks in flight: CBC decryption has no chaining dependency, so
    // the AESDEC pipelines overlap and the xor chain uses the untouched
    // ciphertext blocks.
    for (; b + 4 <= nblocks; b += 4) {
        __m128i c0 = load(in + 16 * b), c1 = load(in + 16 * b + 16);
        __m128i c2 = load(in + 16 * b + 32), c3 = load(in + 16 * b + 48);
        __m128i t0 = _mm_xor_si128(c0, dk[0]), t1 = _mm_xor_si128(c1, dk[0]);
        __m128i t2 = _mm_xor_si128(c2, dk[0]), t3 = _mm_xor_si128(c3, dk[0]);
        for (int r = 1; r < 10; ++r) {
            t0 = _mm_aesdec_si128(t0, dk[r]);
            t1 = _mm_aesdec_si128(t1, dk[r]);
            t2 = _mm_aesdec_si128(t2, dk[r]);
            t3 = _mm_aesdec_si128(t3, dk[r]);
        }
        t0 = _mm_aesdeclast_si128(t0, dk[10]);
        t1 = _mm_aesdeclast_si128(t1, dk[10]);
        t2 = _mm_aesdeclast_si128(t2, dk[10]);
        t3 = _mm_aesdeclast_si128(t3, dk[10]);
        store(out + 16 * b, _mm_xor_si128(t0, prev));
        store(out + 16 * b + 16, _mm_xor_si128(t1, c0));
        store(out + 16 * b + 32, _mm_xor_si128(t2, c1));
        store(out + 16 * b + 48, _mm_xor_si128(t3, c2));
        prev = c3;
    }
    for (; b < nblocks; ++b) {
        __m128i c = load(in + 16 * b);
        __m128i t = _mm_xor_si128(c, dk[0]);
        for (int r = 1; r < 10; ++r) t = _mm_aesdec_si128(t, dk[r]);
        t = _mm_aesdeclast_si128(t, dk[10]);
        store(out + 16 * b, _mm_xor_si128(t, prev));
        prev = c;
    }
}

}  // namespace mct::crypto::detail

#endif  // MCT_X86_CRYPTO_BACKENDS
