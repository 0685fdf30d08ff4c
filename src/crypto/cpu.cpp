#include "crypto/cpu.h"

#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace mct::crypto {

namespace {

CpuFeatures probe()
{
    CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
        f.ssse3 = (ecx >> 9) & 1;
        f.sse41 = (ecx >> 19) & 1;
        f.aesni = (ecx >> 25) & 1;
    }
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
        f.sha_ni = (ebx >> 29) & 1;
    }
#endif
    return f;
}

constexpr CryptoDispatch kScalar = {
    "scalar",
    detail::aes128_expand_scalar,
    detail::aes128_encrypt_block_scalar,
    detail::aes128_decrypt_block_scalar,
    detail::aes128_cbc_encrypt_blocks_scalar,
    detail::aes128_cbc_decrypt_blocks_scalar,
    detail::sha256_compress_scalar,
};

// Builds the accelerated table from whatever the CPU offers, leaving
// unaccelerated entries on their scalar reference. Returns nullptr when no
// primitive could be accelerated.
const CryptoDispatch* build_accelerated()
{
#ifdef MCT_X86_CRYPTO_BACKENDS
    const CpuFeatures& f = cpu_features();
    bool aes = f.aesni && f.ssse3;
    bool sha = f.sha_ni && f.ssse3 && f.sse41;
    if (!aes && !sha) return nullptr;
    static CryptoDispatch accel = [&] {
        CryptoDispatch t = kScalar;
        if (aes) {
            t.aes128_expand = detail::aes128_expand_aesni;
            t.aes128_encrypt_block = detail::aes128_encrypt_block_aesni;
            t.aes128_decrypt_block = detail::aes128_decrypt_block_aesni;
            t.aes128_cbc_encrypt_blocks = detail::aes128_cbc_encrypt_blocks_aesni;
            t.aes128_cbc_decrypt_blocks = detail::aes128_cbc_decrypt_blocks_aesni;
        }
        if (sha) t.sha256_compress = detail::sha256_compress_shani;
        t.name = aes && sha ? "aesni+shani" : (aes ? "aesni" : "shani");
        return t;
    }();
    return &accel;
#else
    return nullptr;
#endif
}

bool force_scalar_env()
{
    const char* v = std::getenv("MCT_FORCE_SCALAR");
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

// Test override; read by dispatch() on every call so ScopedDispatchOverride
// can swap tables even after objects cached the default.
const CryptoDispatch* g_override = nullptr;

}  // namespace

const CpuFeatures& cpu_features()
{
    static const CpuFeatures f = probe();
    return f;
}

const CryptoDispatch& scalar_dispatch()
{
    return kScalar;
}

const CryptoDispatch* accelerated_dispatch()
{
    static const CryptoDispatch* accel = build_accelerated();
    return accel;
}

const CryptoDispatch& dispatch()
{
    if (g_override != nullptr) return *g_override;
    static const CryptoDispatch* active = [] {
        const CryptoDispatch* accel = accelerated_dispatch();
        if (accel == nullptr || force_scalar_env()) return &kScalar;
        return accel;
    }();
    return *active;
}

ScopedDispatchOverride::ScopedDispatchOverride(const CryptoDispatch& table)
    : previous_(g_override)
{
    g_override = &table;
}

ScopedDispatchOverride::~ScopedDispatchOverride()
{
    g_override = previous_;
}

}  // namespace mct::crypto
