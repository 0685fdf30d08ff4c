// Handshake crypto-operation counters, the instrumentation behind Table 3.
//
// Protocol code (tls/, mctls/) increments these at the same semantic
// granularity the paper tabulates: transcript/PRF hash applications, shared
// secret computations (DHCombine), key generations, asymmetric signature
// verifications, and symmetric encryptions/decryptions of handshake
// material. A null OpCounters* disables counting.
#pragma once

#include <cstdint>

namespace mct::crypto {

struct OpCounters {
    uint64_t hash = 0;         // hash / PRF block applications on handshake data
    uint64_t secret_comp = 0;  // Diffie-Hellman shared-secret computations
    uint64_t key_gen = 0;      // symmetric key / key-pair generations
    uint64_t asym_sign = 0;    // signature generations
    uint64_t asym_verify = 0;  // signature verifications
    uint64_t sym_encrypt = 0;  // symmetric encryptions of handshake material
    uint64_t sym_decrypt = 0;  // symmetric decryptions of handshake material

    void reset() { *this = OpCounters{}; }

    OpCounters& operator+=(const OpCounters& rhs)
    {
        hash += rhs.hash;
        secret_comp += rhs.secret_comp;
        key_gen += rhs.key_gen;
        asym_sign += rhs.asym_sign;
        asym_verify += rhs.asym_verify;
        sym_encrypt += rhs.sym_encrypt;
        sym_decrypt += rhs.sym_decrypt;
        return *this;
    }
};

inline void count_hash(OpCounters* c, uint64_t n = 1)
{
    if (c) c->hash += n;
}
inline void count_secret(OpCounters* c, uint64_t n = 1)
{
    if (c) c->secret_comp += n;
}
inline void count_keygen(OpCounters* c, uint64_t n = 1)
{
    if (c) c->key_gen += n;
}
inline void count_sign(OpCounters* c, uint64_t n = 1)
{
    if (c) c->asym_sign += n;
}
inline void count_verify(OpCounters* c, uint64_t n = 1)
{
    if (c) c->asym_verify += n;
}
inline void count_enc(OpCounters* c, uint64_t n = 1)
{
    if (c) c->sym_encrypt += n;
}
inline void count_dec(OpCounters* c, uint64_t n = 1)
{
    if (c) c->sym_decrypt += n;
}

}  // namespace mct::crypto
