#include "tests/work_counter.h"

namespace mct::test {

namespace {

const crypto::CryptoDispatch* g_base = nullptr;

const crypto::CryptoDispatch& install()
{
    g_base = &crypto::dispatch();
    static const crypto::CryptoDispatch table{
        "counting",
        [](const uint8_t key[16], uint8_t rk[176], uint8_t drk[176]) {
            ++work().aes_expansions;
            g_base->aes128_expand(key, rk, drk);
        },
        [](const uint8_t rk[176], const uint8_t in[16], uint8_t out[16]) {
            ++work().aes_enc_blocks;
            g_base->aes128_encrypt_block(rk, in, out);
        },
        [](const uint8_t rk[176], const uint8_t drk[176], const uint8_t in[16], uint8_t out[16]) {
            ++work().aes_dec_blocks;
            g_base->aes128_decrypt_block(rk, drk, in, out);
        },
        [](const uint8_t rk[176], uint8_t chain[16], const uint8_t* in, uint8_t* out,
           size_t nblocks) {
            work().aes_enc_blocks += nblocks;
            g_base->aes128_cbc_encrypt_blocks(rk, chain, in, out, nblocks);
        },
        [](const uint8_t rk[176], const uint8_t drk[176], const uint8_t iv[16], const uint8_t* in,
           uint8_t* out, size_t nblocks) {
            work().aes_dec_blocks += nblocks;
            g_base->aes128_cbc_decrypt_blocks(rk, drk, iv, in, out, nblocks);
        },
        [](uint32_t state[8], const uint8_t* blocks, size_t nblocks) {
            work().sha256_blocks += nblocks;
            g_base->sha256_compress(state, blocks, nblocks);
        },
    };
    work() = {};
    return table;
}

}  // namespace

WorkCounts& work()
{
    static WorkCounts counts;
    return counts;
}

CountingDispatch::CountingDispatch() : pin_(install()) {}

}  // namespace mct::test
