// Exact primitive counts through the crypto dispatch table.
//
// CountingDispatch installs a CryptoDispatch that forwards every slot to the
// table active when it was installed and counts the work: SHA-256
// compressions, AES block encryptions (single and CBC), AES block
// decryptions, AES key expansions. An Aes128 or Sha256 binds its table at
// construction, so only objects built while the counter is in scope are
// counted; a session key binds it at its first use (crypto/key.h).
#pragma once

#include <cstdint>

#include "crypto/cpu.h"

namespace mct::test {

struct WorkCounts {
    uint64_t sha256_blocks = 0;
    uint64_t aes_enc_blocks = 0;
    uint64_t aes_dec_blocks = 0;
    uint64_t aes_expansions = 0;

    WorkCounts& operator+=(const WorkCounts& rhs)
    {
        sha256_blocks += rhs.sha256_blocks;
        aes_enc_blocks += rhs.aes_enc_blocks;
        aes_dec_blocks += rhs.aes_dec_blocks;
        aes_expansions += rhs.aes_expansions;
        return *this;
    }
};

// The work counted since the last reset; one tally per process.
WorkCounts& work();

class CountingDispatch {
public:
    // Installs the counting table and resets work().
    CountingDispatch();

    // The work `step` does.
    template <class F>
    static WorkCounts count(F&& step)
    {
        work() = {};
        step();
        return work();
    }

private:
    crypto::ScopedDispatchOverride pin_;
};

}  // namespace mct::test
