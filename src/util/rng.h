// Randomness seams.
//
// All nondeterminism in the library flows through the Rng interface so that
// simulations, tests, and benchmarks are reproducible. Production-style code
// would plug in an OS-entropy Rng; here TestRng (splitmix64) seeds the
// crypto-grade HmacDrbg (crypto/drbg.h), and each session keys its CBC IV
// source (crypto::IvSource, also an Rng) from the Rng it is given.
#pragma once

#include <cstdint>

#include "util/bytes.h"

namespace mct {

class Rng {
public:
    virtual ~Rng() = default;

    virtual void fill(MutableBytes out) = 0;

    Bytes bytes(size_t n)
    {
        Bytes out(n);
        fill(out);
        return out;
    }

    uint64_t u64()
    {
        uint8_t buf[8];
        fill(buf);
        uint64_t v = 0;
        for (uint8_t b : buf) v = v << 8 | b;
        return v;
    }

    // Uniform in [0, bound); bound must be nonzero.
    uint64_t below(uint64_t bound);

    // Uniform double in [0, 1).
    double unit();
};

// Fast deterministic generator (splitmix64). Not cryptographic; used for
// workloads, simulation jitter, and as a seed source for HmacDrbg in tests.
class TestRng final : public Rng {
public:
    explicit TestRng(uint64_t seed) : state_(seed) {}

    void fill(MutableBytes out) override;

    uint64_t next();

private:
    uint64_t state_;
};

}  // namespace mct
