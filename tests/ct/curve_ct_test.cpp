// Leakage tests for the curve operations that take a secret scalar:
// ed25519_sign (the key a and the nonce r, both through the fixed-base
// comb) and x25519_public_key (the private scalar). Each times a fixed-class
// input against random-class inputs (tests/ct/dudect.h) and requires |t| to
// stay under dudect's threshold.
//
// The fixed class is the extreme input for a double-and-add: a scalar of
// low Hamming weight, which does far fewer additions than a random one
// there. A table-driven comb does the same work for every scalar.
//
// Timing is noisy on a shared host, so this binary carries the `soak`
// label (scripts/soak.sh runs it with the other long campaigns).
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <random>

#include "crypto/ed25519.h"
#include "crypto/sha2.h"
#include "crypto/x25519.h"
#include "ct/dudect.h"

namespace mct::crypto {
namespace {

constexpr size_t kMeasurements = 20000;

volatile uint8_t g_sink;

Bytes random_scalar(std::mt19937_64& rng)
{
    Bytes s(32);
    for (auto& b : s) b = static_cast<uint8_t>(rng());
    return s;
}

int popcount(const uint8_t* p, size_t n)
{
    int c = 0;
    for (size_t i = 0; i < n; ++i) c += std::popcount(p[i]);
    return c;
}

// Of 4096 candidate seeds, the one whose clamped key a and nonce r for
// `msg` have the fewest set bits between them.
Bytes low_weight_seed(ConstBytes msg)
{
    Bytes best;
    int best_weight = 1 << 20;
    for (uint32_t i = 0; i < 4096; ++i) {
        Bytes seed(32, 0);
        for (int j = 0; j < 4; ++j) seed[j] = static_cast<uint8_t>(i >> (8 * j));
        Sha512 h;
        h.update(seed);
        auto d = h.finish();
        d[0] &= 248;
        d[31] &= 63;
        d[31] |= 64;
        Sha512 hr;
        hr.update(ConstBytes(d.data() + 32, 32));
        hr.update(msg);
        auto wide = hr.finish();
        uint8_t r[32];
        detail::sc_reduce(r, wide.data());
        int weight = popcount(d.data(), 32) + popcount(r, 32);
        if (weight < best_weight) {
            best_weight = weight;
            best = seed;
        }
    }
    return best;
}

void report(const char* name, const ct::LeakageResult& r)
{
    std::printf("leakage %s: max|t| = %.2f over %zu samples; median fixed %.0f ns, random %.0f ns\n",
                name, r.max_abs_t, r.samples, r.median_ns[0], r.median_ns[1]);
}

TEST(Leakage, Ed25519SignFixedVsRandomSeed)
{
    Bytes msg(64, 0x5a);
    Bytes fixed = low_weight_seed(msg);
    auto r = ct::leakage_test(
        kMeasurements, 2401,
        [&](int cls, std::mt19937_64& rng) { return cls == 0 ? fixed : random_scalar(rng); },
        [&](const Bytes& seed) { g_sink = ed25519_sign(seed, msg)[0]; });
    report("ed25519_sign", r);
    EXPECT_LT(r.max_abs_t, ct::kLeakageThreshold);
}

TEST(Leakage, X25519PublicKeyFixedVsRandomScalar)
{
    // All zero bytes clamp to 2^254: one set bit.
    Bytes fixed(32, 0);
    auto r = ct::leakage_test(
        kMeasurements, 2402,
        [&](int cls, std::mt19937_64& rng) { return cls == 0 ? fixed : random_scalar(rng); },
        [&](const Bytes& k) { g_sink = x25519_public_key(k)[0]; });
    report("x25519_public_key", r);
    EXPECT_LT(r.max_abs_t, ct::kLeakageThreshold);
}

}  // namespace
}  // namespace mct::crypto
