// First-use cost regression for the AES tables, the SHA round constants and
// the Curve25519 base-point tables (its own binary so "first use in the
// process" is well defined).
//
// The S-box used to be derived by a brute-force 256x256 GF(2^8) scan inside
// a function-local static, so the first Aes128 constructed in a process —
// typically mid-handshake — paid ~65k field multiplications before its
// first block. The tables are now constexpr, so the first encryption must
// cost the same as the ten-thousandth, within scheduling noise.
//
// Every timing reads the calling thread's CPU clock, not the wall clock: a
// call that is descheduled mid-measurement accrues no CPU time, so a busy
// host cannot fail the first-use budget.
#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/ed25519.h"
#include "crypto/sha2.h"
#include "crypto/x25519.h"

namespace mct::crypto {
namespace {

// The calling thread's CPU time, in ns.
struct Clock {
    using time_point = uint64_t;
    static time_point now()
    {
        timespec ts{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000u +
               static_cast<uint64_t>(ts.tv_nsec);
    }
};

uint64_t ns(Clock::time_point a, Clock::time_point b)
{
    return b - a;
}

TEST(FirstUse, AesTablesCostNothingToInitialize)
{
    // Nothing crypto-related has run yet in this process (this binary links
    // only this test file). Time the very first construct+encrypt.
    Bytes key(16, 0x42);
    uint8_t block[16] = {0}, out[16];
    auto t0 = Clock::now();
    {
        Aes128 first(key);
        first.encrypt_block(block, out);
    }
    auto t1 = Clock::now();
    uint64_t first_ns = ns(t0, t1);

    // Steady state: median of many construct+encrypt iterations.
    std::vector<uint64_t> samples;
    for (int i = 0; i < 200; ++i) {
        auto a = Clock::now();
        Aes128 cipher(key);
        cipher.encrypt_block(block, out);
        auto b = Clock::now();
        samples.push_back(ns(a, b));
    }
    std::sort(samples.begin(), samples.end());
    uint64_t median_ns = samples[samples.size() / 2];

    // The old lazy scan cost milliseconds. Constexpr tables leave only cold
    // caches and clock granularity on the first call; 100us (or 100x the
    // steady median, whichever is larger) is orders of magnitude below the
    // old cost and far above legitimate jitter.
    uint64_t budget = std::max<uint64_t>(100'000, 100 * median_ns);
    EXPECT_LT(first_ns, budget)
        << "first=" << first_ns << "ns median=" << median_ns << "ns";
}

TEST(FirstUse, Sha256ConstantsCostNothingToInitialize)
{
    // Same property for the SHA-256 round constants (constexpr integer
    // roots, no derivation at runtime).
    Bytes data(64, 0x5a);
    auto t0 = Clock::now();
    Bytes first = Sha256::digest(data);
    auto t1 = Clock::now();
    uint64_t first_ns = ns(t0, t1);

    std::vector<uint64_t> samples;
    for (int i = 0; i < 200; ++i) {
        auto a = Clock::now();
        Bytes d = Sha256::digest(data);
        auto b = Clock::now();
        ASSERT_EQ(d, first);
        samples.push_back(ns(a, b));
    }
    std::sort(samples.begin(), samples.end());
    uint64_t median_ns = samples[samples.size() / 2];

    uint64_t budget = std::max<uint64_t>(100'000, 100 * median_ns);
    EXPECT_LT(first_ns, budget)
        << "first=" << first_ns << "ns median=" << median_ns << "ns";
}

TEST(FirstUse, Sha512ConstantsCostNothingToInitialize)
{
    // The first SHA-512 use in this process: its round constants and IV are
    // a constexpr table, so the first digest costs what the 200th does.
    Bytes data(128, 0x5a);
    auto t0 = Clock::now();
    Bytes first = Sha512::digest(data);
    auto t1 = Clock::now();
    uint64_t first_ns = ns(t0, t1);

    std::vector<uint64_t> samples;
    for (int i = 0; i < 200; ++i) {
        auto a = Clock::now();
        Bytes d = Sha512::digest(data);
        auto b = Clock::now();
        ASSERT_EQ(d, first);
        samples.push_back(ns(a, b));
    }
    std::sort(samples.begin(), samples.end());
    uint64_t median_ns = samples[samples.size() / 2];

    uint64_t budget = std::max<uint64_t>(100'000, 100 * median_ns);
    EXPECT_LT(first_ns, budget)
        << "first=" << first_ns << "ns median=" << median_ns << "ns";
}

TEST(FirstUse, CurveTablesCostNothingToInitialize)
{
    // The fixed-base comb's 32 x 8 table and the verify's odd multiples of B
    // are generated constants (crypto/curve25519_tables.inc), so the first
    // signature and the first X25519 public key pay no table build.
    Bytes seed(32, 0x11), msg(64, 0x22);
    auto t0 = Clock::now();
    Bytes first_sig = ed25519_sign(seed, msg);
    auto t1 = Clock::now();
    Bytes first_pub = x25519_public_key(seed);
    auto t2 = Clock::now();
    uint64_t first_sign_ns = ns(t0, t1), first_pub_ns = ns(t1, t2);

    std::vector<uint64_t> sign_samples, pub_samples;
    for (int i = 0; i < 200; ++i) {
        auto a = Clock::now();
        Bytes sig = ed25519_sign(seed, msg);
        auto b = Clock::now();
        Bytes pub = x25519_public_key(seed);
        auto c = Clock::now();
        ASSERT_EQ(sig, first_sig);
        ASSERT_EQ(pub, first_pub);
        sign_samples.push_back(ns(a, b));
        pub_samples.push_back(ns(b, c));
    }
    std::sort(sign_samples.begin(), sign_samples.end());
    std::sort(pub_samples.begin(), pub_samples.end());
    uint64_t sign_median_ns = sign_samples[sign_samples.size() / 2];
    uint64_t pub_median_ns = pub_samples[pub_samples.size() / 2];
    RecordProperty("first_sign_ns", std::to_string(first_sign_ns));
    RecordProperty("median_sign_ns", std::to_string(sign_median_ns));
    RecordProperty("first_pub_ns", std::to_string(first_pub_ns));
    RecordProperty("median_pub_ns", std::to_string(pub_median_ns));

    // Over 50 runs each of the plain and the ASan+UBSan build, the first
    // call took at most 4.7x its run's steady median (x25519_public_key;
    // sign: 2.5x). 15x keeps 3x headroom over that worst run.
    constexpr uint64_t kFirstUseRatio = 15;
    EXPECT_LT(first_sign_ns, std::max<uint64_t>(100'000, kFirstUseRatio * sign_median_ns))
        << "first=" << first_sign_ns << "ns median=" << sign_median_ns << "ns";
    EXPECT_LT(first_pub_ns, std::max<uint64_t>(100'000, kFirstUseRatio * pub_median_ns))
        << "first=" << first_pub_ns << "ns median=" << pub_median_ns << "ns";
}

}  // namespace
}  // namespace mct::crypto
