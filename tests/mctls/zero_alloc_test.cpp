// Zero-allocation pin for the symmetric fast path, counted at the allocator.
//
// Its own binary: it replaces the global operator new with a counter, which
// must not leak into the other suites. After one warm-up call, 1,000
// steady-state iterations of each record seal/open/reseal, the TLS
// protector, a 16-byte DRBG draw, a 16-byte IV-source draw and the keyed PRF
// must not touch the heap at all: keys are expanded when installed and
// every buffer is caller-owned.
// (tests/mctls/fastpath_test.cpp counts only RecordScratch growth; this
// counts every allocation.)
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "crypto/aes.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/prf.h"
#include "mctls/context_crypto.h"
#include "mctls/key_schedule.h"
#include "tls/record.h"
#include "util/rng.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1)) return p;
    throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    auto a = static_cast<std::size_t>(align);
    std::size_t size = n ? (n + a - 1) / a * a : a;  // aligned_alloc wants a multiple
    if (void* p = std::aligned_alloc(a, size)) return p;
    throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) { return counted_aligned_alloc(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return counted_aligned_alloc(n, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace mct::mctls {
namespace {

constexpr int kIterations = 1000;

// Heap allocations made by `kIterations` calls of `step`, after one warm-up
// call that lets caller-owned buffers reach their high-water capacity.
template <class F>
uint64_t allocations_over(F&& step)
{
    step();
    uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < kIterations; ++i) step();
    return g_allocations.load(std::memory_order_relaxed) - before;
}

struct ZeroAlloc : ::testing::Test {
    TestRng seed_rng{2024};
    crypto::HmacDrbg drbg{str_to_bytes("zero-alloc iv stream")};
    crypto::IvSource ivs{drbg};  // a session's IV source, as the seals below use
    Bytes rand_c = seed_rng.bytes(32);
    Bytes rand_s = seed_rng.bytes(32);
    EndpointKeys endpoint = derive_endpoint_keys(seed_rng.bytes(48), rand_c, rand_s);
    ContextKeys ctx = combine_context_keys(derive_partial_keys(seed_rng.bytes(48), rand_c, 1),
                                           derive_partial_keys(seed_rng.bytes(48), rand_s, 1),
                                           rand_c, rand_s);
    Bytes payload = seed_rng.bytes(64);
    static constexpr Direction kDir = Direction::client_to_server;
};

TEST_F(ZeroAlloc, CounterSeesHeapAllocations)
{
    std::vector<Bytes> kept;
    kept.reserve(kIterations + 1);
    EXPECT_EQ(allocations_over([&] { kept.emplace_back(100); }),
              static_cast<uint64_t>(kIterations));
}

TEST_F(ZeroAlloc, SealRecordInto)
{
    Bytes out;
    uint64_t seq = 0;
    EXPECT_EQ(allocations_over([&] {
                  out.clear();
                  seal_record_into(ctx, endpoint, kDir, seq++, 1, payload, ivs, out);
              }),
              0u);
    EXPECT_EQ(out.size(), sealed_record_size(payload.size()));
}

TEST_F(ZeroAlloc, ScratchOpens)
{
    Bytes fragment = seal_record(ctx, endpoint, kDir, 7, 1, payload, ivs);
    RecordScratch scratch;
    bool ok = true;
    EXPECT_EQ(allocations_over([&] {
                  ok &= open_record_endpoint(ctx, endpoint, kDir, 7, 1, fragment, scratch).ok();
              }),
              0u);
    EXPECT_EQ(allocations_over([&] {
                  ok &= open_record_writer(ctx, kDir, 7, 1, fragment, scratch).ok();
              }),
              0u);
    EXPECT_EQ(allocations_over([&] {
                  ok &= open_record_reader(ctx, kDir, 7, 1, fragment, scratch).ok();
              }),
              0u);
    EXPECT_TRUE(ok);
}

TEST_F(ZeroAlloc, ResealRecordWriterInto)
{
    Bytes fragment = seal_record(ctx, endpoint, kDir, 7, 1, payload, ivs);
    RecordScratch scratch;
    auto opened = open_record_writer(ctx, kDir, 7, 1, fragment, scratch);
    ASSERT_TRUE(opened.ok());
    Bytes endpoint_mac = to_bytes(opened.value().endpoint_mac);
    Bytes out;
    EXPECT_EQ(allocations_over([&] {
                  out.clear();
                  reseal_record_writer_into(ctx, kDir, 7, 1, payload, endpoint_mac, ivs, out);
              }),
              0u);
}

TEST_F(ZeroAlloc, CbcHmacProtectorRoundTrip)
{
    Bytes enc_key = seed_rng.bytes(16), mac_key = seed_rng.bytes(32);
    tls::CbcHmacProtector sender(enc_key, mac_key);
    tls::CbcHmacProtector receiver(enc_key, mac_key);
    Bytes wire, plain;
    bool ok = true;
    EXPECT_EQ(allocations_over([&] {
                  wire.clear();
                  sender.protect_into(tls::ContentType::application_data, 0, payload, ivs, wire);
                  plain.clear();
                  ok &= receiver.unprotect_into(tls::ContentType::application_data, 0, wire, plain)
                            .ok();
              }),
              0u);
    EXPECT_TRUE(ok);
    EXPECT_EQ(plain, payload);
}

TEST_F(ZeroAlloc, DrbgFill16)
{
    std::array<uint8_t, 16> iv{};
    EXPECT_EQ(allocations_over([&] { drbg.fill(iv); }), 0u);
}

TEST_F(ZeroAlloc, IvSourceFill16)
{
    std::array<uint8_t, 16> iv{};
    EXPECT_EQ(allocations_over([&] { ivs.fill(iv); }), 0u);
}

TEST_F(ZeroAlloc, KeyedPrfIntoCallerBuffer)
{
    crypto::HmacKey secret(seed_rng.bytes(64));
    Bytes seed = seed_rng.bytes(64);
    std::array<uint8_t, 96> out{};
    EXPECT_EQ(allocations_over([&] { crypto::prf(secret, "reader keys", seed, out); }), 0u);
}

}  // namespace
}  // namespace mct::mctls
