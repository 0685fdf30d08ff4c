#include "micro.h"

#include <algorithm>
#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "crypto/hmac.h"
#include "crypto/prf.h"
#include "crypto/sha2.h"
#include "crypto/x25519.h"
#include "mctls/context_crypto.h"
#include "mctls/key_schedule.h"

namespace chainbench {

using namespace mct;

namespace {

constexpr size_t kBulkBytes = 15000;

// Keeps the compiler from discarding a call's result.
volatile uint8_t g_sink = 0;
void consume(ConstBytes b)
{
    if (!b.empty()) g_sink = g_sink + b[0];
}

// Times `call` in batches sized to ~100 us, one span per batch, for about
// `seconds` of wall time; returns the median nanoseconds per call.
template <class F>
double time_call(SpanRecorder& rec, TickRate& rate, const std::string& name, double seconds,
                 F&& call)
{
    uint16_t id = rec.intern(name);
    call();  // first use outside the timing
    uint64_t t0 = ticks();
    call();
    double one_ns = std::max(1.0, rate.ns(ticks() - t0));
    size_t batch = std::max<size_t>(1, static_cast<size_t>(100000.0 / one_ns));

    std::vector<double> per_call;
    Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    do {
        uint64_t start = ticks();
        for (size_t i = 0; i < batch; ++i) call();
        uint64_t end = ticks();
        rec.leaf(id, start, end);
        per_call.push_back(rate.ns(end - start) / static_cast<double>(batch));
    } while (per_call.size() < 5 || Clock::now() < deadline);
    std::nth_element(per_call.begin(), per_call.begin() + per_call.size() / 2, per_call.end());
    return per_call[per_call.size() / 2];
}

}  // namespace

MicroCosts measure_micro(SpanRecorder& rec, size_t payload, uint64_t seed,
                         double seconds_per_call)
{
    TickRate rate;
    rate.start();
    TestRng fast(seed);
    crypto::HmacDrbg drbg(str_to_bytes("chainbench-micro-" + std::to_string(seed)));
    // Calibrate the tick rate over ~20 ms before the first batch is sized.
    for (Clock::time_point until = Clock::now() + std::chrono::milliseconds(20);
         Clock::now() < until;) {
    }
    rate.stop();

    MicroCosts m;
    double s = seconds_per_call;

    // crypto: asymmetric primitives of the handshake.
    auto a = crypto::x25519_keypair(drbg);
    auto b = crypto::x25519_keypair(drbg);
    m.x25519_us = time_call(rec, rate, "crypto.x25519", s, [&] {
        auto r = crypto::x25519_shared(a.private_key, b.public_key);
        if (r) consume(r.value());
    }) / 1e3;

    auto signer = crypto::ed25519_keypair(drbg);
    Bytes msg = fast.bytes(128);
    Bytes sig = crypto::ed25519_sign(signer.private_key, msg);
    m.ed25519_sign_us = time_call(rec, rate, "crypto.ed25519_sign", s, [&] {
        consume(crypto::ed25519_sign(signer.private_key, msg));
    }) / 1e3;
    m.ed25519_verify_us = time_call(rec, rate, "crypto.ed25519_verify", s, [&] {
        g_sink = g_sink + crypto::ed25519_verify(signer.public_key, msg, sig);
    }) / 1e3;

    // crypto: the symmetric primitives under the key schedule and records.
    Bytes secret = fast.bytes(64);
    Bytes prf_seed = fast.bytes(64);
    m.prf_us = time_call(rec, rate, "crypto.prf", s, [&] {
        consume(crypto::prf(secret, "reader keys", prf_seed, 96));
    }) / 1e3;

    Bytes mac_key = fast.bytes(32);
    Bytes small = fast.bytes(64);
    m.hmac_sha256_64b_ns = time_call(rec, rate, "crypto.hmac_sha256_64b", s, [&] {
        crypto::HmacSha256 h(mac_key);
        h.update(small);
        auto tag = h.finish_tag();
        consume(tag);
    });

    Bytes bulk = fast.bytes(kBulkBytes);
    crypto::Aes128 cipher(fast.bytes(16));
    Bytes out;
    out.reserve(crypto::cbc_ciphertext_size(kBulkBytes));
    double cbc_ns = time_call(rec, rate, "crypto.aes128_cbc_encrypt", s, [&] {
        out.clear();
        crypto::aes128_cbc_encrypt_into(cipher, bulk, fast, out);
        consume(out);
    });
    m.aes128_cbc_encrypt_MBps = static_cast<double>(kBulkBytes) / cbc_ns * 1e3;
    double sha_ns = time_call(rec, rate, "crypto.sha256", s, [&] {
        crypto::Sha256 h;
        h.update(bulk);
        auto d = h.finish();
        consume(d);
    });
    m.sha256_MBps = static_cast<double>(kBulkBytes) / sha_ns * 1e3;

    // mctls: record protection (context_crypto) at the workload's size.
    Bytes rand_c = fast.bytes(32);
    Bytes rand_s = fast.bytes(32);
    mctls::EndpointKeys endpoint = mctls::derive_endpoint_keys(fast.bytes(48), rand_c, rand_s);
    const uint8_t ctx_id = 1;
    mctls::ContextKeys ctx = mctls::combine_context_keys(
        mctls::derive_partial_keys(fast.bytes(48), rand_c, ctx_id),
        mctls::derive_partial_keys(fast.bytes(48), rand_s, ctx_id), rand_c, rand_s);
    const auto dir = mctls::Direction::client_to_server;
    const uint64_t seq = 7;
    Bytes data = fast.bytes(payload);
    Bytes fragment = mctls::seal_record(ctx, endpoint, dir, seq, ctx_id, data, drbg);
    out.reserve(mctls::sealed_record_size(payload));
    mctls::RecordScratch scratch;

    m.seal_ns = time_call(rec, rate, "mctls.record.seal", s, [&] {
        out.clear();
        mctls::seal_record_into(ctx, endpoint, dir, seq, ctx_id, data, drbg, out);
        consume(out);
    });
    m.open_endpoint_ns = time_call(rec, rate, "mctls.record.open_endpoint", s, [&] {
        auto r = mctls::open_record_endpoint(ctx, endpoint, dir, seq, ctx_id, fragment, scratch);
        if (r) consume(r.value().payload);
    });
    m.open_reader_ns = time_call(rec, rate, "mctls.record.open_reader", s, [&] {
        auto r = mctls::open_record_reader(ctx, dir, seq, ctx_id, fragment, scratch);
        if (r) consume(r.value());
    });
    m.reseal_ns = time_call(rec, rate, "mctls.record.reseal", s, [&] {
        auto r = mctls::open_record_writer(ctx, dir, seq, ctx_id, fragment, scratch);
        if (!r) return;
        out.clear();
        mctls::reseal_record_writer_into(ctx, dir, seq, ctx_id, r.value().payload,
                                         r.value().endpoint_mac, drbg, out);
        consume(out);
    });
    return m;
}

}  // namespace chainbench
