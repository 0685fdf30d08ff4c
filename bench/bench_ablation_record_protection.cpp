// Ablation: cost of mcTLS's fine-grained access control at the record layer.
//
//  - three MACs (mcTLS §3.4) vs one MAC (TLS) per record, seal + open
//  - writer reseal vs reader pass-through at a middlebox
//  - record size sweep, 16 B to 15000 B: where the fixed per-record MAC
//    and keying cost dominates and where per-byte work takes over
//  - optional signed mode (b): per-record Ed25519 signatures
//
// Paper claim being probed: "an efficient fine-grained access control
// mechanism which we show comes at very low cost".
//
// Measures the zero-copy data plane (seal_record_into into one reused wire
// buffer, scratch-based opens) — the path the sessions and middlebox
// actually run, with each IV drawn from a crypto::IvSource as a session
// draws it. Emits BENCH_ablation_record_protection.json when
// MCT_BENCH_JSON_DIR is set; the records/allocations counters in the
// metrics block pin the steady-state zero-allocation property.
#include <cstdio>
#include <string>

#include "bench_json.h"
#include "bench_timing.h"
#include "crypto/aes.h"
#include "crypto/cpu.h"
#include "crypto/ed25519.h"
#include "mctls/context_crypto.h"
#include "tls/record.h"
#include "util/rng.h"

using namespace mct;

int main()
{
    bench::BenchReport report("ablation_record_protection");
    TestRng rng(42);
    Bytes rand_c = rng.bytes(32), rand_s = rng.bytes(32);
    Bytes endpoint_secret = rng.bytes(48), context_secret = rng.bytes(48);
    mctls::EndpointKeys endpoint = mctls::derive_endpoint_keys(endpoint_secret, rand_c, rand_s);
    mctls::ContextKeys ctx = mctls::derive_context_keys_ckd(context_secret, rand_c, rand_s, 1);
    tls::CbcHmacProtector tls_seal(rng.bytes(16), rng.bytes(32));
    crypto::IvSource ivs(rng);

    mctls::RecordScratch scratch;
    // One seal buffer for every record: cleared before each seal, it keeps
    // its high-water capacity, so each growth is one seal-side allocation.
    Bytes wire;
    uint64_t sealed_records = 0;
    uint64_t seal_heap_allocations = 0;
    auto seal_into_wire = [&](auto&& seal) {
        size_t capacity = wire.capacity();
        wire.clear();
        seal(wire);
        if (wire.capacity() != capacity) ++seal_heap_allocations;
        ++sealed_records;
    };

    std::vector<size_t> sizes{16, 64, 256, 512, 1460, 4096, 15000};
    if (bench::smoke_mode()) sizes = {64, 1460};
    for (size_t size : sizes) {
        Bytes payload = rng.bytes(size);
        std::string x = std::to_string(size) + "B";
        uint64_t seq = 0;
        report.point("mctls_seal", x, bench::ops_per_sec([&] {
            seal_into_wire([&](Bytes& out) {
                mctls::seal_record_into(ctx, endpoint, mctls::Direction::client_to_server, seq++,
                                        1, payload, ivs, out);
            });
        }));
        Bytes frag =
            mctls::seal_record(ctx, endpoint, mctls::Direction::client_to_server, 7, 1, payload, ivs);
        report.point("mctls_endpoint_open", x, bench::ops_per_sec([&] {
            auto r = mctls::open_record_endpoint(ctx, endpoint, mctls::Direction::client_to_server,
                                                 7, 1, frag, scratch);
            (void)r;
        }));
        report.point("mctls_reader_open", x, bench::ops_per_sec([&] {
            auto r =
                mctls::open_record_reader(ctx, mctls::Direction::client_to_server, 7, 1, frag, scratch);
            (void)r;
        }));
        report.point("mctls_writer_rewrite", x, bench::ops_per_sec([&] {
            auto opened =
                mctls::open_record_writer(ctx, mctls::Direction::client_to_server, 7, 1, frag, scratch);
            seal_into_wire([&](Bytes& out) {
                mctls::reseal_record_writer_into(ctx, mctls::Direction::client_to_server, 7, 1,
                                                 opened.value().payload,
                                                 opened.value().endpoint_mac, ivs, out);
            });
        }));
        report.point("tls_seal", x, bench::ops_per_sec([&] {
            seal_into_wire([&](Bytes& out) {
                tls_seal.protect_into(tls::ContentType::application_data, 0, payload, ivs, out);
            });
        }));
        // Full record seal with the crypto pinned to the portable scalar
        // table: what the paper's numbers look like without AES-NI/SHA-NI,
        // and a host-independent series (the scalar arm exists everywhere).
        // An AES key binds the table active when it is first used
        // (crypto/key.h), so this series derives its own keys and first
        // uses them under the pin; the IV source binds it at construction.
        {
            crypto::ScopedDispatchOverride pin(crypto::scalar_dispatch());
            mctls::EndpointKeys scalar_endpoint =
                mctls::derive_endpoint_keys(endpoint_secret, rand_c, rand_s);
            mctls::ContextKeys scalar_ctx =
                mctls::derive_context_keys_ckd(context_secret, rand_c, rand_s, 1);
            crypto::IvSource scalar_ivs(rng);
            report.point("mctls_seal@scalar", x, bench::ops_per_sec([&] {
                seal_into_wire([&](Bytes& out) {
                    mctls::seal_record_into(scalar_ctx, scalar_endpoint,
                                            mctls::Direction::client_to_server, seq++, 1, payload,
                                            scalar_ivs, out);
                });
            }));
            if (std::string(scalar_ctx.reader_enc[0].expanded().backend().name) != "scalar") {
                std::fprintf(stderr, "mctls_seal@scalar: the seal's cipher is not scalar\n");
                return 1;
            }
        }
    }

    // Optional mode (b): the paper judged per-record signatures too costly
    // for the default; these series quantify that remark.
    auto signer = crypto::ed25519_keypair(rng);
    for (size_t size : sizes) {
        if (size != 1460 && size != 15000) continue;
        Bytes payload = rng.bytes(size);
        std::string x = std::to_string(size) + "B";
        uint64_t seq = 0;
        report.point("mctls_seal_signed", x, bench::ops_per_sec([&] {
            auto out = mctls::seal_record_signed(ctx, endpoint, mctls::Direction::client_to_server,
                                                 seq++, 1, payload, signer.private_key, ivs);
            (void)out;
        }));
        Bytes frag = mctls::seal_record_signed(ctx, endpoint, mctls::Direction::client_to_server, 7,
                                               1, payload, signer.private_key, ivs);
        report.point("mctls_reader_open_signed", x, bench::ops_per_sec([&] {
            auto r = mctls::open_record_reader_signed(ctx, mctls::Direction::client_to_server, 7, 1,
                                                      frag, signer.public_key);
            (void)r;
        }));
    }

    // Zero-allocation pin: in steady state the open scratch and the seal
    // buffer stop allocating, so records-per-allocation is the headline
    // counter — it collapses to ~1 if the fast path regresses.
    report.metrics().counter("open_records")->set(scratch.records);
    report.metrics().counter("open_heap_allocations")->set(scratch.heap_allocations);
    report.metrics().counter("seal_records")->set(sealed_records);
    report.metrics().counter("seal_heap_allocations")->set(seal_heap_allocations);
    uint64_t total_allocs = scratch.heap_allocations + seal_heap_allocations;
    report.metrics().counter("records_per_allocation")
        ->set((scratch.records + sealed_records) / (total_allocs ? total_allocs : 1));

    std::printf("ablation_record_protection: %llu records, %llu allocations\n",
                static_cast<unsigned long long>(scratch.records + sealed_records),
                static_cast<unsigned long long>(total_allocs));
    return 0;
}
