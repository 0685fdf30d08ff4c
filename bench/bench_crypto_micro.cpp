// Crypto primitive micro-benchmarks: sanity-checks the substrate the
// protocol benches stand on. Manual timing loop (bench_timing.h); emits
// BENCH_crypto_micro.json when MCT_BENCH_JSON_DIR is set.
#include <array>
#include <string>

#include "bench_json.h"
#include "bench_timing.h"
#include "crypto/aes.h"
#include "crypto/cpu.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "crypto/hmac.h"
#include "crypto/prf.h"
#include "crypto/sha2.h"
#include "crypto/x25519.h"
#include "util/rng.h"

using namespace mct;

int main()
{
    bench::BenchReport report("crypto_micro");
    TestRng rng(1);

    std::vector<size_t> sizes{1460, 16384};
    if (bench::smoke_mode()) sizes = {1460};
    for (size_t size : sizes) {
        Bytes data = rng.bytes(size);
        Bytes key16 = rng.bytes(16), key32 = rng.bytes(32);
        std::string x = std::to_string(size) + "B";
        double mb = static_cast<double>(size) / 1e6;
        report.point("sha256_MBps", x,
                     mb * bench::ops_per_sec([&] { crypto::Sha256::digest(data); }));
        report.point("hmac_sha256_MBps", x,
                     mb * bench::ops_per_sec([&] { crypto::HmacSha256::mac(key32, data); }));
        // One-shot CBC: expand the key and fill a fresh buffer on every call.
        auto cbc_encrypt_once = [&] {
            Bytes out;
            crypto::aes128_cbc_encrypt_into(crypto::Aes128(key16), data, rng, out);
            return out;
        };
        report.point("aes128_cbc_encrypt_MBps", x, mb * bench::ops_per_sec(cbc_encrypt_once));
        Bytes ct = cbc_encrypt_once();
        auto cbc_decrypt_once = [&] {
            Bytes out;
            auto r = crypto::aes128_cbc_decrypt_into(crypto::Aes128(key16), ct, out);
            (void)r;
        };
        report.point("aes128_cbc_decrypt_MBps", x, mb * bench::ops_per_sec(cbc_decrypt_once));
        // Fast-path variants: cached key schedule, append-into reused buffers.
        crypto::Aes128 cipher(key16);
        Bytes out;
        report.point("aes128_cbc_encrypt_into_MBps", x, mb * bench::ops_per_sec([&] {
            out.clear();
            crypto::aes128_cbc_encrypt_into(cipher, data, rng, out);
        }));
        Bytes plain;
        report.point("aes128_cbc_decrypt_into_MBps", x, mb * bench::ops_per_sec([&] {
            plain.clear();
            auto r = crypto::aes128_cbc_decrypt_into(cipher, ct, plain);
            (void)r;
        }));

        // The same bulk primitives pinned to the portable scalar table. The
        // "@scalar" series exist on every host (the scalar arm always
        // compiles), so baselines stay structurally comparable across
        // machines with and without AES-NI/SHA-NI; the ratio against the
        // rows above is the dispatch speedup on this host.
        {
            crypto::ScopedDispatchOverride pin(crypto::scalar_dispatch());
            report.point("sha256_MBps@scalar", x,
                         mb * bench::ops_per_sec([&] { crypto::Sha256::digest(data); }));
            report.point("hmac_sha256_MBps@scalar", x, mb * bench::ops_per_sec([&] {
                crypto::HmacSha256::mac(key32, data);
            }));
            report.point("aes128_cbc_encrypt_MBps@scalar", x,
                         mb * bench::ops_per_sec(cbc_encrypt_once));
            report.point("aes128_cbc_decrypt_MBps@scalar", x,
                         mb * bench::ops_per_sec(cbc_decrypt_once));
        }
    }
    // Which table the unpinned rows above ran on (1 = hardware backend).
    if (crypto::accelerated_dispatch() != nullptr)
        report.metrics().counter("backend_accelerated")->add();

    {
        Bytes secret = rng.bytes(48);
        Bytes seed = rng.bytes(64);
        report.point("tls_prf_ops", "op", bench::ops_per_sec([&] {
            auto r = crypto::prf(secret, "key expansion", seed, 128);
            (void)r;
        }));
        // The key-schedule shape: one context's reader keys from a freshly
        // combined 64 B secret (expanded per call, as combine_reader_keys
        // does) and the 64 B hello randoms.
        Bytes reader_secret = rng.bytes(64);
        std::array<uint8_t, 96> reader_keys;
        report.point("prf_reader_keys_96B_ops", "op", bench::ops_per_sec([&] {
            crypto::prf(crypto::HmacKey(reader_secret), "reader keys", seed, reader_keys);
        }));
    }
    {
        // A record-sized MAC: from raw key bytes (ipad/opad hashed per MAC)
        // and from an HmacKey expanded once, as the record layer holds it.
        Bytes key32 = rng.bytes(32);
        Bytes data = rng.bytes(64);
        crypto::HmacKey key(key32);
        report.point("hmac_sha256_ops", "64B", bench::ops_per_sec([&] {
            crypto::HmacSha256 mac(key32);
            mac.update(data);
            mac.finish_tag();
        }));
        report.point("hmac_sha256_keyed_ops", "64B", bench::ops_per_sec([&] {
            crypto::HmacSha256 mac(key);
            mac.update(data);
            mac.finish_tag();
        }));
    }
    auto alice = crypto::x25519_keypair(rng);
    auto bob = crypto::x25519_keypair(rng);
    // The fixed-base public key (key generation) and the variable-base
    // ladder (the shared secret).
    report.point("x25519_public_ops", "op", bench::ops_per_sec([&] {
        crypto::x25519_public_key(alice.private_key);
    }));
    report.point("x25519_shared_ops", "op", bench::ops_per_sec([&] {
        auto r = crypto::x25519_shared(alice.private_key, bob.public_key);
        (void)r;
    }));
    auto kp = crypto::ed25519_keypair(rng);
    Bytes msg = rng.bytes(256);
    report.point("ed25519_sign_ops", "op",
                 bench::ops_per_sec([&] { crypto::ed25519_sign(kp.private_key, msg); }));
    Bytes sig = crypto::ed25519_sign(kp.private_key, msg);
    report.point("ed25519_verify_ops", "op", bench::ops_per_sec([&] {
        crypto::ed25519_verify(kp.public_key, msg, sig);
    }));
    crypto::HmacDrbg drbg(str_to_bytes("bench"));
    report.point("hmac_drbg_1k_ops", "op",
                 bench::ops_per_sec([&] { drbg.bytes(1024); }));
    // One CBC IV: the DRBG draw a sealed record used to make (8 SHA-256
    // compressions), and the session IV source's draw that replaced it (one
    // AES block).
    std::array<uint8_t, 16> iv;
    report.point("drbg_fill16_ops", "op", bench::ops_per_sec([&] { drbg.fill(iv); }));
    crypto::IvSource ivs(drbg);
    report.point("iv_fill16_ops", "op", bench::ops_per_sec([&] { ivs.fill(iv); }));
    return 0;
}
