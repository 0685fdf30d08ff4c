// Backend equivalence: every compiled crypto backend must produce exactly
// the bytes the portable scalar reference produces, on NIST vectors and on
// a seeded differential fuzz (random keys/IVs/lengths up to 18 KB,
// append-into-self aliasing). Wire bytes must be
// backend-invariant — the record golden tests depend on it.
//
// On machines without the instructions, accelerated_dispatch() is null and
// the differential arms collapse to scalar-vs-scalar (still a valid run of
// the harness); the CAVP section always runs against whatever tables exist.
#include <gtest/gtest.h>

#include <cstring>
#include <string_view>
#include <vector>

#include "crypto/aes.h"
#include "crypto/cpu.h"
#include "crypto/hmac.h"
#include "crypto/prf.h"
#include "crypto/sha2.h"
#include "util/rng.h"

namespace mct::crypto {
namespace {

std::vector<const CryptoDispatch*> all_backends()
{
    std::vector<const CryptoDispatch*> v{&scalar_dispatch()};
    if (accelerated_dispatch() != nullptr) v.push_back(accelerated_dispatch());
    return v;
}

struct Schedules {
    uint8_t rk[176];
    uint8_t drk[176];
};

Schedules expand_with(const CryptoDispatch& d, ConstBytes key)
{
    Schedules s;
    d.aes128_expand(key.data(), s.rk, s.drk);
    return s;
}

// --- NIST CAVP / FIPS vectors, run against every compiled backend. ---

TEST(BackendCavp, Fips197BlockVector)
{
    Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
    Bytes pt = from_hex("00112233445566778899aabbccddeeff");
    for (const CryptoDispatch* d : all_backends()) {
        SCOPED_TRACE(d->name);
        auto s = expand_with(*d, key);
        uint8_t ct[16], back[16];
        d->aes128_encrypt_block(s.rk, pt.data(), ct);
        EXPECT_EQ(to_hex({ct, 16}), "69c4e0d86a7b0430d8cdb78070b4c55a");
        d->aes128_decrypt_block(s.rk, s.drk, ct, back);
        EXPECT_EQ(Bytes(back, back + 16), pt);
    }
}

// NIST SP 800-38A F.2.1 / F.2.2 (CBC-AES128.Encrypt / .Decrypt).
TEST(BackendCavp, Sp800_38aCbc)
{
    Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
    Bytes iv = from_hex("000102030405060708090a0b0c0d0e0f");
    Bytes pt = from_hex(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411e5fbc1191a0a52ef"
        "f69f2445df4f9b17ad2b417be66c3710");
    Bytes ct = from_hex(
        "7649abac8119b246cee98e9b12e9197d"
        "5086cb9b507219ee95db113a917678b2"
        "73bed6b8e3c1743b7116e69e22229516"
        "3ff1caa1681fac09120eca307586e1a7");
    for (const CryptoDispatch* d : all_backends()) {
        SCOPED_TRACE(d->name);
        auto s = expand_with(*d, key);
        Bytes out(64);
        uint8_t chain[16];
        std::memcpy(chain, iv.data(), 16);
        d->aes128_cbc_encrypt_blocks(s.rk, chain, pt.data(), out.data(), 4);
        EXPECT_EQ(out, ct);
        EXPECT_EQ(Bytes(chain, chain + 16), Bytes(ct.end() - 16, ct.end()));
        Bytes back(64);
        d->aes128_cbc_decrypt_blocks(s.rk, s.drk, iv.data(), ct.data(), back.data(), 4);
        EXPECT_EQ(back, pt);
    }
}

// FIPS 180-4 SHA-256 vectors, including a multi-block message (the bulk
// dispatch path) and the counter-carry over a long input.
TEST(BackendCavp, Sha256Vectors)
{
    for (const CryptoDispatch* d : all_backends()) {
        SCOPED_TRACE(d->name);
        ScopedDispatchOverride pin(*d);
        EXPECT_EQ(to_hex(Sha256::digest({})),
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
        EXPECT_EQ(to_hex(Sha256::digest(str_to_bytes("abc"))),
                  "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
        EXPECT_EQ(to_hex(Sha256::digest(str_to_bytes(
                      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
                  "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
        EXPECT_EQ(to_hex(Sha256::digest(Bytes(1000000, 'a'))),
                  "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
    }
}

// RFC 4231 test case 2 (short key, short data) for HMAC-SHA256.
TEST(BackendCavp, HmacSha256Rfc4231)
{
    for (const CryptoDispatch* d : all_backends()) {
        SCOPED_TRACE(d->name);
        ScopedDispatchOverride pin(*d);
        EXPECT_EQ(to_hex(HmacSha256::mac(str_to_bytes("Jefe"),
                                         str_to_bytes("what do ya want for nothing?"))),
                  "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
    }
}

// --- Differential: scalar vs accelerated, byte for byte. ---

class BackendDifferential : public ::testing::Test {
protected:
    void SetUp() override
    {
        if (accelerated_dispatch() == nullptr)
            GTEST_SKIP() << "no accelerated backend on this host";
    }
    const CryptoDispatch& accel() { return *accelerated_dispatch(); }
};

TEST_F(BackendDifferential, KeySchedulesAreIdentical)
{
    TestRng rng(200);
    for (int i = 0; i < 32; ++i) {
        Bytes key = rng.bytes(16);
        auto s = expand_with(scalar_dispatch(), key);
        auto a = expand_with(accel(), key);
        ASSERT_EQ(Bytes(s.rk, s.rk + 176), Bytes(a.rk, a.rk + 176)) << "iter " << i;
        ASSERT_EQ(Bytes(s.drk, s.drk + 176), Bytes(a.drk, a.drk + 176)) << "iter " << i;
    }
}

// The lengths every fuzz mode sweeps: block boundaries, off-by-ones, the
// record MTU, and past-16K sizes up to 18 KB (larger than any record).
std::vector<size_t> fuzz_lengths(TestRng& rng)
{
    std::vector<size_t> lens{0,  1,  15,  16,  17,   31,   32,   33,   63,   64,
                             65, 255, 256, 1460, 4096, 16384, 17000, 18432};
    for (int i = 0; i < 40; ++i) lens.push_back(rng.next() % 18433);
    return lens;
}

TEST_F(BackendDifferential, CbcEncryptMatchesAcrossLengths)
{
    TestRng rng(201);
    for (size_t len : fuzz_lengths(rng)) {
        Bytes key = rng.bytes(16);
        Bytes pt = rng.bytes(len);
        // Same IV stream on both arms.
        TestRng iv_a(202), iv_b(202);
        Bytes ct_scalar, ct_accel;
        {
            ScopedDispatchOverride pin(scalar_dispatch());
            aes128_cbc_encrypt_into(Aes128(key), pt, iv_a, ct_scalar);
        }
        {
            ScopedDispatchOverride pin(accel());
            aes128_cbc_encrypt_into(Aes128(key), pt, iv_b, ct_accel);
        }
        ASSERT_EQ(ct_scalar, ct_accel) << "len=" << len;
        // Cross-decrypt: scalar ciphertext through the accelerated arm and
        // vice versa.
        for (bool scalar : {true, false}) {
            ScopedDispatchOverride pin(scalar ? accel() : scalar_dispatch());
            Bytes back;
            ASSERT_TRUE(aes128_cbc_decrypt_into(Aes128(key), scalar ? ct_scalar : ct_accel, back)
                            .ok())
                << "len=" << len;
            ASSERT_EQ(back, pt) << "len=" << len;
        }
    }
}

TEST_F(BackendDifferential, CbcStreamChunkingMatches)
{
    TestRng rng(203);
    for (size_t len : {size_t{5}, size_t{48}, size_t{1460}, size_t{18432}}) {
        Bytes key = rng.bytes(16);
        Bytes pt = rng.bytes(len);
        for (int split = 0; split < 4; ++split) {
            size_t cut = (len * (split + 1)) / 5;
            Bytes out_scalar, out_accel;
            for (bool scalar : {true, false}) {
                ScopedDispatchOverride pin(scalar ? scalar_dispatch() : accel());
                Aes128 cipher(key);
                TestRng iv(204);
                Bytes& out = scalar ? out_scalar : out_accel;
                CbcEncryptStream enc(cipher, iv, out);
                enc.update(ConstBytes{pt}.subspan(0, cut));
                enc.update(ConstBytes{pt}.subspan(cut));
                enc.finish();
            }
            ASSERT_EQ(out_scalar, out_accel) << "len=" << len << " cut=" << cut;
        }
    }
}

TEST_F(BackendDifferential, EncryptIntoAliasingSealsBufferOntoItsOwnTail)
{
    // The record fast path appends ciphertext to caller-owned buffers; the
    // plaintext span may view into that same buffer as long as capacity was
    // reserved (no reallocation). Both arms must survive the aliasing (the
    // ASan config watches this test) and agree byte for byte.
    TestRng rng(207);
    for (size_t len : {size_t{1}, size_t{16}, size_t{100}, size_t{1460}, size_t{18432}}) {
        Bytes key = rng.bytes(16);
        Bytes pt = rng.bytes(len);
        Bytes reference;
        {
            TestRng iv(208);
            ScopedDispatchOverride pin(scalar_dispatch());
            Aes128 cipher(key);
            aes128_cbc_encrypt_into(cipher, pt, iv, reference);
        }
        for (const CryptoDispatch* d : all_backends()) {
            SCOPED_TRACE(d->name);
            ScopedDispatchOverride pin(*d);
            Aes128 cipher(key);
            Bytes buf = pt;
            buf.reserve(buf.size() + cbc_ciphertext_size(buf.size()));
            TestRng iv(208);
            aes128_cbc_encrypt_into(cipher, ConstBytes{buf.data(), len}, iv, buf);
            ASSERT_EQ(Bytes(buf.begin() + static_cast<long>(len), buf.end()), reference)
                << "len=" << len;
            // And decrypt-into with the ciphertext aliasing the output
            // buffer's front.
            Bytes round = Bytes(buf.begin() + static_cast<long>(len), buf.end());
            round.reserve(round.size() * 2);
            auto n = aes128_cbc_decrypt_into(cipher, ConstBytes{round.data(), round.size()},
                                             round);
            ASSERT_TRUE(n.ok());
            ASSERT_EQ(Bytes(round.end() - static_cast<long>(n.value()), round.end()), pt);
        }
    }
}

TEST_F(BackendDifferential, Sha256AndHmacMatchAcrossSplits)
{
    TestRng rng(209);
    for (size_t len : fuzz_lengths(rng)) {
        Bytes data = rng.bytes(len);
        Bytes key = rng.bytes(32);
        Bytes d_scalar, d_accel, m_scalar, m_accel;
        size_t cut = len == 0 ? 0 : rng.next() % len;
        for (bool scalar : {true, false}) {
            ScopedDispatchOverride pin(scalar ? scalar_dispatch() : accel());
            Sha256 h;
            h.update(ConstBytes{data}.subspan(0, cut));
            h.update(ConstBytes{data}.subspan(cut));
            auto digest = h.finish();
            (scalar ? d_scalar : d_accel) = Bytes(digest.begin(), digest.end());
            (scalar ? m_scalar : m_accel) = HmacSha256::mac(key, data);
        }
        ASSERT_EQ(d_scalar, d_accel) << "len=" << len;
        ASSERT_EQ(m_scalar, m_accel) << "len=" << len;
    }
}

// RFC 2104 straight from Sha256, independent of HmacKey's midstates.
Bytes reference_hmac(ConstBytes key, ConstBytes data)
{
    Bytes k = key.size() > Sha256::kBlockSize ? Sha256::digest(key) : to_bytes(key);
    k.resize(Sha256::kBlockSize, 0);
    Bytes ipad = k, opad = k;
    for (auto& b : ipad) b ^= 0x36;
    for (auto& b : opad) b ^= 0x5c;
    Sha256 inner;
    inner.update(ipad);
    inner.update(data);
    auto inner_digest = inner.finish();
    Sha256 outer;
    outer.update(opad);
    outer.update(inner_digest);
    auto tag = outer.finish();
    return Bytes(tag.begin(), tag.end());
}

// Every message length up to 200, then lengths around the one-shot's 1 KiB
// buffer (a full buffer, a part hashed in place, the padding in the slack).
std::vector<size_t> hmac_lengths()
{
    std::vector<size_t> lengths;
    for (size_t len = 0; len <= 200; ++len) lengths.push_back(len);
    for (size_t len : {1015u, 1016u, 1023u, 1024u, 1025u, 1087u, 1088u, 2047u, 2048u, 2049u,
                       3000u, 16397u})
        lengths.push_back(len);
    return lengths;
}

// The keyed paths (HmacKey midstates, one-block outer hash) against the
// one-shot raw-key path and the reference, on every compiled backend, for
// keys below, at and above the block size and messages across three blocks
// and across the one-shot's buffer: the streaming HmacSha256 and
// hmac_sha256() with the message in three parts.
TEST(BackendCavp, KeyedHmacMatchesOneShotAcrossLengths)
{
    TestRng rng(211);
    std::vector<size_t> lengths = hmac_lengths();
    Bytes message = rng.bytes(lengths.back());
    for (size_t key_len : {0u, 1u, 32u, 63u, 64u, 65u, 131u}) {
        Bytes key = rng.bytes(key_len);
        std::vector<Bytes> first_backend_tags;
        for (const CryptoDispatch* d : all_backends()) {
            ScopedDispatchOverride pin(*d);
            HmacKey keyed(key);
            std::vector<Bytes> tags;
            for (size_t len : lengths) {
                ConstBytes data = ConstBytes{message}.first(len);
                Bytes one_shot = HmacSha256::mac(key, data);
                ASSERT_EQ(one_shot, reference_hmac(key, data))
                    << d->name << " key=" << key_len << " len=" << len;
                HmacSha256 mac(keyed);
                mac.update(data.first(len / 3));
                mac.update(data.subspan(len / 3));
                auto tag = mac.finish_tag();
                ASSERT_EQ(Bytes(tag.begin(), tag.end()), one_shot)
                    << d->name << " key=" << key_len << " len=" << len;
                auto parts = hmac_sha256(keyed, {data.first(len / 7), data.subspan(len / 7, len / 2),
                                                 data.subspan(len / 7 + len / 2)});
                ASSERT_EQ(Bytes(parts.begin(), parts.end()), one_shot)
                    << d->name << " key=" << key_len << " len=" << len;
                tags.push_back(one_shot);
            }
            if (first_backend_tags.empty())
                first_backend_tags = tags;
            else
                ASSERT_EQ(tags, first_backend_tags) << d->name << " key=" << key_len;
        }
    }
}

// RFC 5246 §5 P_SHA256 built from the streaming HmacSha256, independent of
// the one-shot core prf() runs on.
Bytes reference_p_sha256(ConstBytes secret, ConstBytes label_seed, size_t n)
{
    auto mac = [&](ConstBytes a, ConstBytes b) {
        HmacSha256 h(secret);
        h.update(a);
        h.update(b);
        return h.finish();
    };
    Bytes out;
    Bytes a = mac(label_seed, {});  // A(1)
    while (out.size() < n) {
        append(out, mac(a, label_seed));
        a = mac(a, {});  // A(i+1)
    }
    out.resize(n);
    return out;
}

// prf() on every compiled backend against the reference. A(1) hashes
// label || seed and every output block A(i) || label || seed, so tail
// lengths 0-140 put both messages on each side of the 55/56-byte padding
// split and the 64-byte block edge (e.g. tails 55, 56, 64, 119, 120, 128);
// the longest tails no longer fit prf()'s fused buffer. Output lengths run
// 1-200 (up to seven P_SHA256 blocks).
TEST(BackendCavp, PrfMatchesStreamingReferenceAcrossPaddingBoundaries)
{
    TestRng rng(212);
    std::vector<size_t> tails;
    for (size_t t = 0; t <= 140; ++t) tails.push_back(t);
    for (size_t t : {214u, 215u, 216u, 300u, 1100u}) tails.push_back(t);
    for (size_t secret_len : {0u, 32u, 65u}) {
        Bytes secret = rng.bytes(secret_len);
        for (size_t tail : tails) {
            Bytes label_seed = rng.bytes(tail);
            std::string_view label{reinterpret_cast<const char*>(label_seed.data()), tail / 4};
            ConstBytes seed = ConstBytes{label_seed}.subspan(tail / 4);
            Bytes expected = reference_p_sha256(secret, label_seed, 200);
            for (const CryptoDispatch* d : all_backends()) {
                ScopedDispatchOverride pin(*d);
                HmacKey key(secret);
                for (size_t n = 1; n <= expected.size(); ++n) {
                    Bytes out(n);
                    prf(key, label, seed, out);
                    ASSERT_EQ(out, Bytes(expected.begin(), expected.begin() + n))
                        << d->name << " secret=" << secret_len << " tail=" << tail
                        << " n=" << n;
                }
            }
        }
    }
}

// The IV source keyed from the same seed yields the same IV stream whichever
// table expanded its key and encrypts its counter.
TEST_F(BackendDifferential, IvSourceStreamMatches)
{
    Bytes streams[2];
    for (bool scalar : {true, false}) {
        ScopedDispatchOverride pin(scalar ? scalar_dispatch() : accel());
        TestRng seed(211);
        IvSource ivs(seed);
        Bytes& out = streams[scalar ? 0 : 1];
        for (int i = 0; i < 256; ++i) append(out, ivs.bytes(16));
        append(out, ivs.bytes(4096));
    }
    EXPECT_EQ(streams[0], streams[1]);
}

TEST_F(BackendDifferential, RawDecryptIntoMatches)
{
    TestRng rng(210);
    for (size_t blocks : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5}, size_t{9},
                          size_t{64}, size_t{1152}}) {
        Bytes key = rng.bytes(16);
        Bytes iv_ct = rng.bytes(16 + blocks * 16);  // arbitrary "ciphertext"
        Bytes out_scalar, out_accel;
        for (bool scalar : {true, false}) {
            ScopedDispatchOverride pin(scalar ? scalar_dispatch() : accel());
            Aes128 cipher(key);
            Bytes& out = scalar ? out_scalar : out_accel;
            ASSERT_TRUE(aes128_cbc_decrypt_raw_into(cipher, iv_ct, out));
        }
        ASSERT_EQ(out_scalar, out_accel) << "blocks=" << blocks;
    }
}

}  // namespace
}  // namespace mct::crypto
