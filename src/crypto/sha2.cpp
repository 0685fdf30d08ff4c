#include "crypto/sha2.h"

#include <cstring>

#include "crypto/cpu.h"

namespace mct::crypto {

namespace {

constexpr std::array<unsigned, 64> first_64_primes()
{
    std::array<unsigned, 64> primes{};
    unsigned count = 0;
    for (unsigned n = 2; count < 64; ++n) {
        bool prime = true;
        for (unsigned d = 2; d * d <= n; ++d) {
            if (n % d == 0) {
                prime = false;
                break;
            }
        }
        if (prime) primes[count++] = n;
    }
    return primes;
}

using u128 = unsigned __int128;

// floor(n^(1/k)) by bisection; the roots we take fit well below 2^43.
constexpr uint64_t iroot_u128(u128 n, int k)
{
    uint64_t lo = 0, hi = uint64_t{1} << 43;
    while (lo + 1 < hi) {
        uint64_t mid = lo + (hi - lo) / 2;
        u128 p = 1;
        bool overflow = false;
        for (int i = 0; i < k; ++i) {
            if (p > ~u128{0} / mid) {
                overflow = true;
                break;
            }
            p *= mid;
        }
        if (!overflow && p <= n) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    return lo;
}

// frac(p^(1/k)) scaled to 32 bits, exactly:
// floor(p^(1/k) * 2^32) = floor((p * 2^(32k))^(1/k)); the uint32_t cast
// keeps only the fractional bits (the integer part sits above bit 32).
constexpr uint32_t root_fraction32(unsigned p, int k)
{
    return static_cast<uint32_t>(iroot_u128(u128{p} << (32 * k), k));
}

struct Sha256Constants {
    std::array<uint32_t, 8> iv{};
    std::array<uint32_t, 64> k{};
};

// Compile-time SHA-256 constants: the record path's HMACs hash from the
// very first record at steady-state cost, with no lazy derivation inside
// the first session's crypto span.
constexpr Sha256Constants make_sha256_constants()
{
    Sha256Constants out{};
    auto primes = first_64_primes();
    for (int i = 0; i < 8; ++i) out.iv[i] = root_fraction32(primes[i], 2);
    for (int i = 0; i < 64; ++i) out.k[i] = root_fraction32(primes[i], 3);
    return out;
}

constexpr Sha256Constants kSha256 = make_sha256_constants();

// FIPS 180-4 SHA-512 initial hash value (§5.3.5) and round constants
// (§4.2.3): the first 64 fractional bits of the square roots of the first 8
// primes and of the cube roots of the first 80 primes. Tabulated rather than
// derived like SHA-256's, because the cube roots need 192-bit intermediates;
// the FIPS digest vectors in tests/crypto/sha2_test.cpp pin every entry.
constexpr std::array<uint64_t, 8> kSha512Iv = {
    0x6a09e667f3bcc908, 0xbb67ae8584caa73b, 0x3c6ef372fe94f82b, 0xa54ff53a5f1d36f1,
    0x510e527fade682d1, 0x9b05688c2b3e6c1f, 0x1f83d9abfb41bd6b, 0x5be0cd19137e2179,
};

constexpr std::array<uint64_t, 80> kSha512K = {
    0x428a2f98d728ae22, 0x7137449123ef65cd, 0xb5c0fbcfec4d3b2f, 0xe9b5dba58189dbbc,
    0x3956c25bf348b538, 0x59f111f1b605d019, 0x923f82a4af194f9b, 0xab1c5ed5da6d8118,
    0xd807aa98a3030242, 0x12835b0145706fbe, 0x243185be4ee4b28c, 0x550c7dc3d5ffb4e2,
    0x72be5d74f27b896f, 0x80deb1fe3b1696b1, 0x9bdc06a725c71235, 0xc19bf174cf692694,
    0xe49b69c19ef14ad2, 0xefbe4786384f25e3, 0x0fc19dc68b8cd5b5, 0x240ca1cc77ac9c65,
    0x2de92c6f592b0275, 0x4a7484aa6ea6e483, 0x5cb0a9dcbd41fbd4, 0x76f988da831153b5,
    0x983e5152ee66dfab, 0xa831c66d2db43210, 0xb00327c898fb213f, 0xbf597fc7beef0ee4,
    0xc6e00bf33da88fc2, 0xd5a79147930aa725, 0x06ca6351e003826f, 0x142929670a0e6e70,
    0x27b70a8546d22ffc, 0x2e1b21385c26c926, 0x4d2c6dfc5ac42aed, 0x53380d139d95b3df,
    0x650a73548baf63de, 0x766a0abb3c77b2a8, 0x81c2c92e47edaee6, 0x92722c851482353b,
    0xa2bfe8a14cf10364, 0xa81a664bbc423001, 0xc24b8b70d0f89791, 0xc76c51a30654be30,
    0xd192e819d6ef5218, 0xd69906245565a910, 0xf40e35855771202a, 0x106aa07032bbd1b8,
    0x19a4c116b8d2d0c8, 0x1e376c085141ab53, 0x2748774cdf8eeb99, 0x34b0bcb5e19b48a8,
    0x391c0cb3c5c95a63, 0x4ed8aa4ae3418acb, 0x5b9cca4f7763e373, 0x682e6ff3d6b2b8a3,
    0x748f82ee5defb2fc, 0x78a5636f43172f60, 0x84c87814a1f0ab72, 0x8cc702081a6439ec,
    0x90befffa23631e28, 0xa4506cebde82bde9, 0xbef9a3f7b2c67915, 0xc67178f2e372532b,
    0xca273eceea26619c, 0xd186b8c721c0c207, 0xeada7dd6cde0eb1e, 0xf57d4f7fee6ed178,
    0x06f067aa72176fba, 0x0a637dc5a2c898a6, 0x113f9804bef90dae, 0x1b710b35131c471b,
    0x28db77f523047d84, 0x32caab7b40c72493, 0x3c9ebe0a15c9bebc, 0x431d67c49c100d4c,
    0x4cc5d4becb3e42b6, 0x597f299cfc657e2a, 0x5fcb6fab3ad6faec, 0x6c44198c4a475817,
};

inline uint32_t rotr32(uint32_t x, unsigned n)
{
    return (x >> n) | (x << (32 - n));
}

inline uint64_t rotr64(uint64_t x, unsigned n)
{
    return (x >> n) | (x << (64 - n));
}

}  // namespace

namespace detail {

const uint32_t* sha256_round_constants()
{
    return kSha256.k.data();
}

void sha256_compress_scalar(uint32_t state[8], const uint8_t* blocks, size_t nblocks)
{
    const auto& K = kSha256.k;
    for (size_t blk = 0; blk < nblocks; ++blk) {
        const uint8_t* block = blocks + 64 * blk;
        uint32_t w[64];
        for (int i = 0; i < 16; ++i) {
            w[i] = static_cast<uint32_t>(block[4 * i]) << 24 |
                   static_cast<uint32_t>(block[4 * i + 1]) << 16 |
                   static_cast<uint32_t>(block[4 * i + 2]) << 8 |
                   static_cast<uint32_t>(block[4 * i + 3]);
        }
        for (int i = 16; i < 64; ++i) {
            uint32_t s0 = rotr32(w[i - 15], 7) ^ rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
            uint32_t s1 = rotr32(w[i - 2], 17) ^ rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }
        uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
        for (int i = 0; i < 64; ++i) {
            uint32_t s1 = rotr32(e, 6) ^ rotr32(e, 11) ^ rotr32(e, 25);
            uint32_t ch = (e & f) ^ (~e & g);
            uint32_t t1 = h + s1 + ch + K[i] + w[i];
            uint32_t s0 = rotr32(a, 2) ^ rotr32(a, 13) ^ rotr32(a, 22);
            uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            uint32_t t2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + t1;
            d = c;
            c = b;
            b = a;
            a = t1 + t2;
        }
        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

}  // namespace detail

Sha256::Sha256() : state_(kSha256.iv), dispatch_(&dispatch()) {}

Sha256::Sha256(const Sha256State& midstate, uint64_t blocks)
    : state_(midstate), total_bytes_(blocks * kBlockSize), dispatch_(&dispatch())
{
}

void Sha256::update(ConstBytes data)
{
    if (data.empty()) return;  // empty spans may carry a null data()
    total_bytes_ += data.size();
    size_t offset = 0;
    if (buffered_ > 0) {
        size_t take = std::min(kBlockSize - buffered_, data.size());
        std::memcpy(buffer_.data() + buffered_, data.data(), take);
        buffered_ += take;
        offset = take;
        if (buffered_ == kBlockSize) {
            dispatch_->sha256_compress(state_.data(), buffer_.data(), 1);
            buffered_ = 0;
        }
    }
    // All whole blocks in one dispatch call: the accelerated backend keeps
    // its packed state in registers across the run.
    size_t nblocks = (data.size() - offset) / kBlockSize;
    if (nblocks > 0) {
        dispatch_->sha256_compress(state_.data(), data.data() + offset, nblocks);
        offset += nblocks * kBlockSize;
    }
    if (offset < data.size()) {
        std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
        buffered_ = data.size() - offset;
    }
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::finish()
{
    uint64_t bit_length = total_bytes_ * 8;
    buffer_[buffered_++] = 0x80;
    if (buffered_ > kBlockSize - 8) {  // no room for the length: one more block
        std::memset(buffer_.data() + buffered_, 0, kBlockSize - buffered_);
        dispatch_->sha256_compress(state_.data(), buffer_.data(), 1);
        buffered_ = 0;
    }
    std::memset(buffer_.data() + buffered_, 0, kBlockSize - 8 - buffered_);
    for (int i = 0; i < 8; ++i)
        buffer_[kBlockSize - 8 + i] = static_cast<uint8_t>(bit_length >> (56 - 8 * i));
    dispatch_->sha256_compress(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
    return state_digest(state_);
}

const Sha256State& Sha256::initial_state()
{
    return kSha256.iv;
}

Bytes Sha256::digest(ConstBytes data)
{
    Sha256 h;
    h.update(data);
    auto d = h.finish();
    return Bytes(d.begin(), d.end());
}

Sha512::Sha512() : state_(kSha512Iv) {}

void Sha512::compress(const uint8_t* block)
{
    const auto& K = kSha512K;
    uint64_t w[80];
    for (int i = 0; i < 16; ++i) {
        uint64_t v = 0;
        for (int j = 0; j < 8; ++j) v = v << 8 | block[8 * i + j];
        w[i] = v;
    }
    for (int i = 16; i < 80; ++i) {
        uint64_t s0 = rotr64(w[i - 15], 1) ^ rotr64(w[i - 15], 8) ^ (w[i - 15] >> 7);
        uint64_t s1 = rotr64(w[i - 2], 19) ^ rotr64(w[i - 2], 61) ^ (w[i - 2] >> 6);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint64_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
    uint64_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
    for (int i = 0; i < 80; ++i) {
        uint64_t s1 = rotr64(e, 14) ^ rotr64(e, 18) ^ rotr64(e, 41);
        uint64_t ch = (e & f) ^ (~e & g);
        uint64_t t1 = h + s1 + ch + K[i] + w[i];
        uint64_t s0 = rotr64(a, 28) ^ rotr64(a, 34) ^ rotr64(a, 39);
        uint64_t maj = (a & b) ^ (a & c) ^ (b & c);
        uint64_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
    state_[4] += e;
    state_[5] += f;
    state_[6] += g;
    state_[7] += h;
}

void Sha512::update(ConstBytes data)
{
    if (data.empty()) return;  // empty spans may carry a null data()
    total_bytes_ += data.size();
    size_t offset = 0;
    if (buffered_ > 0) {
        size_t take = std::min(kBlockSize - buffered_, data.size());
        std::memcpy(buffer_.data() + buffered_, data.data(), take);
        buffered_ += take;
        offset = take;
        if (buffered_ == kBlockSize) {
            compress(buffer_.data());
            buffered_ = 0;
        }
    }
    while (offset + kBlockSize <= data.size()) {
        compress(data.data() + offset);
        offset += kBlockSize;
    }
    if (offset < data.size()) {
        std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
        buffered_ = data.size() - offset;
    }
}

std::array<uint8_t, Sha512::kDigestSize> Sha512::finish()
{
    uint64_t bit_length = total_bytes_ * 8;
    uint8_t pad[kBlockSize + 16] = {0x80};
    size_t pad_len = (buffered_ < 112) ? 112 - buffered_ : 240 - buffered_;
    update({pad, pad_len});
    // 128-bit length field; sizes here never exceed 64 bits.
    uint8_t len_be[16] = {0};
    for (int i = 0; i < 8; ++i) len_be[8 + i] = static_cast<uint8_t>(bit_length >> (56 - 8 * i));
    update({len_be, 16});
    std::array<uint8_t, kDigestSize> out;
    for (int i = 0; i < 8; ++i) {
        for (int j = 0; j < 8; ++j)
            out[8 * i + j] = static_cast<uint8_t>(state_[i] >> (56 - 8 * j));
    }
    return out;
}

Bytes Sha512::digest(ConstBytes data)
{
    Sha512 h;
    h.update(data);
    auto d = h.finish();
    return Bytes(d.begin(), d.end());
}

}  // namespace mct::crypto
