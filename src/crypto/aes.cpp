#include "crypto/aes.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "crypto/cpu.h"

namespace mct::crypto {

namespace {

// GF(2^8) multiply with the AES reduction polynomial x^8+x^4+x^3+x+1.
constexpr uint8_t gmul(uint8_t a, uint8_t b)
{
    uint8_t p = 0;
    for (int i = 0; i < 8; ++i) {
        if (b & 1) p ^= a;
        bool hi = a & 0x80;
        a = static_cast<uint8_t>(a << 1);
        if (hi) a ^= 0x1b;
        b >>= 1;
    }
    return p;
}

constexpr uint8_t rotl8(uint8_t x, unsigned n)
{
    return static_cast<uint8_t>(x << n | x >> (8 - n));
}

struct Tables {
    std::array<uint8_t, 256> sbox{};
    std::array<uint8_t, 256> inv_sbox{};
    std::array<uint8_t, 11> rcon{};
    // Fixed-multiplier GF(2^8) product tables for MixColumns and its
    // inverse; indexed as mul[k][x] with k in {2,3,9,11,13,14}.
    std::array<std::array<uint8_t, 256>, 15> mul{};
};

// Derived entirely at compile time (the 256x256 inverse scan runs in the
// constexpr evaluator), so first use costs nothing at runtime: the first
// record's crypto span and first-iteration bench samples see steady-state
// block costs. tests/crypto pin both the FIPS vectors and the first-use
// timing property.
constexpr Tables make_tables()
{
    Tables out{};
    // Multiplicative inverses by brute force, once, in the compiler.
    std::array<uint8_t, 256> inv{};
    for (int a = 1; a < 256; ++a) {
        for (int b = 1; b < 256; ++b) {
            if (gmul(static_cast<uint8_t>(a), static_cast<uint8_t>(b)) == 1) {
                inv[a] = static_cast<uint8_t>(b);
                break;
            }
        }
    }
    for (int a = 0; a < 256; ++a) {
        uint8_t x = inv[a];
        uint8_t s = static_cast<uint8_t>(x ^ rotl8(x, 1) ^ rotl8(x, 2) ^ rotl8(x, 3) ^
                                         rotl8(x, 4) ^ 0x63);
        out.sbox[a] = s;
        out.inv_sbox[s] = static_cast<uint8_t>(a);
    }
    uint8_t rc = 1;
    for (int i = 1; i <= 10; ++i) {
        out.rcon[i] = rc;
        rc = gmul(rc, 2);
    }
    for (int k : {2, 3, 9, 11, 13, 14}) {
        for (int x = 0; x < 256; ++x)
            out.mul[k][x] = gmul(static_cast<uint8_t>(k), static_cast<uint8_t>(x));
    }
    return out;
}

constexpr Tables kTables = make_tables();

// InvMixColumns of one 16-byte round key, for the equivalent-inverse-cipher
// schedule (what AESIMC computes).
void inv_mix_columns(const uint8_t in[16], uint8_t out[16])
{
    const auto& m9 = kTables.mul[9];
    const auto& m11 = kTables.mul[11];
    const auto& m13 = kTables.mul[13];
    const auto& m14 = kTables.mul[14];
    for (int c = 0; c < 4; ++c) {
        const uint8_t* col = in + 4 * c;
        uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        out[4 * c + 0] = m14[a0] ^ m11[a1] ^ m13[a2] ^ m9[a3];
        out[4 * c + 1] = m9[a0] ^ m14[a1] ^ m11[a2] ^ m13[a3];
        out[4 * c + 2] = m13[a0] ^ m9[a1] ^ m14[a2] ^ m11[a3];
        out[4 * c + 3] = m11[a0] ^ m13[a1] ^ m9[a2] ^ m14[a3];
    }
}

}  // namespace

namespace detail {

void aes128_expand_scalar(const uint8_t key[16], uint8_t rk[176], uint8_t drk[176])
{
    const auto& t = kTables;
    std::memcpy(rk, key, 16);
    for (int round = 1; round <= 10; ++round) {
        const uint8_t* prev = rk + 16 * (round - 1);
        uint8_t* out = rk + 16 * round;
        // First word: RotWord + SubWord + Rcon.
        uint8_t w[4] = {prev[13], prev[14], prev[15], prev[12]};
        for (auto& b : w) b = t.sbox[b];
        w[0] ^= t.rcon[round];
        for (int i = 0; i < 4; ++i) out[i] = prev[i] ^ w[i];
        for (int i = 4; i < 16; ++i) out[i] = prev[i] ^ out[i - 4];
    }
    // Equivalent-inverse-cipher schedule: rk[10], InvMixColumns(rk[9..1]),
    // rk[0]. Identical bytes to what AESIMC produces, so an Aes128 expanded
    // here can be decrypted by the AES-NI backend and vice versa.
    std::memcpy(drk, rk + 160, 16);
    for (int i = 1; i <= 9; ++i) inv_mix_columns(rk + 16 * (10 - i), drk + 16 * i);
    std::memcpy(drk + 160, rk, 16);
}

void aes128_encrypt_block_scalar(const uint8_t rk[176], const uint8_t in[16], uint8_t out[16])
{
    const auto& t = kTables;
    uint8_t s[16];
    for (int i = 0; i < 16; ++i) s[i] = in[i] ^ rk[i];
    for (int round = 1; round <= 10; ++round) {
        // SubBytes.
        for (auto& b : s) b = t.sbox[b];
        // ShiftRows (state is column-major: s[r + 4c]).
        uint8_t tmp[16];
        for (int c = 0; c < 4; ++c) {
            for (int r = 0; r < 4; ++r) tmp[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
        }
        std::memcpy(s, tmp, 16);
        // MixColumns (skipped in the final round).
        if (round != 10) {
            const auto& m2 = t.mul[2];
            const auto& m3 = t.mul[3];
            for (int c = 0; c < 4; ++c) {
                uint8_t* col = s + 4 * c;
                uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
                col[0] = m2[a0] ^ m3[a1] ^ a2 ^ a3;
                col[1] = a0 ^ m2[a1] ^ m3[a2] ^ a3;
                col[2] = a0 ^ a1 ^ m2[a2] ^ m3[a3];
                col[3] = m3[a0] ^ a1 ^ a2 ^ m2[a3];
            }
        }
        const uint8_t* round_key = rk + 16 * round;
        for (int i = 0; i < 16; ++i) s[i] ^= round_key[i];
    }
    std::memcpy(out, s, 16);
}

void aes128_decrypt_block_scalar(const uint8_t rk[176], const uint8_t drk[176],
                                 const uint8_t in[16], uint8_t out[16])
{
    (void)drk;  // the straight inverse cipher uses the encryption schedule
    const auto& t = kTables;
    uint8_t s[16];
    for (int i = 0; i < 16; ++i) s[i] = in[i] ^ rk[160 + i];
    for (int round = 9; round >= 0; --round) {
        // InvShiftRows.
        uint8_t tmp[16];
        for (int c = 0; c < 4; ++c) {
            for (int r = 0; r < 4; ++r) tmp[r + 4 * ((c + r) % 4)] = s[r + 4 * c];
        }
        std::memcpy(s, tmp, 16);
        // InvSubBytes.
        for (auto& b : s) b = t.inv_sbox[b];
        // AddRoundKey.
        const uint8_t* round_key = rk + 16 * round;
        for (int i = 0; i < 16; ++i) s[i] ^= round_key[i];
        // InvMixColumns (skipped after the last round-key add).
        if (round != 0) inv_mix_columns(s, s);
    }
    std::memcpy(out, s, 16);
}

void aes128_cbc_encrypt_blocks_scalar(const uint8_t rk[176], uint8_t chain[16], const uint8_t* in,
                                      uint8_t* out, size_t nblocks)
{
    constexpr size_t B = Aes128::kBlockSize;
    uint8_t xored[B];
    for (size_t b = 0; b < nblocks; ++b) {
        for (size_t i = 0; i < B; ++i) xored[i] = in[b * B + i] ^ chain[i];
        aes128_encrypt_block_scalar(rk, xored, out + b * B);
        std::memcpy(chain, out + b * B, B);
    }
}

void aes128_cbc_decrypt_blocks_scalar(const uint8_t rk[176], const uint8_t drk[176],
                                      const uint8_t iv[16], const uint8_t* in, uint8_t* out,
                                      size_t nblocks)
{
    constexpr size_t B = Aes128::kBlockSize;
    const uint8_t* prev = iv;
    for (size_t b = 0; b < nblocks; ++b) {
        uint8_t block[B];
        aes128_decrypt_block_scalar(rk, drk, in + b * B, block);
        for (size_t i = 0; i < B; ++i) out[b * B + i] = block[i] ^ prev[i];
        prev = in + b * B;
    }
}

}  // namespace detail

Aes128::Aes128(ConstBytes key) : dispatch_(&dispatch())
{
    if (key.size() != kKeySize) throw std::invalid_argument("Aes128: key must be 16 bytes");
    dispatch_->aes128_expand(key.data(), rk_.data(), drk_.data());
}

void Aes128::encrypt_block(const uint8_t in[16], uint8_t out[16]) const
{
    dispatch_->aes128_encrypt_block(rk_.data(), in, out);
}

void Aes128::decrypt_block(const uint8_t in[16], uint8_t out[16]) const
{
    dispatch_->aes128_decrypt_block(rk_.data(), drk_.data(), in, out);
}

namespace {

Aes128 draw_key(Rng& seed)
{
    std::array<uint8_t, Aes128::kKeySize> key;
    seed.fill(key);
    return Aes128(key);
}

}  // namespace

IvSource::IvSource(Rng& seed) : cipher_(draw_key(seed)) {}

void IvSource::fill(MutableBytes out)
{
    constexpr size_t B = Aes128::kBlockSize;
    for (size_t off = 0; off < out.size(); off += B) {
        uint8_t block[B] = {};
        for (int i = 0; i < 8; ++i) block[B - 1 - i] = static_cast<uint8_t>(counter_ >> (8 * i));
        ++counter_;
        cipher_.encrypt_block(block, block);
        std::memcpy(out.data() + off, block, std::min(B, out.size() - off));
    }
}

CbcEncryptStream::CbcEncryptStream(const Aes128& cipher, Rng& rng, Bytes& out)
    : cipher_(cipher), dispatch_(cipher.backend()), out_(out)
{
    size_t iv_off = out_.size();
    out_.resize(iv_off + Aes128::kBlockSize);
    rng.fill(MutableBytes{out_.data() + iv_off, Aes128::kBlockSize});
    std::memcpy(chain_, out_.data() + iv_off, Aes128::kBlockSize);
}

void CbcEncryptStream::emit_block(const uint8_t block[Aes128::kBlockSize])
{
    size_t off = out_.size();
    out_.resize(off + Aes128::kBlockSize);
    dispatch_.aes128_cbc_encrypt_blocks(cipher_.round_keys(), chain_, block, out_.data() + off, 1);
}

void CbcEncryptStream::update(ConstBytes data)
{
    constexpr size_t B = Aes128::kBlockSize;
    if (data.empty()) return;  // empty spans may carry a null data()
    size_t offset = 0;
    if (pending_len_ > 0) {
        size_t take = std::min(B - pending_len_, data.size());
        std::memcpy(pending_ + pending_len_, data.data(), take);
        pending_len_ += take;
        offset = take;
        if (pending_len_ == B) {
            emit_block(pending_);
            pending_len_ = 0;
        }
    }
    // Bulk path: one resize, then every whole block in one dispatch call
    // (the accelerated backend keeps the key schedule in registers across
    // the run). chain_ carries the CBC state between calls.
    size_t nblocks = (data.size() - offset) / B;
    if (nblocks > 0) {
        size_t off = out_.size();
        out_.resize(off + nblocks * B);
        dispatch_.aes128_cbc_encrypt_blocks(cipher_.round_keys(), chain_,
                                            data.data() + offset, out_.data() + off, nblocks);
        offset += nblocks * B;
    }
    if (offset < data.size()) {
        std::memcpy(pending_, data.data() + offset, data.size() - offset);
        pending_len_ = data.size() - offset;
    }
}

void CbcEncryptStream::finish()
{
    uint8_t pad = static_cast<uint8_t>(Aes128::kBlockSize - pending_len_);
    std::memset(pending_ + pending_len_, pad, pad);
    emit_block(pending_);
    pending_len_ = 0;
}

void aes128_cbc_encrypt_into(const Aes128& cipher, ConstBytes plaintext, Rng& rng, Bytes& out)
{
    out.reserve(out.size() + cbc_ciphertext_size(plaintext.size()));
    CbcEncryptStream stream(cipher, rng, out);
    stream.update(plaintext);
    stream.finish();
}

bool aes128_cbc_decrypt_raw_into(const Aes128& cipher, ConstBytes iv_and_ciphertext, Bytes& out)
{
    constexpr size_t B = Aes128::kBlockSize;
    if (iv_and_ciphertext.size() < 2 * B || iv_and_ciphertext.size() % B != 0) return false;
    size_t base = out.size();
    out.resize(base + iv_and_ciphertext.size() - B);
    cipher.backend().aes128_cbc_decrypt_blocks(cipher.round_keys(), cipher.dec_round_keys(),
                                               iv_and_ciphertext.data(),
                                               iv_and_ciphertext.data() + B, out.data() + base,
                                               (iv_and_ciphertext.size() - B) / B);
    return true;
}

size_t pkcs7_padding(ConstBytes padded)
{
    if (padded.empty()) return 0;
    uint8_t pad = padded.back();
    if (pad == 0 || pad > Aes128::kBlockSize || pad > padded.size()) return 0;
    for (size_t i = padded.size() - pad; i < padded.size(); ++i) {
        if (padded[i] != pad) return 0;
    }
    return pad;
}

Result<size_t> aes128_cbc_decrypt_into(const Aes128& cipher, ConstBytes iv_and_ciphertext,
                                       Bytes& out)
{
    size_t base = out.size();
    if (!aes128_cbc_decrypt_raw_into(cipher, iv_and_ciphertext, out))
        return err("cbc: bad ciphertext length");
    size_t pad = pkcs7_padding(ConstBytes{out.data() + base, out.size() - base});
    if (pad == 0) {
        out.resize(base);
        return err("cbc: bad padding");
    }
    out.resize(out.size() - pad);
    return out.size() - base;
}

}  // namespace mct::crypto
