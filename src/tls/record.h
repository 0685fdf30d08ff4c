// TLS record framing and symmetric record protection.
//
// Wire format: type(1) | version(2) | [context_id(1)] | length(2) | fragment.
// The optional context-id byte is the single-byte extension mcTLS adds to
// the TLS record header (§3.4 of the paper); the baseline TLS stack runs the
// same codec without it.
//
// Protection is AES-128-CBC with HMAC-SHA256, MAC-then-encrypt with explicit
// IV, matching the paper's AES128-SHA256 suite. mcTLS layers its three-MAC
// scheme on top of the same primitives (mctls/context_crypto.h).
//
// The protector has one API, the zero-copy protect_into/unprotect_into,
// which appends to caller-owned buffers. The codec parses with the
// zero-copy next_view; its owning encode is a thin wrapper kept for control
// paths and tests. See DESIGN.md "Record fast path".
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/rng.h"

namespace mct::tls {

enum class ContentType : uint8_t {
    change_cipher_spec = 20,
    alert = 21,
    handshake = 22,
    application_data = 23,
    // mcTLS addition: in-band context rekeying (epoch bump). Carried in
    // plaintext so middleboxes can follow the epoch switch — same
    // simplification as the plaintext alerts (see tls/alert.h).
    rekey = 24,
};

constexpr uint16_t kProtocolVersion = 0x0303;  // TLS 1.2 wire version
constexpr size_t kMaxFragment = 16384;

// One shared ciphertext-expansion bound, enforced symmetrically by encode()
// and next_view(): a protected fragment exceeds its plaintext by at most the
// explicit IV, a full block of CBC padding, the mcTLS MAC stack (endpoint +
// writers + readers), and the mode-(b) Ed25519 signature.
constexpr size_t kMaxRecordExpansion = crypto::Aes128::kBlockSize /* IV */ +
                                       crypto::Aes128::kBlockSize /* padding */ +
                                       3 * crypto::HmacSha256::kTagSize /* MACs */ +
                                       64 /* Ed25519 signature */;
constexpr size_t kMaxWireFragment = kMaxFragment + kMaxRecordExpansion;

// The pseudo-header every record MAC covers ahead of the payload:
// seq(8) | type(1) | version(2) | context_id(1) | length(2), big-endian.
// The TLS protector and all three mcTLS MACs (mctls/context_crypto.h) share
// it; the baseline TLS stack passes context_id 0.
constexpr size_t kMacHeaderSize = 14;

constexpr std::array<uint8_t, kMacHeaderSize> mac_pseudo_header(uint64_t seq, ContentType type,
                                                                uint8_t context_id, size_t len)
{
    std::array<uint8_t, kMacHeaderSize> h{};
    for (int i = 0; i < 8; ++i) h[i] = static_cast<uint8_t>(seq >> (56 - 8 * i));
    h[8] = static_cast<uint8_t>(type);
    h[9] = static_cast<uint8_t>(kProtocolVersion >> 8);
    h[10] = static_cast<uint8_t>(kProtocolVersion);
    h[11] = context_id;
    h[12] = static_cast<uint8_t>(len >> 8);
    h[13] = static_cast<uint8_t>(len);
    return h;
}

struct Record {
    ContentType type = ContentType::handshake;
    uint8_t context_id = 0;  // meaningful only when the codec carries contexts
    Bytes payload;
};

// Borrowed view of a parsed record. `payload` and `wire` point into the
// codec's buffer and stay valid only until the next call on the codec.
// `wire` is the full frame (header + fragment) exactly as received, so a
// forwarder can splice it onward without re-serializing — but only when
// `native_framing` is true; an alert recovered via the cross-framing retry
// must be re-encoded into the local framing.
struct RecordView {
    ContentType type = ContentType::handshake;
    uint8_t context_id = 0;
    ConstBytes payload;
    ConstBytes wire;
    bool native_framing = true;
};

// Stream-oriented record framing: feed wire bytes, pop complete records.
//
// Consumed bytes are tracked with a read offset instead of erasing the
// buffer front, so next_view() is amortized O(1); the buffer compacts on feed()
// only when the dead prefix dominates the live bytes.
class RecordCodec {
public:
    explicit RecordCodec(bool with_context_id) : with_context_id_(with_context_id) {}

    Bytes encode(const Record& record) const;
    // Appends the encoded frame to `out` (no intermediate buffer).
    void encode_into(const Record& record, Bytes& out) const;
    // Appends just the header; the caller then appends `body_len` fragment
    // bytes (e.g. by sealing straight into `out`).
    void encode_header_into(ContentType type, uint8_t context_id, size_t body_len,
                            Bytes& out) const;

    void feed(ConstBytes wire);
    // nullopt = need more bytes; error = malformed frame. The returned
    // views are valid until the next call on this codec.
    Result<std::optional<RecordView>> next_view();

    size_t buffered() const { return buffer_.size() - read_pos_; }
    size_t header_size() const { return with_context_id_ ? 6 : 5; }

private:
    bool with_context_id_;
    Bytes buffer_;
    size_t read_pos_ = 0;
};

// One direction of CBC+HMAC record protection with its own sequence number.
// The AES key schedule and the HMAC midstates are expanded once at
// construction; protect_into / unprotect_into append to caller-owned
// buffers so the steady-state record path does no per-record heap
// allocation and no re-keying.
class CbcHmacProtector {
public:
    CbcHmacProtector(const crypto::Aes128& cipher, const crypto::HmacKey& mac_key);
    // Raw-key form: expands both keys once, here.
    CbcHmacProtector(ConstBytes enc_key, ConstBytes mac_key);

    // Exact fragment size protect_into() appends for `payload_len` bytes.
    static constexpr size_t protected_size(size_t payload_len)
    {
        return crypto::cbc_ciphertext_size(payload_len + crypto::HmacSha256::kTagSize);
    }

    // Appends the ciphertext fragment IV || CBC(payload || MAC) to `out` and
    // advances the sequence number.
    void protect_into(ContentType type, uint8_t context_id, ConstBytes payload, Rng& rng,
                      Bytes& out);

    // Inverse: appends the plaintext payload to `plain`, returns its length
    // and advances the sequence number. On failure `plain` is left as it
    // was. CBC padding and MAC failures are indistinguishable: the MAC
    // check runs even when padding is invalid and both surface as "record:
    // bad_record_mac" (padding-oracle hardening).
    Result<size_t> unprotect_into(ContentType type, uint8_t context_id, ConstBytes fragment,
                                  Bytes& plain);

    uint64_t seq() const { return seq_; }

private:
    crypto::Aes128 cipher_;
    crypto::HmacKey mac_key_;
    uint64_t seq_ = 0;
};

}  // namespace mct::tls
