#include "tls/record.h"

#include <stdexcept>

#include "crypto/ct.h"

namespace mct::tls {

namespace {

// Compact the codec buffer only once the dead prefix is both sizable and at
// least as large as the live suffix; every consumed byte is then moved at
// most once more, keeping next_view() amortized O(1).
constexpr size_t kCompactThreshold = 4096;

}  // namespace

Bytes RecordCodec::encode(const Record& record) const
{
    Bytes out;
    out.reserve(header_size() + record.payload.size());
    encode_into(record, out);
    return out;
}

void RecordCodec::encode_into(const Record& record, Bytes& out) const
{
    encode_header_into(record.type, record.context_id, record.payload.size(), out);
    append(out, record.payload);
}

void RecordCodec::encode_header_into(ContentType type, uint8_t context_id, size_t body_len,
                                     Bytes& out) const
{
    if (body_len > kMaxWireFragment) throw std::length_error("record: fragment too large");
    out.push_back(static_cast<uint8_t>(type));
    out.push_back(static_cast<uint8_t>(kProtocolVersion >> 8));
    out.push_back(static_cast<uint8_t>(kProtocolVersion));
    if (with_context_id_) out.push_back(context_id);
    out.push_back(static_cast<uint8_t>(body_len >> 8));
    out.push_back(static_cast<uint8_t>(body_len));
}

void RecordCodec::feed(ConstBytes wire)
{
    if (read_pos_ == buffer_.size()) {
        buffer_.clear();
        read_pos_ = 0;
    } else if (read_pos_ >= kCompactThreshold && read_pos_ >= buffer_.size() - read_pos_) {
        buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<ptrdiff_t>(read_pos_));
        read_pos_ = 0;
    }
    append(buffer_, wire);
}

Result<std::optional<RecordView>> RecordCodec::next_view()
{
    const uint8_t* base = buffer_.data() + read_pos_;
    size_t avail = buffered();
    size_t header = header_size();
    if (avail < header) return std::optional<RecordView>{};
    uint8_t type = base[0];
    // Validate the content type before the alert cross-framing retry below:
    // the retry must only ever reinterpret genuine alerts, never resync a
    // stream that is already garbage.
    if (type < 20 || type > 24) return err("record: unknown content type");
    uint16_t version = static_cast<uint16_t>((base[1] << 8) | base[2]);
    if (version != kProtocolVersion) return err("record: bad version");
    uint8_t context_id = with_context_id_ ? base[3] : 0;
    size_t len_off = with_context_id_ ? 4 : 3;
    uint16_t length = static_cast<uint16_t>((base[len_off] << 8) | base[len_off + 1]);
    bool native = true;

    // Alerts are always plaintext level(1)|description(1) payloads, and they
    // are the one record a peer running the OTHER header format must still
    // be able to deliver: a failed TLS<->mcTLS pairing (§5.4 fallback) tears
    // down promptly only if the fatal alert crosses the framing gap. If the
    // natural parse doesn't yield a 2-byte alert, retry with the alternate
    // header size before rejecting the stream.
    if (static_cast<ContentType>(type) == ContentType::alert && length != 2) {
        size_t alt_header = with_context_id_ ? 5 : 6;
        size_t alt_len_off = with_context_id_ ? 3 : 4;
        if (avail < alt_header) return std::optional<RecordView>{};
        uint16_t alt_length =
            static_cast<uint16_t>((base[alt_len_off] << 8) | base[alt_len_off + 1]);
        if (alt_length == 2) {
            header = alt_header;
            length = alt_length;
            context_id = with_context_id_ ? 0 : base[3];
            native = false;
        }
    }

    if (length > kMaxWireFragment) return err("record: oversized fragment");
    if (avail < header + length) return std::optional<RecordView>{};

    RecordView view;
    view.type = static_cast<ContentType>(type);
    view.context_id = context_id;
    view.payload = ConstBytes{base + header, length};
    view.wire = ConstBytes{base, header + length};
    view.native_framing = native;
    read_pos_ += header + length;
    return std::optional<RecordView>{view};
}

CbcHmacProtector::CbcHmacProtector(const crypto::Aes128& cipher, const crypto::HmacKey& mac_key)
    : cipher_(cipher), mac_key_(mac_key)
{
}

CbcHmacProtector::CbcHmacProtector(ConstBytes enc_key, ConstBytes mac_key)
    : cipher_(enc_key), mac_key_(mac_key)
{
}

void CbcHmacProtector::protect_into(ContentType type, uint8_t context_id, ConstBytes payload,
                                    Rng& rng, Bytes& out)
{
    auto tag = crypto::hmac_sha256(
        mac_key_, {mac_pseudo_header(seq_, type, context_id, payload.size()), payload});
    ++seq_;
    out.reserve(out.size() + protected_size(payload.size()));
    crypto::CbcEncryptStream enc(cipher_, rng, out);
    enc.update(payload);
    enc.update(tag);
    enc.finish();
}

Result<size_t> CbcHmacProtector::unprotect_into(ContentType type, uint8_t context_id,
                                                ConstBytes fragment, Bytes& plain)
{
    size_t base = plain.size();
    if (!crypto::aes128_cbc_decrypt_raw_into(cipher_, fragment, plain))
        return err("record: bad ciphertext length");
    ConstBytes padded{plain.data() + base, plain.size() - base};

    // Uniform bad_record_mac: a padding failure still runs the full MAC
    // check (over the no-padding interpretation) so invalid padding and a
    // bad MAC cost the same work and surface the same error, leaving no
    // padding oracle in the error channel.
    size_t pad = crypto::pkcs7_padding(padded);
    size_t content_len = padded.size() - pad;
    bool length_ok = content_len >= crypto::HmacSha256::kTagSize;
    size_t payload_len = length_ok ? content_len - crypto::HmacSha256::kTagSize : 0;

    auto tag = crypto::hmac_sha256(mac_key_, {mac_pseudo_header(seq_, type, context_id, payload_len),
                                               padded.subspan(0, payload_len)});
    bool mac_ok = length_ok &&
                  crypto::ct_equal(tag, padded.subspan(payload_len, crypto::HmacSha256::kTagSize));
    if (pad == 0 || !mac_ok) {
        plain.resize(base);
        return err("record: bad_record_mac");
    }
    ++seq_;
    plain.resize(base + payload_len);
    return payload_len;
}

}  // namespace mct::tls
