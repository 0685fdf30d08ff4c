#include "mctls/context_crypto.h"

#include <array>
#include <chrono>
#include <initializer_list>

#include "crypto/ct.h"
#include "crypto/ed25519.h"
#include "crypto/hmac.h"
#include "tls/record.h"

namespace mct::mctls {

namespace {

// Accumulates steady-clock nanoseconds into *slot for its scope; a null slot
// reads no clock at all, keeping the untimed fast path untouched.
class StageTimer {
public:
    explicit StageTimer(uint64_t* slot) : slot_(slot)
    {
        if (slot_) start_ = std::chrono::steady_clock::now();
    }
    ~StageTimer()
    {
        if (slot_)
            *slot_ += static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                                std::chrono::steady_clock::now() - start_)
                                                .count());
    }

private:
    uint64_t* slot_;
    std::chrono::steady_clock::time_point start_;
};

inline uint64_t* mac_slot(StageNanos* t) { return t ? &t->mac_ns : nullptr; }
inline uint64_t* cipher_slot(StageNanos* t) { return t ? &t->cipher_ns : nullptr; }

size_t dir_index(Direction dir)
{
    return static_cast<size_t>(dir);
}

std::array<uint8_t, kMacSize> mac_tag(const crypto::MacKey& key, uint64_t seq,
                                      uint8_t context_id, ConstBytes payload)
{
    auto header =
        tls::mac_pseudo_header(seq, tls::ContentType::application_data, context_id, payload.size());
    return crypto::hmac_sha256(key.expanded(), {header, payload});
}

// CBC-encrypts payload || MACs (plus a signature in mode (b)) under the
// context's expanded reader key, appending IV and ciphertext to `out`.
void encrypt_fragment(const crypto::CipherKey& key, std::initializer_list<ConstBytes> parts,
                      Rng& rng, Bytes& out)
{
    size_t plaintext_len = 0;
    for (ConstBytes part : parts) plaintext_len += part.size();
    out.reserve(out.size() + crypto::cbc_ciphertext_size(plaintext_len));
    crypto::CbcEncryptStream enc(key.expanded(), rng, out);
    for (ConstBytes part : parts) enc.update(part);
    enc.finish();
}

struct SplitView {
    ConstBytes payload;
    ConstBytes endpoint_mac;
    ConstBytes writer_mac;
    ConstBytes reader_mac;
};

// Decrypt into the scratch and return borrowed slices of it.
Result<SplitView> decrypt_and_split(const ContextKeys& ctx, Direction dir, ConstBytes fragment,
                                    RecordScratch& scratch, StageNanos* timing = nullptr)
{
    if (!ctx.can_read()) return err("mctls: no read access to context");
    const crypto::Aes128& cipher = ctx.reader_enc[dir_index(dir)].expanded();
    scratch.plain.clear();
    ++scratch.records;
    size_t capacity_before = scratch.plain.capacity();
    Result<size_t> n = [&] {
        StageTimer t(cipher_slot(timing));
        return crypto::aes128_cbc_decrypt_into(cipher, fragment, scratch.plain);
    }();
    if (scratch.plain.capacity() != capacity_before) ++scratch.heap_allocations;
    if (!n) return n.error();
    if (n.value() < 3 * kMacSize) return err("mctls: record too short");
    size_t payload_len = n.value() - 3 * kMacSize;
    const uint8_t* base = scratch.plain.data();
    SplitView rec;
    rec.payload = ConstBytes{base, payload_len};
    rec.endpoint_mac = ConstBytes{base + payload_len, kMacSize};
    rec.writer_mac = ConstBytes{base + payload_len + kMacSize, kMacSize};
    rec.reader_mac = ConstBytes{base + payload_len + 2 * kMacSize, kMacSize};
    return rec;
}

}  // namespace

Bytes record_mac_input(uint64_t seq, uint8_t context_id, ConstBytes payload)
{
    auto header =
        tls::mac_pseudo_header(seq, tls::ContentType::application_data, context_id, payload.size());
    Bytes out(header.begin(), header.end());
    append(out, payload);
    return out;
}

void seal_record_into(const ContextKeys& ctx, const EndpointKeys& endpoint, Direction dir,
                      uint64_t seq, uint8_t context_id, ConstBytes payload, Rng& rng,
                      Bytes& out, StageNanos* timing)
{
    size_t d = dir_index(dir);
    std::array<uint8_t, kMacSize> endpoint_mac, writer_mac, reader_mac;
    {
        StageTimer t(mac_slot(timing));
        endpoint_mac = mac_tag(endpoint.record_mac[d], seq, context_id, payload);
        writer_mac = mac_tag(ctx.writer_mac[d], seq, context_id, payload);
        reader_mac = mac_tag(ctx.reader_mac[d], seq, context_id, payload);
    }
    if (timing) timing->macs += 3;
    StageTimer t(cipher_slot(timing));
    encrypt_fragment(ctx.reader_enc[d], {payload, endpoint_mac, writer_mac, reader_mac}, rng,
                     out);
}

Bytes seal_record(const ContextKeys& ctx, const EndpointKeys& endpoint, Direction dir,
                  uint64_t seq, uint8_t context_id, ConstBytes payload, Rng& rng)
{
    Bytes out;
    seal_record_into(ctx, endpoint, dir, seq, context_id, payload, rng, out);
    return out;
}

Result<EndpointOpenView> open_record_endpoint(const ContextKeys& ctx,
                                              const EndpointKeys& endpoint, Direction dir,
                                              uint64_t seq, uint8_t context_id,
                                              ConstBytes fragment, RecordScratch& scratch,
                                              StageNanos* timing)
{
    auto rec = decrypt_and_split(ctx, dir, fragment, scratch, timing);
    if (!rec) return rec.error();
    size_t d = dir_index(dir);
    StageTimer t(mac_slot(timing));
    if (timing) timing->macs += 2;
    auto expected_writer = mac_tag(ctx.writer_mac[d], seq, context_id, rec.value().payload);
    if (!crypto::ct_equal(expected_writer, rec.value().writer_mac))
        return err("mctls: illegal modification (writer MAC mismatch)");
    auto expected_endpoint =
        mac_tag(endpoint.record_mac[d], seq, context_id, rec.value().payload);
    EndpointOpenView out;
    out.payload = rec.value().payload;
    out.from_endpoint = crypto::ct_equal(expected_endpoint, rec.value().endpoint_mac);
    return out;
}

Result<WriterOpenView> open_record_writer(const ContextKeys& ctx, Direction dir, uint64_t seq,
                                          uint8_t context_id, ConstBytes fragment,
                                          RecordScratch& scratch, StageNanos* timing)
{
    if (!ctx.can_write()) return err("mctls: no write access to context");
    auto rec = decrypt_and_split(ctx, dir, fragment, scratch, timing);
    if (!rec) return rec.error();
    size_t d = dir_index(dir);
    StageTimer t(mac_slot(timing));
    if (timing) timing->macs += 1;
    auto expected_writer = mac_tag(ctx.writer_mac[d], seq, context_id, rec.value().payload);
    if (!crypto::ct_equal(expected_writer, rec.value().writer_mac))
        return err("mctls: illegal modification (writer MAC mismatch)");
    WriterOpenView out;
    out.payload = rec.value().payload;
    out.endpoint_mac = rec.value().endpoint_mac;
    return out;
}

void reseal_record_writer_into(const ContextKeys& ctx, Direction dir, uint64_t seq,
                               uint8_t context_id, ConstBytes payload, ConstBytes endpoint_mac,
                               Rng& rng, Bytes& out, StageNanos* timing)
{
    size_t d = dir_index(dir);
    std::array<uint8_t, kMacSize> writer_mac, reader_mac;
    {
        StageTimer t(mac_slot(timing));
        writer_mac = mac_tag(ctx.writer_mac[d], seq, context_id, payload);
        reader_mac = mac_tag(ctx.reader_mac[d], seq, context_id, payload);
    }
    if (timing) timing->macs += 2;
    StageTimer t(cipher_slot(timing));
    encrypt_fragment(ctx.reader_enc[d], {payload, endpoint_mac, writer_mac, reader_mac}, rng,
                     out);
}

Result<ConstBytes> open_record_reader(const ContextKeys& ctx, Direction dir, uint64_t seq,
                                      uint8_t context_id, ConstBytes fragment,
                                      RecordScratch& scratch, StageNanos* timing)
{
    auto rec = decrypt_and_split(ctx, dir, fragment, scratch, timing);
    if (!rec) return rec.error();
    size_t d = dir_index(dir);
    StageTimer t(mac_slot(timing));
    if (timing) timing->macs += 1;
    auto expected_reader = mac_tag(ctx.reader_mac[d], seq, context_id, rec.value().payload);
    if (!crypto::ct_equal(expected_reader, rec.value().reader_mac))
        return err("mctls: third-party modification (reader MAC mismatch)");
    return rec.value().payload;
}

Bytes seal_record_signed(const ContextKeys& ctx, const EndpointKeys& endpoint, Direction dir,
                         uint64_t seq, uint8_t context_id, ConstBytes payload,
                         ConstBytes signer_seed, Rng& rng)
{
    size_t d = dir_index(dir);
    auto endpoint_mac = mac_tag(endpoint.record_mac[d], seq, context_id, payload);
    auto writer_mac = mac_tag(ctx.writer_mac[d], seq, context_id, payload);
    auto reader_mac = mac_tag(ctx.reader_mac[d], seq, context_id, payload);
    Bytes signature =
        crypto::ed25519_sign(signer_seed, record_mac_input(seq, context_id, payload));
    Bytes out;
    encrypt_fragment(ctx.reader_enc[d], {payload, endpoint_mac, writer_mac, reader_mac, signature},
                     rng, out);
    return out;
}

Result<SignedOpen> open_record_reader_signed(const ContextKeys& ctx, Direction dir,
                                             uint64_t seq, uint8_t context_id,
                                             ConstBytes fragment, ConstBytes signer_public)
{
    if (!ctx.can_read()) return err("mctls: no read access to context");
    size_t d = dir_index(dir);
    Bytes data;
    auto n = crypto::aes128_cbc_decrypt_into(ctx.reader_enc[d].expanded(), fragment, data);
    if (!n) return n.error();
    constexpr size_t kTrailer = 3 * kMacSize + crypto::kEd25519SignatureSize;
    if (data.size() < kTrailer) return err("mctls: signed record too short");
    size_t payload_len = data.size() - kTrailer;
    ConstBytes payload{data.data(), payload_len};
    ConstBytes reader_mac{data.data() + payload_len + 2 * kMacSize, kMacSize};
    ConstBytes signature{data.data() + payload_len + 3 * kMacSize,
                         crypto::kEd25519SignatureSize};

    // The endpoint MAC is not checked: attribution is the signature's job
    // in this mode.
    auto expected_reader = mac_tag(ctx.reader_mac[d], seq, context_id, payload);
    if (!crypto::ct_equal(expected_reader, reader_mac))
        return err("mctls: third-party modification (reader MAC mismatch)");
    if (!crypto::ed25519_verify(signer_public, record_mac_input(seq, context_id, payload),
                                signature))
        return err("mctls: reader/writer forgery (signature mismatch)");
    SignedOpen out;
    out.payload = to_bytes(payload);
    return out;
}

}  // namespace mct::mctls
