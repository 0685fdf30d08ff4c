#include "mctls/messages.h"

#include <algorithm>

#include "util/serde.h"

namespace mct::mctls {

tls::HandshakeMessage MiddleboxHello::to_message() const
{
    Writer w;
    w.u8(entity);
    w.raw(random);
    Writer inner;
    for (const auto& cert : chain) inner.vec16(cert.serialize());
    w.vec24(inner.bytes());
    return {tls::HandshakeType::middlebox_hello, w.take()};
}

Result<MiddleboxHello> MiddleboxHello::parse(ConstBytes body)
{
    Reader r(body);
    MiddleboxHello hello;
    auto entity = r.u8();
    if (!entity) return entity.error();
    hello.entity = entity.value();
    auto random = r.raw(tls::kRandomSize);
    if (!random) return random.error();
    hello.random = random.take();
    auto list = r.vec24();
    if (!list) return list.error();
    Reader lr(list.value());
    while (!lr.done()) {
        auto wire = lr.vec16();
        if (!wire) return wire.error();
        auto cert = pki::Certificate::parse(wire.value());
        if (!cert) return cert.error();
        hello.chain.push_back(cert.take());
    }
    if (auto s = r.expect_done(); !s) return s.error();
    return hello;
}

Bytes MiddleboxKeyExchange::signed_payload() const
{
    Writer w;
    w.u8(entity);
    w.u8(recipient);
    w.vec8(public_key);
    return w.take();
}

tls::HandshakeMessage MiddleboxKeyExchange::to_message() const
{
    Writer w;
    w.u8(entity);
    w.u8(recipient);
    w.vec8(public_key);
    w.vec16(signature);
    return {tls::HandshakeType::middlebox_key_exchange, w.take()};
}

Result<MiddleboxKeyExchange> MiddleboxKeyExchange::parse(ConstBytes body)
{
    Reader r(body);
    MiddleboxKeyExchange kx;
    auto entity = r.u8();
    if (!entity) return entity.error();
    kx.entity = entity.value();
    auto recipient = r.u8();
    if (!recipient) return recipient.error();
    kx.recipient = recipient.value();
    auto pub = r.vec8();
    if (!pub) return pub.error();
    kx.public_key = pub.take();
    auto sig = r.vec16();
    if (!sig) return sig.error();
    kx.signature = sig.take();
    if (auto s = r.expect_done(); !s) return s.error();
    return kx;
}

tls::HandshakeMessage MiddleboxKeyMaterial::to_message() const
{
    Writer w;
    w.u8(sender);
    w.u8(entity);
    w.vec16(sealed);
    return {tls::HandshakeType::middlebox_key_material, w.take()};
}

Result<MiddleboxKeyMaterial> MiddleboxKeyMaterial::parse(ConstBytes body)
{
    Reader r(body);
    MiddleboxKeyMaterial km;
    auto sender = r.u8();
    if (!sender) return sender.error();
    km.sender = sender.value();
    auto entity = r.u8();
    if (!entity) return entity.error();
    km.entity = entity.value();
    auto sealed = r.vec16();
    if (!sealed) return sealed.error();
    km.sealed = sealed.take();
    if (auto s = r.expect_done(); !s) return s.error();
    return km;
}

namespace {

ConstBytes half_or_empty(const std::optional<KeyHalf>& half)
{
    return half ? ConstBytes{*half} : ConstBytes{};
}

// A vec8 key half: its 32 bytes, or an empty view for "absent".
Result<ConstBytes> read_half(Reader& r)
{
    auto body = r.view8();
    if (!body) return body.error();
    if (!body.value().empty() && body.value().size() != kKeyHalfSize)
        return err("mctls: bad key half size");
    return body;
}

}  // namespace

Bytes serialize_middlebox_material(const std::vector<MiddleboxMaterialEntry>& entries)
{
    size_t size = 1;
    for (const auto& e : entries) size += 2 + 2 * (1 + kKeyHalfSize) + 2 + e.complete_keys.size();
    Writer w;
    w.reserve(size);
    w.u8(static_cast<uint8_t>(entries.size()));
    for (const auto& e : entries) {
        w.u8(e.context_id);
        w.u8(static_cast<uint8_t>(e.permission));
        w.vec8(half_or_empty(e.reader_half));
        w.vec8(half_or_empty(e.writer_half));
        w.vec16(e.complete_keys);
    }
    return w.take();
}

Result<std::vector<MiddleboxMaterialEntry>> parse_middlebox_material(ConstBytes wire)
{
    Reader r(wire);
    auto count = r.u8();
    if (!count) return count.error();
    std::vector<MiddleboxMaterialEntry> entries;
    entries.reserve(count.value());
    for (unsigned i = 0; i < count.value(); ++i) {
        MiddleboxMaterialEntry& e = entries.emplace_back();
        auto ctx = r.u8();
        if (!ctx) return ctx.error();
        e.context_id = ctx.value();
        auto perm = r.u8();
        if (!perm) return perm.error();
        if (perm.value() > 2) return err("mctls: bad permission in key material");
        e.permission = static_cast<Permission>(perm.value());
        for (std::optional<KeyHalf>* half : {&e.reader_half, &e.writer_half}) {
            auto body = read_half(r);
            if (!body) return body.error();
            if (!body.value().empty()) std::ranges::copy(body.value(), half->emplace().begin());
        }
        auto complete = r.vec16();
        if (!complete) return complete.error();
        e.complete_keys = complete.take();
    }
    if (auto s = r.expect_done(); !s) return s.error();
    return entries;
}

Bytes serialize_endpoint_material(const std::vector<EndpointMaterialEntry>& entries)
{
    Writer w;
    w.reserve(1 + entries.size() * (1 + 2 * (1 + kKeyHalfSize)));
    w.u8(static_cast<uint8_t>(entries.size()));
    for (const auto& e : entries) {
        w.u8(e.context_id);
        w.vec8(e.partial.reader_half);
        w.vec8(e.partial.writer_half);
    }
    return w.take();
}

Result<std::vector<EndpointMaterialEntry>> parse_endpoint_material(ConstBytes wire)
{
    Reader r(wire);
    auto count = r.u8();
    if (!count) return count.error();
    std::vector<EndpointMaterialEntry> entries;
    entries.reserve(count.value());
    for (unsigned i = 0; i < count.value(); ++i) {
        EndpointMaterialEntry& e = entries.emplace_back();
        auto ctx = r.u8();
        if (!ctx) return ctx.error();
        e.context_id = ctx.value();
        for (KeyHalf* half : {&e.partial.reader_half, &e.partial.writer_half}) {
            auto body = read_half(r);
            if (!body) return body.error();
            if (body.value().empty()) return err("mctls: missing key half");
            std::ranges::copy(body.value(), half->begin());
        }
    }
    if (auto s = r.expect_done(); !s) return s.error();
    return entries;
}

}  // namespace mct::mctls
