#include "middlebox/wan_optimizer.h"

#include "util/serde.h"

namespace mct::mbox {

namespace {

bool body_context(uint8_t ctx)
{
    return ctx == http::kCtxRequestBody || ctx == http::kCtxResponseBody;
}

bool has_magic(ConstBytes payload)
{
    return payload.size() >= 4 && payload[0] == kDedupMagic[0] && payload[1] == kDedupMagic[1] &&
           payload[2] == kDedupMagic[2] && payload[3] == kDedupMagic[3];
}

}  // namespace

uint64_t dedup_chunk_id(ConstBytes chunk)
{
    uint64_t h = 14695981039346656037ull;
    for (uint8_t b : chunk) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

Bytes WanOptimizerEncoder::transform(uint8_t ctx, mctls::Direction dir, Bytes payload)
{
    if (!body_context(ctx) || dir != mctls::Direction::server_to_client || payload.empty() ||
        has_magic(payload))
        return payload;

    Writer w;
    w.raw(ConstBytes{kDedupMagic, 4});
    bool any_dedup = false;
    size_t off = 0;
    while (off < payload.size()) {
        size_t take = std::min(kDedupChunkSize, payload.size() - off);
        ConstBytes chunk{payload.data() + off, take};
        uint64_t id = dedup_chunk_id(chunk);
        auto it = seen_.find(id);
        if (it != seen_.end() && equal(it->second, chunk)) {
            w.u8(0x01);
            w.u64(id);
            bytes_saved_ += take > 9 ? take - 9 : 0;
            any_dedup = true;
        } else {
            seen_[id] = to_bytes(chunk);
            w.u8(0x00);
            w.u16(static_cast<uint16_t>(take));
            w.raw(chunk);
        }
        off += take;
    }
    if (!any_dedup) return payload;  // nothing saved; keep the plain record
    return w.take();
}

Bytes WanOptimizerDecoder::transform(uint8_t ctx, mctls::Direction dir, Bytes payload)
{
    if (!body_context(ctx) || dir != mctls::Direction::server_to_client) {
        return payload;
    }
    if (!has_magic(payload)) {
        // Plain record: remember its chunks so future references resolve.
        size_t off = 0;
        while (off < payload.size()) {
            size_t take = std::min(kDedupChunkSize, payload.size() - off);
            ConstBytes chunk{payload.data() + off, take};
            store_[dedup_chunk_id(chunk)] = to_bytes(chunk);
            off += take;
        }
        return payload;
    }
    Reader r(ConstBytes{payload}.subspan(4));
    Bytes out;
    while (!r.done()) {
        auto kind = r.u8();
        if (!kind) return payload;
        if (kind.value() == 0x00) {
            auto len = r.u16();
            if (!len) return payload;
            auto raw = r.raw(len.value());
            if (!raw) return payload;
            store_[dedup_chunk_id(raw.value())] = raw.value();
            append(out, raw.value());
        } else if (kind.value() == 0x01) {
            auto id = r.u64();
            if (!id) return payload;
            auto it = store_.find(id.value());
            if (it == store_.end()) return payload;  // desync: give up
            append(out, it->second);
            ++chunks_expanded_;
        } else {
            return payload;
        }
    }
    return out;
}

}  // namespace mct::mbox
