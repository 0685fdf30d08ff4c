// WAN optimizer pair (Table 1: read/write on all four contexts).
//
// Chunk-level deduplication across a WAN link, deployed as a pair: the
// encoder (WAN side nearer the server) splits body records into fixed-size
// chunks and replaces chunks it has sent before with 8-byte references; the
// decoder (nearer the client) expands references from its chunk store.
// Stores stay consistent because every chunk travels at least once.
//
// Token stream format per record: [0x00 u16 len raw-bytes] | [0x01 u64 id].
#pragma once

#include <map>

#include "middlebox/behavior.h"

namespace mct::mbox {

constexpr size_t kDedupChunkSize = 256;

class WanOptimizerEncoder final : public Behavior {
public:
    const char* name() const override { return "wan-optimizer-encoder"; }
    mctls::Permission permission_for(uint8_t ctx) const override
    {
        return ctx == http::kCtxRequestBody || ctx == http::kCtxResponseBody
                   ? mctls::Permission::write
                   : mctls::Permission::read;
    }

    Bytes transform(uint8_t ctx, mctls::Direction dir, Bytes payload) override;

    uint64_t bytes_saved() const { return bytes_saved_; }

private:
    std::map<uint64_t, Bytes> seen_;  // chunk id -> content
    uint64_t bytes_saved_ = 0;
};

class WanOptimizerDecoder final : public Behavior {
public:
    const char* name() const override { return "wan-optimizer-decoder"; }
    mctls::Permission permission_for(uint8_t ctx) const override
    {
        return ctx == http::kCtxRequestBody || ctx == http::kCtxResponseBody
                   ? mctls::Permission::write
                   : mctls::Permission::read;
    }

    Bytes transform(uint8_t ctx, mctls::Direction dir, Bytes payload) override;

    uint64_t chunks_expanded() const { return chunks_expanded_; }

private:
    std::map<uint64_t, Bytes> store_;
    uint64_t chunks_expanded_ = 0;
};

// FNV-1a over a chunk; chunk identity for the dedup stores.
uint64_t dedup_chunk_id(ConstBytes chunk);

// Marker prefix for encoded records.
constexpr uint8_t kDedupMagic[4] = {'M', 'C', 'D', 'D'};

}  // namespace mct::mbox
