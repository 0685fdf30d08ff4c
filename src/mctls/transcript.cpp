#include "mctls/transcript.h"

#include "crypto/sha2.h"

namespace mct::mctls {

void Transcript::set(Slot slot, ConstBytes wire)
{
    slots_[slot] = to_bytes(wire);
}

void Transcript::add_bundle_part(uint8_t entity, int part, ConstBytes wire)
{
    bundles_[{entity, part}] = to_bytes(wire);
}

void Transcript::add_client_key_material(uint8_t destination, ConstBytes wire)
{
    key_material_[destination] = to_bytes(wire);
}

void Transcript::set_client_finished(ConstBytes wire)
{
    client_finished_ = to_bytes(wire);
}

Bytes Transcript::hash(bool include_client_finished) const
{
    crypto::Sha256 h;
    auto feed_slot = [&](Slot slot) {
        auto it = slots_.find(slot);
        if (it != slots_.end()) h.update(it->second);
    };
    feed_slot(Slot::client_hello);
    feed_slot(Slot::server_hello);
    feed_slot(Slot::server_certificate);
    feed_slot(Slot::server_key_exchange);
    feed_slot(Slot::server_hello_done);
    for (const auto& [key, wire] : bundles_) h.update(wire);  // sorted by (entity, part)
    feed_slot(Slot::client_key_exchange);
    for (const auto& [dest, wire] : key_material_) h.update(wire);
    if (include_client_finished) h.update(client_finished_);
    auto digest = h.finish();
    return Bytes(digest.begin(), digest.end());
}

}  // namespace mct::mctls
