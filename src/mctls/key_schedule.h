// mcTLS key schedule (Figure 1 of the paper).
//
// Every derivation below mirrors a box in the paper's handshake diagram:
//
//   PS_A-B = DHCombine(DH+_B, DH-_A)
//   S_A-B  = PRF_{PS}("ms", randA || randB)
//   K_A-B  = PRF_{S}("k", randA || randB)
//   {K^C_readers, K^C_writers} = PRF_{S_C}("ck", randC)           (per context)
//   K_readers = PRF_{K^C_readers || K^S_readers}("reader keys", randC || randS)
//   K_writers = PRF_{K^C_writers || K^S_writers}("writer keys", randC || randS)
//
// As the paper's footnote says, K_endpoints / K_readers are "really four
// keys" and K_writers two (per-direction encryption and MAC keys); the
// *Keys structs below are those expansions.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "mctls/authenc.h"
#include "mctls/types.h"
#include "obs/obs.h"
#include "util/bytes.h"
#include "util/result.h"

namespace mct::mctls {

enum class Direction : uint8_t {
    client_to_server = 0,
    server_to_client = 1,
};

inline Direction opposite(Direction d)
{
    return d == Direction::client_to_server ? Direction::server_to_client
                                            : Direction::client_to_server;
}

// K_endpoints expansion: record MACs per direction, control-context (id 0)
// encryption keys per direction, and the AuthEnc pair protecting key
// material exchanged directly between the endpoints. Every key keeps its
// expansion once first used (crypto/key.h): the record path never re-keys.
struct EndpointKeys {
    crypto::MacKey record_mac[2];     // 32 bytes each, indexed by Direction
    crypto::CipherKey control_enc[2];  // 16 bytes each
    AuthEncKey key_material;

    bool valid() const { return !record_mac[0].empty(); }
};

// Final per-context keys. Readers hold the reader_* members; writers
// additionally hold writer_mac. Each member expands on its first use;
// assigning or clearing one drops its expanded state with the raw bytes.
struct ContextKeys {
    crypto::CipherKey reader_enc[2];  // 16 bytes each: context payload encryption
    crypto::MacKey reader_mac[2];     // 32 bytes each
    crypto::MacKey writer_mac[2];     // 32 bytes each; empty for read-only parties

    bool can_read() const { return !reader_enc[0].empty(); }
    bool can_write() const { return !writer_mac[0].empty(); }
    // The access these keys give to records flowing in `dir`.
    Permission access(Direction dir) const
    {
        size_t d = static_cast<size_t>(dir);
        return !writer_mac[d].empty()   ? Permission::write
               : !reader_enc[d].empty() ? Permission::read
                                        : Permission::none;
    }

    // Wire form for client-key-distribution mode; `writer` selects whether
    // writer keys are included. parse() rejects any AES key that is not 16
    // bytes and any MAC key that is not 32.
    Bytes serialize(bool writer) const;
    static Result<ContextKeys> parse(ConstBytes wire);
};

// One endpoint's half of a context's reader or writer secret, inline.
constexpr size_t kKeyHalfSize = 32;
using KeyHalf = std::array<uint8_t, kKeyHalfSize>;

// One endpoint's halves of a context's keys (K^E_readers, K^E_writers).
struct PartialContextKeys {
    KeyHalf reader_half;
    KeyHalf writer_half;
};

// S_A-B from a Diffie-Hellman pre-secret.
Bytes derive_shared_secret(ConstBytes pre_secret, ConstBytes rand_a, ConstBytes rand_b);

// K_A-B: the AuthEnc key a middlebox shares with one endpoint.
AuthEncKey derive_pairwise_key(ConstBytes shared_secret, ConstBytes rand_a, ConstBytes rand_b);

// K_endpoints expansion from S_C-S.
EndpointKeys derive_endpoint_keys(ConstBytes s_cs, ConstBytes rand_c, ConstBytes rand_s);

// {K^E_readers, K^E_writers} for one context from the endpoint's secret S_E.
// Sessions expand S_E once and use the HmacKey form for every context.
PartialContextKeys derive_partial_keys(const crypto::HmacKey& endpoint_secret, ConstBytes rand_e,
                                       uint8_t context_id);
PartialContextKeys derive_partial_keys(ConstBytes endpoint_secret, ConstBytes rand_e,
                                       uint8_t context_id);

// Combine both halves into the final context keys.
ContextKeys combine_context_keys(const PartialContextKeys& client_half,
                                 const PartialContextKeys& server_half, ConstBytes rand_c,
                                 ConstBytes rand_s);

// Reader-only combination for a party granted read access: the reader keys
// of combine_context_keys from the two reader halves, and no writer key
// (can_write() is false).
ContextKeys combine_reader_keys(ConstBytes client_reader_half, ConstBytes server_reader_half,
                                ConstBytes rand_c, ConstBytes rand_s);

// Client-key-distribution mode (§3.6): complete context keys straight from
// the endpoint master secret — both endpoints can compute them; middleboxes
// receive them from the client.
ContextKeys derive_context_keys_ckd(ConstBytes s_cs, ConstBytes rand_c, ConstBytes rand_s,
                                    uint8_t context_id);

// One negotiated context at one party (§3.3-3.4).
struct ContextEntry {
    // As negotiated. At an endpoint, permissions[m] is middlebox m's
    // effective grant, min(requested, granted), once both hellos are known;
    // a middlebox's own access is the keys it holds.
    ContextDescription desc;
    // Current epoch. Members a party was not given stay empty.
    ContextKeys keys;
    // The next epoch's keys, only while an in-band rekey is in flight; null
    // for a context the new epoch does not grant this party.
    std::unique_ptr<ContextKeys> next;
    // Endpoint only: the halves this party and its peer contribute to the
    // handshake and then to each rekey.
    std::optional<PartialContextKeys> own_half;
    std::optional<PartialContextKeys> peer_half;
    // session_stats() row: id, name and payload counters. Idle contexts get
    // a row too. A middlebox only fills the inbound half.
    obs::ContextStats stats;
};

// A party's negotiated contexts: one entry each, in negotiated order, found
// by id in one step. Looking an entry up never adds one.
//
// It also carries the in-band rekey shared by endpoints and middleboxes: the
// next epoch's keys (ContextEntry::next) switch in one direction at a time
// as the rekey markers pass (the server's response flips server->client, the
// client's commit flips client->server). The direction that has not
// switched yet keeps running under the current epoch.
class ContextTable {
public:
    // One entry per context of `negotiated`, whose ids are distinct and
    // non-zero (MiddleboxListExtension::parse and the Session config check
    // enforce both).
    void assign(const std::vector<ContextDescription>& negotiated);

    ContextEntry* find(uint8_t id) { return slot_[id] ? &entries_[slot_[id] - 1] : nullptr; }
    const ContextEntry* find(uint8_t id) const
    {
        return slot_[id] ? &entries_[slot_[id] - 1] : nullptr;
    }
    // A span, so callers cannot add or drop an entry behind the index.
    std::span<ContextEntry> entries() { return entries_; }
    std::span<const ContextEntry> entries() const { return entries_; }

    // The epoch an in-flight rekey establishes; nullopt when none is.
    std::optional<uint32_t> pending_epoch() const { return pending_epoch_; }
    // Starts establishing `next_epoch`; drops any pending keys.
    void begin_rekey(uint32_t next_epoch);
    // Every entry takes `dir`'s reader and writer keys from its pending
    // keys. An entry with none loses them: a revoked middlebox keeps no key.
    void switch_direction(Direction dir);
    // Once both directions have switched: `current_epoch` becomes the new
    // epoch, the pending keys are released, and the result is true.
    bool complete_rekey(uint32_t& current_epoch);

private:
    std::vector<ContextEntry> entries_;
    std::array<uint8_t, kMaxContexts + 1> slot_{};  // id -> index + 1; 0 = not negotiated
    std::optional<uint32_t> pending_epoch_;
    bool switched_[2] = {false, false};  // indexed by Direction
};

}  // namespace mct::mctls
