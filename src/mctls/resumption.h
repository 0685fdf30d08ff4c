// mcTLS session continuity: resumption tickets, session caches, and the
// in-band rekey wire format (DESIGN.md "Session continuity").
//
// Resumption: after a full Figure-1 handshake, each endpoint keeps a
// ResumptionTicket — the endpoint shared secret S_C-S plus the pairwise
// AuthEnc keys it negotiated with every middlebox. A later abbreviated
// handshake reuses those keys instead of re-running the DH exchanges and
// certificate checks: both endpoints contribute FRESH partial context keys
// (sealed under the cached pairwise keys), so the resumed session's context
// keys are new even though no public-key crypto runs. A middlebox keeps the
// two pairwise keys in a MiddleboxSessionCache so a restarted relay can
// rejoin and unseal its fresh halves.
//
// Excision rides the same abbreviated flow: the client offers the cached id
// with a REDUCED middlebox list; the server checks the requested list is a
// subset of the cached one and the excised middlebox simply receives no
// fresh key material — the new context keys are combined from fresh halves
// it never saw, so its old keys cannot decrypt post-excision records.
//
// Rekeying: RekeyRecord is carried on the dedicated plaintext
// tls::ContentType::rekey record type (plaintext for the same reason alerts
// are — see tls/alert.h — middleboxes must be able to follow the epoch
// switch). Three phases make the epoch bump safe with data in flight on an
// in-order transport: init (client->server, fresh client halves), resp
// (server->client, fresh server halves; the server switches its send
// direction at emission), switch (client->server; the client switches its
// send direction at emission). Receivers flip each direction exactly when
// the corresponding marker passes. A live middlebox omitted from the entry
// list is revoked: it keeps forwarding, blind, under keys that no longer
// decrypt anything.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mctls/authenc.h"
#include "mctls/types.h"
#include "tls/resumption.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/session_cache.h"

namespace mct::mctls {

// Endpoint-side cached state for one completed session. The client holds
// K_C-M in `pairwise`; the server holds K_S-M — each side caches only the
// keys it negotiated itself.
struct ResumptionTicket {
    Bytes session_id;  // tls::kSessionIdSize bytes
    Bytes s_cs;        // endpoint shared secret S_C-S
    bool ckd = false;  // client-key-distribution mode (§3.6)
    std::vector<MiddleboxInfo> middleboxes;
    std::vector<ContextDescription> contexts;       // client-requested permissions
    std::vector<std::vector<Permission>> granted;   // [context][middlebox]
    std::vector<AuthEncKeyBytes> pairwise;          // per middlebox, this side's key

    bool valid() const { return !session_id.empty() && !s_cs.empty(); }
    // Deep payload size for the cache's byte accounting: every heap block
    // this ticket keeps alive (secrets, per-middlebox keys, permission
    // tables), excluding the key which the cache charges separately.
    size_t memory_footprint() const;
    // Index into `middleboxes`/`pairwise` for a middlebox name; -1 if absent.
    int find_middlebox(const std::string& name) const
    {
        for (size_t i = 0; i < middleboxes.size(); ++i)
            if (middleboxes[i].name == name) return static_cast<int>(i);
        return -1;
    }
};

// Server-side ticket store, keyed by session id: a bounded LRU with TTL
// enforced at lookup (util::SessionCache). A miss — evicted, expired,
// declined at insert — only means the peer re-runs the full handshake, so
// the cache degrades under pressure instead of failing sessions.
using ServerSessionCache = util::SessionCache<ResumptionTicket>;

// What a middlebox must remember to rejoin a session: its two pairwise
// AuthEnc keys. Fresh context-key halves arrive sealed under these during
// the abbreviated handshake, so nothing else needs caching.
struct MiddleboxTicket {
    Bytes session_id;
    AuthEncKeyBytes pairwise_client;  // K_C-M
    AuthEncKeyBytes pairwise_server;  // K_S-M

    bool valid() const { return !session_id.empty(); }
    size_t memory_footprint() const
    {
        return session_id.size() + pairwise_client.enc_key.size() +
               pairwise_client.mac_key.size() + pairwise_server.enc_key.size() +
               pairwise_server.mac_key.size();
    }
};

using MiddleboxSessionCache = util::SessionCache<MiddleboxTicket>;

// ---- In-band rekey wire format ----------------------------------------

enum class RekeyPhase : uint8_t {
    init = 1,      // client -> server: fresh client halves per recipient
    resp = 2,      // server -> client: fresh server halves; s->c switch marker
    commit = 3,    // client -> server: c->s switch marker, no payload
};

// One sealed blob per recipient. Middlebox entries (entity = index in the
// session's middlebox list) are sealed under the sender's pairwise key and
// carry serialize_middlebox_material(); the endpoint entry (entity =
// kEntityClient / kEntityServer) is sealed under K_endpoints and carries
// serialize_endpoint_material(). A middlebox with no entry is revoked.
struct RekeyEntry {
    uint8_t entity = 0;
    Bytes sealed;
};

struct RekeyRecord {
    RekeyPhase phase = RekeyPhase::init;
    uint32_t epoch = 0;  // the epoch this rekey establishes
    std::vector<RekeyEntry> entries;

    Bytes serialize() const;
    static Result<RekeyRecord> parse(ConstBytes body);
};

// Associated data binding a sealed rekey entry to sender, recipient, and
// epoch, so entries cannot be replayed across epochs or redirected.
Bytes rekey_ad(uint8_t sender, uint8_t entity, uint32_t epoch);
// The same binding for a handshake MiddleboxKeyMaterial (no epoch).
inline Bytes key_material_ad(uint8_t sender, uint8_t entity) { return Bytes{sender, entity}; }

}  // namespace mct::mctls
