// TLS session resumption state (the abbreviated-handshake side of the
// session-continuity layer; DESIGN.md "Session continuity", "State plane").
//
// A client that completed a full handshake walks away with a TlsTicket:
// the server-assigned session id plus the master secret. Offering the id in
// a later ClientHello lets the server skip the key exchange and run the
// abbreviated 1-RTT flow — both sides re-expand a fresh key block from the
// cached master secret and the new randoms. The server keeps the
// corresponding entries in a TlsSessionCache; a miss (expired, evicted, or
// unknown id) falls back to the full handshake transparently — which is
// exactly why the cache can bound itself aggressively: declining or
// evicting state only costs a round trip, never correctness.
#pragma once

#include <cstdint>

#include "util/bytes.h"
#include "util/session_cache.h"

namespace mct::tls {

constexpr size_t kSessionIdSize = 16;

struct TlsTicket {
    Bytes session_id;     // kSessionIdSize bytes
    Bytes master_secret;  // 48 bytes

    bool valid() const { return !session_id.empty() && !master_secret.empty(); }

    // Deep payload size for the cache's byte accounting (the key is
    // charged separately by the cache).
    size_t memory_footprint() const
    {
        return session_id.size() + master_secret.size();
    }
};

// Server-side store, keyed by session id: a bounded LRU with TTL enforced
// at lookup (util::SessionCache).
using TlsSessionCache = util::SessionCache<TlsTicket>;

}  // namespace mct::tls
