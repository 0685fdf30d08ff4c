// Canonical handshake transcript for Finished verification.
//
// Middlebox bundles reach the two endpoints in opposite relative orders (the
// bundle is injected as the server flight passes each hop), so the raw byte
// order of observed messages differs between client and server. mcTLS's
// Finished therefore hashes a canonical assembly: fixed endpoint message
// slots, middlebox bundles sorted by entity index, then the client's key
// material messages sorted by destination. The server's own key material is
// deliberately excluded (§3.5 "Details": it is sent after the client's
// Finished to avoid an extra RTT).
#pragma once

#include <cstdint>
#include <map>

#include "util/bytes.h"

namespace mct::mctls {

class Transcript {
public:
    enum class Slot {
        client_hello,
        server_hello,
        server_certificate,
        server_key_exchange,
        server_hello_done,
        client_key_exchange,
    };

    void set(Slot slot, ConstBytes wire);
    // part: 0 = MiddleboxHello, 1 = key exchange to client, 2 = to server.
    void add_bundle_part(uint8_t entity, int part, ConstBytes wire);
    void add_client_key_material(uint8_t destination, ConstBytes wire);
    void set_client_finished(ConstBytes wire);

    // SHA-256 over the canonical assembly.
    Bytes hash(bool include_client_finished) const;

private:
    std::map<Slot, Bytes> slots_;
    std::map<std::pair<uint8_t, int>, Bytes> bundles_;
    std::map<uint8_t, Bytes> key_material_;
    Bytes client_finished_;
};

}  // namespace mct::mctls
