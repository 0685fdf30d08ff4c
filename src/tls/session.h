// TLS 1.2-style session state machine (sans-IO).
//
// This is the baseline protocol for the paper's SplitTLS and E2E-TLS
// comparisons. The session consumes raw network bytes via feed() and emits
// "write units" — byte blobs the transport should send with one send() call
// each. Handshake flights coalesce into one unit (as OpenSSL's buffered BIO
// does); each application-data record is its own unit, which is what makes
// the paper's Nagle interactions reproducible.
//
// 2-RTT handshake, X25519 key exchange signed with Ed25519 certificates,
// AES-128-CBC + HMAC-SHA256 record protection, Finished verification over
// the full transcript. The handshake record layer (codec, flight writer,
// CCS + Finished, alert / CCS / handshake dispatch) and the record
// protectors live in the shared tls::SessionCore; this class holds the TLS
// messages, the key schedule and the application-data path.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "crypto/ops.h"
#include "obs/obs.h"
#include "pki/trust_store.h"
#include "tls/alert.h"
#include "tls/messages.h"
#include "tls/record.h"
#include "tls/resumption.h"
#include "tls/session_core.h"
#include "util/rng.h"

namespace mct::tls {

class KeyLog;

enum class Role { client, server };

struct SessionConfig {
    Role role = Role::client;
    // Client: subject name the server certificate must carry.
    std::string server_name;
    // Server: certificate chain (leaf first) and matching Ed25519 seed.
    std::vector<pki::Certificate> chain;
    Bytes private_key;
    // Client: trust anchors; nullptr skips verification (like disabling
    // certificate checks — used only in tests).
    const pki::TrustStore* trust = nullptr;
    Rng* rng = nullptr;  // required
    crypto::OpCounters* ops = nullptr;
    // Optional telemetry (see obs/journal.h): events are emitted under
    // `trace_actor` (defaults to "tls-client"/"tls-server"), and latency
    // spans too when the journal keeps them. Borrowed; null disables.
    obs::Journal* journal = nullptr;
    std::string trace_actor;
    // Optional per-session black box: this session's lane in `journal`, so
    // its last moments survive for incident bundles. Borrowed; null
    // disables.
    obs::Lane* lane = nullptr;
    uint64_t now = 100;  // certificate validity check time
    // Handshake deadline for tick(), in the caller's clock units (the
    // deadline arms at the first tick() call). 0 disables the deadline.
    uint64_t handshake_timeout = 0;
    // Client: offer this ticket's session id for an abbreviated handshake.
    // A server cache miss falls back to the full handshake transparently.
    // Borrowed; must outlive start().
    const TlsTicket* ticket = nullptr;
    // Server: session store for resumption. nullptr disables resumption
    // (offers are rejected, full handshake always). Borrowed.
    TlsSessionCache* session_cache = nullptr;
    // Opt-in key export for offline dissection (CLIENT_RANDOM lines; see
    // docs/PROTOCOL.md "Keylog format"). Borrowed; nullptr disables.
    KeyLog* keylog = nullptr;
};

class Session {
public:
    explicit Session(SessionConfig cfg);

    // Client: queue the ClientHello flight.
    void start();

    // Consume network bytes; may queue output and/or application data.
    Status feed(ConstBytes wire);

    // Wire blobs to transmit, one transport send() each.
    std::vector<Bytes> take_write_units() { return core_.units.take(); }

    // Span contexts aligned with the most recent take_write_units(), and the
    // incoming-context FIFO — same contract as mctls::Session.
    std::vector<obs::SpanContext> take_unit_spans() { return core_.units.take_spans(); }
    void queue_rx_span(obs::SpanContext ctx) { core_.units.queue_rx_span(ctx); }

    bool handshake_complete() const { return core_.established(); }
    bool failed() const { return core_.failed(); }
    const std::string& error() const { return core_.error(); }

    // --- Session continuity (see DESIGN.md "Session continuity") ---

    // True once an abbreviated (resumed) handshake completed.
    bool resumed() const { return resumed_; }
    // Ticket for reconnecting later; valid() only after the handshake.
    TlsTicket ticket() const { return {session_id_, master_secret_}; }

    // --- Failure semantics (see DESIGN.md "Failure model") ---

    // Drive time-based state. Arms the handshake deadline on the first call;
    // once `now` passes it with the handshake still incomplete, the session
    // fails with a fatal handshake_timeout alert instead of stalling.
    Status tick(uint64_t now) { return core_.tick(now); }

    // Graceful shutdown: send close_notify (once). The session may keep
    // receiving until the peer's close_notify arrives; sending is rejected.
    void close() { core_.close(); }
    // The transport reported EOF. Without a prior close_notify from the peer
    // this flags the stream as truncated (truncation-attack detection).
    void transport_closed() { core_.transport_closed(); }

    bool closed() const { return core_.closed(); }
    bool close_sent() const { return core_.close_sent(); }
    bool truncated() const { return core_.truncated(); }
    // Typed reason the session stopped (origin none while healthy).
    const SessionError& failure() const { return core_.failure(); }
    // Last alert we emitted / the peer's alert, if any.
    const std::optional<Alert>& alert_sent() const { return core_.alert_sent(); }
    const std::optional<Alert>& peer_alert() const { return core_.peer_alert(); }

    // Encrypt one application-data record (one write unit).
    Status send_app_data(ConstBytes data);
    // Decrypted application bytes received so far.
    Bytes take_app_data();

    // Total wire bytes of handshake records in both directions (Figure 8).
    uint64_t handshake_wire_bytes() const { return core_.counters.handshake_wire_bytes; }
    // MAC+padding+header overhead of protected app records sent (§5.2).
    uint64_t app_overhead_bytes() const { return core_.counters.app_overhead_bytes; }
    uint64_t app_records_sent() const { return core_.counters.app_records_sent; }

    // Telemetry snapshot (counters are maintained unconditionally; they are
    // plain integers on paths that already do crypto work). Baseline TLS
    // reports its single record stream as one pseudo-context named "app".
    obs::SessionStats session_stats() const;

    const std::vector<pki::Certificate>& peer_chain() const { return peer_chain_; }

private:
    // Handshake steps; the lifecycle phase (handshake, established, closed,
    // failed) lives in the core.
    enum class Step {
        idle,
        wait_server_hello,   // client: expects SH..SHD flight
        wait_client_hello,   // server
        wait_client_finish,  // server: expects CKE, CCS, Finished
        wait_server_finish,  // client: expects CCS, Finished
    };
    bool at(Step step) const { return core_.in_handshake() && step_ == step; }

    void queue_handshake(const HandshakeMessage& msg, Bytes* flight);
    Status handle_record_view(const RecordView& view);
    Status handle_handshake(const HandshakeMessage& msg);

    Status client_handle_server_flight(const HandshakeMessage& msg);
    Status server_handle_client_hello(const HandshakeMessage& msg);
    Status server_handle_second_flight(const HandshakeMessage& msg);
    Status handle_finished(const HandshakeMessage& msg);

    Status derive_keys();
    void derive_key_block();
    // verify_data of our own Finished (`ours`) or of the peer's.
    Bytes finished_verify_data(bool ours) const;

    SessionConfig cfg_;
    SessionCore core_;
    Step step_ = Step::idle;

    Bytes app_data_;
    Bytes recv_scratch_;  // reusable decrypt buffer for the app-data fast path

    Bytes transcript_;  // concatenated handshake messages
    Bytes client_random_;
    Bytes server_random_;
    Bytes our_dh_private_;
    Bytes peer_dh_public_;
    Bytes master_secret_;
    std::vector<pki::Certificate> peer_chain_;

    // Resumption (DESIGN.md "Session continuity"): the id this session is
    // cached under — server-assigned on the full handshake, client-offered
    // on the abbreviated one.
    Bytes session_id_;
    bool resumed_ = false;

    // Telemetry beyond the core's counters (see session_stats()).
    uint64_t app_bytes_sent_ = 0;
    uint64_t app_bytes_received_ = 0;
};

}  // namespace mct::tls
