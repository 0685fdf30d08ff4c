// mcTLS endpoint session (client or server), sans-IO.
//
// Implements the full handshake of Figure 1 — middlebox list negotiation,
// per-hop ephemeral key exchanges, contributory (partial) context keys or
// client-key-distribution mode — and the three-MAC record protocol of §3.4.
//
// Like tls::Session, the state machine consumes raw network bytes with
// feed() and emits write units (one transport send() each): handshake
// flights coalesce into one unit; each application record is its own unit.
// The handshake record layer (codec, flight writer, CCS + Finished, alert /
// CCS / handshake dispatch) is tls::SessionCore's, shared with tls::Session;
// this class adds the mcTLS messages, application and rekey records, and
// one key-half path that the full handshake, resumption and rekey share.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "crypto/ops.h"
#include "mctls/context_crypto.h"
#include "obs/obs.h"
#include "mctls/messages.h"
#include "mctls/resumption.h"
#include "mctls/transcript.h"
#include "mctls/types.h"
#include "pki/trust_store.h"
#include "tls/record.h"
#include "tls/session.h"
#include "tls/session_core.h"
#include "util/rng.h"

namespace mct::mctls {

// Server-side permission policy: given a middlebox and the client-requested
// permission for one context, return the granted permission (possibly
// lower). Null policy grants whatever was requested.
using PermissionPolicy =
    std::function<Permission(const MiddleboxInfo&, const ContextDescription&, Permission)>;

struct SessionConfig {
    tls::Role role = tls::Role::client;
    std::string server_name;  // client: expected server certificate subject

    // Client: session composition (middleboxes in path order, client first).
    std::vector<MiddleboxInfo> middleboxes;
    std::vector<ContextDescription> contexts;

    // Server identity.
    std::vector<pki::Certificate> chain;
    Bytes private_key;

    const pki::TrustStore* trust = nullptr;
    // R1 is optional for servers (§3.1): verify middlebox certificates?
    bool authenticate_middleboxes = true;

    // Server: opt into client key distribution mode (§3.6).
    bool client_key_distribution = false;
    PermissionPolicy policy;

    Rng* rng = nullptr;
    crypto::OpCounters* ops = nullptr;
    // Optional telemetry (see obs/journal.h): events are emitted under
    // `trace_actor` (defaults to "mctls-client"/"mctls-server"). When the
    // journal keeps spans, every sealed app record also starts a trace with
    // encode/mac/encrypt child spans, and every opened one emits
    // decrypt_verify/deliver spans parented under the incoming transport
    // context. Borrowed; null disables.
    obs::Journal* journal = nullptr;
    std::string trace_actor;
    // Optional per-session black box: this session's lane in `journal`, for
    // incident bundles. Borrowed; null disables.
    obs::Lane* lane = nullptr;
    uint64_t now = 100;
    // Handshake deadline for tick(), in the caller's clock units (armed at
    // the first tick() call). 0 disables the deadline.
    uint64_t handshake_timeout = 0;

    // --- Session continuity (see DESIGN.md "Session continuity") ---
    // Client: offer this ticket's session id for an abbreviated handshake.
    // The offer is made only when every configured middlebox appears in the
    // ticket (a reduced list = excision); a server cache miss falls back to
    // the full handshake transparently. Borrowed; must outlive start().
    const ResumptionTicket* ticket = nullptr;
    // Server: ticket store for resumption. nullptr disables resumption.
    ServerSessionCache* session_cache = nullptr;
    // Opt-in key export for offline dissection (MCTLS_ENDPOINT /
    // MCTLS_CONTEXT lines; see docs/PROTOCOL.md "Keylog format"). Emission
    // happens on handshake and rekey paths only, never per record.
    // Borrowed; nullptr disables.
    tls::KeyLog* keylog = nullptr;
};

struct AppChunk {
    uint8_t context_id = 0;
    Bytes data;
    // False when a trusted writer middlebox legally modified the data
    // (endpoint MAC no longer matches, writer MAC does).
    bool from_endpoint = true;
};

class Session {
public:
    explicit Session(SessionConfig cfg);

    void start();  // client only
    Status feed(ConstBytes wire);
    std::vector<Bytes> take_write_units() { return core_.units.take(); }

    // Span contexts aligned index-for-index with the units returned by the
    // most recent take_write_units() (invalid context = untraced unit, e.g.
    // a handshake flight). Call immediately after take_write_units(); the
    // driver attaches each valid context to its unit's transport send via
    // Connection::send_traced.
    std::vector<obs::SpanContext> take_unit_spans() { return core_.units.take_spans(); }

    // FIFO of incoming transport span contexts: the driver pushes one per
    // traced unit delivered by the transport (Connection::take_rx_spans)
    // BEFORE feeding the bytes; handle_app_record pops one per app record.
    void queue_rx_span(obs::SpanContext ctx) { core_.units.queue_rx_span(ctx); }

    bool handshake_complete() const { return core_.established(); }
    bool failed() const { return core_.failed(); }
    const std::string& error() const { return core_.error(); }

    // --- Failure semantics (see DESIGN.md "Failure model") ---

    // Drive time-based state. Arms the handshake deadline on the first call;
    // once `now` passes it with the handshake still incomplete, the session
    // fails with a fatal handshake_timeout alert instead of stalling.
    Status tick(uint64_t now) { return core_.tick(now); }

    // Graceful shutdown: send close_notify (once) on the control context.
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
    const std::optional<tls::Alert>& alert_sent() const { return core_.alert_sent(); }
    const std::optional<tls::Alert>& peer_alert() const { return core_.peer_alert(); }

    Status send_app_data(uint8_t context_id, ConstBytes data);
    std::vector<AppChunk> take_app_data();

    // --- Session continuity (see DESIGN.md "Session continuity") ---

    // True once an abbreviated (resumed) handshake completed.
    bool resumed() const { return resumed_; }
    // Ticket for reconnecting later; valid() only after the handshake.
    ResumptionTicket ticket() const;
    // Current key epoch (0 until the first completed rekey) and the number
    // of completed in-band rekeys.
    uint32_t epoch() const { return epoch_; }
    uint64_t rekeys_completed() const { return rekeys_completed_; }
    // Digest of the context's current key material — lets tests prove a
    // rekey/excision actually rotated the keys. Empty for unknown contexts.
    Bytes context_key_fingerprint(uint8_t context_id) const;
    // Client only, established sessions, contributory-key mode: bump the key
    // epoch over the live connection. Middleboxes named in `revoke` (and any
    // middlebox the session no longer trusts) receive no fresh key material
    // and degrade to blind forwarding once the epoch switches.
    Status initiate_rekey(const std::vector<std::string>& revoke = {});

    // Negotiated session composition (valid once the hellos are exchanged).
    const std::vector<MiddleboxInfo>& middleboxes() const { return middleboxes_; }
    const std::vector<ContextDescription>& contexts() const { return contexts_; }
    bool client_key_distribution() const { return ckd_; }
    // Effective (granted) permission for middlebox `mbox` in context `ctx`.
    Permission granted_permission(size_t mbox, uint8_t ctx) const;

    uint64_t handshake_wire_bytes() const { return core_.counters.handshake_wire_bytes; }
    uint64_t app_overhead_bytes() const { return core_.counters.app_overhead_bytes; }
    uint64_t app_records_sent() const { return core_.counters.app_records_sent; }

    // Decrypt-scratch stats for the records-per-allocation metric: in steady
    // state `records` keeps growing while `heap_allocations` stays flat.
    const RecordScratch& open_scratch() const { return open_scratch_; }

    // Telemetry snapshot: per-context byte/record counters plus MAC totals
    // under the endpoint–writer–reader scheme (3 MACs generated per sealed
    // record; 2 verified per record opened at an endpoint). Counters are
    // plain integers maintained unconditionally.
    obs::SessionStats session_stats() const;

private:
    // Handshake steps; the lifecycle phase (handshake, established, closed,
    // failed) lives in the core.
    enum class Step {
        idle,
        wait_server_flight,   // client
        wait_server_second,   // client: server CKM + CCS + Finished
        wait_client_hello,    // server
        wait_client_flight,   // server: bundles, CKE, CKMs, CCS, Finished
    };
    bool at(Step step) const { return core_.in_handshake() && step_ == step; }

    struct MiddleboxState {
        MiddleboxInfo info;
        Bytes random;
        std::vector<pki::Certificate> chain;
        Bytes kx_for_client;  // DH+_M1
        Bytes kx_for_server;  // DH+_M2
        AuthEncKey pairwise;  // K_C-M or K_S-M (our side)
        bool hello_seen = false;
        bool kx_client_seen = false;
        bool kx_server_seen = false;
        bool complete() const { return hello_seen && kx_client_seen && kx_server_seen; }
    };

    uint8_t self_entity() const { return is_client_ ? kEntityClient : kEntityServer; }
    uint8_t peer_entity() const { return is_client_ ? kEntityServer : kEntityClient; }

    Bytes middlebox_material_message(size_t mbox_index);
    Bytes endpoint_material_message();

    Status handle_handshake(const tls::HandshakeMessage& msg);
    Status handle_bundle_message(const tls::HandshakeMessage& msg);
    Status client_handle(const tls::HandshakeMessage& msg);
    Status server_handle(const tls::HandshakeMessage& msg);
    Status handle_record_view(const tls::RecordView& view);
    Status handle_app_record(uint8_t context_id, ConstBytes payload);

    Status client_send_second_flight();
    Status server_send_final_flight();
    Status verify_peer_finished(const tls::HandshakeMessage& msg);

    // Session continuity.
    bool server_try_resumption(const tls::ClientHello& hello);
    Status server_send_resumed_flight(ConstBytes client_hello_wire);
    Status client_accept_resumption(ConstBytes server_hello_wire);
    Status client_send_resumed_flight();
    void derive_endpoint_secrets_from_scs();  // key schedule minus the DH step
    Bytes resumed_finished_verify_data(const char* label);
    Status handle_rekey_record(ConstBytes payload);
    // Unseal the peer endpoint's fresh halves from its entry in `rk`. Fails
    // the session when the entry is missing or does not open
    // (open_endpoint_material).
    Status open_peer_halves(const RekeyRecord& rk);
    void queue_rekey_record(const RekeyRecord& rec);
    void finish_rekey_if_switched();

    // Server: granted_[c][m] = grant(c, m) for every context c and
    // middlebox m, then apply_grants().
    void set_grants(const std::function<Permission(size_t c, size_t m)>& grant);
    // Caps each context's grants at granted_: the effective grant is
    // min(requested, granted).
    void apply_grants();
    // Emit one MCTLS_CONTEXT keylog line per context, in ascending id, with
    // its current or (for a rekey) pending keys, deriving the current keys
    // if nothing has used them yet. No-op when the keylog is disabled.
    void keylog_contexts(uint32_t epoch, bool pending) const;
    Status derive_endpoint_secrets();  // S_C-S, K_endpoints, control protectors
    Bytes finished_verify_data(const char* label, bool include_client_finished);
    Status unseal_middlebox_material_from_peer(const MiddleboxKeyMaterial& km);

    // The one key-half path, shared by the full handshake, resumption and
    // rekey; `ad` binds each seal to its sender, recipient and (for rekey)
    // epoch. Our halves of every context, from a fresh secret:
    void derive_own_halves(ConstBytes secret);
    // Our halves (complete keys in CKD mode) that middlebox `mbox_index` is
    // granted, sealed under its pairwise key.
    Bytes seal_middlebox_material(size_t mbox_index, ConstBytes ad);
    // All our halves, sealed for the peer endpoint under K_endpoints.
    Bytes seal_endpoint_material(ConstBytes ad);
    // Opens the peer's sealed halves, replacing every context's peer half.
    // Fails the session when they do not open ("<what>: ..."), do not
    // parse, or name a context that was never negotiated.
    Status open_endpoint_material(ConstBytes sealed, ConstBytes ad, const char* what);
    // Combines own and peer halves into every context's keys (derived on
    // first use), or its pending keys for a rekey; fails the session with
    // `missing` when either half of one is absent.
    Status combine_halves(const char* missing, bool pending);

    SessionConfig cfg_;
    tls::SessionCore core_;
    Step step_ = Step::idle;
    bool is_client_ = true;

    RecordScratch open_scratch_;  // reusable decrypt buffer for app records
    std::vector<AppChunk> app_chunks_;

    // Negotiated composition.
    std::vector<MiddleboxInfo> middleboxes_;
    std::vector<ContextDescription> contexts_;  // client-requested permissions
    std::vector<std::vector<Permission>> granted_;  // [context][middlebox]
    ContextTable table_;                            // from contexts_
    bool ckd_ = false;

    Transcript transcript_;
    Bytes client_random_;
    Bytes server_random_;
    Bytes own_secret_;       // S_C or S_S (partial-key seed)
    Bytes dh_private_;
    Bytes peer_dh_public_;
    Bytes s_cs_;             // endpoint master secret
    EndpointKeys endpoint_keys_;
    std::vector<MiddleboxState> mbox_state_;
    std::vector<pki::Certificate> server_chain_;
    bool peer_material_received_ = false;
    bool shd_seen_ = false;

    uint64_t app_send_seq_ = 0;
    uint64_t app_recv_seq_ = 0;

    // --- Session continuity state ---
    Bytes session_id_;           // assigned (server) or echoed (client)
    bool resumed_ = false;
    bool handshake_ever_complete_ = false;
    Bytes resumed_transcript_;   // plain concat: CH || SH || server Finished

    uint32_t epoch_ = 0;
    uint64_t rekeys_completed_ = 0;
    std::vector<std::string> rekey_revoked_;  // client: names to starve
};

}  // namespace mct::mctls
