// mcTLS middlebox session (sans-IO, two-sided).
//
// A trusted middlebox sits on two TCP connections (client side and server
// side). During the handshake it forwards every message, learns its index
// and permissions from the ClientHello's MiddleboxListExtension, injects its
// own bundle (MiddleboxHello + two signed ephemeral key exchanges) toward
// BOTH endpoints as the server flight passes (§3.5 step 3), and extracts the
// two MiddleboxKeyMaterial messages addressed to it. It gains access to a
// context only if both endpoints sent their half of that context's keys
// (§3.3 "contributory context keys").
//
// In the record phase it enforces §3.4 semantics per context:
//   none  -> forward the record verbatim (it cannot even decrypt it)
//   read  -> decrypt + verify the reader MAC, expose the payload to the
//            observe callback, forward the ORIGINAL bytes
//   write -> decrypt + verify the writer MAC, let the transform callback
//            rewrite the payload, regenerate writer/reader MACs, forward the
//            original endpoint MAC (so endpoints can detect the legal
//            modification), re-encrypt
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "crypto/ops.h"
#include "mctls/context_crypto.h"
#include "mctls/messages.h"
#include "mctls/resumption.h"
#include "mctls/types.h"
#include "obs/obs.h"
#include "pki/trust_store.h"
#include "tls/record.h"
#include "tls/session_core.h"
#include "util/rng.h"

namespace mct::mctls {

struct MiddleboxConfig {
    std::string name;  // must match an entry in the client's middlebox list
    std::vector<pki::Certificate> chain;
    Bytes private_key;
    // Optional endpoint authentication (R1 from the middlebox's view).
    const pki::TrustStore* trust = nullptr;
    Rng* rng = nullptr;
    crypto::OpCounters* ops = nullptr;
    // Optional telemetry (see obs/journal.h): events are emitted under
    // `trace_actor` (defaults to the middlebox name), plus per-record hop
    // spans (forward / decrypt_verify / reseal) parented under the incoming
    // transport context when the journal keeps spans. Borrowed; null
    // disables.
    obs::Journal* journal = nullptr;
    std::string trace_actor;
    // Optional per-session black box: this middlebox's lane in `journal`.
    // Borrowed; null disables.
    obs::Lane* lane = nullptr;
    uint64_t now = 100;
    // Handshake deadline for tick(), in the caller's clock units (armed at
    // the first tick() call). 0 disables the deadline.
    uint64_t handshake_timeout = 0;

    // Write-access contexts: return the (possibly modified) payload.
    std::function<Bytes(uint8_t context_id, Direction dir, Bytes payload)> transform;
    // Read-access contexts: observe the plaintext.
    std::function<void(uint8_t context_id, Direction dir, ConstBytes payload)> observe;

    // Session continuity: pairwise-key store for rejoining resumed sessions
    // (see DESIGN.md "Session continuity"). nullptr disables rejoin.
    MiddleboxSessionCache* session_cache = nullptr;
};

class MiddleboxSession {
public:
    explicit MiddleboxSession(MiddleboxConfig cfg);

    Status feed_from_client(ConstBytes wire);
    Status feed_from_server(ConstBytes wire);
    std::vector<Bytes> take_to_client() { return to_client_.take(); }
    std::vector<Bytes> take_to_server() { return to_server_.take(); }

    // Span contexts aligned with the units returned by the most recent
    // take_to_client()/take_to_server() (invalid = untraced unit). Same
    // contract as mctls::Session::take_unit_spans().
    std::vector<obs::SpanContext> take_to_client_spans() { return to_client_.take_spans(); }
    std::vector<obs::SpanContext> take_to_server_spans() { return to_server_.take_spans(); }

    // FIFO of incoming transport span contexts per side; the driver pushes
    // one per traced unit delivered, before feeding the bytes. Records from
    // the client leave toward the server, so that queue holds their FIFO.
    void queue_rx_span(bool from_client, obs::SpanContext ctx)
    {
        (from_client ? to_server_ : to_client_).queue_rx_span(ctx);
    }

    bool handshake_complete() const { return keys_ready_; }
    bool failed() const { return core_.failed(); }
    const std::string& error() const { return core_.error(); }

    // --- Failure semantics (see DESIGN.md "Failure model") ---

    // Drive time-based state; fails with a fatal handshake_timeout alert to
    // both sides once the armed deadline passes mid-handshake.
    Status tick(uint64_t now);
    // One of the two transports reported EOF. Originates a fatal
    // middlebox_failure alert toward the surviving side so the endpoints do
    // not stall waiting on a dead path.
    void transport_closed(bool from_client_side);

    // True once the session through this middlebox is finished: an endpoint
    // fatal alert passed through, close_notify flowed both ways, or a
    // transport died. Distinct from failed(), which means *we* detected the
    // problem (bad MAC, malformed message, deadline).
    bool torn_down() const { return torn_down_; }
    bool truncated() const { return core_.truncated(); }
    const SessionError& failure() const { return core_.failure(); }
    const std::optional<tls::Alert>& alert_sent() const { return core_.alert_sent(); }
    // Last alert observed from either endpoint (forwarded through us).
    const std::optional<tls::Alert>& peer_alert() const { return core_.peer_alert(); }

    // Effective permission (both halves received) for a context: the access
    // its keys give. Mid-rekey it is still the committed epoch's.
    Permission permission(uint8_t context_id) const;
    // Installed keys for a context, or nullptr without access. A reader's
    // keys hold no writer key at all (can_write() is false).
    const ContextKeys* context_keys(uint8_t context_id) const;

    // --- Session continuity (see DESIGN.md "Session continuity") ---

    // True when this relay rejoined a resumed session from cached pairwise
    // keys instead of running its own DH exchanges.
    bool resumed() const { return resumed_; }
    // Current key epoch (bumped by completed in-band rekeys we tracked).
    uint32_t epoch() const { return epoch_; }
    // What to cache for a later rejoin; valid() only once keys are ready and
    // the server assigned a session id.
    MiddleboxTicket ticket() const;

    uint64_t records_forwarded_blind() const { return records_forwarded_blind_; }
    uint64_t records_read() const { return records_read_; }
    uint64_t records_rewritten() const { return records_rewritten_; }

    // Decrypt-scratch stats for the records-per-allocation metric: in steady
    // state `records` keeps growing while `heap_allocations` stays flat.
    const RecordScratch& open_scratch() const { return open_scratch_; }

    // Telemetry snapshot. A middlebox verifies exactly 1 MAC per record it
    // opens (reader MAC with read access, writer MAC with write access) and
    // regenerates 2 (writer + reader) when it rewrites a record.
    obs::SessionStats session_stats() const;

private:
    struct Side {
        tls::RecordCodec codec{/*with_context_id=*/true};
        tls::HandshakeReader handshake;
        bool ccs_seen = false;
        uint64_t app_seq = 0;  // records flowing *from* this side
    };

    enum class From { client, server };

    Status fail(std::string message);
    Status fail(AlertDescription description, std::string message);
    // Fails the relay and sends a fatal alert to both endpoints.
    Status fail_with(SessionError::Origin origin, AlertDescription description,
                     std::string message);
    void send_alert(const tls::Alert& alert, bool to_client, bool to_server);
    Status handle_alert_record(From from, const tls::RecordView& view);
    Status feed(From from, ConstBytes wire);
    Status handle_record(From from, const tls::RecordView& view);
    Status handle_handshake(From from, const tls::HandshakeMessage& msg);
    Status handle_app_record(From from, const tls::RecordView& view);
    void forward_handshake(From from, const tls::HandshakeMessage& msg);
    // Records from one side leave toward the other.
    tls::UnitQueue& out(From from) { return from == From::client ? to_server_ : to_client_; }
    void forward_record(From from, const tls::Record& record, bool own_unit);
    // Fast-path forward: splice the original wire bytes onward without
    // re-serializing (framing is identical on both sides).
    void forward_wire(From from, ConstBytes wire, bool own_unit);
    void inject_bundle();
    Status extract_key_material(From from, const MiddleboxKeyMaterial& km);
    // One endpoint's material for us; nullopt until it arrives.
    using Material = std::optional<std::vector<MiddleboxMaterialEntry>>;
    // Opens material sealed to us under `pairwise` into `entries`. Fails the
    // relay when it does not open ("<what>: ..."), does not parse, or names
    // a context the ClientHello never listed.
    Status open_material(const AuthEncKey& pairwise, ConstBytes ad, ConstBytes sealed,
                         const char* what, Material& entries);
    Status try_finalize_keys();
    Status handle_rekey_record(From from, const tls::RecordView& view);
    // Contributory combine of both endpoints' material into each context's
    // keys, or its pending keys for a rekey (a context is granted only where
    // both sent a half).
    void combine_material(const std::vector<MiddleboxMaterialEntry>& client,
                          const std::vector<MiddleboxMaterialEntry>& server, bool pending);
    // Unseal our entry in `rk` (if it has one) with the pairwise key shared
    // with the endpoint on the `from` side, into that side's material.
    // Fails the session when the entry does not open or parse.
    Status open_rekey_material(From from, const RekeyRecord& rk);

    MiddleboxConfig cfg_;
    tls::SessionCore core_;
    bool torn_down_ = false;
    bool close_from_client_ = false;
    bool close_from_server_ = false;

    Side client_side_;  // connection toward the client
    Side server_side_;
    RecordScratch open_scratch_;  // reusable decrypt buffer for app records
    // Outbound units per direction; the span FIFO of records arriving from
    // the opposite side rides in the same queue.
    tls::UnitQueue to_client_;
    tls::UnitQueue to_server_;

    // Learned during the handshake.
    std::vector<MiddleboxInfo> middleboxes_;
    ContextTable table_;  // from the ClientHello's list
    size_t entity_index_ = SIZE_MAX;
    bool ckd_ = false;
    Bytes client_random_;
    Bytes server_random_;
    Bytes own_random_;
    Bytes client_dh_public_;
    Bytes server_dh_public_;
    Bytes dh_for_client_private_, dh_for_client_public_;  // M1 pair
    Bytes dh_for_server_private_, dh_for_server_public_;  // M2 pair
    bool bundle_sent_ = false;
    std::vector<pki::Certificate> server_chain_;

    // Each endpoint's material for us (indexed by From): the handshake's,
    // then each rekey's.
    Material material_[2];
    bool keys_ready_ = false;

    // --- Session continuity state ---
    Bytes session_id_;            // from the ServerHello (empty = none)
    Bytes offered_session_id_;    // from the ClientHello (empty = none)
    bool resume_candidate_ = false;
    MiddleboxTicket resume_ticket_;
    bool resumed_ = false;
    bool rejoin_missed_ = false;  // endpoints resumed; our ticket is gone
    AuthEncKey pairwise_client_;  // K_C-M (cached or derived)
    AuthEncKey pairwise_server_;  // K_S-M

    uint32_t epoch_ = 0;  // the pending epoch's keys live in table_

    uint64_t records_forwarded_blind_ = 0;
    uint64_t records_read_ = 0;
    uint64_t records_rewritten_ = 0;
};

}  // namespace mct::mctls
