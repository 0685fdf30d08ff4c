#include "mctls/middlebox.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/ed25519.h"
#include "crypto/x25519.h"

namespace mct::mctls {

MiddleboxSession::MiddleboxSession(MiddleboxConfig cfg)
    : cfg_(std::move(cfg)),
      core_({.prefix = "mctls mbox",
             .actor = cfg_.trace_actor.empty()
                          ? (cfg_.name.empty() ? "mbox" : cfg_.name)
                          : cfg_.trace_actor,
             .with_context_id = true,
             .journal = cfg_.journal,
             .lane = cfg_.lane,
             .handshake_timeout = cfg_.handshake_timeout},
            tls::require_rng(cfg_.rng, "MiddleboxSession")),
      to_client_(obs::span_on(cfg_.journal)),
      to_server_(obs::span_on(cfg_.journal))
{}

Status MiddleboxSession::fail(std::string message)
{
    return fail(AlertDescription::handshake_failure, std::move(message));
}

Status MiddleboxSession::fail(AlertDescription description, std::string message)
{
    return fail_with(SessionError::Origin::local, description, std::move(message));
}

Status MiddleboxSession::fail_with(SessionError::Origin origin,
                                   AlertDescription description, std::string message)
{
    torn_down_ = true;
    core_.record_failure(origin, description, std::move(message), /*in_handshake=*/!keys_ready_);
    // A middlebox failure affects both directions: alert both endpoints.
    send_alert(tls::fatal_alert(description), /*to_client=*/true, /*to_server=*/true);
    return err(core_.error());
}

void MiddleboxSession::send_alert(const tls::Alert& alert, bool to_client, bool to_server)
{
    if (!core_.note_alert_sent(alert)) return;
    // Output codec framing is identical on both sides.
    Bytes wire =
        client_side_.codec.encode({tls::ContentType::alert, kControlContext, alert.serialize()});
    if (to_client) to_client_.push(wire);
    if (to_server) to_server_.push(std::move(wire));
}

Status MiddleboxSession::handle_alert_record(From from, const tls::RecordView& view)
{
    // Endpoint alerts pass through unmodified (we may not change them -- the
    // endpoints authenticate teardown between themselves); we parse a copy
    // for our own bookkeeping so the relay can retire the session. An alert
    // recovered via the cross-framing retry is the one record whose received
    // bytes do NOT match our framing, so it alone is re-encoded.
    if (view.native_framing) {
        forward_wire(from, view.wire, /*own_unit=*/true);
    } else {
        forward_record(from, {tls::ContentType::alert, view.context_id, to_bytes(view.payload)},
                       /*own_unit=*/true);
    }
    auto alert = tls::Alert::parse(view.payload);
    if (!alert) return {};  // unparsable: forwarded anyway, endpoints decide
    core_.note_alert_received(alert.value());
    if (alert.value().is_fatal()) {
        torn_down_ = true;
        core_.note_failure(SessionError::Origin::peer, alert.value().description,
                           std::string("mctls mbox: endpoint alert: ") +
                               to_string(alert.value().description));
        return {};
    }
    if (alert.value().is_close_notify()) {
        (from == From::client ? close_from_client_ : close_from_server_) = true;
        if (close_from_client_ && close_from_server_) torn_down_ = true;
    }
    return {};
}

Status MiddleboxSession::tick(uint64_t now)
{
    if (core_.failed()) return err(core_.error());
    if (keys_ready_ || torn_down_ || !core_.deadline_due(now)) return {};
    return fail_with(SessionError::Origin::timeout, AlertDescription::handshake_timeout,
                     "mctls mbox: handshake deadline exceeded");
}

void MiddleboxSession::transport_closed(bool from_client_side)
{
    if (core_.failed() || torn_down_) return;
    torn_down_ = true;
    core_.note_truncation(AlertDescription::middlebox_failure,
                          "mctls mbox: transport closed without close_notify");
    // Tell the surviving side the path through us is gone.
    send_alert(tls::fatal_alert(AlertDescription::middlebox_failure),
               /*to_client=*/!from_client_side, /*to_server=*/from_client_side);
}

Status MiddleboxSession::feed_from_client(ConstBytes wire)
{
    return feed(From::client, wire);
}

Status MiddleboxSession::feed_from_server(ConstBytes wire)
{
    return feed(From::server, wire);
}

Status MiddleboxSession::feed(From from, ConstBytes wire)
{
    if (core_.failed()) return err(core_.error());
    Side& side = from == From::client ? client_side_ : server_side_;
    side.codec.feed(wire);
    while (true) {
        auto next = side.codec.next_view();
        if (!next) return fail(AlertDescription::decode_error, next.error().message);
        if (!next.value().has_value()) return {};
        if (auto s = handle_record(from, *next.value()); !s) return s;
    }
}

void MiddleboxSession::forward_record(From from, const tls::Record& record, bool own_unit)
{
    tls::UnitQueue& q = out(from);
    // Output codec framing is identical on both sides.
    if (own_unit || q.empty())
        q.push(client_side_.codec.encode(record));
    else
        client_side_.codec.encode_into(record, q.back());
}

void MiddleboxSession::forward_wire(From from, ConstBytes wire, bool own_unit)
{
    out(from).append(wire, own_unit);
}

void MiddleboxSession::forward_handshake(From from, const tls::HandshakeMessage& msg)
{
    forward_record(from, {tls::ContentType::handshake, kControlContext, msg.serialize()},
                   /*own_unit=*/false);
}

Status MiddleboxSession::handle_record(From from, const tls::RecordView& view)
{
    Side& side = from == From::client ? client_side_ : server_side_;
    switch (view.type) {
    case tls::ContentType::alert:
        return handle_alert_record(from, view);
    case tls::ContentType::change_cipher_spec:
        side.ccs_seen = true;
        forward_wire(from, view.wire, /*own_unit=*/false);
        return {};
    case tls::ContentType::handshake: {
        if (side.ccs_seen) {
            // Encrypted Finished (or later control data): endpoint-only,
            // forwarded opaquely.
            forward_wire(from, view.wire, /*own_unit=*/false);
            return {};
        }
        side.handshake.feed(view.payload);
        while (true) {
            auto msg = side.handshake.next();
            if (!msg) return fail(AlertDescription::decode_error, msg.error().message);
            if (!msg.value().has_value()) return {};
            if (auto s = handle_handshake(from, *msg.value()); !s) return s;
        }
    }
    case tls::ContentType::rekey:
        return handle_rekey_record(from, view);
    case tls::ContentType::application_data:
        return handle_app_record(from, view);
    }
    return fail(AlertDescription::decode_error, "mctls mbox: unknown record type");
}

Status MiddleboxSession::handle_handshake(From from, const tls::HandshakeMessage& msg)
{
    switch (msg.type) {
    case tls::HandshakeType::client_hello: {
        auto hello = tls::ClientHello::parse(msg.body);
        if (!hello) return fail(AlertDescription::decode_error, hello.error().message);
        client_random_ = hello.value().random;
        auto ext = MiddleboxListExtension::parse(hello.value().extensions);
        if (!ext)
            return fail(AlertDescription::decode_error, "mctls mbox: bad middlebox list");
        middleboxes_ = ext.value().middleboxes;
        table_.assign(ext.value().contexts);
        for (size_t i = 0; i < middleboxes_.size(); ++i) {
            if (middleboxes_[i].name == cfg_.name) entity_index_ = i;
        }
        if (entity_index_ == SIZE_MAX)
            return fail(AlertDescription::middlebox_failure,
                        "mctls mbox: not listed in the session's middlebox list");
        core_.trace(obs::EventType::hs_client_hello,
                    static_cast<uint16_t>(entity_index_), msg.body.size());
        // A resumption offer we have cached pairwise keys for: if the server
        // echoes the id we can rejoin without fresh DH exchanges.
        offered_session_id_ = hello.value().session_id;
        if (!hello.value().session_id.empty() && cfg_.session_cache) {
            const MiddleboxTicket* t = cfg_.session_cache->find(hello.value().session_id);
            if (t && t->valid()) {
                resume_candidate_ = true;
                resume_ticket_ = *t;  // copy now: the cache may evict the
                                      // entry before the ServerHello echo
            }
        }
        forward_handshake(from, msg);
        return {};
    }
    case tls::HandshakeType::server_hello: {
        auto hello = tls::ServerHello::parse(msg.body);
        if (!hello) return fail(AlertDescription::decode_error, hello.error().message);
        server_random_ = hello.value().random;
        session_id_ = hello.value().session_id;
        auto mode = ServerModeExtension::parse(hello.value().extensions);
        if (!mode)
            return fail(AlertDescription::decode_error,
                        "mctls mbox: bad server mode extension");
        ckd_ = mode.value().client_key_distribution;
        if (resume_candidate_ && !session_id_.empty() &&
            session_id_ == resume_ticket_.session_id) {
            // The echo accepts the abbreviated handshake: rejoin from the
            // cached pairwise keys; fresh key halves arrive sealed under them.
            resumed_ = true;
            pairwise_client_ = AuthEncKey(resume_ticket_.pairwise_client);
            pairwise_server_ = AuthEncKey(resume_ticket_.pairwise_server);
            core_.trace(obs::EventType::mbox_rejoin,
                        static_cast<uint16_t>(entity_index_), middleboxes_.size());
        } else if (!session_id_.empty() && session_id_ == offered_session_id_ &&
                   !resume_candidate_) {
            // The endpoints agreed to resume but our ticket is gone (evicted,
            // expired, or a cold restart). The abbreviated handshake runs no
            // DH exchanges, so the pairwise keys cannot be rebuilt and the
            // fresh halves sealed to us will stay opaque. Degrade to a
            // keyless relay — every record forwards blind — rather than fail
            // a session we were never entitled to break.
            rejoin_missed_ = true;
            keys_ready_ = true;  // established, with no contexts readable
            core_.trace(obs::EventType::hs_resume_reject,
                        static_cast<uint16_t>(entity_index_), middleboxes_.size());
        }
        forward_handshake(from, msg);
        return {};
    }
    case tls::HandshakeType::certificate: {
        auto certs = tls::CertificateMsg::parse(msg.body);
        if (!certs) return fail(AlertDescription::decode_error, certs.error().message);
        server_chain_ = certs.take().chain;
        if (cfg_.trust) {
            auto status = cfg_.trust->verify_chain(server_chain_, "", cfg_.now);
            if (!status)
                return fail(AlertDescription::bad_certificate,
                            "mctls mbox: server auth: " + status.error().message);
            crypto::count_verify(cfg_.ops);  // n <= 1 in Table 3
        }
        forward_handshake(from, msg);
        return {};
    }
    case tls::HandshakeType::server_key_exchange: {
        auto kx = tls::KeyExchange::parse(msg.type, msg.body);
        if (!kx) return fail(AlertDescription::decode_error, kx.error().message);
        server_dh_public_ = kx.value().public_key;
        forward_handshake(from, msg);
        return {};
    }
    case tls::HandshakeType::server_hello_done: {
        forward_handshake(from, msg);
        inject_bundle();
        return {};
    }
    case tls::HandshakeType::middlebox_hello:
    case tls::HandshakeType::middlebox_key_exchange: {
        // Another middlebox's bundle: pass through.
        forward_handshake(from, msg);
        return {};
    }
    case tls::HandshakeType::client_key_exchange: {
        auto kx = tls::ClientKeyExchange::parse(msg.body);
        if (!kx) return fail(AlertDescription::decode_error, kx.error().message);
        client_dh_public_ = kx.value().public_key;
        forward_handshake(from, msg);
        return {};
    }
    case tls::HandshakeType::middlebox_key_material: {
        auto km = MiddleboxKeyMaterial::parse(msg.body);
        if (!km) return fail(AlertDescription::decode_error, km.error().message);
        forward_handshake(from, msg);
        // A missed rejoin cannot unseal its own material (no pairwise keys
        // survive); leave it sealed and stay a blind relay.
        if (km.value().entity == entity_index_ && !rejoin_missed_) {
            if (auto s = extract_key_material(from, km.value()); !s) return s;
        }
        return {};
    }
    default:
        // Unknown plaintext handshake message: forward (future extension).
        forward_handshake(from, msg);
        return {};
    }
}

void MiddleboxSession::inject_bundle()
{
    if (bundle_sent_ || entity_index_ == SIZE_MAX) return;
    bundle_sent_ = true;

    own_random_ = cfg_.rng->bytes(tls::kRandomSize);
    auto kp1 = crypto::x25519_keypair(*cfg_.rng);
    dh_for_client_private_ = kp1.private_key;
    dh_for_client_public_ = kp1.public_key;
    auto kp2 = crypto::x25519_keypair(*cfg_.rng);
    dh_for_server_private_ = kp2.private_key;
    dh_for_server_public_ = kp2.public_key;

    MiddleboxHello hello;
    hello.entity = static_cast<uint8_t>(entity_index_);
    hello.random = own_random_;
    hello.chain = cfg_.chain;

    MiddleboxKeyExchange kx_client;
    kx_client.entity = hello.entity;
    kx_client.recipient = kEntityClient;
    kx_client.public_key = dh_for_client_public_;
    kx_client.signature = crypto::ed25519_sign(cfg_.private_key, kx_client.signed_payload());
    crypto::count_sign(cfg_.ops);

    MiddleboxKeyExchange kx_server;
    kx_server.entity = hello.entity;
    kx_server.recipient = kEntityServer;
    kx_server.public_key = dh_for_server_public_;
    kx_server.signature = crypto::ed25519_sign(cfg_.private_key, kx_server.signed_payload());
    crypto::count_sign(cfg_.ops);

    Bytes bundle = concat(hello.to_message().serialize(),
                          kx_client.to_message().serialize(),
                          kx_server.to_message().serialize());
    core_.trace(obs::EventType::hs_mbox_hello, static_cast<uint16_t>(entity_index_), bundle.size());
    tls::Record rec{tls::ContentType::handshake, kControlContext, bundle};
    // Toward the client: part of the flight currently being relayed.
    Bytes wire = client_side_.codec.encode(rec);
    to_client_.append(wire, /*own_unit=*/false);
    // Toward the server: its own unit (nothing else flows that way now).
    to_server_.push(std::move(wire));
}

Status MiddleboxSession::extract_key_material(From from, const MiddleboxKeyMaterial& km)
{
    bool from_client = km.sender == kEntityClient;
    if (from_client != (from == From::client))
        return fail(AlertDescription::illegal_parameter,
                    "mctls mbox: key material sender/direction mismatch");

    // Pairwise AuthEnc key with that endpoint: cached in a resumed session,
    // derived from the bundle DH exchanges otherwise.
    AuthEncKey pairwise;
    if (resumed_) {
        pairwise = from_client ? pairwise_client_ : pairwise_server_;
        if (pairwise.enc_key.empty())
            return fail(AlertDescription::handshake_failure,
                        "mctls mbox: no cached pairwise key for resumption");
    } else if (from_client) {
        if (client_dh_public_.empty())
            return fail(AlertDescription::unexpected_message,
                        "mctls mbox: key material before CKE");
        auto pre = crypto::x25519_shared(dh_for_client_private_, client_dh_public_);
        if (!pre)
            return fail(AlertDescription::illegal_parameter,
                        "mctls mbox: degenerate client DH share");
        crypto::count_secret(cfg_.ops);
        Bytes s_cm = derive_shared_secret(pre.value(), client_random_, own_random_);
        pairwise = derive_pairwise_key(s_cm, client_random_, own_random_);
        crypto::count_keygen(cfg_.ops);
        pairwise_client_ = pairwise;
    } else {
        if (server_dh_public_.empty())
            return fail(AlertDescription::unexpected_message,
                        "mctls mbox: key material before SKE");
        auto pre = crypto::x25519_shared(dh_for_server_private_, server_dh_public_);
        if (!pre)
            return fail(AlertDescription::illegal_parameter,
                        "mctls mbox: degenerate server DH share");
        crypto::count_secret(cfg_.ops);
        Bytes s_sm = derive_shared_secret(pre.value(), server_random_, own_random_);
        pairwise = derive_pairwise_key(s_sm, server_random_, own_random_);
        crypto::count_keygen(cfg_.ops);
        pairwise_server_ = pairwise;
    }

    Status s = open_material(pairwise, key_material_ad(km.sender, km.entity), km.sealed,
                             "mctls mbox: key material", material_[static_cast<size_t>(from)]);
    if (!s) return s;
    return try_finalize_keys();
}

Status MiddleboxSession::open_material(const AuthEncKey& pairwise, ConstBytes ad,
                                       ConstBytes sealed, const char* what, Material& entries)
{
    auto plain = authenc_open(pairwise, ad, sealed);
    if (!plain)
        return fail(AlertDescription::decrypt_error,
                    std::string(what) + ": " + plain.error().message);
    crypto::count_dec(cfg_.ops);
    auto parsed = parse_middlebox_material(plain.value());
    if (!parsed) return fail(AlertDescription::decode_error, parsed.error().message);
    for (const auto& e : parsed.value()) {
        if (!table_.find(e.context_id))
            return fail(AlertDescription::illegal_parameter,
                        "mctls mbox: key material for unknown context");
    }
    entries = parsed.take();
    return {};
}

Status MiddleboxSession::try_finalize_keys()
{
    if (keys_ready_) return {};
    if (ckd_) {
        // Client key distribution: complete keys arrive from the client only.
        if (!material_[0]) return {};
        for (const auto& e : *material_[0]) {
            auto keys = ContextKeys::parse(e.complete_keys);
            if (!keys) return fail(AlertDescription::decode_error, keys.error().message);
            // Our access is what the keys give, so they must match the grant.
            if (keys.value().access(Direction::client_to_server) != e.permission ||
                keys.value().access(Direction::server_to_client) != e.permission)
                return fail(AlertDescription::illegal_parameter,
                            "mctls mbox: key material permission mismatch");
            table_.find(e.context_id)->keys = keys.take();
        }
    } else {
        if (!material_[0] || !material_[1]) return {};
        combine_material(*material_[0], *material_[1], /*pending=*/false);
    }
    keys_ready_ = true;
    auto keyed = static_cast<uint64_t>(
        std::count_if(table_.entries().begin(), table_.entries().end(),
                      [](const ContextEntry& e) { return e.keys.can_read(); }));
    core_.trace(obs::EventType::hs_key_distribution, 0, keyed, ckd_ ? 1 : 0);
    core_.trace(obs::EventType::hs_complete, 0, keyed);
    if (cfg_.session_cache) cfg_.session_cache->put(ticket());
    return {};
}

void MiddleboxSession::combine_material(const std::vector<MiddleboxMaterialEntry>& client,
                                        const std::vector<MiddleboxMaterialEntry>& server,
                                        bool pending)
{
    // A context key exists only where BOTH endpoints supplied their half —
    // this is how mutual consent (R4) is enforced.
    for (const auto& ce : client) {
        for (const auto& se : server) {
            if (se.context_id != ce.context_id) continue;
            if (!ce.reader_half || !se.reader_half) continue;
            // Write access needs both writer halves; a reader derives (and
            // holds) no writer key at all.
            bool writer = ce.writer_half && se.writer_half;
            ContextKeys combined =
                writer ? combine_context_keys({*ce.reader_half, *ce.writer_half},
                                              {*se.reader_half, *se.writer_half}, client_random_,
                                              server_random_)
                       : combine_reader_keys(*ce.reader_half, *se.reader_half, client_random_,
                                             server_random_);
            crypto::count_keygen(cfg_.ops, writer ? 2 : 1);  // k <= 2K of Table 3
            // open_material admitted only negotiated contexts.
            ContextEntry& ctx = *table_.find(ce.context_id);
            if (pending)
                ctx.next = std::make_unique<ContextKeys>(std::move(combined));
            else
                ctx.keys = std::move(combined);
        }
    }
}

MiddleboxTicket MiddleboxSession::ticket() const
{
    MiddleboxTicket t;
    // A keyless relay has nothing worth caching: a ticket with empty
    // pairwise keys would only poison a later rejoin attempt.
    if (!keys_ready_ || rejoin_missed_) return t;
    t.session_id = session_id_;
    t.pairwise_client = pairwise_client_.raw();
    t.pairwise_server = pairwise_server_.raw();
    return t;
}

// ---- In-band rekeying ----------------------------------------------------
//
// The rekey records are plaintext markers as well as key transport: the
// server's response switches the server->client keys, the client's commit
// switches client->server. With in-order delivery on each hop, every record
// after a marker (in that direction) is sealed under the new epoch's keys,
// so we flip each direction exactly when the marker passes through us. A
// record carrying no entry for us means we are being revoked: no context
// gets pending keys, each switch drops that direction's keys, and we degrade
// to blind forwarding.

Status MiddleboxSession::handle_rekey_record(From from, const tls::RecordView& view)
{
    // Always forward first, unmodified: downstream parties key off the same
    // marker, and revoked middleboxes must still relay it. Rekey records are
    // never alt-framed (only alerts cross the framing gap), so the original
    // wire bytes are reused as-is.
    forward_wire(from, view.wire, /*own_unit=*/true);
    if (!keys_ready_) return {};  // endpoints will reject a pre-handshake rekey
    // A keyless relay has no pairwise keys to unseal rekey entries with,
    // even when the endpoints (believing it rejoined) addressed it one.
    if (rejoin_missed_) return {};
    auto parsed = RekeyRecord::parse(view.payload);
    if (!parsed) return fail(AlertDescription::decode_error, parsed.error().message);
    const RekeyRecord& rk = parsed.value();

    if (rk.phase == RekeyPhase::init && from == From::client) {
        table_.begin_rekey(rk.epoch);
        material_[0].reset();
        material_[1].reset();
        if (auto st = open_rekey_material(From::client, rk); !st) return st;
        bool revoked = !material_[0];  // the init carries no entry for us
        core_.trace(obs::EventType::rekey_init,
                    static_cast<uint16_t>(entity_index_), rk.epoch, revoked ? 1 : 0);
        if (revoked)
            core_.trace(obs::EventType::mbox_excised,
                        static_cast<uint16_t>(entity_index_), rk.epoch);
        return {};
    }

    if (rk.phase == RekeyPhase::resp && from == From::server &&
        table_.pending_epoch() == rk.epoch) {
        if (material_[0]) {  // not revoked
            if (auto st = open_rekey_material(From::server, rk); !st) return st;
            if (material_[1])
                combine_material(*material_[0], *material_[1], /*pending=*/true);
        }
        table_.switch_direction(Direction::server_to_client);
        return {};
    }

    if (rk.phase == RekeyPhase::commit && from == From::client &&
        table_.pending_epoch() == rk.epoch) {
        table_.switch_direction(Direction::client_to_server);
        if (table_.complete_rekey(epoch_)) {
            material_[0].reset();
            material_[1].reset();
            core_.trace(obs::EventType::rekey_complete, static_cast<uint16_t>(entity_index_),
                        epoch_);
        }
        return {};
    }
    return {};  // stale/out-of-order phases: forwarded above, nothing to track
}

Status MiddleboxSession::open_rekey_material(From from, const RekeyRecord& rk)
{
    size_t side = static_cast<size_t>(from);
    const AuthEncKey& pairwise = from == From::client ? pairwise_client_ : pairwise_server_;
    uint8_t sender = from == From::client ? kEntityClient : kEntityServer;
    for (const auto& e : rk.entries) {
        if (e.entity != entity_index_) continue;
        Status s = open_material(pairwise,
                                 rekey_ad(sender, static_cast<uint8_t>(entity_index_), rk.epoch),
                                 e.sealed, "mctls mbox: rekey material", material_[side]);
        if (!s) return s;
    }
    return {};
}

Permission MiddleboxSession::permission(uint8_t context_id) const
{
    // Client->server is the direction a rekey switches last.
    const ContextEntry* ctx = table_.find(context_id);
    return ctx ? ctx->keys.access(Direction::client_to_server) : Permission::none;
}

const ContextKeys* MiddleboxSession::context_keys(uint8_t context_id) const
{
    if (permission(context_id) == Permission::none) return nullptr;
    return &table_.find(context_id)->keys;
}

Status MiddleboxSession::handle_app_record(From from, const tls::RecordView& view)
{
    // Pop the incoming transport span context first (even on failure paths)
    // so the FIFO stays aligned with the app-record stream.
    obs::SpanContext in_ctx = out(from).pop_rx_span();
    if (!keys_ready_)
        return fail(AlertDescription::unexpected_message,
                    "mctls mbox: application data before key material");
    Side& side = from == From::client ? client_side_ : server_side_;
    Direction dir =
        from == From::client ? Direction::client_to_server : Direction::server_to_client;
    uint64_t seq = side.app_seq++;

    bool traced = obs::span_on(core_.spans()) && in_ctx.valid();
    StageNanos stage_ns;
    StageNanos* tp = traced ? &stage_ns : nullptr;
    // Instant hop span on the sim clock (crypto costs ride in cpu_ns);
    // returns the span id so the outgoing unit can chain the next hop.
    auto emit_span = [&](obs::Stage st, uint64_t cpu, uint64_t a) {
        return core_.emit_span(in_ctx, st, view.context_id, cpu, a);
    };

    // Our access is what our keys for this direction give. Mid-rekey, a
    // direction that already switched runs under the new epoch's keys, so a
    // revoked middlebox forwards blind rather than fail on keys it was not
    // given.
    ContextEntry* ctx = table_.find(view.context_id);
    Permission perm = ctx ? ctx->keys.access(dir) : Permission::none;

    if (perm == Permission::none) {
        ++records_forwarded_blind_;
        if (ctx) {
            ctx->stats.bytes_in += view.payload.size();  // opaque: only wire size visible
            ++ctx->stats.records_in;
        }
        core_.trace(obs::EventType::mbox_forward_blind, view.context_id, view.payload.size());
        forward_wire(from, view.wire, /*own_unit=*/true);
        if (traced)
            out(from).tag_last({in_ctx.trace_id,
                                emit_span(obs::Stage::forward, 0, view.wire.size())});
        return {};
    }

    if (perm == Permission::read) {
        auto payload = open_record_reader(ctx->keys, dir, seq, view.context_id,
                                          view.payload, open_scratch_, tp);
        if (!payload) {
            core_.note_mac_failure(view.context_id, view.payload.size());
            return fail(AlertDescription::bad_record_mac, payload.error().message);
        }
        ++records_read_;
        ++core_.counters.macs_verified;  // reader MAC
        ctx->stats.bytes_in += payload.value().size();
        ++ctx->stats.records_in;
        core_.trace(obs::EventType::mbox_read, view.context_id, payload.value().size(), 1);
        if (cfg_.observe) cfg_.observe(view.context_id, dir, payload.value());
        forward_wire(from, view.wire, /*own_unit=*/true);  // original bytes
        if (traced) {
            emit_span(obs::Stage::decrypt_verify, stage_ns.mac_ns + stage_ns.cipher_ns,
                      stage_ns.macs);
            out(from).tag_last({in_ctx.trace_id,
                                emit_span(obs::Stage::forward, 0, view.wire.size())});
        }
        return {};
    }

    // Writer.
    auto opened = open_record_writer(ctx->keys, dir, seq, view.context_id, view.payload,
                                     open_scratch_, tp);
    if (!opened) {
        core_.note_mac_failure(view.context_id, view.payload.size());
        return fail(AlertDescription::bad_record_mac, opened.error().message);
    }
    ++core_.counters.macs_verified;  // writer MAC
    // The transform needs an owned copy; the scratch keeps the original for
    // the modified-or-not comparison (no second copy).
    Bytes payload = to_bytes(opened.value().payload);
    ctx->stats.bytes_in += payload.size();
    ++ctx->stats.records_in;
    if (cfg_.observe) cfg_.observe(view.context_id, dir, payload);
    if (cfg_.transform) payload = cfg_.transform(view.context_id, dir, std::move(payload));
    bool modified = !equal(payload, opened.value().payload);
    if (!modified) {
        // Unmodified: forward the original record, MACs untouched.
        core_.trace(obs::EventType::mbox_write_pass, view.context_id, payload.size(), 1);
        forward_wire(from, view.wire, /*own_unit=*/true);
        if (traced) {
            emit_span(obs::Stage::decrypt_verify, stage_ns.mac_ns + stage_ns.cipher_ns,
                      stage_ns.macs);
            out(from).tag_last({in_ctx.trace_id,
                                emit_span(obs::Stage::forward, 0, view.wire.size())});
        }
        return {};
    }
    ++records_rewritten_;
    core_.counters.macs_generated += 2;  // regenerated writer + reader MACs
    core_.trace(obs::EventType::mbox_rewrite, view.context_id, payload.size(), 2);
    // Reseal straight into the outgoing wire unit: header first, fragment
    // appended in place (endpoint MAC still borrowed from the scratch).
    size_t body = sealed_record_size(payload.size());
    Bytes wire;
    wire.reserve(client_side_.codec.header_size() + body);
    client_side_.codec.encode_header_into(tls::ContentType::application_data, view.context_id,
                                          body, wire);
    StageNanos reseal_ns;
    reseal_record_writer_into(ctx->keys, dir, seq, view.context_id, payload,
                              opened.value().endpoint_mac, core_.iv_source(), wire,
                              traced ? &reseal_ns : nullptr);
    out(from).push(std::move(wire));
    if (traced) {
        emit_span(obs::Stage::decrypt_verify, stage_ns.mac_ns + stage_ns.cipher_ns,
                  stage_ns.macs);
        out(from).tag_last({in_ctx.trace_id,
                            emit_span(obs::Stage::reseal,
                                      reseal_ns.mac_ns + reseal_ns.cipher_ns,
                                      payload.size())});
    }
    return {};
}

obs::SessionStats MiddleboxSession::session_stats() const
{
    obs::SessionStats s;
    core_.fill_stats(s);
    s.established = keys_ready_;
    s.app_records_received =
        records_forwarded_blind_ + records_read_ + records_rewritten_;
    for (const ContextEntry& ctx : table_.entries()) s.contexts.push_back(ctx.stats);
    return s;
}

}  // namespace mct::mctls
