#include "mctls/session.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "crypto/ct.h"
#include "crypto/ed25519.h"
#include "crypto/prf.h"
#include "crypto/sha2.h"
#include "crypto/x25519.h"
#include "mctls/keylog.h"

namespace mct::mctls {

namespace {

constexpr size_t kAppChunkLimit = 15000;  // leave room for MACs + padding

Permission min_permission(Permission a, Permission b)
{
    return static_cast<Permission>(
        std::min(static_cast<uint8_t>(a), static_cast<uint8_t>(b)));
}

}  // namespace

Session::Session(SessionConfig cfg)
    : cfg_(std::move(cfg)),
      core_({.prefix = "mctls",
             .actor = cfg_.trace_actor.empty()
                          ? (cfg_.role == tls::Role::client ? "mctls-client" : "mctls-server")
                          : cfg_.trace_actor,
             .with_context_id = true,
             .journal = cfg_.journal,
             .lane = cfg_.lane,
             .handshake_timeout = cfg_.handshake_timeout,
             .ops = cfg_.ops},
            tls::require_rng(cfg_.rng, "mctls::Session")),
      is_client_(cfg_.role == tls::Role::client)
{
    if (is_client_) {
        if (cfg_.contexts.empty())
            throw std::invalid_argument("mctls::Session: client needs at least one context");
        bool seen[kMaxContexts + 1] = {};
        for (const auto& ctx : cfg_.contexts) {
            if (ctx.id == kControlContext)
                throw std::invalid_argument("mctls::Session: context id 0 is reserved");
            if (std::exchange(seen[ctx.id], true))
                throw std::invalid_argument("mctls::Session: duplicate context id");
            if (ctx.permissions.size() != cfg_.middleboxes.size())
                throw std::invalid_argument("mctls::Session: permission row size mismatch");
        }
    } else {
        step_ = Step::wait_client_hello;
    }
}

// MiddleboxKeyMaterial message with our context-key halves for middlebox
// `mbox_index`.
Bytes Session::middlebox_material_message(size_t mbox_index)
{
    MiddleboxKeyMaterial km;
    km.sender = self_entity();
    km.entity = static_cast<uint8_t>(mbox_index);
    km.sealed = seal_middlebox_material(mbox_index, key_material_ad(km.sender, km.entity));
    return km.to_message().serialize();
}

// MiddleboxKeyMaterial message with our context-key halves for the peer
// endpoint (contributory mode), sealed under K_endpoints.
Bytes Session::endpoint_material_message()
{
    MiddleboxKeyMaterial km;
    km.sender = self_entity();
    km.entity = peer_entity();
    km.sealed = seal_endpoint_material(key_material_ad(km.sender, km.entity));
    return km.to_message().serialize();
}

Permission Session::granted_permission(size_t mbox, uint8_t ctx) const
{
    const ContextEntry* entry = table_.find(ctx);
    if (!entry || mbox >= entry->desc.permissions.size()) return Permission::none;
    return entry->desc.permissions[mbox];
}

void Session::set_grants(const std::function<Permission(size_t c, size_t m)>& grant)
{
    granted_.assign(contexts_.size(), std::vector<Permission>(middleboxes_.size()));
    for (size_t c = 0; c < contexts_.size(); ++c)
        for (size_t m = 0; m < middleboxes_.size(); ++m) granted_[c][m] = grant(c, m);
    apply_grants();
}

void Session::apply_grants()
{
    auto entries = table_.entries();
    for (size_t c = 0; c < entries.size() && c < granted_.size(); ++c) {
        auto& perms = entries[c].desc.permissions;
        for (size_t m = 0; m < perms.size() && m < granted_[c].size(); ++m)
            perms[m] = min_permission(perms[m], granted_[c][m]);
    }
}

void Session::start()
{
    if (!is_client_ || !at(Step::idle))
        throw std::logic_error("mctls::Session: start() is for idle clients");

    middleboxes_ = cfg_.middleboxes;
    contexts_ = cfg_.contexts;
    table_.assign(contexts_);
    mbox_state_.resize(middleboxes_.size());
    for (size_t i = 0; i < middleboxes_.size(); ++i) mbox_state_[i].info = middleboxes_[i];

    client_random_ = cfg_.rng->bytes(tls::kRandomSize);
    own_secret_ = cfg_.rng->bytes(32);
    // The public key is computed at ClientKeyExchange: a resumed session
    // never sends one, so it does no curve work at all.
    dh_private_ = crypto::x25519_private_key(*cfg_.rng);

    tls::ClientHello hello;
    hello.random = client_random_;
    hello.cipher_suites = {tls::kCipherSuiteX25519Ed25519Aes128Sha256};
    MiddleboxListExtension ext{middleboxes_, contexts_};
    hello.extensions = ext.serialize();

    // Offer an abbreviated handshake when the ticket covers this session's
    // composition. A shorter middlebox list than the ticket's is an excision;
    // middleboxes or contexts the ticket never saw force a full handshake.
    if (cfg_.ticket && cfg_.ticket->valid()) {
        bool covered = true;
        for (const auto& m : middleboxes_)
            covered &= cfg_.ticket->find_middlebox(m.name) >= 0;
        for (const auto& ctx : contexts_) {
            bool found = false;
            for (const auto& tc : cfg_.ticket->contexts) found |= tc.id == ctx.id;
            covered &= found;
        }
        if (covered) {
            hello.session_id = cfg_.ticket->session_id;
            core_.trace(obs::EventType::hs_resume_offer, 0, hello.session_id.size());
        }
    }

    tls::HandshakeMessage msg = hello.to_message();
    Bytes wire = msg.serialize();
    transcript_.set(Transcript::Slot::client_hello, wire);
    if (!hello.session_id.empty()) resumed_transcript_ = wire;
    crypto::count_hash(cfg_.ops);

    core_.queue_flight(wire);
    step_ = Step::wait_server_flight;
    core_.trace(obs::EventType::hs_start, 0, core_.counters.handshake_wire_bytes);
}

Status Session::feed(ConstBytes wire)
{
    if (core_.failed()) return err(core_.error());
    core_.codec.feed(wire);
    while (true) {
        auto next = core_.codec.next_view();
        if (!next) return core_.fail(AlertDescription::decode_error, next.error().message);
        if (!next.value().has_value()) return {};
        if (auto s = handle_record_view(*next.value()); !s) return s;
    }
}

Status Session::handle_record_view(const tls::RecordView& view)
{
    // Established app data is the hot path: open straight from the codec
    // buffer, no owning Record in between.
    if (view.type == tls::ContentType::application_data && core_.established())
        return handle_app_record(view.context_id, view.payload);
    if (auto s = core_.handle_control_record(
            view, [this](const tls::HandshakeMessage& msg) { return handle_handshake(msg); }))
        return *s;
    if (view.type == tls::ContentType::rekey) return handle_rekey_record(view.payload);
    return handle_app_record(view.context_id, view.payload);
}

Status Session::handle_handshake(const tls::HandshakeMessage& msg)
{
    if (msg.type == tls::HandshakeType::middlebox_hello ||
        msg.type == tls::HandshakeType::middlebox_key_exchange)
        return handle_bundle_message(msg);
    return is_client_ ? client_handle(msg) : server_handle(msg);
}

Status Session::handle_bundle_message(const tls::HandshakeMessage& msg)
{
    Bytes wire = msg.serialize();
    if (msg.type == tls::HandshakeType::middlebox_hello) {
        auto hello = MiddleboxHello::parse(msg.body);
        if (!hello) return core_.fail(hello.error().message);
        uint8_t i = hello.value().entity;
        if (i >= mbox_state_.size())
            return core_.fail(AlertDescription::illegal_parameter,
                              "mctls: middlebox entity out of range");
        MiddleboxState& mbox = mbox_state_[i];
        if (mbox.hello_seen)
            return core_.fail(AlertDescription::unexpected_message,
                              "mctls: duplicate middlebox hello");
        mbox.random = hello.value().random;
        mbox.chain = hello.value().chain;
        mbox.hello_seen = true;
        transcript_.add_bundle_part(i, 0, wire);
        crypto::count_hash(cfg_.ops);
        core_.trace(obs::EventType::hs_mbox_hello, i, wire.size());

        bool check = cfg_.trust && (is_client_ || cfg_.authenticate_middleboxes);
        if (check) {
            auto status =
                cfg_.trust->verify_chain(mbox.chain, mbox.info.name, cfg_.now);
            if (!status)
                return core_.fail(AlertDescription::bad_certificate,
                                  "mctls: middlebox auth: " + status.error().message);
        }
        return {};
    }

    auto kx = MiddleboxKeyExchange::parse(msg.body);
    if (!kx) return core_.fail(kx.error().message);
    uint8_t i = kx.value().entity;
    if (i >= mbox_state_.size())
        return core_.fail(AlertDescription::illegal_parameter,
                          "mctls: middlebox entity out of range");
    MiddleboxState& mbox = mbox_state_[i];
    if (!mbox.hello_seen)
        return core_.fail(AlertDescription::unexpected_message,
                          "mctls: middlebox key exchange before hello");

    bool check = cfg_.trust && (is_client_ || cfg_.authenticate_middleboxes);
    if (check) {
        if (mbox.chain.empty() ||
            !crypto::ed25519_verify(mbox.chain.front().public_key,
                                    kx.value().signed_payload(), kx.value().signature))
            return core_.fail(AlertDescription::decrypt_error,
                              "mctls: bad middlebox key exchange signature");
    }

    if (kx.value().recipient == kEntityClient) {
        if (mbox.kx_client_seen)
            return core_.fail(AlertDescription::unexpected_message,
                              "mctls: duplicate middlebox key exchange");
        mbox.kx_for_client = kx.value().public_key;
        mbox.kx_client_seen = true;
        transcript_.add_bundle_part(i, 1, wire);
    } else if (kx.value().recipient == kEntityServer) {
        if (mbox.kx_server_seen)
            return core_.fail(AlertDescription::unexpected_message,
                              "mctls: duplicate middlebox key exchange");
        mbox.kx_for_server = kx.value().public_key;
        mbox.kx_server_seen = true;
        transcript_.add_bundle_part(i, 2, wire);
    } else {
        return core_.fail(AlertDescription::illegal_parameter, "mctls: bad key exchange recipient");
    }
    crypto::count_hash(cfg_.ops);
    if (check) crypto::count_verify(cfg_.ops);

    // Client: the server flight is complete once SHD and every bundle landed.
    if (is_client_ && at(Step::wait_server_flight) && shd_seen_) {
        bool all = std::all_of(mbox_state_.begin(), mbox_state_.end(),
                               [](const MiddleboxState& m) { return m.complete(); });
        if (all) return client_send_second_flight();
    }
    return {};
}

Status Session::client_handle(const tls::HandshakeMessage& msg)
{
    Bytes wire = msg.serialize();
    switch (msg.type) {
    case tls::HandshakeType::server_hello: {
        if (!at(Step::wait_server_flight))
            return core_.fail(AlertDescription::unexpected_message,
                              "mctls: unexpected ServerHello");
        auto hello = tls::ServerHello::parse(msg.body);
        if (!hello) return core_.fail(hello.error().message);
        if (hello.value().cipher_suite != tls::kCipherSuiteX25519Ed25519Aes128Sha256)
            return core_.fail(AlertDescription::handshake_failure,
                              "mctls: unsupported cipher suite");
        server_random_ = hello.value().random;
        session_id_ = hello.value().session_id;
        auto mode = ServerModeExtension::parse(hello.value().extensions);
        if (!mode)
            return core_.fail(AlertDescription::decode_error, "mctls: bad server mode extension");
        ckd_ = mode.value().client_key_distribution;
        granted_ = mode.value().granted;
        apply_grants();
        transcript_.set(Transcript::Slot::server_hello, wire);
        crypto::count_hash(cfg_.ops);
        if (cfg_.ticket && cfg_.ticket->valid() && !session_id_.empty() &&
            session_id_ == cfg_.ticket->session_id)
            return client_accept_resumption(wire);
        return {};
    }
    case tls::HandshakeType::certificate: {
        auto certs = tls::CertificateMsg::parse(msg.body);
        if (!certs) return core_.fail(certs.error().message);
        transcript_.set(Transcript::Slot::server_certificate, wire);
        crypto::count_hash(cfg_.ops);
        if (cfg_.trust) {
            auto status =
                cfg_.trust->verify_chain(certs.value().chain, cfg_.server_name, cfg_.now);
            if (!status) return core_.fail(status.error().message);
        }
        server_chain_ = certs.take().chain;
        return {};
    }
    case tls::HandshakeType::server_key_exchange: {
        auto kx = tls::KeyExchange::parse(msg.type, msg.body);
        if (!kx) return core_.fail(kx.error().message);
        if (server_chain_.empty())
            return core_.fail(AlertDescription::unexpected_message,
                              "mctls: SKE before certificate");
        if (!crypto::ed25519_verify(server_chain_.front().public_key,
                                    kx.value().signed_payload(), kx.value().signature))
            return core_.fail(AlertDescription::decrypt_error, "mctls: bad SKE signature");
        crypto::count_verify(cfg_.ops);
        peer_dh_public_ = kx.value().public_key;
        transcript_.set(Transcript::Slot::server_key_exchange, wire);
        crypto::count_hash(cfg_.ops);
        return {};
    }
    case tls::HandshakeType::server_hello_done: {
        transcript_.set(Transcript::Slot::server_hello_done, wire);
        crypto::count_hash(cfg_.ops);
        shd_seen_ = true;
        core_.trace(obs::EventType::hs_server_flight, 0, core_.counters.handshake_wire_bytes);
        bool all = std::all_of(mbox_state_.begin(), mbox_state_.end(),
                               [](const MiddleboxState& m) { return m.complete(); });
        if (all) return client_send_second_flight();
        return {};
    }
    case tls::HandshakeType::middlebox_key_material: {
        auto km = MiddleboxKeyMaterial::parse(msg.body);
        if (!km) return core_.fail(km.error().message);
        if (km.value().sender != kEntityServer)
            return core_.fail(AlertDescription::illegal_parameter,
                              "mctls: bad key material sender");
        if (km.value().entity != kEntityClient) return {};  // destined to a middlebox
        return unseal_middlebox_material_from_peer(km.value());
    }
    case tls::HandshakeType::finished:
        return verify_peer_finished(msg);
    default:
        return core_.fail(AlertDescription::unexpected_message,
                          "mctls: unexpected handshake message at client");
    }
}

Status Session::server_handle(const tls::HandshakeMessage& msg)
{
    Bytes wire = msg.serialize();
    switch (msg.type) {
    case tls::HandshakeType::client_hello: {
        if (!at(Step::wait_client_hello))
            return core_.fail(AlertDescription::unexpected_message,
                              "mctls: unexpected ClientHello");
        auto hello = tls::ClientHello::parse(msg.body);
        if (!hello) return core_.fail(hello.error().message);
        bool suite_ok = false;
        for (uint16_t s : hello.value().cipher_suites)
            suite_ok |= s == tls::kCipherSuiteX25519Ed25519Aes128Sha256;
        if (!suite_ok)
            return core_.fail(AlertDescription::handshake_failure, "mctls: no common cipher suite");
        core_.trace(obs::EventType::hs_client_hello, 0, msg.body.size());
        client_random_ = hello.value().random;
        auto ext = MiddleboxListExtension::parse(hello.value().extensions);
        if (!ext)
            return core_.fail(AlertDescription::decode_error,
                              "mctls: bad middlebox list: " + ext.error().message);
        middleboxes_ = ext.value().middleboxes;
        contexts_ = ext.value().contexts;
        table_.assign(contexts_);
        mbox_state_.resize(middleboxes_.size());
        for (size_t i = 0; i < middleboxes_.size(); ++i) mbox_state_[i].info = middleboxes_[i];
        transcript_.set(Transcript::Slot::client_hello, wire);
        crypto::count_hash(cfg_.ops);

        server_random_ = cfg_.rng->bytes(tls::kRandomSize);
        own_secret_ = cfg_.rng->bytes(32);

        if (server_try_resumption(hello.value())) return server_send_resumed_flight(wire);
        if (!hello.value().session_id.empty())
            core_.trace(obs::EventType::hs_resume_reject, 0, hello.value().session_id.size());

        ckd_ = cfg_.client_key_distribution;
        set_grants([&](size_t c, size_t m) {
            Permission req = contexts_[c].permissions[m];
            return cfg_.policy && !ckd_ ? cfg_.policy(middleboxes_[m], contexts_[c], req) : req;
        });

        auto kp = crypto::x25519_keypair(*cfg_.rng);
        dh_private_ = kp.private_key;

        Bytes flight;
        tls::ServerHello sh;
        sh.random = server_random_;
        if (cfg_.session_cache) {
            // The id this session will be cached under once established;
            // clients and middleboxes snapshot it for later resumption.
            session_id_ = cfg_.rng->bytes(tls::kSessionIdSize);
            sh.session_id = session_id_;
        }
        ServerModeExtension mode{ckd_, granted_};
        sh.extensions = mode.serialize();
        Bytes sh_wire = sh.to_message().serialize();
        transcript_.set(Transcript::Slot::server_hello, sh_wire);
        crypto::count_hash(cfg_.ops);
        append(flight, sh_wire);

        tls::CertificateMsg certs{cfg_.chain};
        Bytes cert_wire = certs.to_message().serialize();
        transcript_.set(Transcript::Slot::server_certificate, cert_wire);
        crypto::count_hash(cfg_.ops);
        append(flight, cert_wire);

        tls::KeyExchange ske;
        ske.msg_type = tls::HandshakeType::server_key_exchange;
        ske.entity = kEntityServer;
        ske.public_key = kp.public_key;
        ske.signature = crypto::ed25519_sign(cfg_.private_key, ske.signed_payload());
        crypto::count_sign(cfg_.ops);
        Bytes ske_wire = ske.to_message().serialize();
        transcript_.set(Transcript::Slot::server_key_exchange, ske_wire);
        crypto::count_hash(cfg_.ops);
        append(flight, ske_wire);

        Bytes shd_wire = tls::HandshakeMessage{tls::HandshakeType::server_hello_done, {}}
                             .serialize();
        transcript_.set(Transcript::Slot::server_hello_done, shd_wire);
        crypto::count_hash(cfg_.ops);
        append(flight, shd_wire);

        core_.queue_flight(flight);
        step_ = Step::wait_client_flight;
        core_.trace(obs::EventType::hs_server_flight, 0, core_.counters.handshake_wire_bytes);
        return {};
    }
    case tls::HandshakeType::client_key_exchange: {
        if (!at(Step::wait_client_flight))
            return core_.fail(AlertDescription::unexpected_message, "mctls: unexpected CKE");
        auto kx = tls::ClientKeyExchange::parse(msg.body);
        if (!kx) return core_.fail(kx.error().message);
        peer_dh_public_ = kx.value().public_key;
        transcript_.set(Transcript::Slot::client_key_exchange, wire);
        crypto::count_hash(cfg_.ops);
        return derive_endpoint_secrets();
    }
    case tls::HandshakeType::middlebox_key_material: {
        auto km = MiddleboxKeyMaterial::parse(msg.body);
        if (!km) return core_.fail(km.error().message);
        if (km.value().sender != kEntityClient)
            return core_.fail(AlertDescription::illegal_parameter,
                              "mctls: bad key material sender");
        transcript_.add_client_key_material(km.value().entity, wire);
        crypto::count_hash(cfg_.ops);
        if (km.value().entity != kEntityServer) return {};  // destined to a middlebox
        if (ckd_)
            return core_.fail(AlertDescription::unexpected_message,
                              "mctls: unexpected endpoint key material in CKD mode");
        return unseal_middlebox_material_from_peer(km.value());
    }
    case tls::HandshakeType::finished: {
        if (auto s = verify_peer_finished(msg); !s) return s;
        if (resumed_) return {};  // abbreviated flight already sent
        return server_send_final_flight();
    }
    default:
        return core_.fail(AlertDescription::unexpected_message,
                          "mctls: unexpected handshake message at server");
    }
}

// A low-order or wrong-length share (the unsigned CKE can be rewritten on
// path) fails the handshake, as it does at a middlebox.
Status Session::derive_endpoint_secrets()
{
    auto pre = crypto::x25519_shared(dh_private_, peer_dh_public_);
    if (!pre)
        return core_.fail(AlertDescription::illegal_parameter, "mctls: degenerate DH share");
    crypto::count_secret(cfg_.ops);
    s_cs_ = derive_shared_secret(pre.value(), client_random_, server_random_);
    derive_endpoint_secrets_from_scs();
    return {};
}

// The key schedule below S_C-S: everything the abbreviated handshake re-runs
// with fresh randoms and a fresh partial-key seed, but no DH exchange.
void Session::derive_endpoint_secrets_from_scs()
{
    endpoint_keys_ = derive_endpoint_keys(s_cs_, client_random_, server_random_);
    crypto::count_keygen(cfg_.ops);  // K_endpoints

    // The control context's keys protect the Finished messages.
    auto control = [&](size_t dir) {
        return tls::CbcHmacProtector(endpoint_keys_.control_enc[dir].expanded(),
                                     endpoint_keys_.record_mac[dir].expanded());
    };
    size_t send_dir = is_client_ ? 0 : 1;
    core_.set_protectors(control(send_dir), control(1 - send_dir));

    if (ckd_) {
        for (ContextEntry& ctx : table_.entries()) {
            ctx.keys = derive_context_keys_ckd(s_cs_, client_random_, server_random_, ctx.desc.id);
            crypto::count_keygen(cfg_.ops, 2);  // reader + writer keys
        }
    } else {
        derive_own_halves(own_secret_);
    }
    core_.trace(obs::EventType::hs_key_distribution, 0, contexts_.size(), ckd_ ? 1 : 0);

    keylog_endpoint_keys(cfg_.keylog, client_random_, endpoint_keys_);
    // CKD context keys are final here; contributory keys are logged once
    // both halves combine (unseal_middlebox_material_from_peer).
    if (ckd_) keylog_contexts(/*epoch=*/0, /*pending=*/false);
}

void Session::keylog_contexts(uint32_t epoch, bool pending) const
{
    if (!cfg_.keylog) return;
    for (unsigned id = 1; id <= kMaxContexts; ++id) {
        const ContextEntry* ctx = table_.find(static_cast<uint8_t>(id));
        if (ctx)
            keylog_context_keys(cfg_.keylog, client_random_, epoch, ctx->desc.id,
                                pending ? *ctx->next : ctx->keys);
    }
}

// ---- Context-key halves: one path for the handshake, resumption and rekey

void Session::derive_own_halves(ConstBytes secret)
{
    crypto::HmacKey key(secret);
    for (ContextEntry& ctx : table_.entries()) {
        ctx.own_half =
            derive_partial_keys(key, is_client_ ? client_random_ : server_random_, ctx.desc.id);
        crypto::count_keygen(cfg_.ops, 2);  // K^E_readers, K^E_writers
    }
}

Bytes Session::seal_middlebox_material(size_t mbox_index, ConstBytes ad)
{
    std::vector<MiddleboxMaterialEntry> entries;
    for (const ContextEntry& ctx : table_.entries()) {
        Permission perm = ctx.desc.permissions.at(mbox_index);
        if (perm == Permission::none) continue;
        MiddleboxMaterialEntry entry;
        entry.context_id = ctx.desc.id;
        entry.permission = perm;
        if (ckd_) {
            entry.complete_keys = ctx.keys.serialize(perm == Permission::write);
        } else {
            entry.reader_half = ctx.own_half.value().reader_half;
            if (perm == Permission::write) entry.writer_half = ctx.own_half.value().writer_half;
        }
        entries.push_back(std::move(entry));
    }
    Bytes sealed = authenc_seal(mbox_state_[mbox_index].pairwise, ad,
                                serialize_middlebox_material(entries), core_.iv_source());
    crypto::count_enc(cfg_.ops);
    return sealed;
}

Bytes Session::seal_endpoint_material(ConstBytes ad)
{
    std::vector<EndpointMaterialEntry> entries;
    for (const ContextEntry& ctx : table_.entries())
        entries.push_back({ctx.desc.id, ctx.own_half.value()});
    Bytes sealed = authenc_seal(endpoint_keys_.key_material, ad,
                                serialize_endpoint_material(entries), core_.iv_source());
    crypto::count_enc(cfg_.ops);
    return sealed;
}

Status Session::open_endpoint_material(ConstBytes sealed, ConstBytes ad, const char* what)
{
    auto plain = authenc_open(endpoint_keys_.key_material, ad, sealed);
    if (!plain)
        return core_.fail(AlertDescription::decrypt_error,
                          std::string(what) + ": " + plain.error().message);
    crypto::count_dec(cfg_.ops);
    auto entries = parse_endpoint_material(plain.value());
    if (!entries) return core_.fail(entries.error().message);
    for (ContextEntry& ctx : table_.entries()) ctx.peer_half.reset();
    for (const auto& e : entries.value()) {
        ContextEntry* ctx = table_.find(e.context_id);
        if (!ctx)
            return core_.fail(AlertDescription::illegal_parameter,
                              "mctls: key material for unknown context");
        ctx->peer_half = e.partial;
    }
    return {};
}

Status Session::combine_halves(const char* missing, bool pending)
{
    for (ContextEntry& ctx : table_.entries()) {
        if (!ctx.own_half || !ctx.peer_half)
            return core_.fail(AlertDescription::handshake_failure, missing);
        const PartialContextKeys& client_half = is_client_ ? *ctx.own_half : *ctx.peer_half;
        const PartialContextKeys& server_half = is_client_ ? *ctx.peer_half : *ctx.own_half;
        ContextKeys keys =
            combine_context_keys(client_half, server_half, client_random_, server_random_);
        crypto::count_keygen(cfg_.ops, 2);  // K_readers, K_writers
        if (pending)
            ctx.next = std::make_unique<ContextKeys>(std::move(keys));
        else
            ctx.keys = std::move(keys);
    }
    return {};
}

Status Session::unseal_middlebox_material_from_peer(const MiddleboxKeyMaterial& km)
{
    Status s = open_endpoint_material(km.sealed, key_material_ad(km.sender, km.entity),
                                      "mctls: endpoint key material");
    if (!s) return s;
    peer_material_received_ = true;
    s = combine_halves("mctls: missing context key halves", /*pending=*/false);
    if (s) keylog_contexts(/*epoch=*/0, /*pending=*/false);
    return s;
}

Status Session::client_send_second_flight()
{
    // K_C-M with every middlebox.
    for (auto& mbox : mbox_state_) {
        auto pre = crypto::x25519_shared(dh_private_, mbox.kx_for_client);
        if (!pre)
            return core_.fail(AlertDescription::illegal_parameter,
                              "mctls: degenerate middlebox DH share");
        crypto::count_secret(cfg_.ops);
        Bytes s_cm = derive_shared_secret(pre.value(), client_random_, mbox.random);
        mbox.pairwise = derive_pairwise_key(s_cm, client_random_, mbox.random);
        crypto::count_keygen(cfg_.ops);
    }
    if (auto s = derive_endpoint_secrets(); !s) return s;

    Bytes flight;
    tls::ClientKeyExchange cke{crypto::x25519_public_key(dh_private_)};
    Bytes cke_wire = cke.to_message().serialize();
    transcript_.set(Transcript::Slot::client_key_exchange, cke_wire);
    crypto::count_hash(cfg_.ops);
    append(flight, cke_wire);

    for (size_t i = 0; i < mbox_state_.size(); ++i) {
        Bytes km_wire = middlebox_material_message(i);
        transcript_.add_client_key_material(static_cast<uint8_t>(i), km_wire);
        crypto::count_hash(cfg_.ops);
        append(flight, km_wire);
    }
    if (!ckd_) {
        Bytes km_wire = endpoint_material_message();
        transcript_.add_client_key_material(kEntityServer, km_wire);
        crypto::count_hash(cfg_.ops);
        append(flight, km_wire);
    }

    transcript_.set_client_finished(
        core_.queue_flight(flight, finished_verify_data("client finished", false)));
    step_ = Step::wait_server_second;
    return {};
}

Status Session::server_send_final_flight()
{
    Bytes flight;
    if (!ckd_) {
        for (size_t i = 0; i < mbox_state_.size(); ++i) {
            MiddleboxState& mbox = mbox_state_[i];
            if (!mbox.complete())
                return core_.fail(AlertDescription::handshake_failure,
                                  "mctls: incomplete middlebox bundle at server");
            auto pre = crypto::x25519_shared(dh_private_, mbox.kx_for_server);
            if (!pre)
                return core_.fail(AlertDescription::illegal_parameter,
                                  "mctls: degenerate middlebox DH share");
            crypto::count_secret(cfg_.ops);
            Bytes s_sm = derive_shared_secret(pre.value(), server_random_, mbox.random);
            mbox.pairwise = derive_pairwise_key(s_sm, server_random_, mbox.random);
            crypto::count_keygen(cfg_.ops);

            append(flight, middlebox_material_message(i));
        }
        append(flight, endpoint_material_message());
    }

    core_.queue_flight(flight, finished_verify_data("server finished", true));
    core_.establish();
    handshake_ever_complete_ = true;
    core_.trace(obs::EventType::hs_complete, 0, core_.counters.handshake_wire_bytes);
    if (cfg_.session_cache && !session_id_.empty()) cfg_.session_cache->put(ticket());
    return {};
}

Bytes Session::finished_verify_data(const char* label, bool include_client_finished)
{
    Bytes digest = transcript_.hash(include_client_finished);
    crypto::count_hash(cfg_.ops);
    return crypto::prf(s_cs_, label, digest, tls::kVerifyDataSize);
}

Status Session::verify_peer_finished(const tls::HandshakeMessage& msg)
{
    auto fin = tls::Finished::parse(msg.body);
    if (!fin) return core_.fail(fin.error().message);
    if (!core_.ccs_received())
        return core_.fail(AlertDescription::unexpected_message, "mctls: Finished before CCS");

    if (is_client_) {
        if (!at(Step::wait_server_second))
            return core_.fail(AlertDescription::unexpected_message, "mctls: unexpected Finished");
        if (!ckd_ && !peer_material_received_)
            return core_.fail(AlertDescription::unexpected_message,
                              "mctls: Finished before server key material");
        Bytes expected = resumed_ ? resumed_finished_verify_data("server finished")
                                  : finished_verify_data("server finished", true);
        if (!crypto::ct_equal(expected, fin.value().verify_data))
            return core_.fail(AlertDescription::decrypt_error,
                              "mctls: server Finished verification failed");
        core_.trace(obs::EventType::hs_finished_verified);
        if (resumed_) {
            append(resumed_transcript_, msg.serialize());
            crypto::count_hash(cfg_.ops);
            return client_send_resumed_flight();
        }
        core_.establish();
        handshake_ever_complete_ = true;
        core_.trace(obs::EventType::hs_complete, 0, core_.counters.handshake_wire_bytes);
        return {};
    }

    // Server verifying the client's Finished.
    if (!at(Step::wait_client_flight))
        return core_.fail(AlertDescription::unexpected_message, "mctls: unexpected Finished");
    if (!resumed_ && peer_dh_public_.empty())
        return core_.fail(AlertDescription::unexpected_message, "mctls: Finished before CKE");
    if (!ckd_ && !peer_material_received_)
        return core_.fail(AlertDescription::unexpected_message,
                          "mctls: Finished before client key material");
    Bytes expected = resumed_ ? resumed_finished_verify_data("client finished")
                              : finished_verify_data("client finished", false);
    if (!crypto::ct_equal(expected, fin.value().verify_data))
        return core_.fail(AlertDescription::decrypt_error,
                          "mctls: client Finished verification failed");
    core_.trace(obs::EventType::hs_finished_verified);
    if (resumed_) {
        core_.establish();
        handshake_ever_complete_ = true;
        core_.trace(obs::EventType::hs_complete, 0, core_.counters.handshake_wire_bytes);
        // Refresh the cache entry: after an excision this narrows the stored
        // composition to the surviving middleboxes.
        if (cfg_.session_cache && !session_id_.empty()) cfg_.session_cache->put(ticket());
        return {};
    }
    transcript_.set_client_finished(msg.serialize());
    crypto::count_hash(cfg_.ops);
    return {};
}

Status Session::handle_app_record(uint8_t context_id, ConstBytes payload)
{
    // Pop the incoming transport span context before any failure path so a
    // bad-MAC record still consumes its context and the FIFO stays aligned.
    obs::SpanContext in_ctx = core_.units.pop_rx_span();
    if (!core_.established())
        return core_.fail(AlertDescription::unexpected_message, "mctls: early application data");
    ContextEntry* ctx = table_.find(context_id);
    if (!ctx)
        return core_.fail(AlertDescription::illegal_parameter, "mctls: record for unknown context");

    Direction dir = is_client_ ? Direction::server_to_client : Direction::client_to_server;
    StageNanos stage_ns;
    StageNanos* tp = (obs::span_on(core_.spans()) && in_ctx.valid()) ? &stage_ns : nullptr;
    auto opened = open_record_endpoint(ctx->keys, endpoint_keys_, dir, app_recv_seq_,
                                       context_id, payload, open_scratch_, tp);
    if (!opened) {
        core_.note_mac_failure(context_id, payload.size());
        return core_.fail(AlertDescription::bad_record_mac, opened.error().message);
    }
    ++app_recv_seq_;
    // Receiving endpoint checks 2 of the record's 3 MACs: the writer MAC
    // (authenticity) and the endpoint MAC (modification detection).
    core_.counters.macs_verified += 2;
    ++core_.counters.app_records_received;
    ctx->stats.bytes_in += opened.value().payload.size();
    ++ctx->stats.records_in;
    core_.trace(obs::EventType::record_open, context_id,
                opened.value().payload.size(), 2, in_ctx.trace_id);
    if (tp) {
        core_.emit_span(in_ctx, obs::Stage::decrypt_verify, context_id,
                        stage_ns.mac_ns + stage_ns.cipher_ns, stage_ns.macs);
        core_.emit_span(in_ctx, obs::Stage::deliver, context_id, 0,
                        opened.value().payload.size());
    }
    app_chunks_.push_back(
        {context_id, to_bytes(opened.value().payload), opened.value().from_endpoint});
    return {};
}

Status Session::send_app_data(uint8_t context_id, ConstBytes data)
{
    if (!core_.established()) return err("mctls: not established");
    if (core_.close_sent()) return err("mctls: send after close");
    ContextEntry* ctx = table_.find(context_id);
    if (!ctx) return err("mctls: unknown context");

    Direction dir = is_client_ ? Direction::client_to_server : Direction::server_to_client;
    size_t off = 0;
    do {
        size_t take = std::min(kAppChunkLimit, data.size() - off);
        // Build the wire unit in place: header, then seal straight into the
        // same buffer (one allocation, no intermediate fragment copy).
        size_t body = sealed_record_size(take);
        Bytes wire;
        wire.reserve(core_.codec.header_size() + body);
        StageNanos stage_ns;
        StageNanos* tp = obs::span_on(core_.spans()) ? &stage_ns : nullptr;
        uint64_t encode_ns = 0;
        std::chrono::steady_clock::time_point t0;
        if (tp) t0 = std::chrono::steady_clock::now();
        core_.codec.encode_header_into(tls::ContentType::application_data, context_id, body,
                                       wire);
        if (tp)
            encode_ns = static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
        seal_record_into(ctx->keys, endpoint_keys_, dir, app_send_seq_, context_id,
                         data.subspan(off, take), core_.iv_source(), wire, tp);
        obs::SpanContext rec;  // this record's trace (invalid when untraced)
        if (tp) {
            // Root span for this record's trace, plus CPU-stage children.
            // Sim time does not advance inside the session, so the root is
            // an instant here; its true end is the final deliver span.
            rec = core_.begin_record_trace(context_id, take);
            core_.emit_span(rec, obs::Stage::encode, context_id, encode_ns, wire.size());
            core_.emit_span(rec, obs::Stage::mac, context_id, stage_ns.mac_ns, stage_ns.macs);
            core_.emit_span(rec, obs::Stage::encrypt, context_id, stage_ns.cipher_ns, take);
        }
        ++app_send_seq_;
        core_.counters.app_overhead_bytes += wire.size() - take;
        ++core_.counters.app_records_sent;
        // seal_record computes all three MACs (endpoints, writers, readers).
        core_.counters.macs_generated += 3;
        ctx->stats.bytes_out += take;
        ++ctx->stats.records_out;
        core_.trace(obs::EventType::record_seal, context_id, take, 3, rec.trace_id);
        core_.units.push(std::move(wire));
        if (rec.valid()) core_.units.tag_last(rec);
        off += take;
    } while (off < data.size());
    return {};
}

// ---- Session continuity: resumption --------------------------------------

ResumptionTicket Session::ticket() const
{
    ResumptionTicket t;
    // A completed handshake mints a ticket for good: a later transport loss
    // or middlebox failure is exactly the situation resumption recovers
    // from, and does not taint the negotiated key material.
    if (!handshake_ever_complete_) return t;
    t.session_id = session_id_;
    t.s_cs = s_cs_;
    t.ckd = ckd_;
    t.middleboxes = middleboxes_;
    t.contexts = contexts_;
    t.granted = granted_;
    for (const auto& m : mbox_state_) t.pairwise.push_back(m.pairwise.raw());
    return t;
}

bool Session::server_try_resumption(const tls::ClientHello& hello)
{
    if (!cfg_.session_cache || hello.session_id.empty()) return false;
    const ResumptionTicket* t = cfg_.session_cache->find(hello.session_id);
    if (!t || !t->valid()) return false;
    if (t->ckd != cfg_.client_key_distribution) return false;
    if (t->pairwise.size() != t->middleboxes.size()) return false;
    // The requested composition must be a subset of the cached one: every
    // middlebox (by name) and every context id must appear in the ticket.
    // A shorter middlebox list is an excision of the missing boxes.
    for (const auto& m : middleboxes_)
        if (t->find_middlebox(m.name) < 0) return false;
    for (const auto& ctx : contexts_) {
        bool found = false;
        for (const auto& tc : t->contexts) found |= tc.id == ctx.id;
        if (!found) return false;
    }

    resumed_ = true;
    session_id_ = hello.session_id;
    s_cs_ = t->s_cs;
    ckd_ = t->ckd;
    // Grants are capped at what the original session granted — resumption
    // cannot widen a middlebox's access, only narrow it.
    set_grants([&](size_t c, size_t m) {
        int tm = t->find_middlebox(middleboxes_[m].name);
        Permission original = Permission::none;
        for (size_t tc = 0; tc < t->contexts.size(); ++tc) {
            if (t->contexts[tc].id != contexts_[c].id) continue;
            if (tm >= 0 && tc < t->granted.size() &&
                static_cast<size_t>(tm) < t->granted[tc].size())
                original = t->granted[tc][tm];
        }
        return min_permission(contexts_[c].permissions[m], original);
    });
    for (size_t i = 0; i < middleboxes_.size(); ++i) {
        int tm = t->find_middlebox(middleboxes_[i].name);
        mbox_state_[i].pairwise = AuthEncKey(t->pairwise[static_cast<size_t>(tm)]);
    }
    return true;
}

Status Session::server_send_resumed_flight(ConstBytes client_hello_wire)
{
    core_.trace(obs::EventType::hs_resume_accept, 0, middleboxes_.size());
    resumed_transcript_.assign(client_hello_wire.begin(), client_hello_wire.end());
    derive_endpoint_secrets_from_scs();

    Bytes flight;
    tls::ServerHello sh;
    sh.random = server_random_;
    sh.session_id = session_id_;  // the echo that accepts resumption
    ServerModeExtension mode{ckd_, granted_};
    sh.extensions = mode.serialize();
    Bytes sh_wire = sh.to_message().serialize();
    crypto::count_hash(cfg_.ops);
    append(resumed_transcript_, sh_wire);
    append(flight, sh_wire);

    if (!ckd_) {
        // Fresh server halves for every surviving middlebox, sealed under the
        // cached pairwise keys, plus the endpoint half for the client.
        for (size_t i = 0; i < mbox_state_.size(); ++i)
            append(flight, middlebox_material_message(i));
        append(flight, endpoint_material_message());
    }

    append(resumed_transcript_,
           core_.queue_flight(flight, resumed_finished_verify_data("server finished")));
    step_ = Step::wait_client_flight;
    return {};
}

Status Session::client_accept_resumption(ConstBytes server_hello_wire)
{
    resumed_ = true;
    s_cs_ = cfg_.ticket->s_cs;
    for (size_t i = 0; i < middleboxes_.size(); ++i) {
        int idx = cfg_.ticket->find_middlebox(middleboxes_[i].name);
        if (idx < 0 || static_cast<size_t>(idx) >= cfg_.ticket->pairwise.size())
            return core_.fail(AlertDescription::handshake_failure,
                              "mctls: resumed middlebox missing from ticket");
        mbox_state_[i].pairwise = AuthEncKey(cfg_.ticket->pairwise[static_cast<size_t>(idx)]);
    }
    append(resumed_transcript_, server_hello_wire);
    derive_endpoint_secrets_from_scs();
    step_ = Step::wait_server_second;
    core_.trace(obs::EventType::hs_resume_accept, 0, middleboxes_.size());
    return {};
}

Status Session::client_send_resumed_flight()
{
    Bytes flight;
    for (size_t i = 0; i < mbox_state_.size(); ++i) {
        Bytes km_wire = middlebox_material_message(i);
        crypto::count_hash(cfg_.ops);
        append(flight, km_wire);
    }
    if (!ckd_) append(flight, endpoint_material_message());

    core_.queue_flight(flight, resumed_finished_verify_data("client finished"));
    core_.establish();
    handshake_ever_complete_ = true;
    core_.trace(obs::EventType::hs_complete, 0, core_.counters.handshake_wire_bytes);
    return {};
}

// Resumed Finished messages authenticate a flat concatenated transcript
// (ClientHello || ServerHello for the server's, plus the server Finished for
// the client's). The slot-based Transcript cannot express the abbreviated
// flow's flipped ordering, and the flat form pins exactly the messages both
// sides have seen at each Finished.
Bytes Session::resumed_finished_verify_data(const char* label)
{
    crypto::Sha256 h;
    h.update(resumed_transcript_);
    auto digest = h.finish();
    crypto::count_hash(cfg_.ops);
    return crypto::prf(s_cs_, label, Bytes(digest.begin(), digest.end()),
                       tls::kVerifyDataSize);
}

// ---- Session continuity: in-band rekeying --------------------------------

Bytes Session::context_key_fingerprint(uint8_t context_id) const
{
    const ContextEntry* ctx = table_.find(context_id);
    if (!ctx || !ctx->keys.can_read()) return {};
    crypto::Sha256 h;
    h.update(ctx->keys.serialize(/*writer=*/true));
    auto digest = h.finish();
    return Bytes(digest.begin(), digest.end());
}

Status Session::initiate_rekey(const std::vector<std::string>& revoke)
{
    if (!is_client_) return err("mctls: only the client initiates a rekey");
    if (!core_.established()) return err("mctls: rekey before established");
    if (core_.close_sent()) return err("mctls: rekey after close");
    if (ckd_)
        return err("mctls: rekey requires contributory key mode");
    if (table_.pending_epoch()) return err("mctls: rekey already in progress");

    table_.begin_rekey(epoch_ + 1);
    rekey_revoked_ = revoke;
    derive_own_halves(cfg_.rng->bytes(32));

    auto revoked = [&](const std::string& name) {
        return std::find(rekey_revoked_.begin(), rekey_revoked_.end(), name) !=
               rekey_revoked_.end();
    };
    RekeyRecord rec;
    rec.phase = RekeyPhase::init;
    rec.epoch = epoch_ + 1;
    for (size_t i = 0; i < mbox_state_.size(); ++i) {
        if (revoked(middleboxes_[i].name)) continue;
        auto entity = static_cast<uint8_t>(i);
        rec.entries.push_back(
            {entity, seal_middlebox_material(i, rekey_ad(kEntityClient, entity, rec.epoch))});
    }
    rec.entries.push_back(
        {kEntityServer,
         seal_endpoint_material(rekey_ad(kEntityClient, kEntityServer, rec.epoch))});

    queue_rekey_record(rec);
    core_.trace(obs::EventType::rekey_init, 0, rec.epoch, rekey_revoked_.size());
    return {};
}

void Session::queue_rekey_record(const RekeyRecord& rec)
{
    tls::Record record{tls::ContentType::rekey, kControlContext, rec.serialize()};
    Bytes wire = core_.codec.encode(record);
    // Rekeys happen during the application phase; their cost is session
    // overhead, not handshake bytes (which tests use to detect re-handshakes).
    core_.counters.app_overhead_bytes += wire.size();
    core_.units.push(std::move(wire));
}

void Session::finish_rekey_if_switched()
{
    if (!table_.complete_rekey(epoch_)) return;
    ++rekeys_completed_;
    rekey_revoked_.clear();
    core_.trace(obs::EventType::rekey_complete, 0, epoch_);
}

Status Session::open_peer_halves(const RekeyRecord& rk)
{
    const RekeyEntry* own = nullptr;
    for (const auto& e : rk.entries)
        if (e.entity == self_entity()) own = &e;
    if (!own)
        return core_.fail(AlertDescription::illegal_parameter,
                          is_client_ ? "mctls: rekey response without endpoint entry"
                                     : "mctls: rekey init without endpoint entry");
    return open_endpoint_material(own->sealed, rekey_ad(peer_entity(), self_entity(), rk.epoch),
                                  "mctls: rekey material");
}

Status Session::handle_rekey_record(ConstBytes payload)
{
    if (!core_.established())
        return core_.fail(AlertDescription::unexpected_message, "mctls: early rekey record");
    auto parsed = RekeyRecord::parse(payload);
    if (!parsed) return core_.fail(AlertDescription::decode_error, parsed.error().message);
    const RekeyRecord& rk = parsed.value();

    if (is_client_) {
        // Only the server's response is legal here: it carries the fresh
        // server halves and doubles as the s->c key-switch marker.
        if (rk.phase != RekeyPhase::resp || table_.pending_epoch() != rk.epoch)
            return core_.fail(AlertDescription::unexpected_message,
                              "mctls: unexpected rekey record");
        if (auto st = open_peer_halves(rk); !st) return st;
        if (auto st = combine_halves("mctls: missing rekey halves", /*pending=*/true); !st)
            return st;
        keylog_contexts(rk.epoch, /*pending=*/true);
        table_.switch_direction(Direction::server_to_client);
        RekeyRecord commit;
        commit.phase = RekeyPhase::commit;
        commit.epoch = rk.epoch;
        queue_rekey_record(commit);
        table_.switch_direction(Direction::client_to_server);
        finish_rekey_if_switched();
        return {};
    }

    // Server.
    if (rk.phase == RekeyPhase::init) {
        if (table_.pending_epoch())
            return core_.fail(AlertDescription::unexpected_message, "mctls: overlapping rekey");
        if (ckd_)
            return core_.fail(AlertDescription::unexpected_message, "mctls: rekey in CKD mode");
        if (rk.epoch != epoch_ + 1)
            return core_.fail(AlertDescription::illegal_parameter,
                              "mctls: rekey epoch out of sequence");
        table_.begin_rekey(rk.epoch);
        core_.trace(obs::EventType::rekey_init, 0, rk.epoch);

        if (auto st = open_peer_halves(rk); !st) return st;
        derive_own_halves(cfg_.rng->bytes(32));
        if (auto st = combine_halves("mctls: missing rekey halves", /*pending=*/true); !st)
            return st;
        keylog_contexts(rk.epoch, /*pending=*/true);

        // Mirror the client's recipient list: a middlebox with no entry in
        // the init is being revoked and gets nothing from us either.
        RekeyRecord resp;
        resp.phase = RekeyPhase::resp;
        resp.epoch = rk.epoch;
        for (const auto& e : rk.entries) {
            if (e.entity >= mbox_state_.size()) continue;  // the endpoint entry
            resp.entries.push_back(
                {e.entity,
                 seal_middlebox_material(e.entity, rekey_ad(kEntityServer, e.entity, rk.epoch))});
        }
        resp.entries.push_back(
            {kEntityClient,
             seal_endpoint_material(rekey_ad(kEntityServer, kEntityClient, rk.epoch))});
        queue_rekey_record(resp);
        // The response doubles as our own send-direction switch marker.
        table_.switch_direction(Direction::server_to_client);
        return {};
    }
    if (rk.phase == RekeyPhase::commit) {
        if (table_.pending_epoch() != rk.epoch)
            return core_.fail(AlertDescription::unexpected_message,
                              "mctls: unexpected rekey commit");
        table_.switch_direction(Direction::client_to_server);
        finish_rekey_if_switched();
        return {};
    }
    return core_.fail(AlertDescription::unexpected_message, "mctls: unexpected rekey record");
}

obs::SessionStats Session::session_stats() const
{
    obs::SessionStats s;
    core_.fill_stats(s);
    s.established = core_.established() || core_.closed();
    s.resumed = resumed_;
    s.epoch = epoch_;
    s.rekeys = rekeys_completed_;
    for (const ContextEntry& ctx : table_.entries()) s.contexts.push_back(ctx.stats);
    return s;
}

std::vector<AppChunk> Session::take_app_data()
{
    return std::exchange(app_chunks_, {});
}

}  // namespace mct::mctls
