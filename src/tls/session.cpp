#include "tls/session.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "crypto/ct.h"
#include "crypto/ed25519.h"
#include "crypto/prf.h"
#include "crypto/sha2.h"
#include "crypto/x25519.h"
#include "tls/keylog.h"

namespace mct::tls {

namespace {

constexpr size_t kKeySize = crypto::Aes128::kKeySize;
constexpr size_t kMacKeySize = 32;

}  // namespace

Session::Session(SessionConfig cfg)
    : cfg_(std::move(cfg)),
      core_({.prefix = "tls",
             .actor = cfg_.trace_actor.empty()
                          ? (cfg_.role == Role::client ? "tls-client" : "tls-server")
                          : cfg_.trace_actor,
             .journal = cfg_.journal,
             .lane = cfg_.lane,
             .handshake_timeout = cfg_.handshake_timeout,
             .ops = cfg_.ops},
            tls::require_rng(cfg_.rng, "tls::Session"))
{
    step_ = cfg_.role == Role::client ? Step::idle : Step::wait_client_hello;
}

void Session::queue_handshake(const HandshakeMessage& msg, Bytes* flight)
{
    Bytes wire = msg.serialize();
    append(transcript_, wire);
    crypto::count_hash(cfg_.ops);
    append(*flight, wire);
}

void Session::start()
{
    if (cfg_.role != Role::client || !at(Step::idle))
        throw std::logic_error("tls::Session: start() is for idle clients");

    client_random_ = cfg_.rng->bytes(kRandomSize);
    // The public key is computed at ClientKeyExchange: a resumed session
    // never sends one, so it does no curve work at all.
    our_dh_private_ = crypto::x25519_private_key(*cfg_.rng);

    ClientHello hello;
    hello.random = client_random_;
    hello.cipher_suites = {kCipherSuiteX25519Ed25519Aes128Sha256};
    if (cfg_.ticket && cfg_.ticket->valid()) {
        hello.session_id = cfg_.ticket->session_id;
        core_.trace(obs::EventType::hs_resume_offer, 0, hello.session_id.size());
    }

    Bytes flight;
    queue_handshake(hello.to_message(), &flight);
    core_.queue_flight(flight);
    step_ = Step::wait_server_hello;
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

Status Session::handle_record_view(const RecordView& view)
{
    // Established app data is the hot path: decrypt straight from the codec
    // buffer into the receive scratch, no owning Record in between.
    if (view.type == ContentType::application_data && core_.established()) {
        // Pop the transport span context before any failure path (see
        // mctls::Session::handle_app_record for the alignment argument).
        obs::SpanContext in_ctx = core_.units.pop_rx_span();
        std::chrono::steady_clock::time_point t0;
        bool sp = obs::span_on(core_.spans()) && in_ctx.valid();
        if (sp) t0 = std::chrono::steady_clock::now();
        recv_scratch_.clear();
        auto plain =
            core_.recv_protector().unprotect_into(view.type, 0, view.payload, recv_scratch_);
        if (!plain) {
            core_.note_mac_failure(0, view.payload.size());
            return core_.fail(AlertDescription::bad_record_mac, "tls: " + plain.error().message);
        }
        if (sp) {
            uint64_t cpu = static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
            core_.emit_span(in_ctx, obs::Stage::decrypt_verify, 0, cpu, 1);
            core_.emit_span(in_ctx, obs::Stage::deliver, 0, 0, plain.value());
        }
        ++core_.counters.macs_verified;
        ++core_.counters.app_records_received;
        app_bytes_received_ += plain.value();
        core_.trace(obs::EventType::record_open, 0, plain.value(), 1, in_ctx.trace_id);
        append(app_data_, ConstBytes{recv_scratch_.data(), plain.value()});
        return {};
    }
    if (auto s = core_.handle_control_record(
            view, [this](const HandshakeMessage& msg) { return handle_handshake(msg); }))
        return *s;
    if (view.type == ContentType::rekey)
        // In-band rekeying is an mcTLS extension; baseline TLS rejects it.
        return core_.fail(AlertDescription::unexpected_message, "tls: unexpected rekey record");
    // Established app data never gets here (the fast path above).
    return core_.fail(AlertDescription::unexpected_message, "tls: early app data");
}

Status Session::handle_handshake(const HandshakeMessage& msg)
{
    if (at(Step::wait_server_hello)) return client_handle_server_flight(msg);
    if (at(Step::wait_client_hello)) return server_handle_client_hello(msg);
    if (at(Step::wait_client_finish)) return server_handle_second_flight(msg);
    if (at(Step::wait_server_finish)) return handle_finished(msg);
    return core_.fail(AlertDescription::unexpected_message, "tls: unexpected handshake message");
}

Status Session::client_handle_server_flight(const HandshakeMessage& msg)
{
    Bytes wire = msg.serialize();
    append(transcript_, wire);
    crypto::count_hash(cfg_.ops);

    switch (msg.type) {
    case HandshakeType::server_hello: {
        auto hello = ServerHello::parse(msg.body);
        if (!hello) return core_.fail(AlertDescription::decode_error, hello.error().message);
        if (hello.value().cipher_suite != kCipherSuiteX25519Ed25519Aes128Sha256)
            return core_.fail(AlertDescription::handshake_failure, "tls: unsupported cipher suite");
        server_random_ = hello.value().random;
        session_id_ = hello.value().session_id;
        if (cfg_.ticket && cfg_.ticket->valid() &&
            session_id_ == cfg_.ticket->session_id) {
            // Server echoed our offer: abbreviated handshake. Re-expand a
            // fresh key block from the cached master secret; the server's
            // CCS + Finished come next, no certificate or key exchange.
            resumed_ = true;
            master_secret_ = cfg_.ticket->master_secret;
            derive_key_block();
            step_ = Step::wait_server_finish;
            core_.trace(obs::EventType::hs_resume_accept);
        }
        return {};
    }
    case HandshakeType::certificate: {
        auto certs = CertificateMsg::parse(msg.body);
        if (!certs) return core_.fail(AlertDescription::decode_error, certs.error().message);
        peer_chain_ = certs.take().chain;
        if (cfg_.trust) {
            auto status = cfg_.trust->verify_chain(peer_chain_, cfg_.server_name, cfg_.now);
            if (!status)
                return core_.fail(AlertDescription::bad_certificate, status.error().message);
        }
        return {};
    }
    case HandshakeType::server_key_exchange: {
        auto kx = KeyExchange::parse(msg.type, msg.body);
        if (!kx) return core_.fail(AlertDescription::decode_error, kx.error().message);
        if (peer_chain_.empty())
            return core_.fail(AlertDescription::unexpected_message, "tls: SKE before certificate");
        if (!crypto::ed25519_verify(peer_chain_.front().public_key,
                                    kx.value().signed_payload(), kx.value().signature))
            return core_.fail(AlertDescription::decrypt_error, "tls: bad SKE signature");
        crypto::count_verify(cfg_.ops);  // entity authenticated (cert + key sig)
        peer_dh_public_ = kx.value().public_key;
        return {};
    }
    case HandshakeType::server_hello_done: {
        if (peer_dh_public_.empty())
            return core_.fail(AlertDescription::unexpected_message, "tls: hello done before SKE");
        core_.trace(obs::EventType::hs_server_flight, 0, core_.counters.handshake_wire_bytes);
        if (auto s = derive_keys(); !s) return s;

        Bytes flight;
        ClientKeyExchange cke{crypto::x25519_public_key(our_dh_private_)};
        queue_handshake(cke.to_message(), &flight);
        append(transcript_, core_.queue_flight(flight, finished_verify_data(/*ours=*/true)));
        step_ = Step::wait_server_finish;
        return {};
    }
    default:
        return core_.fail(AlertDescription::unexpected_message,
                          "tls: unexpected message in server flight");
    }
}

Status Session::server_handle_client_hello(const HandshakeMessage& msg)
{
    if (msg.type != HandshakeType::client_hello)
        return core_.fail(AlertDescription::unexpected_message, "tls: expected ClientHello");
    core_.trace(obs::EventType::hs_client_hello, 0, msg.body.size());
    Bytes wire = msg.serialize();
    append(transcript_, wire);
    crypto::count_hash(cfg_.ops);

    auto hello = ClientHello::parse(msg.body);
    if (!hello) return core_.fail(AlertDescription::decode_error, hello.error().message);
    bool suite_ok = false;
    for (uint16_t s : hello.value().cipher_suites)
        suite_ok |= s == kCipherSuiteX25519Ed25519Aes128Sha256;
    if (!suite_ok)
        return core_.fail(AlertDescription::handshake_failure, "tls: no common cipher suite");
    client_random_ = hello.value().random;

    server_random_ = cfg_.rng->bytes(kRandomSize);

    // Resumption offer: on a cache hit run the abbreviated flow — echo the
    // id, re-expand keys from the cached master secret, and answer with
    // CCS + Finished directly (1 RTT, no certificate / key exchange).
    const Bytes& offered = hello.value().session_id;
    if (!offered.empty() && cfg_.session_cache) {
        if (const TlsTicket* cached = cfg_.session_cache->find(offered)) {
            resumed_ = true;
            session_id_ = offered;
            master_secret_ = cached->master_secret;
            core_.trace(obs::EventType::hs_resume_accept);

            Bytes flight;
            ServerHello sh;
            sh.random = server_random_;
            sh.session_id = session_id_;
            queue_handshake(sh.to_message(), &flight);
            derive_key_block();
            append(transcript_, core_.queue_flight(flight, finished_verify_data(/*ours=*/true)));
            step_ = Step::wait_client_finish;
            return {};
        }
        core_.trace(obs::EventType::hs_resume_reject);
    }

    auto kp = crypto::x25519_keypair(*cfg_.rng);
    our_dh_private_ = kp.private_key;

    Bytes flight;
    ServerHello sh;
    sh.random = server_random_;
    // Fresh id the completed session will be cached under (resumption miss
    // or first contact); clients treat a non-echoed id as "full handshake".
    if (cfg_.session_cache) {
        session_id_ = cfg_.rng->bytes(kSessionIdSize);
        sh.session_id = session_id_;
    }
    queue_handshake(sh.to_message(), &flight);

    CertificateMsg certs{cfg_.chain};
    queue_handshake(certs.to_message(), &flight);

    KeyExchange ske;
    ske.msg_type = HandshakeType::server_key_exchange;
    ske.entity = 0xff;
    ske.public_key = kp.public_key;
    ske.signature = crypto::ed25519_sign(cfg_.private_key, ske.signed_payload());
    crypto::count_sign(cfg_.ops);
    queue_handshake(ske.to_message(), &flight);

    queue_handshake({HandshakeType::server_hello_done, {}}, &flight);
    core_.queue_flight(flight);
    step_ = Step::wait_client_finish;
    return {};
}

Status Session::server_handle_second_flight(const HandshakeMessage& msg)
{
    if (msg.type == HandshakeType::client_key_exchange) {
        if (resumed_)
            return core_.fail(AlertDescription::unexpected_message,
                              "tls: key exchange in abbreviated handshake");
        Bytes wire = msg.serialize();
        append(transcript_, wire);
        crypto::count_hash(cfg_.ops);
        auto kx = ClientKeyExchange::parse(msg.body);
        if (!kx) return core_.fail(AlertDescription::decode_error, kx.error().message);
        peer_dh_public_ = kx.value().public_key;
        return derive_keys();
    }
    if (msg.type == HandshakeType::finished) return handle_finished(msg);
    return core_.fail(AlertDescription::unexpected_message,
                      "tls: unexpected message in client flight");
}

// The key exchange messages carry the DH share as any vec8, and the CKE is
// unsigned, so a low-order point or a wrong-length key is the peer's (or an
// on-path party's) doing: fail the handshake.
Status Session::derive_keys()
{
    auto pre = crypto::x25519_shared(our_dh_private_, peer_dh_public_);
    if (!pre) return core_.fail(AlertDescription::illegal_parameter, "tls: degenerate DH share");
    crypto::count_secret(cfg_.ops);

    Bytes randoms = concat(client_random_, server_random_);
    master_secret_ = crypto::prf(pre.value(), "master secret", randoms, 48);
    derive_key_block();
    return {};
}

// Key-block expansion from an existing master secret — the part of the key
// schedule the abbreviated handshake re-runs with fresh randoms (no DH).
void Session::derive_key_block()
{
    // Covers the full handshake and both resumed paths (all of them come
    // through here), for either role.
    keylog_tls_master_secret(cfg_.keylog, client_random_, master_secret_);

    Bytes seed = concat(server_random_, client_random_);
    Bytes block =
        crypto::prf(master_secret_, "key expansion", seed, 2 * kMacKeySize + 2 * kKeySize);
    crypto::count_keygen(cfg_.ops);  // session key block, one logical key gen

    // client MAC | server MAC | client key | server key
    ConstBytes view{block};
    auto protector = [&](size_t side) {
        return CbcHmacProtector(view.subspan(2 * kMacKeySize + side * kKeySize, kKeySize),
                                view.subspan(side * kMacKeySize, kMacKeySize));
    };
    size_t send = cfg_.role == Role::client ? 0 : 1;
    core_.set_protectors(protector(send), protector(1 - send));
    core_.trace(obs::EventType::hs_key_distribution, 0, 1);
}

Bytes Session::finished_verify_data(bool ours) const
{
    const char* label =
        (cfg_.role == Role::client) == ours ? "client finished" : "server finished";
    Bytes digest = crypto::Sha256::digest(transcript_);
    crypto::count_hash(cfg_.ops);
    return crypto::prf(master_secret_, label, digest, kVerifyDataSize);
}

Status Session::handle_finished(const HandshakeMessage& msg)
{
    if (msg.type != HandshakeType::finished)
        return core_.fail(AlertDescription::unexpected_message, "tls: expected Finished");
    if (!core_.ccs_received())
        return core_.fail(AlertDescription::unexpected_message, "tls: Finished before CCS");
    auto fin = Finished::parse(msg.body);
    if (!fin) return core_.fail(AlertDescription::decode_error, fin.error().message);

    Bytes expected = finished_verify_data(/*ours=*/false);
    if (!crypto::ct_equal(expected, fin.value().verify_data))
        return core_.fail(AlertDescription::decrypt_error, "tls: Finished verification failed");

    append(transcript_, msg.serialize());
    crypto::count_hash(cfg_.ops);
    core_.trace(obs::EventType::hs_finished_verified);

    // Full handshake: the server answers the client's Finished. Abbreviated:
    // the order flips — the server spoke first, the client answers here.
    bool respond = resumed_ ? cfg_.role == Role::client : cfg_.role == Role::server;
    if (respond) append(transcript_, core_.queue_flight({}, finished_verify_data(/*ours=*/true)));
    core_.establish();
    if (cfg_.role == Role::server && cfg_.session_cache && !session_id_.empty())
        cfg_.session_cache->put({session_id_, master_secret_});
    core_.trace(obs::EventType::hs_complete, 0, core_.counters.handshake_wire_bytes);
    return {};
}

Status Session::send_app_data(ConstBytes data)
{
    if (!core_.established()) return err("tls: not established");
    if (core_.close_sent()) return err("tls: send after close");
    size_t off = 0;
    do {
        size_t take = std::min(kMaxFragment - 512, data.size() - off);
        ConstBytes chunk = data.subspan(off, take);
        // Build the wire unit in place: header, then seal straight into the
        // same buffer (one allocation, no intermediate fragment copy).
        size_t body = CbcHmacProtector::protected_size(chunk.size());
        Bytes wire;
        wire.reserve(core_.codec.header_size() + body);
        core_.codec.encode_header_into(ContentType::application_data, 0, body, wire);
        std::chrono::steady_clock::time_point t0;
        bool sp = obs::span_on(core_.spans());
        obs::SpanContext rec;  // this record's trace (invalid when untraced)
        if (sp) t0 = std::chrono::steady_clock::now();
        core_.send_protector().protect_into(ContentType::application_data, 0, chunk,
                                            core_.iv_source(), wire);
        if (sp) {
            // Baseline TLS gets a coarser breakdown than mcTLS: one root
            // plus a single encrypt child covering MAC+CBC (its protector
            // is one fused operation).
            uint64_t cpu = static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
            rec = core_.begin_record_trace(0, chunk.size());
            core_.emit_span(rec, obs::Stage::encrypt, 0, cpu, chunk.size());
        }
        core_.counters.app_overhead_bytes += wire.size() - chunk.size();
        ++core_.counters.app_records_sent;
        ++core_.counters.macs_generated;
        app_bytes_sent_ += chunk.size();
        core_.trace(obs::EventType::record_seal, 0, chunk.size(), 1, rec.trace_id);
        core_.units.push(std::move(wire));
        if (rec.valid()) core_.units.tag_last(rec);
        off += take;
    } while (off < data.size());
    return {};
}

obs::SessionStats Session::session_stats() const
{
    obs::SessionStats s;
    core_.fill_stats(s);
    s.established = core_.established() || core_.closed();
    s.resumed = resumed_;
    obs::ContextStats app;
    app.name = "app";
    app.id = 0;
    app.bytes_out = app_bytes_sent_;
    app.bytes_in = app_bytes_received_;
    app.records_out = core_.counters.app_records_sent;
    app.records_in = core_.counters.app_records_received;
    s.contexts.push_back(std::move(app));
    return s;
}

Bytes Session::take_app_data()
{
    return std::exchange(app_data_, {});
}

}  // namespace mct::tls
