#include "inspect/dissect.h"

#include <algorithm>
#include <array>
#include <memory>
#include <utility>

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "crypto/prf.h"
#include "mctls/context_crypto.h"
#include "mctls/resumption.h"
#include "tls/alert.h"
#include "tls/messages.h"

namespace mct::inspect {

namespace {

using mctls::ContextKeys;
using mctls::EndpointKeys;
using tls::ContentType;

const char* handshake_name(tls::HandshakeType t)
{
    switch (t) {
    case tls::HandshakeType::client_hello: return "ClientHello";
    case tls::HandshakeType::server_hello: return "ServerHello";
    case tls::HandshakeType::certificate: return "Certificate";
    case tls::HandshakeType::server_key_exchange: return "ServerKeyExchange";
    case tls::HandshakeType::server_hello_done: return "ServerHelloDone";
    case tls::HandshakeType::client_key_exchange: return "ClientKeyExchange";
    case tls::HandshakeType::finished: return "Finished";
    case tls::HandshakeType::middlebox_hello: return "MiddleboxHello";
    case tls::HandshakeType::middlebox_key_exchange: return "MiddleboxKeyExchange";
    case tls::HandshakeType::middlebox_key_material: return "MiddleboxKeyMaterial";
    }
    return "UnknownHandshake";
}

const char* rekey_phase_name(mctls::RekeyPhase p)
{
    switch (p) {
    case mctls::RekeyPhase::init: return "init";
    case mctls::RekeyPhase::resp: return "resp";
    case mctls::RekeyPhase::commit: return "commit";
    }
    return "?";
}

// A reassembled direction of one flow plus the (offset, transmit-ts) map of
// its segments, so records can be stamped with the time their first byte
// went on the wire.
struct Stream {
    Bytes data;
    std::vector<std::pair<uint64_t, uint64_t>> segments;  // (start offset, ts)
    bool fin = false;

    uint64_t ts_at(uint64_t offset) const
    {
        uint64_t ts = 0;
        for (const auto& [start, t] : segments) {
            if (start > offset) break;
            ts = t;
        }
        return ts;
    }
};

Stream reassemble_stream(const net::Capture& capture, uint32_t flow_id, uint8_t dir)
{
    Stream s;
    uint64_t expected = 0;
    for (const auto& frame : capture.frames) {
        if (frame.flow != flow_id || frame.dir != dir) continue;
        if (frame.kind == net::CaptureFrameKind::fin) {
            s.fin = true;
            continue;
        }
        if (frame.kind != net::CaptureFrameKind::data) continue;
        uint64_t end = frame.seq + frame.payload.size();
        // Cumulative acceptance, exactly like the go-back-N receiver: frames
        // at or before the expected offset extend the stream; frames beyond
        // it are out-of-order data whose gap will be retransmitted later in
        // capture order.
        if (frame.seq > expected || end <= expected) continue;
        size_t skip = static_cast<size_t>(expected - frame.seq);
        s.segments.emplace_back(expected, frame.ts);
        s.data.insert(s.data.end(), frame.payload.begin() + static_cast<long>(skip),
                      frame.payload.end());
        expected = end;
    }
    return s;
}

// Group flows into hop chains: a flow extends the most recently opened chain
// whose tail responder is the flow's initiator (client->m1->...->server).
// Reconnect attempts start fresh chains because nothing ends at "client".
std::vector<std::vector<const net::CaptureFlow*>> build_chains(const net::Capture& capture)
{
    std::vector<std::vector<const net::CaptureFlow*>> chains;
    std::vector<const net::CaptureFlow*> flows;
    for (const auto& f : capture.flows) flows.push_back(&f);
    std::sort(flows.begin(), flows.end(),
              [](const net::CaptureFlow* a, const net::CaptureFlow* b) { return a->id < b->id; });
    for (const auto* f : flows) {
        bool attached = false;
        for (auto it = chains.rbegin(); it != chains.rend(); ++it) {
            if (it->back()->responder == f->initiator) {
                it->push_back(f);
                attached = true;
                break;
            }
        }
        if (!attached) chains.push_back({f});
    }
    return chains;
}

// ---- Session info (hello exchange) -------------------------------------

// Parse handshake messages out of a stream under the given framing until
// `want` is seen (or the stream stops yielding records cleanly).
Result<tls::HandshakeMessage> first_message(ConstBytes stream, bool with_context_id,
                                            tls::HandshakeType want)
{
    tls::RecordCodec codec(with_context_id);
    codec.feed(stream);
    tls::HandshakeReader reader;
    while (true) {
        auto rec = codec.next_view();
        if (!rec) return rec.error();
        if (!rec.value().has_value()) return err("dissect: message not found");
        const auto& rv = *rec.value();
        if (rv.type != ContentType::handshake) return err("dissect: message not found");
        reader.feed(rv.payload);
        while (true) {
            auto msg = reader.next();
            if (!msg) return msg.error();
            if (!msg.value().has_value()) break;
            if (msg.value()->type == want) return std::move(*msg.value());
        }
    }
}

struct HelloInfo {
    bool parsed = false;
    tls::ClientHello ch;
    tls::ServerHello sh;
    mctls::MiddleboxListExtension mbox_ext;
    mctls::ServerModeExtension mode_ext;
};

// Try to read the hello exchange under one framing. For the mcTLS framing
// the ClientHello extensions must also parse as a MiddleboxListExtension —
// that is the signature that distinguishes the two 0x0303 streams.
bool try_hellos(ConstBytes c2s, ConstBytes s2c, bool mctls_framing, HelloInfo* out)
{
    auto chm = first_message(c2s, mctls_framing, tls::HandshakeType::client_hello);
    if (!chm) return false;
    auto ch = tls::ClientHello::parse(chm.value().body);
    if (!ch) return false;
    out->ch = ch.take();
    if (mctls_framing) {
        auto ext = mctls::MiddleboxListExtension::parse(out->ch.extensions);
        if (!ext) return false;
        out->mbox_ext = ext.take();
    }
    auto shm = first_message(s2c, mctls_framing, tls::HandshakeType::server_hello);
    if (!shm) return false;
    auto sh = tls::ServerHello::parse(shm.value().body);
    if (!sh) return false;
    out->sh = sh.take();
    if (mctls_framing && !out->sh.extensions.empty()) {
        auto mode = mctls::ServerModeExtension::parse(out->sh.extensions);
        if (!mode) return false;
        out->mode_ext = mode.take();
    }
    out->parsed = true;
    return true;
}

// ---- Per-record crypto --------------------------------------------------

bool tag_matches(const crypto::MacKey& key, ConstBytes mac_input, ConstBytes wire_tag)
{
    auto tag = crypto::hmac_sha256(key.expanded(), {mac_input});
    return wire_tag.size() == tag.size() &&
           std::equal(tag.begin(), tag.end(), wire_tag.begin());
}

// Independent triple-MAC verification: decrypt under the reader key and
// recompute each MAC from the same pseudo-header the sealer used. This
// deliberately does not go through open_record_* — those stop at the first
// failed check, while the audit wants the status of all three.
void check_app_record(const ContextKeys& ck, const EndpointKeys* ep, uint8_t dir,
                      uint64_t seq, uint8_t context_id, ConstBytes fragment,
                      DissectedRecord* rec)
{
    rec->keys_found = true;
    if (ck.reader_enc[dir].empty()) return;
    Bytes plain;
    if (!crypto::aes128_cbc_decrypt_into(ck.reader_enc[dir].expanded(), fragment, plain) ||
        plain.size() < 3 * mctls::kMacSize)
        return;  // decrypt failure
    rec->decrypted = true;
    ConstBytes all{plain};
    size_t n = all.size();
    ConstBytes payload = all.subspan(0, n - 3 * mctls::kMacSize);
    ConstBytes mac_endpoints = all.subspan(n - 3 * mctls::kMacSize, mctls::kMacSize);
    ConstBytes mac_writers = all.subspan(n - 2 * mctls::kMacSize, mctls::kMacSize);
    ConstBytes mac_readers = all.subspan(n - mctls::kMacSize, mctls::kMacSize);

    Bytes mac_input = mctls::record_mac_input(seq, context_id, payload);
    rec->payload = to_bytes(payload);
    rec->reader_mac = tag_matches(ck.reader_mac[dir], mac_input, mac_readers)
                          ? MacStatus::ok
                          : MacStatus::mismatch;
    if (!ck.writer_mac[dir].empty())
        rec->writer_mac = tag_matches(ck.writer_mac[dir], mac_input, mac_writers)
                              ? MacStatus::ok
                              : MacStatus::mismatch;
    if (ep && ep->valid())
        rec->endpoint_mac = tag_matches(ep->record_mac[dir], mac_input, mac_endpoints)
                                ? MacStatus::ok
                                : MacStatus::mismatch;
}

// ---- Per-hop walk -------------------------------------------------------

struct HopKeys {
    // mcTLS: control protectors from K_endpoints; TLS: the record
    // protectors from the derived key block. Indexed by direction; null
    // when the keylog had no material.
    std::unique_ptr<tls::CbcHmacProtector> protector[2];
    const EndpointKeys* endpoint = nullptr;
};

struct DirState {
    tls::HandshakeReader hs;
    bool ccs = false;
    uint32_t epoch = 0;
    uint64_t app_seq = 0;
};

struct HopContext {
    const SessionDissection* session = nullptr;
    const KeyRing* keys = nullptr;
    HopKeys* hop_keys = nullptr;
    bool count_rekeys = false;  // only hop 0 counts, the record passes every hop
    uint32_t* rekeys_observed = nullptr;
};

void drain_handshake(tls::HandshakeReader& hs, ConstBytes payload, DissectedRecord* rec,
                     std::string* error)
{
    hs.feed(payload);
    while (true) {
        auto msg = hs.next();
        if (!msg) {
            if (error->empty()) *error = "handshake: " + msg.error().message;
            rec->note += rec->note.empty() ? "<malformed>" : " <malformed>";
            return;
        }
        if (!msg.value().has_value()) return;
        if (!rec->note.empty()) rec->note += " ";
        rec->note += handshake_name(msg.value()->type);
    }
}

void dissect_record(const tls::RecordView& rv, uint8_t dir, DirState& st,
                    const HopContext& ctx, DissectedRecord* rec, std::string* error)
{
    auto* prot = ctx.hop_keys->protector[dir].get();
    switch (rv.type) {
    case ContentType::change_cipher_spec:
        st.ccs = true;
        rec->note = "ChangeCipherSpec";
        break;
    case ContentType::handshake:
        if (!st.ccs) {
            drain_handshake(st.hs, rv.payload, rec, error);
        } else if (prot) {
            if (prot->unprotect_into(rv.type, rv.context_id, rv.payload, rec->payload)) {
                rec->decrypted = true;
                rec->endpoint_mac = MacStatus::ok;
                drain_handshake(st.hs, rec->payload, rec, error);
            } else {
                rec->endpoint_mac = MacStatus::mismatch;
                rec->note = "encrypted handshake <bad record mac>";
            }
        } else {
            rec->note = "encrypted handshake";
        }
        break;
    case ContentType::alert: {
        // Alerts are plaintext in this stack (tls/alert.h).
        auto alert = tls::Alert::parse(rv.payload);
        if (alert)
            rec->note = std::string("alert: ") + to_string(alert.value().level) + " " +
                        to_string(alert.value().description);
        else
            rec->note = "alert: <malformed>";
        break;
    }
    case ContentType::rekey: {
        auto rk = mctls::RekeyRecord::parse(rv.payload);
        if (!rk) {
            rec->note = "rekey: <malformed>";
            if (error->empty()) *error = "rekey: " + rk.error().message;
            break;
        }
        rec->note = std::string("rekey ") + rekey_phase_name(rk.value().phase) +
                    " epoch=" + std::to_string(rk.value().epoch);
        // Keys switch per direction exactly where the live stack switches
        // them: the s->c stream after the server's `resp`, the c->s stream
        // after the client's `commit` (see mctls/resumption.h).
        if (rk.value().phase == mctls::RekeyPhase::resp && dir == 1)
            st.epoch = rk.value().epoch;
        if (rk.value().phase == mctls::RekeyPhase::commit && dir == 0)
            st.epoch = rk.value().epoch;
        if (rk.value().phase == mctls::RekeyPhase::init && ctx.count_rekeys)
            ++*ctx.rekeys_observed;
        break;
    }
    case ContentType::application_data: {
        rec->is_app = true;
        rec->app_seq = st.app_seq++;
        rec->epoch = st.epoch;
        rec->fragment = to_bytes(rv.payload);
        if (ctx.session->is_mctls) {
            const ContextKeys* ck =
                ctx.keys ? ctx.keys->context_keys(ctx.session->client_random, st.epoch,
                                                  rv.context_id)
                         : nullptr;
            if (ck && ck->can_read())
                check_app_record(*ck, ctx.hop_keys->endpoint, dir, rec->app_seq,
                                 rv.context_id, rv.payload, rec);
        } else if (prot) {
            rec->keys_found = true;
            if (prot->unprotect_into(rv.type, rv.context_id, rv.payload, rec->payload)) {
                rec->decrypted = true;
                rec->endpoint_mac = MacStatus::ok;
            } else {
                rec->endpoint_mac = MacStatus::mismatch;
            }
        }
        break;
    }
    }
}

HopDissection dissect_hop(const net::CaptureFlow& flow, const Stream streams[2],
                          const HopContext& ctx)
{
    HopDissection hop;
    hop.flow_id = flow.id;
    hop.initiator = flow.initiator;
    hop.responder = flow.responder;

    for (uint8_t dir = 0; dir < 2; ++dir) {
        const Stream& stream = streams[dir];
        tls::RecordCodec codec(ctx.session->is_mctls);
        codec.feed(stream.data);
        DirState st;
        size_t total = stream.data.size();
        while (true) {
            size_t offset = total - codec.buffered();
            auto rec = codec.next_view();
            if (!rec) {
                if (hop.error.empty()) hop.error = "framing: " + rec.error().message;
                break;
            }
            if (!rec.value().has_value()) {
                if (codec.buffered() > 0 && stream.fin && hop.error.empty())
                    hop.error = "framing: truncated record at stream end";
                break;
            }
            const auto& rv = *rec.value();
            DissectedRecord out;
            out.dir = dir;
            out.type = rv.type;
            out.context_id = rv.context_id;
            out.stream_offset = offset;
            out.wire_len = static_cast<uint32_t>(rv.wire.size());
            out.ts = stream.ts_at(offset);
            dissect_record(rv, dir, st, ctx, &out, &hop.error);
            hop.records.push_back(std::move(out));
        }
    }
    // Present the hop chronologically: transmit timestamps give a total
    // order across the two directions (stable sort keeps per-direction
    // record order even with equal stamps).
    std::stable_sort(hop.records.begin(), hop.records.end(),
                     [](const DissectedRecord& a, const DissectedRecord& b) {
                         return a.ts < b.ts;
                     });
    return hop;
}

// TLS 1.2 key-block re-derivation (mirrors tls::Session::derive_key_block).
void derive_tls_protectors(const Bytes& master_secret, ConstBytes client_random,
                           ConstBytes server_random, HopKeys* out)
{
    constexpr size_t kMacKeySize = 32;
    constexpr size_t kKeySize = crypto::Aes128::kKeySize;
    Bytes seed = concat(server_random, client_random);
    Bytes block = crypto::prf(master_secret, "key expansion", seed,
                              2 * kMacKeySize + 2 * kKeySize);
    ConstBytes view{block};
    Bytes client_mac = to_bytes(view.subspan(0, kMacKeySize));
    Bytes server_mac = to_bytes(view.subspan(kMacKeySize, kMacKeySize));
    Bytes client_key = to_bytes(view.subspan(2 * kMacKeySize, kKeySize));
    Bytes server_key = to_bytes(view.subspan(2 * kMacKeySize + kKeySize, kKeySize));
    out->protector[0] = std::make_unique<tls::CbcHmacProtector>(client_key, client_mac);
    out->protector[1] = std::make_unique<tls::CbcHmacProtector>(server_key, server_mac);
}

SessionDissection dissect_chain(const net::Capture& capture,
                                const std::vector<const net::CaptureFlow*>& chain,
                                const KeyRing* keys)
{
    SessionDissection session;
    std::vector<std::array<Stream, 2>> streams;
    for (const auto* flow : chain) {
        std::array<Stream, 2> s;
        s[0] = reassemble_stream(capture, flow->id, 0);
        s[1] = reassemble_stream(capture, flow->id, 1);
        streams.push_back(std::move(s));
    }

    // Framing + composition from the client-side hop's hello exchange.
    HelloInfo hello;
    if (try_hellos(streams[0][0].data, streams[0][1].data, /*mctls=*/true, &hello)) {
        session.is_mctls = true;
    } else if (try_hellos(streams[0][0].data, streams[0][1].data, /*mctls=*/false, &hello)) {
        session.is_mctls = false;
    } else {
        session.error = "no parsable hello exchange on the client-side hop";
    }
    if (hello.parsed) {
        session.client_random = hello.ch.random;
        session.server_random = hello.sh.random;
        session.session_id = hello.sh.session_id;
        session.resumed =
            !hello.ch.session_id.empty() && hello.sh.session_id == hello.ch.session_id;
        if (session.is_mctls) {
            session.middleboxes = hello.mbox_ext.middleboxes;
            session.contexts = hello.mbox_ext.contexts;
            session.ckd = hello.mode_ext.client_key_distribution;
            session.granted = hello.mode_ext.granted;
        }
    }

    // Key material, joined on the wire client random.
    HopKeys hop_keys;  // template; per-hop protectors are built fresh below
    const Bytes* master = nullptr;
    if (keys && hello.parsed) {
        if (session.is_mctls) {
            hop_keys.endpoint = keys->endpoint_keys(session.client_random);
            session.keys_available = hop_keys.endpoint != nullptr ||
                                     keys->context_keys(session.client_random, 0, 1) != nullptr;
        } else {
            master = keys->master_secret(session.client_random);
            session.keys_available = master != nullptr;
        }
    }

    for (size_t h = 0; h < chain.size(); ++h) {
        HopKeys hk;
        hk.endpoint = hop_keys.endpoint;
        if (session.is_mctls && hk.endpoint) {
            for (int d = 0; d < 2; ++d)
                hk.protector[d] = std::make_unique<tls::CbcHmacProtector>(
                    hk.endpoint->control_enc[d].expanded(),
                    hk.endpoint->record_mac[d].expanded());
        } else if (!session.is_mctls && master) {
            derive_tls_protectors(*master, session.client_random, session.server_random,
                                  &hk);
        }
        HopContext ctx;
        ctx.session = &session;
        ctx.keys = keys;
        ctx.hop_keys = &hk;
        ctx.count_rekeys = h == 0;
        ctx.rekeys_observed = &session.rekeys_observed;
        session.hops.push_back(dissect_hop(*chain[h], streams[h].data(), ctx));
    }
    return session;
}

}  // namespace

const char* to_string(MacStatus s)
{
    switch (s) {
    case MacStatus::not_checked: return "not_checked";
    case MacStatus::ok: return "ok";
    case MacStatus::mismatch: return "mismatch";
    }
    return "?";
}

std::vector<std::string> SessionDissection::entities() const
{
    std::vector<std::string> out;
    out.push_back("client");
    for (const auto& m : middleboxes) out.push_back(m.name);
    out.push_back("server");
    return out;
}

mctls::Permission SessionDissection::effective_permission(size_t ctx_index,
                                                          size_t mbox_index) const
{
    using mctls::Permission;
    if (ctx_index >= contexts.size()) return Permission::none;
    const auto& requested = contexts[ctx_index].permissions;
    Permission req =
        mbox_index < requested.size() ? requested[mbox_index] : Permission::none;
    if (ctx_index < granted.size() && mbox_index < granted[ctx_index].size()) {
        Permission g = granted[ctx_index][mbox_index];
        return static_cast<uint8_t>(g) < static_cast<uint8_t>(req) ? g : req;
    }
    return req;
}

Bytes reassemble_flow(const net::Capture& capture, uint32_t flow_id, uint8_t dir,
                      bool* fin_seen)
{
    Stream s = reassemble_stream(capture, flow_id, dir);
    if (fin_seen) *fin_seen = s.fin;
    return std::move(s.data);
}

std::vector<SessionDissection> dissect_capture(const net::Capture& capture,
                                               const KeyRing* keys)
{
    std::vector<SessionDissection> sessions;
    for (const auto& chain : build_chains(capture))
        sessions.push_back(dissect_chain(capture, chain, keys));
    return sessions;
}

}  // namespace mct::inspect
