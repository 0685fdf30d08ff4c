// The benchmark's chain: client -> middlebox 0 -> middlebox 1 -> server,
// four sans-IO mcTLS parties wired together through in-process byte
// buffers in one thread. Nothing crosses a link or a loopback socket.
//
// Every call into a party goes through a Probe, so the same pump serves
// both runs: Direct adds nothing to the call (the untraced run reads no
// clock inside an operation), Traced records one span per call.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "crypto/drbg.h"
#include "crypto/ops.h"
#include "measure.h"
#include "mctls/middlebox.h"
#include "mctls/resumption.h"
#include "mctls/session.h"
#include "pki/authority.h"
#include "pki/trust_store.h"

namespace chainbench {

using namespace mct;

enum Party : uint8_t { kClient, kMbox0, kMbox1, kServer, kParties };
enum Fn : uint8_t {
    kConstruct,
    kStart,
    kFeed,
    kTakeWriteUnits,
    kSendAppData,
    kTakeAppData,
    kFeedFromClient,
    kFeedFromServer,
    kTakeToServer,
    kTakeToClient,
    kFns,
};

inline const char* party_name(Party p)
{
    static const char* const names[] = {"client", "mbox0", "mbox1", "server"};
    return names[p];
}

inline const char* fn_name(Fn f)
{
    static const char* const names[] = {"construct",      "start",          "feed",
                                        "take_write_units", "send_app_data",  "take_app_data",
                                        "feed_from_client", "feed_from_server", "take_to_server",
                                        "take_to_client"};
    return names[f];
}

// The four contexts and each middlebox's permission in them. Sessions with
// more contexts repeat this pattern: context id i uses row (i - 1) % 4.
constexpr uint8_t kReqHdr = 1;
constexpr uint8_t kRespHdr = 2;
constexpr uint8_t kRespBody = 3;
constexpr size_t kContextKinds = 4;

inline std::vector<mctls::ContextDescription> make_contexts(size_t n)
{
    using P = mctls::Permission;
    static const char* const purpose[kContextKinds] = {"req-hdr", "resp-hdr", "resp-body",
                                                       "req-body"};
    static const P perms[kContextKinds][2] = {
        {P::read, P::none},   // req-hdr
        {P::none, P::write},  // resp-hdr: middlebox 1 rewrites one byte
        {P::read, P::none},   // resp-body
        {P::write, P::read},  // req-body
    };
    std::vector<mctls::ContextDescription> out;
    for (size_t i = 0; i < n; ++i) {
        mctls::ContextDescription ctx;
        ctx.id = static_cast<uint8_t>(i + 1);
        size_t kind = i % kContextKinds;
        ctx.purpose = purpose[kind];
        if (i >= kContextKinds) ctx.purpose += "." + std::to_string(i / kContextKinds);
        ctx.permissions = {perms[kind][0], perms[kind][1]};
        out.push_back(std::move(ctx));
    }
    return out;
}

// XOR mask middlebox 1 applies to byte 0 of every resp-hdr record.
constexpr uint8_t kRewriteMask = 0x20;

// PKI issued from the workload seed: a root CA, the server's identity and
// one identity per middlebox.
struct Pki {
    crypto::HmacDrbg rng;
    pki::Authority ca;
    pki::TrustStore store;
    pki::Identity server_id;
    std::array<pki::Identity, 2> mbox_ids;

    explicit Pki(uint64_t seed)
        : rng(str_to_bytes("chainbench-pki-" + std::to_string(seed))),
          ca("Chainbench CA", rng),
          server_id(ca.issue("server.example.com", rng)),
          mbox_ids{ca.issue("mbox0.isp.net", rng), ca.issue("mbox1.isp.net", rng)}
    {
        store.add_root(ca.root_certificate());
    }
};

// Caches, counters and ticket a chain's sessions are wired to. All borrowed.
struct ChainWiring {
    size_t contexts = kContextKinds;
    Rng* rng = nullptr;
    std::array<crypto::OpCounters*, kParties> ops{};
    mctls::ServerSessionCache* server_cache = nullptr;
    std::array<mctls::MiddleboxSessionCache*, 2> mbox_cache{};
    const mctls::ResumptionTicket* ticket = nullptr;
};

struct ChainConfigs {
    mctls::SessionConfig client;
    mctls::SessionConfig server;
    std::array<mctls::MiddleboxConfig, 2> mbox;
};

// One chain of four parties. Not movable: the middleboxes' callbacks point
// into it.
class Chain {
public:
    Chain() = default;
    Chain(const Chain&) = delete;
    Chain& operator=(const Chain&) = delete;

    std::unique_ptr<mctls::Session> client;
    std::unique_ptr<mctls::MiddleboxSession> mbox[2];
    std::unique_ptr<mctls::Session> server;

    // Parties that may have output waiting: a party only emits in response
    // to a call that fed or drove it, so only these need a take call.
    bool dirty[kParties] = {};

    // Last payload each middlebox read (readers and writers both observe).
    Bytes observed[2];
    uint8_t observed_ctx[2] = {};

    // Wire units already delivered. The pump parks them here so that
    // releasing them happens after the operation's end timestamp, in
    // release_spent(), not inside the operation.
    std::vector<std::vector<Bytes>> spent;
    void release_spent() { spent.clear(); }

    // Configs for fresh sessions of this chain (callbacks bound to `this`).
    ChainConfigs configs(const Pki& pki, const ChainWiring& w)
    {
        ChainConfigs c;
        c.client.role = tls::Role::client;
        c.client.server_name = "server.example.com";
        c.client.contexts = make_contexts(w.contexts);
        for (const auto& id : pki.mbox_ids)
            c.client.middleboxes.push_back({id.certificate.subject, id.certificate.subject});
        c.client.trust = &pki.store;
        c.client.rng = w.rng;
        c.client.ops = w.ops[kClient];
        c.client.ticket = w.ticket;

        c.server.role = tls::Role::server;
        c.server.chain = {pki.server_id.certificate};
        c.server.private_key = pki.server_id.private_key;
        c.server.trust = &pki.store;
        // Paper defaults (§3.1): contributory context keys, and the server
        // does not authenticate middleboxes.
        c.server.client_key_distribution = false;
        c.server.authenticate_middleboxes = false;
        c.server.rng = w.rng;
        c.server.ops = w.ops[kServer];
        c.server.session_cache = w.server_cache;

        for (size_t i = 0; i < 2; ++i) {
            mctls::MiddleboxConfig& m = c.mbox[i];
            m.name = pki.mbox_ids[i].certificate.subject;
            m.chain = {pki.mbox_ids[i].certificate};
            m.private_key = pki.mbox_ids[i].private_key;
            m.rng = w.rng;
            m.ops = w.ops[kMbox0 + i];
            m.session_cache = w.mbox_cache[i];
            m.observe = [this, i](uint8_t ctx, mctls::Direction, ConstBytes payload) {
                observed[i].assign(payload.begin(), payload.end());
                observed_ctx[i] = ctx;
            };
            m.transform = [](uint8_t ctx, mctls::Direction, Bytes payload) {
                if (ctx % kContextKinds == kRespHdr && !payload.empty())
                    payload[0] ^= kRewriteMask;
                return payload;
            };
        }
        return c;
    }

    bool established() const
    {
        return client && server && client->handshake_complete() &&
               server->handshake_complete() && mbox[0]->handshake_complete() &&
               mbox[1]->handshake_complete();
    }
};

// Untraced probe: the call and nothing else.
struct Direct {
    template <class F>
    auto operator()(Party, Fn, F&& f)
    {
        return f();
    }
};

// Traced probe: one span per call into a party, named party.function.
class Traced {
public:
    explicit Traced(SpanRecorder& rec) : rec_(rec)
    {
        for (size_t p = 0; p < kParties; ++p)
            for (size_t f = 0; f < kFns; ++f)
                names_[p][f] = rec.intern(std::string(party_name(static_cast<Party>(p))) + "." +
                                          fn_name(static_cast<Fn>(f)));
    }

    template <class F>
    auto operator()(Party p, Fn fn, F&& f)
    {
        uint64_t start = ticks();
        auto r = f();
        rec_.leaf(names_[p][fn], start, ticks());
        return r;
    }

    uint16_t name(Party p, Fn fn) const { return names_[p][fn]; }

private:
    SpanRecorder& rec_;
    uint16_t names_[kParties][kFns] = {};
};

// Constructs the four sessions from `cfg` (each constructor is a call into
// its party).
template <class Probe>
void construct(Chain& c, ChainConfigs& cfg, Probe& probe)
{
    c.client = probe(kClient, kConstruct,
                     [&] { return std::make_unique<mctls::Session>(std::move(cfg.client)); });
    for (size_t i = 0; i < 2; ++i)
        c.mbox[i] = probe(static_cast<Party>(kMbox0 + i), kConstruct, [&] {
            return std::make_unique<mctls::MiddleboxSession>(std::move(cfg.mbox[i]));
        });
    c.server = probe(kServer, kConstruct,
                     [&] { return std::make_unique<mctls::Session>(std::move(cfg.server)); });
    for (bool& d : c.dirty) d = false;
}

// Moves every pending write unit one hop along the chain until no party has
// output left. False when any party rejects what it was fed.
template <class Probe>
bool pump(Chain& c, Probe& probe)
{
    auto to_mbox = [&](size_t i, bool from_client, const Bytes& unit) {
        Party p = static_cast<Party>(kMbox0 + i);
        c.dirty[p] = true;
        return from_client
                   ? probe(p, kFeedFromClient, [&] { return c.mbox[i]->feed_from_client(unit); })
                   : probe(p, kFeedFromServer, [&] { return c.mbox[i]->feed_from_server(unit); });
    };
    auto to_endpoint = [&](Party p, const Bytes& unit) {
        mctls::Session& s = p == kClient ? *c.client : *c.server;
        c.dirty[p] = true;
        return probe(p, kFeed, [&] { return s.feed(unit); });
    };

    for (bool progress = true; progress;) {
        progress = false;
        if (c.dirty[kClient]) {
            c.dirty[kClient] = false;
            progress = true;
            for (const Bytes& u :
                 c.spent.emplace_back(
                     probe(kClient, kTakeWriteUnits, [&] { return c.client->take_write_units(); })))
                if (!to_mbox(0, true, u).ok()) return false;
        }
        for (size_t i = 0; i < 2; ++i) {
            Party p = static_cast<Party>(kMbox0 + i);
            if (!c.dirty[p]) continue;
            c.dirty[p] = false;
            progress = true;
            for (const Bytes& u :
                 c.spent.emplace_back(
                     probe(p, kTakeToServer, [&] { return c.mbox[i]->take_to_server(); })))
                if (!(i == 0 ? to_mbox(1, true, u) : to_endpoint(kServer, u)).ok()) return false;
            for (const Bytes& u :
                 c.spent.emplace_back(
                     probe(p, kTakeToClient, [&] { return c.mbox[i]->take_to_client(); })))
                if (!(i == 1 ? to_mbox(0, false, u) : to_endpoint(kClient, u)).ok()) return false;
        }
        if (c.dirty[kServer]) {
            c.dirty[kServer] = false;
            progress = true;
            for (const Bytes& u :
                 c.spent.emplace_back(
                     probe(kServer, kTakeWriteUnits, [&] { return c.server->take_write_units(); })))
                if (!to_mbox(1, false, u).ok()) return false;
        }
    }
    return true;
}

// Full handshake (or resumption, when the wiring carries a ticket) on fresh
// sessions: construct, start, pump to quiescence.
template <class Probe>
bool handshake(Chain& c, ChainConfigs& cfg, Probe& probe)
{
    construct(c, cfg, probe);
    probe(kClient, kStart, [&] {
        c.client->start();
        return 0;
    });
    c.dirty[kClient] = true;
    return pump(c, probe) && c.established();
}

}  // namespace chainbench
