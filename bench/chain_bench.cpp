#include "chain_bench.h"

#include <chrono>

#include "bench/chain.h"

namespace mct::bench {

namespace {

// The chain::pump probe of the handshake benches: charges the CPU time of
// each call to the party's bucket in `seconds`, or to nothing when null.
class Stopwatch {
public:
    explicit Stopwatch(PartySeconds* seconds) : seconds_(seconds) {}

    template <typename Call>
    void operator()(chain::Party party, Call&& call)
    {
        auto start = std::chrono::steady_clock::now();
        (void)call();
        std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
        if (!seconds_) return;
        switch (party) {
        case chain::Party::client: seconds_->client += elapsed.count(); break;
        case chain::Party::middlebox: seconds_->middlebox += elapsed.count(); break;
        case chain::Party::server: seconds_->server += elapsed.count(); break;
        }
    }

private:
    PartySeconds* seconds_;
};

mctls::SessionConfig mctls_client_config(BenchPki& pki, const ChainConfig& cfg, Rng& rng)
{
    mctls::SessionConfig ccfg;
    ccfg.role = tls::Role::client;
    ccfg.server_name = "server.example.com";
    for (size_t i = 0; i < cfg.n_contexts; ++i) {
        mctls::ContextDescription ctx;
        ctx.id = static_cast<uint8_t>(i + 1);
        ctx.purpose = "ctx" + std::to_string(i + 1);
        // Worst case for mcTLS: full read/write everywhere (paper §5).
        ctx.permissions.assign(cfg.n_middleboxes, mctls::Permission::write);
        ccfg.contexts.push_back(std::move(ctx));
    }
    for (size_t i = 0; i < cfg.n_middleboxes; ++i)
        ccfg.middleboxes.push_back(
            {pki.mbox_ids[i].certificate.subject, "mbox" + std::to_string(i)});
    ccfg.trust = &pki.store;
    ccfg.rng = &rng;
    return ccfg;
}

mctls::SessionConfig mctls_server_config(BenchPki& pki, Rng& rng)
{
    mctls::SessionConfig scfg;
    scfg.role = tls::Role::server;
    scfg.chain = {pki.server_id.certificate};
    scfg.private_key = pki.server_id.private_key;
    scfg.trust = &pki.store;
    scfg.rng = &rng;
    return scfg;
}

// The middleboxes of the chain; mbox 0 counts into `ops`, and mbox i keeps
// its resumption state in caches[i] when `caches` is set.
std::vector<std::unique_ptr<mctls::MiddleboxSession>> make_mboxes(
    BenchPki& pki, size_t n, Rng& rng, crypto::OpCounters* ops = nullptr,
    mctls::MiddleboxSessionCache* caches = nullptr)
{
    std::vector<std::unique_ptr<mctls::MiddleboxSession>> mboxes;
    for (size_t i = 0; i < n; ++i) {
        mctls::MiddleboxConfig mcfg;
        mcfg.name = pki.mbox_ids[i].certificate.subject;
        mcfg.chain = {pki.mbox_ids[i].certificate};
        mcfg.private_key = pki.mbox_ids[i].private_key;
        mcfg.rng = &rng;
        if (i == 0) mcfg.ops = ops;
        if (caches) mcfg.session_cache = &caches[i];
        mboxes.push_back(std::make_unique<mctls::MiddleboxSession>(std::move(mcfg)));
    }
    return mboxes;
}

// Drive one mcTLS handshake across the chain, charging each party's CPU to
// its bucket.
bool pump_handshake(mctls::Session& client,
                    std::vector<std::unique_ptr<mctls::MiddleboxSession>>& mboxes,
                    mctls::Session& server, Stopwatch& watch)
{
    watch(chain::Party::client, [&] { client.start(); });
    bool ok = chain::pump(client, mboxes, server, watch) && client.handshake_complete() &&
              server.handshake_complete();
    for (auto& mbox : mboxes) ok = ok && mbox->handshake_complete();
    return ok;
}

}  // namespace

bool run_mctls_handshake(BenchPki& pki, const ChainConfig& cfg, Rng& rng,
                         PartySeconds* seconds, PartyOps* ops)
{
    mctls::SessionConfig ccfg = mctls_client_config(pki, cfg, rng);
    if (ops) ccfg.ops = &ops->client;
    mctls::SessionConfig scfg = mctls_server_config(pki, rng);
    scfg.client_key_distribution = cfg.client_key_distribution;
    // Paper §3.1: servers typically skip middlebox authentication to save
    // CPU; Table 3 and Figure 5 assume that default.
    scfg.authenticate_middleboxes = false;
    if (ops) scfg.ops = &ops->server;

    mctls::Session client(std::move(ccfg));
    mctls::Session server(std::move(scfg));
    auto mboxes = make_mboxes(pki, cfg.n_middleboxes, rng, ops ? &ops->middlebox : nullptr);
    Stopwatch watch(seconds);
    return pump_handshake(client, mboxes, server, watch);
}

bool run_mctls_resumed_handshake(BenchPki& pki, const ChainConfig& cfg, Rng& rng,
                                 ResumeState& state, PartySeconds* seconds)
{
    if (state.mbox_caches.size() < cfg.n_middleboxes)
        state.mbox_caches.resize(cfg.n_middleboxes);
    bool warm = state.mctls_ticket.valid();

    mctls::SessionConfig ccfg = mctls_client_config(pki, cfg, rng);
    if (warm) ccfg.ticket = &state.mctls_ticket;
    mctls::SessionConfig scfg = mctls_server_config(pki, rng);
    scfg.client_key_distribution = cfg.client_key_distribution;
    scfg.authenticate_middleboxes = false;
    scfg.session_cache = &state.mctls_cache;

    mctls::Session client(std::move(ccfg));
    mctls::Session server(std::move(scfg));
    auto mboxes =
        make_mboxes(pki, cfg.n_middleboxes, rng, nullptr, state.mbox_caches.data());
    Stopwatch watch(seconds);
    if (!pump_handshake(client, mboxes, server, watch)) return false;
    // A warm state must actually take the abbreviated path; silently timing
    // full handshakes would corrupt the resumed series.
    if (warm && !client.resumed()) return false;
    state.mctls_ticket = client.ticket();
    return true;
}

namespace {

tls::SessionConfig tls_client_config(BenchPki& pki, Rng& rng, crypto::OpCounters* ops)
{
    tls::SessionConfig cfg;
    cfg.role = tls::Role::client;
    cfg.server_name = "server.example.com";
    cfg.trust = &pki.store;
    cfg.rng = &rng;
    cfg.ops = ops;
    return cfg;
}

tls::SessionConfig tls_server_config(const pki::Identity& id, Rng& rng,
                                     crypto::OpCounters* ops)
{
    tls::SessionConfig cfg;
    cfg.role = tls::Role::server;
    cfg.chain = {id.certificate};
    cfg.private_key = id.private_key;
    cfg.rng = &rng;
    cfg.ops = ops;
    return cfg;
}

// Drive one TLS handshake between two sessions, charging the client's CPU
// to `left`'s bucket and the server's to `right`'s.
bool pump_handshake(tls::Session& client, tls::Session& server, Stopwatch& watch,
                    chain::Party left = chain::Party::client,
                    chain::Party right = chain::Party::server)
{
    auto hop_watch = [&](chain::Party to, auto&& call) {
        watch(to == chain::Party::client ? left : right, call);
    };
    hop_watch(chain::Party::client, [&] { client.start(); });
    return chain::pump(client, chain::none, server, hop_watch) && client.handshake_complete() &&
           server.handshake_complete();
}

}  // namespace

bool run_split_tls_handshake(BenchPki& pki, const ChainConfig& cfg, Rng& rng,
                             PartySeconds* seconds, PartyOps* ops)
{
    Stopwatch watch(seconds);
    // Hop 0: client <-> mbox0 (or server when no middleboxes).
    // Hops i: mbox(i-1) client-role <-> mbox(i) server-role / server.
    bool ok = true;
    size_t hops = cfg.n_middleboxes + 1;
    for (size_t hop = 0; hop < hops; ++hop) {
        bool left_is_client = hop == 0;
        bool right_is_server = hop == hops - 1;
        crypto::OpCounters* left_ops = nullptr;
        crypto::OpCounters* right_ops = nullptr;
        if (ops) {
            left_ops = left_is_client ? &ops->client : (hop == 1 ? &ops->middlebox : nullptr);
            right_ops = right_is_server ? &ops->server : (hop == 0 ? &ops->middlebox : nullptr);
        }
        const pki::Identity& right_id =
            right_is_server ? pki.server_id : pki.impersonation_ids[hop];
        tls::Session left(tls_client_config(pki, rng, left_ops));
        tls::Session right(tls_server_config(right_id, rng, right_ops));
        ok = ok && pump_handshake(left, right, watch,
                                  left_is_client ? chain::Party::client : chain::Party::middlebox,
                                  right_is_server ? chain::Party::server : chain::Party::middlebox);
    }
    return ok;
}

bool run_e2e_tls_handshake(BenchPki& pki, const ChainConfig&, Rng& rng,
                           PartySeconds* seconds, PartyOps* ops)
{
    // Middleboxes only copy bytes; their cost is ~0 and charged nowhere.
    tls::Session client(tls_client_config(pki, rng, ops ? &ops->client : nullptr));
    tls::Session server(tls_server_config(pki.server_id, rng, ops ? &ops->server : nullptr));
    Stopwatch watch(seconds);
    return pump_handshake(client, server, watch);
}

bool run_tls_resumed_handshake(BenchPki& pki, Rng& rng, ResumeState& state,
                               PartySeconds* seconds)
{
    bool warm = state.tls_ticket.valid();
    tls::SessionConfig ccfg = tls_client_config(pki, rng, nullptr);
    if (warm) ccfg.ticket = &state.tls_ticket;
    tls::SessionConfig scfg = tls_server_config(pki.server_id, rng, nullptr);
    scfg.session_cache = &state.tls_cache;

    tls::Session client(std::move(ccfg));
    tls::Session server(std::move(scfg));
    Stopwatch watch(seconds);
    if (!pump_handshake(client, server, watch)) return false;
    if (warm && !client.resumed()) return false;
    state.tls_ticket = client.ticket();
    return true;
}

uint64_t mctls_handshake_bytes(BenchPki& pki, const ChainConfig& cfg, Rng& rng)
{
    mctls::Session client(mctls_client_config(pki, cfg, rng));
    mctls::Session server(mctls_server_config(pki, rng));
    auto mboxes = make_mboxes(pki, cfg.n_middleboxes, rng);
    client.start();
    (void)chain::pump(client, mboxes, server);
    return client.handshake_wire_bytes();
}

uint64_t tls_handshake_bytes(BenchPki& pki, Rng& rng)
{
    tls::Session client(tls_client_config(pki, rng, nullptr));
    tls::Session server(tls_server_config(pki.server_id, rng, nullptr));
    client.start();
    (void)chain::pump(client, chain::none, server);
    return client.handshake_wire_bytes();
}

}  // namespace mct::bench
