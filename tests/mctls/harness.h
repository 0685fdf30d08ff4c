// In-memory chain harness: the PKI and the configs of a client <-> M0 <->
// M1 ... <-> server chain, pumped by chain::pump. Shared by the mcTLS
// session tests.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/chain.h"
#include "mctls/middlebox.h"
#include "mctls/session.h"
#include "pki/authority.h"
#include "util/rng.h"

namespace mct::mctls::test {

struct ChainEnv {
    TestRng rng{1234};
    pki::Authority ca{"Root CA", rng};
    pki::TrustStore store;
    pki::Identity server_id = ca.issue("server.example.com", rng);
    std::vector<pki::Identity> mbox_ids;

    std::unique_ptr<Session> client;
    std::unique_ptr<Session> server;
    std::vector<std::unique_ptr<MiddleboxSession>> mboxes;

    ChainEnv() { store.add_root(ca.root_certificate()); }

    std::vector<MiddleboxInfo> make_middleboxes(size_t n)
    {
        std::vector<MiddleboxInfo> infos;
        for (size_t i = 0; i < n; ++i) {
            std::string name = "mbox" + std::to_string(i) + ".isp.net";
            mbox_ids.push_back(ca.issue(name, rng));
            infos.push_back({name, name});
        }
        return infos;
    }

    SessionConfig client_config(std::vector<MiddleboxInfo> infos,
                                std::vector<ContextDescription> contexts)
    {
        SessionConfig cfg;
        cfg.role = tls::Role::client;
        cfg.server_name = "server.example.com";
        cfg.middleboxes = std::move(infos);
        cfg.contexts = std::move(contexts);
        cfg.trust = &store;
        cfg.rng = &rng;
        return cfg;
    }

    SessionConfig server_config()
    {
        SessionConfig cfg;
        cfg.role = tls::Role::server;
        cfg.chain = {server_id.certificate};
        cfg.private_key = server_id.private_key;
        cfg.trust = &store;
        cfg.rng = &rng;
        return cfg;
    }

    MiddleboxConfig mbox_config(size_t i)
    {
        MiddleboxConfig cfg;
        cfg.name = mbox_ids[i].certificate.subject;
        cfg.chain = {mbox_ids[i].certificate};
        cfg.private_key = mbox_ids[i].private_key;
        cfg.trust = &store;
        cfg.rng = &rng;
        return cfg;
    }

    // Build the default chain: client config + N middleboxes + server.
    void build(size_t n_mbox, std::vector<ContextDescription> contexts,
               bool ckd = false, PermissionPolicy policy = nullptr)
    {
        auto infos = make_middleboxes(n_mbox);
        client = std::make_unique<Session>(client_config(infos, std::move(contexts)));
        auto scfg = server_config();
        scfg.client_key_distribution = ckd;
        scfg.policy = std::move(policy);
        server = std::make_unique<Session>(scfg);
        for (size_t i = 0; i < n_mbox; ++i)
            mboxes.push_back(std::make_unique<MiddleboxSession>(mbox_config(i)));
    }

    // Deliver pending bytes along the chain until everything is quiet.
    // Callers assert on the specific party they expect to fail; a chain that
    // never goes quiet (livelock) fails the test instead of hanging it.
    void pump() { EXPECT_TRUE(chain::pump(*client, mboxes, *server)) << "livelock"; }

    void handshake()
    {
        client->start();
        pump();
    }

    bool all_complete() const
    {
        if (!client->handshake_complete() || !server->handshake_complete()) return false;
        for (const auto& mbox : mboxes) {
            if (!mbox->handshake_complete()) return false;
        }
        return true;
    }
};

// Convenience: a context row with uniform permission for every middlebox.
inline ContextDescription ctx_row(uint8_t id, std::string purpose, size_t n_mbox,
                                  Permission perm)
{
    ContextDescription ctx;
    ctx.id = id;
    ctx.purpose = std::move(purpose);
    ctx.permissions.assign(n_mbox, perm);
    return ctx;
}

}  // namespace mct::mctls::test
