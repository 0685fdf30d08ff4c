// Session-level wire-byte pins. Each test runs seeded sessions through a
// full handshake, a resumed handshake and one 64 B record each way, and
// takes one SHA-256 over every wire unit in delivery order (each prefixed
// by the chain::pump hop id it crossed). All parties draw from one
// HmacDrbg, and each party keys its CBC IV source from its first 16 bytes,
// so the digest covers the DRBG stream, every IV, every PRF and MAC, the
// ephemeral keys and each message encoding: a change that draws one random
// byte more or less, or moves one byte on the wire, changes it.
//
// The digests were last re-pinned when every CBC IV moved from a per-record
// DRBG draw to the party's AES counter IV source (crypto::IvSource), which
// changes the IV bytes and the DRBG stream each session consumes; the record
// format, the DRBG and every other draw stayed as they were.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/chain.h"
#include "crypto/drbg.h"
#include "crypto/sha2.h"
#include "mctls/middlebox.h"
#include "mctls/resumption.h"
#include "mctls/session.h"
#include "pki/authority.h"
#include "tls/resumption.h"
#include "tls/session.h"

namespace mct {
namespace {

void hash_unit(crypto::Sha256& wire, size_t hop, ConstBytes unit)
{
    uint8_t id = static_cast<uint8_t>(hop);
    wire.update({&id, 1});
    wire.update(unit);
}

// Client -> mbox0 (read) -> mbox1 (write) -> server over four contexts.
struct McTlsChain {
    crypto::HmacDrbg rng{str_to_bytes("mctls session wire digest")};
    pki::Authority ca{"Root CA", rng};
    pki::TrustStore store;
    pki::Identity server_id = ca.issue("server.example.com", rng);
    std::vector<pki::Identity> mbox_ids{ca.issue("mbox0.isp.net", rng),
                                        ca.issue("mbox1.isp.net", rng)};
    mctls::ServerSessionCache server_cache;
    mctls::MiddleboxSessionCache mbox_caches[2];
    mctls::ResumptionTicket ticket;
    crypto::Sha256 wire;

    std::unique_ptr<mctls::Session> client, server;
    std::unique_ptr<mctls::MiddleboxSession> mboxes[2];

    McTlsChain() { store.add_root(ca.root_certificate()); }

    void connect(bool resume)
    {
        using mctls::Permission;
        std::vector<mctls::MiddleboxInfo> infos;
        for (const auto& id : mbox_ids)
            infos.push_back({id.certificate.subject, id.certificate.subject});
        auto row = [](uint8_t id, Permission m0, Permission m1) {
            mctls::ContextDescription ctx;
            ctx.id = id;
            ctx.purpose = "ctx" + std::to_string(id);
            ctx.permissions = {m0, m1};
            return ctx;
        };
        mctls::SessionConfig ccfg;
        ccfg.role = tls::Role::client;
        ccfg.server_name = "server.example.com";
        ccfg.middleboxes = infos;
        ccfg.contexts = {row(1, Permission::read, Permission::write),
                         row(2, Permission::read, Permission::read),
                         row(3, Permission::none, Permission::write),
                         row(4, Permission::read, Permission::none)};
        ccfg.trust = &store;
        ccfg.rng = &rng;
        if (resume) {
            ticket = client->ticket();
            ccfg.ticket = &ticket;
        }
        client = std::make_unique<mctls::Session>(ccfg);

        mctls::SessionConfig scfg;
        scfg.role = tls::Role::server;
        scfg.chain = {server_id.certificate};
        scfg.private_key = server_id.private_key;
        scfg.trust = &store;
        scfg.rng = &rng;
        scfg.session_cache = &server_cache;
        server = std::make_unique<mctls::Session>(scfg);

        for (size_t i = 0; i < 2; ++i) {
            mctls::MiddleboxConfig mcfg;
            mcfg.name = mbox_ids[i].certificate.subject;
            mcfg.chain = {mbox_ids[i].certificate};
            mcfg.private_key = mbox_ids[i].private_key;
            mcfg.trust = &store;
            mcfg.rng = &rng;
            mcfg.session_cache = &mbox_caches[i];
            mboxes[i] = std::make_unique<mctls::MiddleboxSession>(mcfg);
        }
        client->start();
        pump();
    }

    void pump()
    {
        EXPECT_TRUE(chain::pump(*client, mboxes, *server, chain::NoProbe{},
                                [&](size_t hop, ConstBytes unit) { hash_unit(wire, hop, unit); }));
    }

    void exchange_records()
    {
        Bytes request(64, 0x5a), response(64, 0xa5);
        ASSERT_TRUE(client->send_app_data(1, request).ok());
        pump();
        auto got = server->take_app_data();
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(got[0].data, request);
        ASSERT_TRUE(server->send_app_data(1, response).ok());
        pump();
        got = client->take_app_data();
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(got[0].data, response);
    }

    bool all_complete() const
    {
        return client->handshake_complete() && server->handshake_complete() &&
               mboxes[0]->handshake_complete() && mboxes[1]->handshake_complete();
    }
};

TEST(SessionWireDigest, McTlsFullResumedAndRecords)
{
    McTlsChain chain;
    chain.connect(/*resume=*/false);
    ASSERT_TRUE(chain.all_complete()) << chain.client->error() << chain.server->error();
    ASSERT_FALSE(chain.client->resumed());
    chain.exchange_records();

    chain.connect(/*resume=*/true);
    ASSERT_TRUE(chain.all_complete()) << chain.client->error() << chain.server->error();
    ASSERT_TRUE(chain.client->resumed());
    ASSERT_TRUE(chain.server->resumed());
    ASSERT_TRUE(chain.mboxes[0]->resumed());
    ASSERT_TRUE(chain.mboxes[1]->resumed());
    chain.exchange_records();

    EXPECT_EQ(to_hex(chain.wire.finish()),
              "a95a31dce3708e24ef8602f0a429cb09e2d8ba8bbca2f4a799f9efc7b4ce99c7");
}

// The chain above, then an in-band rekey that revokes mbox0, then one 64 B
// record each way under the new epoch: pins the rekey init/resp/commit
// bytes, the fresh halves' DRBG draws and the post-rekey record keys.
TEST(SessionWireDigest, McTlsRekeyWithRevocation)
{
    McTlsChain chain;
    chain.connect(/*resume=*/false);
    ASSERT_TRUE(chain.all_complete()) << chain.client->error() << chain.server->error();
    ASSERT_TRUE(chain.client->initiate_rekey({chain.mbox_ids[0].certificate.subject}).ok());
    chain.pump();
    ASSERT_EQ(chain.client->epoch(), 1u);
    ASSERT_EQ(chain.server->epoch(), 1u);
    ASSERT_EQ(chain.mboxes[0]->epoch(), 1u);
    ASSERT_EQ(chain.mboxes[1]->epoch(), 1u);
    EXPECT_EQ(chain.mboxes[0]->permission(1), mctls::Permission::none);
    EXPECT_EQ(chain.mboxes[1]->permission(1), mctls::Permission::write);
    chain.exchange_records();

    EXPECT_EQ(to_hex(chain.wire.finish()),
              "09e1f4dc39e4323fdfdc96ef4a511b5658df6d19aa188950b37e743aa692cde4");
}

struct TlsPair {
    crypto::HmacDrbg rng{str_to_bytes("tls session wire digest")};
    pki::Authority ca{"Root CA", rng};
    pki::TrustStore store;
    pki::Identity server_id = ca.issue("server.example.com", rng);
    tls::TlsSessionCache cache;
    tls::TlsTicket ticket;
    crypto::Sha256 wire;

    std::unique_ptr<tls::Session> client, server;

    TlsPair() { store.add_root(ca.root_certificate()); }

    void connect(bool resume)
    {
        tls::SessionConfig ccfg;
        ccfg.role = tls::Role::client;
        ccfg.server_name = "server.example.com";
        ccfg.trust = &store;
        ccfg.rng = &rng;
        if (resume) {
            ticket = client->ticket();
            ccfg.ticket = &ticket;
        }
        client = std::make_unique<tls::Session>(ccfg);

        tls::SessionConfig scfg;
        scfg.role = tls::Role::server;
        scfg.chain = {server_id.certificate};
        scfg.private_key = server_id.private_key;
        scfg.rng = &rng;
        scfg.session_cache = &cache;
        server = std::make_unique<tls::Session>(scfg);
        client->start();
        pump();
    }

    void pump()
    {
        EXPECT_TRUE(chain::pump(*client, chain::none, *server, chain::NoProbe{},
                                [&](size_t hop, ConstBytes unit) { hash_unit(wire, hop, unit); }));
    }

    void exchange_records()
    {
        Bytes request(64, 0x5a), response(64, 0xa5);
        ASSERT_TRUE(client->send_app_data(request).ok());
        pump();
        EXPECT_EQ(server->take_app_data(), request);
        ASSERT_TRUE(server->send_app_data(response).ok());
        pump();
        EXPECT_EQ(client->take_app_data(), response);
    }
};

TEST(SessionWireDigest, TlsFullResumedAndRecords)
{
    TlsPair pair;
    pair.connect(/*resume=*/false);
    ASSERT_TRUE(pair.client->handshake_complete()) << pair.client->error();
    ASSERT_FALSE(pair.client->resumed());
    pair.exchange_records();

    pair.connect(/*resume=*/true);
    ASSERT_TRUE(pair.client->handshake_complete()) << pair.client->error();
    ASSERT_TRUE(pair.client->resumed());
    pair.exchange_records();

    EXPECT_EQ(to_hex(pair.wire.finish()),
              "6c872528a1bfca5086143776c87bc5b83035a34eb534265db8f44b1572e6f656");
}

}  // namespace
}  // namespace mct
