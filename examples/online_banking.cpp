// Use case (§4.2 "Online Banking"): the content provider can say "no".
// The client (careless or misconfigured) asks to give a middlebox full
// read/write access; the bank's server policy denies every grant. Because
// context keys are contributory — the middlebox needs BOTH endpoints'
// halves — the middlebox ends up with no access at all, while the session
// still works end-to-end.
#include <cstdio>

#include "bench/chain.h"
#include "crypto/drbg.h"
#include "mctls/middlebox.h"
#include "mctls/session.h"
#include "pki/authority.h"

using namespace mct;

int main()
{
    crypto::HmacDrbg rng(str_to_bytes("banking-seed"));
    pki::Authority ca("Banking Root CA", rng);
    pki::TrustStore trust;
    trust.add_root(ca.root_certificate());
    pki::Identity bank_id = ca.issue("bank.example.com", rng);
    pki::Identity proxy_id = ca.issue("proxy.isp.net", rng);

    mctls::ContextDescription account;
    account.id = 1;
    account.purpose = "account-data";
    account.permissions = {mctls::Permission::write};  // client requests full access!

    mctls::SessionConfig ccfg;
    ccfg.role = tls::Role::client;
    ccfg.server_name = "bank.example.com";
    ccfg.middleboxes = {{"proxy.isp.net", "proxy"}};
    ccfg.contexts = {account};
    ccfg.trust = &trust;
    ccfg.rng = &rng;

    mctls::SessionConfig scfg;
    scfg.role = tls::Role::server;
    scfg.chain = {bank_id.certificate};
    scfg.private_key = bank_id.private_key;
    scfg.trust = &trust;
    scfg.rng = &rng;
    // The bank's policy: middleboxes get NOTHING, whatever the client asked.
    scfg.policy = [](const mctls::MiddleboxInfo& mbox, const mctls::ContextDescription& ctx,
                     mctls::Permission requested) {
        std::printf("  [bank policy] %s requested %s on \"%s\" -> DENIED\n",
                    mbox.name.c_str(), mctls::to_string(requested), ctx.purpose.c_str());
        return mctls::Permission::none;
    };

    mctls::MiddleboxConfig mcfg;
    mcfg.name = "proxy.isp.net";
    mcfg.chain = {proxy_id.certificate};
    mcfg.private_key = proxy_id.private_key;
    mcfg.rng = &rng;
    bool proxy_saw_anything = false;
    mcfg.observe = [&](uint8_t, mctls::Direction, ConstBytes) { proxy_saw_anything = true; };

    mctls::Session client(ccfg);
    mctls::Session server(scfg);
    mctls::MiddleboxSession proxy(mcfg);
    mctls::MiddleboxSession* mboxes[] = {&proxy};

    std::printf("Client asks to include proxy.isp.net with WRITE access to account data.\n");
    client.start();
    chain::pump(client, mboxes, server);
    if (!client.handshake_complete() || !server.handshake_complete()) {
        std::printf("handshake failed\n");
        return 1;
    }
    std::printf("\nHandshake completed anyway (the session is valid, the grant is not):\n");
    std::printf("  proxy effective permission on account-data: %s\n",
                mctls::to_string(proxy.permission(1)));
    std::printf("  client's view of the grant: %s\n",
                mctls::to_string(client.granted_permission(0, 1)));

    (void)client.send_app_data(1, str_to_bytes("transfer $1,000,000 to savings"));
    chain::pump(client, mboxes, server);
    auto chunks = server.take_app_data();
    std::printf("\nBank received %zu chunk(s); proxy observed plaintext: %s\n",
                chunks.size(), proxy_saw_anything ? "YES (!)" : "no");
    std::printf("Proxy forwarded %lu record(s) it could not decrypt.\n",
                static_cast<unsigned long>(proxy.records_forwarded_blind()));
    return 0;
}
