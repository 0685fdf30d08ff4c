// Quickstart: a complete mcTLS session — client, one trusted middlebox,
// server — exercising the public API end to end:
//
//   1. a CA issues certificates for the server and the middlebox
//   2. the client proposes two contexts: "headers" (middlebox may read)
//      and "body" (middlebox may write)
//   3. the three parties handshake (the middlebox gains keys only because
//      BOTH endpoints sent their key halves)
//   4. data flows; the middlebox observes headers and rewrites the body;
//      the receiving endpoint detects the legal modification
//
// Parties exchange bytes through in-memory buffers here; see the other
// examples for the simulated-network stack.
#include <cstdio>
#include <memory>

#include "bench/chain.h"
#include "crypto/drbg.h"
#include "mctls/middlebox.h"
#include "mctls/session.h"
#include "pki/authority.h"

using namespace mct;

int main()
{
    // --- PKI setup -------------------------------------------------------
    crypto::HmacDrbg rng(str_to_bytes("quickstart-seed"));
    pki::Authority ca("Example Root CA", rng);
    pki::TrustStore trust;
    trust.add_root(ca.root_certificate());
    pki::Identity server_id = ca.issue("server.example.com", rng);
    pki::Identity mbox_id = ca.issue("proxy.isp.net", rng);

    // --- Session composition --------------------------------------------
    mctls::ContextDescription headers;
    headers.id = 1;
    headers.purpose = "headers";
    headers.permissions = {mctls::Permission::read};  // middlebox #0: read

    mctls::ContextDescription body;
    body.id = 2;
    body.purpose = "body";
    body.permissions = {mctls::Permission::write};  // middlebox #0: write

    mctls::SessionConfig client_cfg;
    client_cfg.role = tls::Role::client;
    client_cfg.server_name = "server.example.com";
    client_cfg.middleboxes = {{"proxy.isp.net", "proxy"}};
    client_cfg.contexts = {headers, body};
    client_cfg.trust = &trust;
    client_cfg.rng = &rng;

    mctls::SessionConfig server_cfg;
    server_cfg.role = tls::Role::server;
    server_cfg.chain = {server_id.certificate};
    server_cfg.private_key = server_id.private_key;
    server_cfg.trust = &trust;
    server_cfg.rng = &rng;

    mctls::MiddleboxConfig mbox_cfg;
    mbox_cfg.name = "proxy.isp.net";
    mbox_cfg.chain = {mbox_id.certificate};
    mbox_cfg.private_key = mbox_id.private_key;
    mbox_cfg.trust = &trust;
    mbox_cfg.rng = &rng;
    mbox_cfg.observe = [](uint8_t ctx, mctls::Direction, ConstBytes payload) {
        std::printf("  [proxy] observed ctx %u: \"%s\"\n", ctx,
                    bytes_to_str(payload).c_str());
    };
    mbox_cfg.transform = [](uint8_t ctx, mctls::Direction, Bytes payload) {
        if (ctx != 2) return payload;
        std::string text = bytes_to_str(payload) + " [optimized by proxy]";
        return str_to_bytes(text);
    };

    mctls::Session client(client_cfg);
    mctls::Session server(server_cfg);
    mctls::MiddleboxSession mbox(mbox_cfg);
    mctls::MiddleboxSession* mboxes[] = {&mbox};

    // --- Handshake --------------------------------------------------------
    std::printf("Handshaking (client + proxy.isp.net + server.example.com)...\n");
    client.start();
    chain::pump(client, mboxes, server);
    if (!client.handshake_complete() || !server.handshake_complete() ||
        !mbox.handshake_complete()) {
        std::printf("handshake failed: %s / %s / %s\n", client.error().c_str(),
                    server.error().c_str(), mbox.error().c_str());
        return 1;
    }
    std::printf("Handshake complete.\n");
    std::printf("  proxy permission for ctx 1 (headers): %s\n",
                mctls::to_string(mbox.permission(1)));
    std::printf("  proxy permission for ctx 2 (body):    %s\n",
                mctls::to_string(mbox.permission(2)));

    // --- Data -------------------------------------------------------------
    std::printf("\nClient sends a request header + body...\n");
    (void)client.send_app_data(1, str_to_bytes("GET /article HTTP/1.1"));
    (void)client.send_app_data(2, str_to_bytes("please summarize"));
    chain::pump(client, mboxes, server);

    for (const auto& chunk : server.take_app_data()) {
        std::printf("  [server] ctx %u%s: \"%s\"\n", chunk.context_id,
                    chunk.from_endpoint ? "" : " (writer-modified!)",
                    bytes_to_str(chunk.data).c_str());
    }

    std::printf("\nServer responds on the body context...\n");
    (void)server.send_app_data(2, str_to_bytes("the article, summarized"));
    chain::pump(client, mboxes, server);
    for (const auto& chunk : client.take_app_data()) {
        std::printf("  [client] ctx %u%s: \"%s\"\n", chunk.context_id,
                    chunk.from_endpoint ? "" : " (writer-modified!)",
                    bytes_to_str(chunk.data).c_str());
    }

    std::printf("\nDone: the proxy read the headers, legally rewrote the body, and\n"
                "both endpoints could tell exactly what it did.\n");
    return 0;
}
