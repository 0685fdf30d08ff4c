// Use case (§4.2 "HTTP/2 Streams"): HTTP/2 multiplexes many streams over
// one transport connection; mcTLS lets the browser give each stream its own
// access-control setting by mapping streams to contexts.
//
// Here three streams share one mcTLS session through one middlebox:
//   stream 1 (public images)   -> context the optimizer may WRITE
//   stream 2 (HTML)            -> context the optimizer may READ
//   stream 3 (credentials/API) -> context the optimizer cannot touch
#include <cstdio>
#include <map>
#include <string>

#include "bench/chain.h"
#include "crypto/drbg.h"
#include "mctls/middlebox.h"
#include "mctls/session.h"
#include "pki/authority.h"

using namespace mct;

int main()
{
    crypto::HmacDrbg rng(str_to_bytes("h2-streams-seed"));
    pki::Authority ca("Root CA", rng);
    pki::TrustStore trust;
    trust.add_root(ca.root_certificate());
    pki::Identity server_id = ca.issue("server.example.com", rng);
    pki::Identity opt_id = ca.issue("optimizer.cdn.net", rng);

    // Stream -> context mapping with per-stream permissions.
    std::map<uint8_t, std::string> stream_names = {
        {1, "images (optimizer: write)"},
        {2, "html (optimizer: read)"},
        {3, "api-credentials (optimizer: none)"},
    };
    mctls::SessionConfig ccfg;
    ccfg.role = tls::Role::client;
    ccfg.server_name = "server.example.com";
    ccfg.middleboxes = {{"optimizer.cdn.net", "optimizer"}};
    ccfg.contexts = {{1, "h2-stream-images", {mctls::Permission::write}},
                     {2, "h2-stream-html", {mctls::Permission::read}},
                     {3, "h2-stream-api", {mctls::Permission::none}}};
    ccfg.trust = &trust;
    ccfg.rng = &rng;

    mctls::SessionConfig scfg;
    scfg.role = tls::Role::server;
    scfg.chain = {server_id.certificate};
    scfg.private_key = server_id.private_key;
    scfg.trust = &trust;
    scfg.rng = &rng;

    mctls::MiddleboxConfig mcfg;
    mcfg.name = "optimizer.cdn.net";
    mcfg.chain = {opt_id.certificate};
    mcfg.private_key = opt_id.private_key;
    mcfg.trust = &trust;
    mcfg.rng = &rng;
    mcfg.transform = [](uint8_t ctx, mctls::Direction, Bytes payload) {
        if (ctx != 1) return payload;
        return str_to_bytes("[recompressed]" + bytes_to_str(payload));
    };

    mctls::Session client(ccfg);
    mctls::Session server(scfg);
    mctls::MiddleboxSession optimizer(mcfg);
    mctls::MiddleboxSession* mboxes[] = {&optimizer};

    client.start();
    chain::pump(client, mboxes, server);
    if (!client.handshake_complete() || !server.handshake_complete()) {
        std::printf("handshake failed\n");
        return 1;
    }
    std::printf("One mcTLS session, three HTTP/2 streams with distinct access:\n");
    for (auto& [ctx, name] : stream_names)
        std::printf("  stream %u -> %s, optimizer holds: %s\n", ctx, name.c_str(),
                    mctls::to_string(optimizer.permission(ctx)));

    // The server pushes one frame per stream, interleaved as HTTP/2 would.
    (void)server.send_app_data(1, str_to_bytes("PNG-DATA-FRAME"));
    (void)server.send_app_data(3, str_to_bytes("api-token=SECRET"));
    (void)server.send_app_data(2, str_to_bytes("<html>frame</html>"));
    chain::pump(client, mboxes, server);

    std::printf("\nFrames as the client receives them (in order):\n");
    for (const auto& chunk : client.take_app_data()) {
        std::printf("  stream %u%s: \"%s\"\n", chunk.context_id,
                    chunk.from_endpoint ? "" : " (optimized in-network)",
                    bytes_to_str(chunk.data).c_str());
    }
    std::printf("\nThe image frame was recompressed in-network, the HTML was only\n"
                "readable, and the API stream crossed the optimizer encrypted.\n");
    return 0;
}
