// Use case (§4.1, last paragraph): dynamic context selection. "An
// application could make two contexts, one which a middlebox can read and
// one it cannot, and switch between them to enable or disable middlebox
// access on-the-fly (for instance, to enable compression in response to
// particular user-agents)."
//
// Here a phone streams images through a compression proxy. While on the
// cellular network it sends them in the proxy-writable context (compression
// on); when it "switches to Wi-Fi" mid-session it flips to the no-access
// context — same session, no re-handshake, and the proxy instantly loses
// visibility.
#include <cstdio>

#include "bench/chain.h"
#include "crypto/drbg.h"
#include "mctls/middlebox.h"
#include "mctls/session.h"
#include "pki/authority.h"

using namespace mct;

namespace {

constexpr uint8_t kCompressible = 1;  // proxy: write
constexpr uint8_t kPrivate = 2;       // proxy: none

}  // namespace

int main()
{
    crypto::HmacDrbg rng(str_to_bytes("dynamic-ctx-seed"));
    pki::Authority ca("Root CA", rng);
    pki::TrustStore trust;
    trust.add_root(ca.root_certificate());
    pki::Identity server_id = ca.issue("images.example.com", rng);
    pki::Identity proxy_id = ca.issue("compressor.carrier.net", rng);

    mctls::SessionConfig ccfg;
    ccfg.role = tls::Role::client;
    ccfg.server_name = "images.example.com";
    ccfg.middleboxes = {{"compressor.carrier.net", "proxy"}};
    ccfg.contexts = {{kCompressible, "images-compressible", {mctls::Permission::write}},
                     {kPrivate, "images-direct", {mctls::Permission::none}}};
    ccfg.trust = &trust;
    ccfg.rng = &rng;

    mctls::SessionConfig scfg;
    scfg.role = tls::Role::server;
    scfg.chain = {server_id.certificate};
    scfg.private_key = server_id.private_key;
    scfg.trust = &trust;
    scfg.rng = &rng;

    uint64_t proxy_touches = 0;
    mctls::MiddleboxConfig mcfg;
    mcfg.name = "compressor.carrier.net";
    mcfg.chain = {proxy_id.certificate};
    mcfg.private_key = proxy_id.private_key;
    mcfg.trust = &trust;
    mcfg.rng = &rng;
    mcfg.transform = [&](uint8_t, mctls::Direction, Bytes payload) {
        ++proxy_touches;
        return str_to_bytes("[jpeg@60%]" + bytes_to_str(payload));
    };

    mctls::Session client(ccfg);
    mctls::Session server(scfg);
    mctls::MiddleboxSession proxy(mcfg);
    mctls::MiddleboxSession* mboxes[] = {&proxy};

    client.start();
    chain::pump(client, mboxes, server);
    if (!client.handshake_complete() || !server.handshake_complete()) {
        std::printf("handshake failed\n");
        return 1;
    }

    std::printf("On cellular: images ride the proxy-writable context.\n");
    (void)server.send_app_data(kCompressible, str_to_bytes("IMG_0001.raw"));
    (void)server.send_app_data(kCompressible, str_to_bytes("IMG_0002.raw"));
    chain::pump(client, mboxes, server);
    for (auto& chunk : client.take_app_data())
        std::printf("  ctx %u%s: \"%s\"\n", chunk.context_id,
                    chunk.from_endpoint ? "" : " (compressed in-network)",
                    bytes_to_str(chunk.data).c_str());

    std::printf("\nPhone joins Wi-Fi -> the app flips to the no-access context.\n"
                "Same session, no new handshake:\n");
    (void)server.send_app_data(kPrivate, str_to_bytes("IMG_0003.raw"));
    (void)server.send_app_data(kPrivate, str_to_bytes("IMG_0004.raw"));
    chain::pump(client, mboxes, server);
    for (auto& chunk : client.take_app_data())
        std::printf("  ctx %u%s: \"%s\"\n", chunk.context_id,
                    chunk.from_endpoint ? "" : " (compressed in-network)",
                    bytes_to_str(chunk.data).c_str());

    std::printf("\nProxy transformed %lu records total — and could not even read the\n"
                "Wi-Fi-era ones (%lu blind-forwarded).\n",
                static_cast<unsigned long>(proxy_touches),
                static_cast<unsigned long>(proxy.records_forwarded_blind()));
    return 0;
}
