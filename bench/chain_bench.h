// Shared benchmark harness: run full handshakes between in-memory parties
// (client, N middleboxes, server) with per-party CPU timing — the setup
// behind Table 3 (operation counts) and Figure 5 (connections per second).
//
// No simulated network here: parties exchange byte buffers directly, so the
// measured time is pure protocol/crypto cost, as in the paper's
// connections-per-second experiments.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "crypto/drbg.h"
#include "crypto/ops.h"
#include "mctls/middlebox.h"
#include "mctls/resumption.h"
#include "mctls/session.h"
#include "pki/authority.h"
#include "tls/resumption.h"
#include "tls/session.h"

namespace mct::bench {

struct PartySeconds {
    double client = 0;
    double server = 0;
    double middlebox = 0;  // summed over all middleboxes
};

struct PartyOps {
    crypto::OpCounters client;
    crypto::OpCounters server;
    crypto::OpCounters middlebox;  // one representative middlebox
};

// Long-lived PKI so per-handshake cost excludes key/cert generation.
struct BenchPki {
    crypto::HmacDrbg rng{str_to_bytes("bench-pki-seed")};
    pki::Authority ca{"Bench CA", rng};
    pki::TrustStore store;
    pki::Identity server_id = ca.issue("server.example.com", rng);
    std::vector<pki::Identity> mbox_ids;
    std::vector<pki::Identity> impersonation_ids;

    explicit BenchPki(size_t max_middleboxes = 16)
    {
        store.add_root(ca.root_certificate());
        for (size_t i = 0; i < max_middleboxes; ++i) {
            mbox_ids.push_back(ca.issue("mbox" + std::to_string(i) + ".isp.net", rng));
            impersonation_ids.push_back(ca.issue("server.example.com", rng));
        }
    }
};

struct ChainConfig {
    size_t n_middleboxes = 1;
    size_t n_contexts = 1;
    bool client_key_distribution = false;
};

// One full mcTLS handshake; fills timings/ops if non-null. Returns false on
// handshake failure.
bool run_mctls_handshake(BenchPki& pki, const ChainConfig& cfg, Rng& rng,
                         PartySeconds* seconds, PartyOps* ops);

// One SplitTLS "handshake": a TLS handshake on each hop (N+1 hops). The
// middlebox participates in two handshakes per the paper's Table 3.
bool run_split_tls_handshake(BenchPki& pki, const ChainConfig& cfg, Rng& rng,
                             PartySeconds* seconds, PartyOps* ops);

// One end-to-end TLS handshake; middleboxes only shuttle bytes.
bool run_e2e_tls_handshake(BenchPki& pki, const ChainConfig& cfg, Rng& rng,
                           PartySeconds* seconds, PartyOps* ops);

// Caches plus the client-side tickets that carry over between handshakes,
// so a benchmark can prime once (full handshake) and then time abbreviated
// handshakes against warm caches (the Figure 5 "resumed" series).
struct ResumeState {
    tls::TlsSessionCache tls_cache;
    tls::TlsTicket tls_ticket;
    mctls::ServerSessionCache mctls_cache;
    std::vector<mctls::MiddleboxSessionCache> mbox_caches;
    mctls::ResumptionTicket mctls_ticket;

    explicit ResumeState(size_t n_middleboxes = 0) : mbox_caches(n_middleboxes) {}
};

// One mcTLS handshake wired to `state`: full on a cold state (the priming
// run), abbreviated once `state` holds the ticket from a previous call.
// Returns false on failure, including a warm state that fails to resume.
bool run_mctls_resumed_handshake(BenchPki& pki, const ChainConfig& cfg, Rng& rng,
                                 ResumeState& state, PartySeconds* seconds);

// TLS analogue: abbreviated client/server handshake against the cached
// master secret (no middlebox role).
bool run_tls_resumed_handshake(BenchPki& pki, Rng& rng, ResumeState& state,
                               PartySeconds* seconds);

// Handshake wire bytes seen at the client for one mcTLS / TLS handshake
// (Figure 8).
uint64_t mctls_handshake_bytes(BenchPki& pki, const ChainConfig& cfg, Rng& rng);
uint64_t tls_handshake_bytes(BenchPki& pki, Rng& rng);

}  // namespace mct::bench
