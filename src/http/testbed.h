// Simulated HTTP-over-{mcTLS, SplitTLS, E2E-TLS, NoEncrypt} testbed.
//
// Reproduces the paper's experimental setup (§5 "Experimental Setup"):
// a client, N middleboxes, and a server in a chain, one TCP connection per
// hop, configurable per-link latency/bandwidth, Nagle on or off, and the
// four protocol modes. Figure benches drive this class.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "crypto/drbg.h"
#include "http/channel.h"
#include "http/message.h"
#include "http/strategy.h"
#include "mctls/middlebox.h"
#include "mctls/state_plane.h"
#include "net/event_loop.h"
#include "net/sim_net.h"
#include "obs/obs.h"
#include "pki/authority.h"
#include "tls/keylog.h"

namespace mct::http {

enum class Mode {
    mctls,
    split_tls,
    e2e_tls,
    no_encrypt,
};

const char* to_string(Mode mode);

using net::operator""_ms;
using net::operator""_s;

// Scheduled fault (§5.4 / DESIGN.md "Failure model"). Faults arm the
// retransmission machinery on every link, so the loss-free byte accounting
// used by the figure benches only holds when `faults` stays empty.
struct FaultEvent {
    enum class Kind {
        kill_middlebox,     // crash the relay process: abort both its TCP legs
        restart_middlebox,  // bring it back; new connections accepted again
        link_down,          // partition one hop (both directions)
        link_up,
        corrupt_record,     // flip one byte in the next app record it forwards
    };
    Kind kind = Kind::kill_middlebox;
    net::SimTime at = 0;   // absolute simulation time
    size_t middlebox = 0;  // kill/restart/corrupt: relay index
    size_t hop = 0;        // link_down/up: hop index (0 = client-side hop)
};

// What the client does after a failed attempt (retry.max_attempts permitting).
enum class RecoveryPolicy {
    abort,                  // report the typed failure, no retry
    reconnect,              // retry with the same session composition
    drop_dead_middleboxes,  // retry with dead middleboxes removed from the list
    tls_fallback,           // retry over plain TLS, middleboxes blind (§5.4)
    resume,                 // retry via abbreviated handshake, same composition
    excise,                 // abbreviated handshake with dead middleboxes
                            // spliced out; their contexts get fresh keys
};

struct RetryPolicy {
    size_t max_attempts = 1;        // 1 = no retry
    net::SimTime backoff = 200_ms;  // delay before the second attempt
    double backoff_multiplier = 2.0;
    // Random spread applied to each delay: a factor drawn uniformly from
    // [1 - jitter, 1 + jitter]. 0 keeps the deterministic schedule.
    double jitter = 0.0;
    net::SimTime max_backoff = 0;   // cap on any single delay; 0 = uncapped
};

struct TestbedConfig {
    Mode mode = Mode::mctls;
    size_t n_middleboxes = 1;
    ContextStrategy strategy = ContextStrategy::four_contexts;
    // Worst case for mcTLS (paper §5): middleboxes get full read/write.
    mctls::Permission mbox_permission = mctls::Permission::write;
    // Optional least-privilege override: permission_rows[m][c] = permission
    // of middlebox m for strategy context c (size n_middleboxes x context
    // count). Empty = uniform mbox_permission.
    std::vector<std::vector<mctls::Permission>> permission_rows;
    // When nonzero, negotiate exactly this many generic contexts instead of
    // the strategy's table and send all data in context 1 (Figure 3's
    // contexts sweep varies handshake cost, not data placement).
    size_t contexts_override = 0;
    bool nagle = true;
    bool client_key_distribution = false;
    net::LinkConfig link{20_ms, 0};  // per hop
    // Optional per-hop override (size n_middleboxes + 1, client side first).
    std::vector<net::LinkConfig> per_hop_links;
    uint64_t seed = 1;

    // Failure semantics. handshake_deadline bounds every channel's handshake
    // (0 = no deadline); faults inject failures at scheduled times; recovery
    // + retry govern what the client does about them. Faults scheduled for
    // the same instant fire in declaration order.
    net::SimTime handshake_deadline = 0;
    std::vector<FaultEvent> faults;
    RecoveryPolicy recovery = RecoveryPolicy::abort;
    RetryPolicy retry;

    // State plane: bounds for the server-side session caches and the
    // periodic maintenance driven off the sim loop (expiry sweeps, epoch
    // rekey deadlines, dead-middlebox excision grace). The defaults bound
    // each cache at 256 entries with no TTL and no background tasks —
    // behaviour identical to the pre-state-plane testbed.
    mctls::StatePlaneConfig state_plane;

    // Concurrent-session soak knobs (DESIGN.md "Concurrency model & chaos
    // plane"). tag_sessions threads the fetch id through the request path
    // and derives the object body's fill byte from it, so every client can
    // verify it received *its* object — an organic cross-session plaintext
    // isolation check. Off by default: the deterministic figure benches
    // depend on the exact untagged wire bytes.
    bool tag_sessions = false;
    // retain_sessions=false releases each session's graph (channels, relay
    // sessions, connection callbacks) once its fetch completes, folding its
    // stats into per-class aggregates — required to hold 10k+ sequential
    // sessions without the testbed's keep-everything-alive default.
    bool retain_sessions = true;

    // Metrics hub: publish_session_stats() folds per-session snapshots into
    // its registry. Borrowed; must outlive the testbed.
    obs::Hub* obs = nullptr;

    // Wire inspection (DESIGN.md "Wire inspection & audit"). `capture`
    // records every TCP segment the sim transmits (attached before any
    // connection opens); `keylog` receives SSLKEYLOGFILE-style lines from
    // the client session so captures can be dissected offline. Both
    // borrowed; must outlive the testbed. Null = off, zero overhead.
    net::CaptureSink* capture = nullptr;
    tls::KeyLog* keylog = nullptr;

    // Event journal (DESIGN.md §8). When set, its clock is bound to the sim
    // loop (and pinned at the final sim time when the testbed is destroyed),
    // and every session, middlebox and connection the testbed creates
    // emits events under a stable actor name ("client", "server", "mboxN",
    // "net", "testbed"), as do SimNet faults and state-plane decisions.
    //   - When the journal keeps spans (it has a ring), the data path also
    //     emits causal spans (DESIGN.md "Latency attribution"): per-record
    //     stage times (encode, MAC, encrypt, reseal, decrypt/verify) plus
    //     per-hop queue-wait and transmit spans, all chained under one trace
    //     per application record; publish_session_stats() folds stage
    //     histograms into cfg.obs.
    //   - When the journal has lanes (DESIGN.md §17), every client fetch
    //     gets its own lane keyed by fetch id (label "client"), and the
    //     server / relays / state plane share infrastructure lanes under
    //     sid 0 ("server", "mboxN", "state"). Incident bundles snapshot
    //     these lanes after a failed campaign.
    // Borrowed; must outlive the testbed. Null = off, zero overhead on the
    // data path.
    obs::Journal* journal = nullptr;
};

class Testbed {
public:
    explicit Testbed(TestbedConfig cfg);
    ~Testbed();

    net::EventLoop& loop() { return loop_; }
    void run() { loop_.run(); }

    struct Fetch {
        uint64_t id = 0;  // unique per fetch_sequence call, 1-based
        net::SimTime start = 0;
        net::SimTime handshake_done = 0;
        net::SimTime first_byte = 0;
        net::SimTime done = 0;
        std::vector<net::SimTime> object_done;  // completion per object
        bool completed = false;
        bool failed = false;
        size_t attempts = 0;            // connection attempts made
        bool fell_back_to_tls = false;  // completed over plain TLS (§5.4)
        bool resumed = false;           // completed via abbreviated handshake
        std::string error;              // last attempt's failure reason
        uint64_t handshake_wire_bytes = 0;  // client channel view
        uint64_t app_overhead_bytes = 0;    // client channel record overhead
        uint64_t app_bytes_received = 0;
        uint64_t wire_bytes_client_link = 0;  // all TCP payload+headers at client
        // tag_sessions only: object-body bytes that did not carry this
        // fetch's fill byte. Nonzero means another session's plaintext (or
        // corrupted plaintext) was delivered to this client.
        uint64_t body_mismatch_bytes = 0;
    };
    using FetchPtr = std::shared_ptr<Fetch>;

    // Open a connection and GET objects of the given sizes sequentially.
    FetchPtr fetch_sequence(std::vector<size_t> sizes, std::function<void()> on_done = {});
    FetchPtr fetch(size_t size, std::function<void()> on_done = {})
    {
        return fetch_sequence({size}, std::move(on_done));
    }

    // Aggregate record-protection overhead and payload across every channel
    // in the testbed (both directions) — §5.2's data-volume accounting.
    struct OverheadTotals {
        uint64_t overhead_bytes = 0;
        uint64_t records = 0;
    };
    OverheadTotals record_overhead_totals() const;

    // Customize mcTLS middlebox behaviour (observe/transform callbacks) per
    // relay index before its session is created. Call before any fetch.
    void set_middlebox_customizer(
        std::function<void(size_t, mctls::MiddleboxConfig&)> customize);

    // Snapshot every session created so far into cfg.obs's metrics registry
    // (counters named "<actor>.<stat>"), plus the state plane's cache
    // counters ("cache.tls.hits", "state.sweeps", ...). No-op without a
    // configured hub.
    void publish_session_stats();

    // The session-state plane backing this testbed's caches and background
    // maintenance (sweeps/rekey/excision deadlines tick off the sim loop
    // while fetches are outstanding).
    mctls::StatePlane& state_plane();

    // The simulated network (chaos campaigns reach link-level faults —
    // latency scaling, partitions — directly).
    net::SimNet& sim_net();

    // Chaos plane entry points. inject_fault applies a fault immediately
    // (campaign schedulers own the timing; cfg.faults remains the declarative
    // route). rekey_live_sessions initiates the three-phase in-band rekey on
    // every live established contributory-mode mcTLS client — a rekey storm
    // when many sessions are up — and returns how many were started.
    void inject_fault(const FaultEvent& fault);
    size_t rekey_live_sessions();

private:
    struct Impl;
    // Declared before impl_ so the network and sessions die while the loop
    // they schedule on still exists.
    net::EventLoop loop_;
    std::unique_ptr<Impl> impl_;
};

}  // namespace mct::http
