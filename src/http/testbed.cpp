#include "http/testbed.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>

namespace mct::http {

const char* to_string(Mode mode)
{
    switch (mode) {
    case Mode::mctls:
        return "mcTLS";
    case Mode::split_tls:
        return "SplitTLS";
    case Mode::e2e_tls:
        return "E2E-TLS";
    case Mode::no_encrypt:
        return "NoEncrypt";
    }
    return "?";
}

namespace {

constexpr uint16_t kPort = 443;

std::string mbox_host(size_t i)
{
    return "mbox" + std::to_string(i);
}

Request make_request(const std::string& path)
{
    Request req;
    req.method = "GET";
    req.path = path;
    req.headers = {
        {"Host", "server.example.com"},
        {"User-Agent", "mct-bench/1.0"},
        {"Accept", "*/*"},
        {"Accept-Encoding", "identity"},
        {"Cookie", "session=0123456789abcdef"},
    };
    return req;
}

Response make_object_response(size_t size, char fill = 'x')
{
    Response resp;
    resp.status = 200;
    resp.reason = "OK";
    resp.headers = {
        {"Content-Type", "application/octet-stream"},
        {"Cache-Control", "max-age=3600"},
        {"Server", "mct-sim/1.0"},
    };
    resp.body.assign(size, fill);
    return resp;
}

size_t parse_object_size(const std::string& path)
{
    // Paths look like /obj/<bytes> (or /f<id>/obj/<bytes> when tagged).
    size_t slash = path.rfind('/');
    if (slash == std::string::npos) return 0;
    return static_cast<size_t>(std::strtoull(path.c_str() + slash + 1, nullptr, 10));
}

// Session tagging (cfg.tag_sessions): the fetch id rides the request path
// and determines the object body's fill byte, so the client can verify the
// plaintext it decrypted belongs to *its* session.
uint64_t parse_fetch_id(const std::string& path)
{
    if (path.size() < 3 || path[0] != '/' || path[1] != 'f') return 0;
    return std::strtoull(path.c_str() + 2, nullptr, 10);
}

char fill_for(uint64_t fetch_id)
{
    return static_cast<char>('a' + fetch_id % 26);
}

// Send one write unit with its span context, if it has one, so SimNet can
// attribute queueing and transmission to the record that caused them.
void send_unit(const net::ConnectionPtr& conn, const Bytes& unit, const obs::SpanContext& ctx)
{
    if (conn->close_queued()) return;
    if (ctx.valid())
        conn->send_traced(unit, ctx);
    else
        conn->send(unit);
}

// Send a channel's pending write units, each with its span context (aligned
// by index; see SecureChannel::take_outgoing_spans).
void flush_channel(SecureChannel* channel, const net::ConnectionPtr& conn)
{
    if (conn->close_queued()) return;
    std::vector<Bytes> units = channel->take_outgoing();
    std::vector<obs::SpanContext> ctxs = channel->take_outgoing_spans();
    for (size_t i = 0; i < units.size(); ++i)
        send_unit(conn, units[i], i < ctxs.size() ? ctxs[i] : obs::SpanContext{});
}

// Hand delivered transport span contexts to the channel before the bytes
// they annotate are fed (contexts precede bytes; see Connection docs).
void drain_rx_spans(const net::ConnectionPtr& conn, SecureChannel* channel)
{
    for (const auto& ctx : conn->take_rx_spans()) channel->queue_rx_span(ctx);
}

}  // namespace

struct Testbed::Impl {
    TestbedConfig cfg;
    net::EventLoop* loop;
    net::SimNet net;
    crypto::HmacDrbg rng;

    pki::Authority ca;
    pki::TrustStore store;
    pki::Identity server_id;
    std::vector<pki::Identity> mbox_ids;
    std::vector<pki::Identity> impersonation_ids;  // SplitTLS per middlebox
    std::vector<mctls::MiddleboxInfo> mbox_infos;
    std::vector<mctls::ContextDescription> contexts;

    // Optional hook to customize middlebox behaviour (used by examples).
    std::function<void(size_t, mctls::MiddleboxConfig&)> customize_middlebox;

    // Keep per-connection state alive.
    std::vector<std::shared_ptr<void>> anchors;
    // The session registry: every session owned via anchors, labeled with
    // its trace actor name so publish_session_stats can key the metrics
    // registry. Only endpoints (client and server channels) count toward
    // §5.2's record-overhead totals, which stay endpoint-to-endpoint.
    struct TrackedSession {
        std::string label;
        std::function<obs::SessionStats()> stats;
        bool endpoint;
    };
    std::vector<TrackedSession> sessions;
    std::map<std::string, size_t> label_counts;

    // Telemetry (null/0 when cfg.journal is unset).
    obs::Journal* journal = nullptr;
    uint16_t actor_testbed = 0;

    // Shared infrastructure lanes under sid 0 (null when the journal has no
    // lanes). Client lanes are opened per fetch id in start_attempt.
    obs::Lane* state_lane = nullptr;
    obs::Lane* server_lane = nullptr;
    std::vector<obs::Lane*> mbox_lanes;  // by relay index; entries may be null

    // Fault state.
    std::vector<char> mbox_dead;        // by relay index
    std::vector<char> corrupt_armed;    // one-shot byte flip per relay
    std::vector<std::vector<net::ConnectionPtr>> relay_conns;  // live legs per relay
    bool fallback_engaged = false;      // client retries over plain TLS (§5.4)

    // Session-continuity state plane (resume/excise policies). The server
    // caches live here so they survive across connections and attempts; the
    // client keeps its last tickets to offer abbreviated handshakes. The
    // plane's maintenance tasks tick off the sim loop between fetches.
    mctls::StatePlane state;
    tls::TlsTicket client_tls_ticket;
    mctls::ResumptionTicket client_mctls_ticket;
    std::vector<char> excised_traced;   // mbox_excised emitted once per relay
    size_t outstanding_fetches = 0;
    uint64_t maintenance_epoch = 0;     // newest pump event wins; stale ones no-op
    bool maintenance_pending = false;
    net::SimTime maintenance_at = 0;

    // Concurrent-session plane. Every live client attempt registers here by
    // fetch id so rekey storms reach ALL established sessions, not just the
    // newest; entries drop out on completion/failure (and lazily when the
    // weak_ptr expires).
    struct ClientConn;
    uint64_t next_fetch_id = 0;
    std::map<uint64_t, std::weak_ptr<ClientConn>> live_clients;
    uint64_t completed_count = 0;
    uint64_t failed_count = 0;

    // Retired-session accounting (cfg.retain_sessions == false): stats fold
    // into per-class aggregates before the session graph is released, so
    // totals survive sessions that no longer exist.
    std::map<std::string, obs::SessionStats> retired_stats;
    Testbed::OverheadTotals retired_overhead;

    // Degradation-rate gauges: last published cumulative totals + sim time.
    bool gauges_published = false;
    net::SimTime last_publish_at = 0;
    uint64_t last_shed = 0, last_declines = 0, last_evictions = 0;

    Impl(TestbedConfig config, net::EventLoop* outer_loop)
        : cfg(std::move(config)),
          loop(outer_loop),
          net(*outer_loop),
          rng(str_to_bytes("testbed-seed-" + std::to_string(cfg.seed))),
          ca("Sim Root CA", rng),
          server_id(ca.issue("server.example.com", rng)),
          state(cfg.state_plane, cfg.n_middleboxes)
    {
        store.add_root(ca.root_certificate());
        for (size_t i = 0; i < cfg.n_middleboxes; ++i) {
            std::string name = mbox_host(i) + ".isp.net";
            mbox_ids.push_back(ca.issue(name, rng));
            // SplitTLS middleboxes impersonate the server (custom-root model).
            impersonation_ids.push_back(ca.issue("server.example.com", rng));
            mbox_infos.push_back({name, mbox_host(i)});
        }
        if (cfg.contexts_override > 0) {
            for (size_t i = 0; i < cfg.contexts_override; ++i) {
                mctls::ContextDescription ctx;
                ctx.id = static_cast<uint8_t>(i + 1);
                ctx.purpose = "ctx" + std::to_string(i + 1);
                ctx.permissions.assign(cfg.n_middleboxes, cfg.mbox_permission);
                contexts.push_back(std::move(ctx));
            }
            cfg.strategy = ContextStrategy::one_context;
        } else {
            contexts =
                strategy_contexts(cfg.strategy, cfg.n_middleboxes, cfg.mbox_permission);
        }
        if (!cfg.permission_rows.empty()) {
            for (size_t c = 0; c < contexts.size(); ++c) {
                for (size_t m = 0; m < cfg.n_middleboxes; ++m) {
                    if (m < cfg.permission_rows.size() &&
                        c < cfg.permission_rows[m].size())
                        contexts[c].permissions[m] = cfg.permission_rows[m][c];
                }
            }
        }
        mbox_dead.assign(cfg.n_middleboxes, 0);
        corrupt_armed.assign(cfg.n_middleboxes, 0);
        relay_conns.resize(cfg.n_middleboxes);
        excised_traced.assign(cfg.n_middleboxes, 0);
        if (cfg.journal) {
            journal = cfg.journal;
            actor_testbed = journal->intern("testbed");
            // Sim-loop time: monotonic and causal, and the clock in which
            // transport spans telescope into end-to-end record latency.
            net::EventLoop* clock_loop = loop;
            journal->set_clock([clock_loop] { return clock_loop->now(); });
            net.set_journal(journal);
            state_lane = journal->open_lane(0, "state");
            server_lane = journal->open_lane(0, "server");
            for (size_t i = 0; i < cfg.n_middleboxes; ++i)
                mbox_lanes.push_back(journal->open_lane(0, mbox_host(i)));
        }
        if (cfg.capture) net.set_capture(cfg.capture);
        wire_state_plane();
        build_topology();
        start_server();
        for (size_t i = 0; i < cfg.n_middleboxes; ++i) start_relay(i);
        // Same-tick faults fire in declaration order: one loop event per
        // distinct timestamp applies its whole group in sequence, so a
        // kill+restart pair at the same instant behaves identically however
        // the loop breaks timestamp ties.
        std::map<net::SimTime, std::vector<FaultEvent>> fault_groups;
        for (const auto& fault : cfg.faults) fault_groups[fault.at].push_back(fault);
        for (auto& [at, group] : fault_groups)
            loop->schedule_at(at, [this, group = std::move(group)] {
                for (const auto& fault : group) apply_fault(fault);
            });
    }

    // Any configured fault (or recovery beyond abort) arms retransmission on
    // every link and builds bypass links, so failed paths can heal or be
    // routed around. Loss-free byte accounting is unchanged when false.
    bool fault_mode() const
    {
        return !cfg.faults.empty() || cfg.recovery != RecoveryPolicy::abort ||
               cfg.retry.max_attempts > 1;
    }

    // Chain node i: 0 = client, 1..n = middleboxes, n+1 = server.
    std::string chain_node(size_t i) const
    {
        if (i == 0) return "client";
        if (i <= cfg.n_middleboxes) return mbox_host(i - 1);
        return "server";
    }

    // Session-continuity policies keep caches and tickets alive between
    // attempts so the retry can run the abbreviated handshake.
    bool continuity() const
    {
        return cfg.recovery == RecoveryPolicy::resume ||
               cfg.recovery == RecoveryPolicy::excise;
    }

    // Routing skips dead middleboxes only under policies whose session
    // composition excludes them; a plain reconnect (or resume) keeps aiming
    // at the full chain (and fails fast until the middlebox restarts).
    bool route_around_dead() const
    {
        return cfg.recovery == RecoveryPolicy::drop_dead_middleboxes ||
               cfg.recovery == RecoveryPolicy::excise || fallback_engaged;
    }

    std::string next_alive_host(size_t index) const
    {
        for (size_t j = index + 1; j < cfg.n_middleboxes; ++j)
            if (!mbox_dead[j] || !route_around_dead()) return mbox_host(j);
        return "server";
    }

    std::string client_first_hop() const
    {
        for (size_t j = 0; j < cfg.n_middleboxes; ++j)
            if (!mbox_dead[j] || !route_around_dead()) return mbox_host(j);
        return "server";
    }

    // First use of a base label returns it verbatim; later uses get "#n"
    // suffixes so repeated attempts/accepts keep distinct metric prefixes.
    std::string unique_label(const std::string& base)
    {
        size_t n = ++label_counts[base];
        if (n == 1) return base;
        return base + "#" + std::to_string(n);
    }

    // ---- Session retirement (cfg.retain_sessions == false) ----

    bool prune() const { return !cfg.retain_sessions; }

    // Retain mode registers each session under a unique "<cls>[#n]" label;
    // prune mode keeps no registry and folds the session into its class
    // when it retires.
    void track(const std::string& cls, std::function<obs::SessionStats()> stats, bool endpoint)
    {
        if (!prune()) sessions.push_back({unique_label(cls), std::move(stats), endpoint});
    }

    void retire_session(const std::string& cls, const obs::SessionStats& s, bool endpoint)
    {
        if (endpoint) {
            retired_overhead.overhead_bytes += s.app_overhead_bytes;
            retired_overhead.records += s.app_records_sent;
        }
        obs::SessionStats& agg = retired_stats[cls];
        agg.actor = cls;
        agg.fold(s);
    }

    // Break the connection's reference cycle one tick later: the callbacks
    // being cleared are the very closures the current stack may be executing
    // (and the last owners of `anchor`), so clearing synchronously would
    // free the session graph out from under itself. The deferred event owns
    // `anchor` until after the clear, making teardown safe wherever it was
    // triggered from.
    void release_conn(net::ConnectionPtr conn, std::shared_ptr<void> anchor)
    {
        if (!conn) return;
        loop->schedule(0, [conn = std::move(conn), anchor = std::move(anchor)] {
            conn->set_on_connect({});
            conn->set_on_data({});
            conn->set_on_close({});
        });
    }

    // Bounded garbage collection for the per-relay connection lists: closed
    // legs accumulate under churn (every retired session leaves two), so
    // compact once the list outgrows a threshold. Amortized O(1) per
    // session; kill faults keep iterating a small live set.
    void compact_relay_conns(size_t index)
    {
        auto& v = relay_conns[index];
        if (v.size() < 64) return;
        v.erase(std::remove_if(v.begin(), v.end(),
                               [](const net::ConnectionPtr& c) {
                                   return c->close_queued();
                               }),
                v.end());
    }

    // ---- State plane ----

    // Degradation decisions become trace events (routine hit/miss traffic
    // stays in CacheStats — tracing it would swamp the ring buffer under
    // churn). ctx carries the cache id: 0 = TLS sessions, 1 = mcTLS server
    // tickets, 2+n = middlebox n's pairwise keys.
    void trace_cache_event(uint16_t cache_id, util::CacheEvent e, uint64_t detail)
    {
        obs::EventType type;
        switch (e) {
        case util::CacheEvent::expired:
            type = obs::EventType::cache_expired;
            break;
        case util::CacheEvent::evicted:
            type = obs::EventType::cache_evicted;
            break;
        case util::CacheEvent::declined:
            type = obs::EventType::cache_declined;
            break;
        case util::CacheEvent::shed:
            type = obs::EventType::cache_shed;
            break;
        default:
            return;
        }
        obs::emit_at(journal, loop->now(), state_lane, actor_testbed, type, cache_id, detail);
    }

    void wire_state_plane()
    {
        net::EventLoop* clock_loop = loop;
        state.set_clock([clock_loop] { return clock_loop->now(); });
        if (journal) {
            state.tls_cache().set_observer([this](util::CacheEvent e, uint64_t d) {
                trace_cache_event(0, e, d);
            });
            state.server_cache().set_observer([this](util::CacheEvent e, uint64_t d) {
                trace_cache_event(1, e, d);
            });
            for (size_t i = 0; i < cfg.n_middleboxes; ++i)
                state.middlebox_cache(i).set_observer(
                    [this, i](util::CacheEvent e, uint64_t d) {
                        trace_cache_event(static_cast<uint16_t>(2 + i), e, d);
                    });
        }
        state.on_sweep = [this](size_t reclaimed, uint64_t now) {
            obs::emit_at(journal, now, state_lane, actor_testbed, obs::EventType::state_sweep,
                         0, reclaimed);
        };
        state.on_rekey_due = [this](uint64_t now) {
            obs::emit_at(journal, now, state_lane, actor_testbed,
                         obs::EventType::state_rekey_due);
            rekey_live_sessions();
        };
        state.on_excise_due = [this](size_t index, uint64_t now) {
            // The grace expired with the relay still down: drop its rejoin
            // state so a zombie restart cannot resume old sessions. Live
            // traffic already routes around it (or the excise retry path
            // splices it out of the composition).
            obs::emit_at(journal, now, state_lane, actor_testbed,
                         obs::EventType::state_excise_due, 0, index);
            state.excise_middlebox(index);
        };
    }

    // The pump keeps maintenance deadlines firing while fetches are in
    // flight, and stops rescheduling the moment none are — EventLoop::run()
    // drains its queue, so a perpetual timer would never let run() return.
    void schedule_maintenance()
    {
        if (outstanding_fetches == 0) return;
        uint64_t due = state.next_deadline();
        if (due == util::TickScheduler::kIdle) return;
        net::SimTime at = due > loop->now() ? due : loop->now();
        if (maintenance_pending && at >= maintenance_at) return;
        maintenance_pending = true;
        maintenance_at = at;
        uint64_t epoch = ++maintenance_epoch;
        loop->schedule_at(at, [this, epoch] {
            if (epoch != maintenance_epoch) return;  // superseded
            maintenance_pending = false;
            if (outstanding_fetches == 0) return;
            state.tick(loop->now());
            schedule_maintenance();
        });
    }

    void fetch_finished()
    {
        if (outstanding_fetches > 0) --outstanding_fetches;
    }

    void apply_fault(const FaultEvent& fault)
    {
        obs::emit_at(journal, loop->now(), state_lane, actor_testbed,
                     obs::EventType::fault_injected, 0, static_cast<uint64_t>(fault.kind),
                     fault.kind == FaultEvent::Kind::link_down ||
                             fault.kind == FaultEvent::Kind::link_up
                         ? fault.hop
                         : fault.middlebox);
        switch (fault.kind) {
        case FaultEvent::Kind::kill_middlebox:
            if (fault.middlebox >= cfg.n_middleboxes) return;
            mbox_dead[fault.middlebox] = 1;
            // Crash: both TCP legs drop abruptly; callbacks are cleared so
            // in-flight segments land in a dead process.
            for (auto& conn : relay_conns[fault.middlebox]) {
                conn->set_on_data({});
                conn->set_on_close({});
                conn->set_on_connect({});
                conn->abort();
            }
            relay_conns[fault.middlebox].clear();
            // Start the excision grace timer (no-op unless configured) and
            // make sure the pump is armed to fire it.
            state.middlebox_down(fault.middlebox, loop->now());
            schedule_maintenance();
            return;
        case FaultEvent::Kind::restart_middlebox:
            if (fault.middlebox >= cfg.n_middleboxes) return;
            mbox_dead[fault.middlebox] = 0;
            state.middlebox_up(fault.middlebox);
            return;
        case FaultEvent::Kind::link_down:
        case FaultEvent::Kind::link_up: {
            size_t hop = fault.hop;
            if (hop + 1 > cfg.n_middleboxes + 1) return;
            net.set_link_down(chain_node(hop), chain_node(hop + 1),
                              fault.kind == FaultEvent::Kind::link_down);
            return;
        }
        case FaultEvent::Kind::corrupt_record:
            if (fault.middlebox < cfg.n_middleboxes) corrupt_armed[fault.middlebox] = 1;
            return;
        }
    }

    // One-shot byzantine corruption: flip a byte inside the ciphertext of
    // the next application record the armed relay forwards. The three-MAC
    // scheme at the receiving endpoint must catch it (bad_record_mac).
    void maybe_corrupt(size_t index, Bytes& unit)
    {
        if (index >= corrupt_armed.size() || !corrupt_armed[index]) return;
        if (unit.empty() || unit[0] != 23) return;  // wait for application_data
        unit.back() ^= 0x01;
        corrupt_armed[index] = 0;
    }

    // Arm a channel's handshake deadline and schedule the expiry check.
    void arm_channel_deadline(std::shared_ptr<void> anchor, SecureChannel* channel,
                              net::ConnectionPtr conn,
                              std::function<void(const std::string&)> on_expired)
    {
        if (cfg.handshake_deadline == 0) return;
        (void)channel->tick(loop->now());  // arms the deadline
        loop->schedule(cfg.handshake_deadline + 1,
                       [this, anchor, channel, conn, on_expired] {
                           if (channel->ready() || channel->failed()) return;
                           (void)channel->tick(loop->now());
                           if (!conn->close_queued())
                               for (auto& unit : channel->take_outgoing())
                                   conn->send(unit);  // the timeout alert
                           if (channel->failed() && on_expired)
                               on_expired(channel->error());
                       });
    }

    net::LinkConfig hop_link(size_t hop) const
    {
        if (hop < cfg.per_hop_links.size()) return cfg.per_hop_links[hop];
        return cfg.link;
    }

    void build_topology()
    {
        net.add_host("client");
        net.add_host("server");
        for (size_t i = 0; i < cfg.n_middleboxes; ++i) net.add_host(mbox_host(i));
        auto chain_link = [this](size_t hop) {
            net::LinkConfig lc = hop_link(hop);
            if (fault_mode()) lc.faultable = true;
            return lc;
        };
        if (cfg.n_middleboxes == 0) {
            net.add_link("client", "server", chain_link(0));
            return;
        }
        net.add_link("client", mbox_host(0), chain_link(0));
        for (size_t i = 0; i + 1 < cfg.n_middleboxes; ++i)
            net.add_link(mbox_host(i), mbox_host(i + 1), chain_link(i + 1));
        net.add_link(mbox_host(cfg.n_middleboxes - 1), "server",
                     chain_link(cfg.n_middleboxes));
        if (!fault_mode()) return;
        // Bypass links between non-adjacent chain nodes so the client can
        // route around dead middleboxes. Latency = sum of the spanned hops
        // (the detour re-traces the same physical path).
        size_t nodes = cfg.n_middleboxes + 2;
        for (size_t i = 0; i < nodes; ++i) {
            for (size_t j = i + 2; j < nodes; ++j) {
                net::LinkConfig lc;
                for (size_t hop = i; hop < j; ++hop) lc.latency += hop_link(hop).latency;
                lc.faultable = true;
                net.add_link(chain_node(i), chain_node(j), lc);
            }
        }
    }

    // The mode channels/relays actually run: a TLS-fallback retry downgrades
    // mcTLS to end-to-end TLS with blind relays (§5.4).
    Mode effective_mode() const
    {
        if (fallback_engaged && cfg.mode == Mode::mctls) return Mode::e2e_tls;
        return cfg.mode;
    }

    // Session composition for the next client attempt: under the
    // drop_dead_middleboxes and excise policies, dead relays leave the
    // middlebox list (and their permission columns leave every context).
    // Under excise the reduced list rides the abbreviated handshake, which
    // is what actually rekeys the contexts the dead middlebox could read.
    void alive_composition(std::vector<mctls::MiddleboxInfo>* infos,
                           std::vector<mctls::ContextDescription>* ctxs) const
    {
        *infos = mbox_infos;
        *ctxs = contexts;
        if (cfg.recovery != RecoveryPolicy::drop_dead_middleboxes &&
            cfg.recovery != RecoveryPolicy::excise)
            return;
        infos->clear();
        for (size_t i = 0; i < cfg.n_middleboxes; ++i)
            if (!mbox_dead[i]) infos->push_back(mbox_infos[i]);
        if (infos->size() == mbox_infos.size()) return;
        for (auto& ctx : *ctxs) {
            std::vector<mctls::Permission> kept;
            for (size_t i = 0; i < ctx.permissions.size(); ++i)
                if (i >= mbox_dead.size() || !mbox_dead[i])
                    kept.push_back(ctx.permissions[i]);
            ctx.permissions = std::move(kept);
        }
    }

    // Get-or-create the black box for one fetch's client session.
    obs::Lane* client_lane(uint64_t fetch_id)
    {
        return journal ? journal->open_lane(fetch_id, "client") : nullptr;
    }

    // The client's channel for one attempt, or the server's for one accept.
    std::unique_ptr<SecureChannel> make_channel(tls::Role role, obs::Lane* lane)
    {
        bool client = role == tls::Role::client;
        auto endpoint = [&](auto& c) {
            c.role = role;
            c.rng = &rng;
            c.handshake_timeout = cfg.handshake_deadline;
            c.journal = journal;
            c.trace_actor = client ? "client" : "server";
            c.lane = lane;
            if (client) {
                c.server_name = "server.example.com";
                c.keylog = cfg.keylog;
            } else {
                c.chain = {server_id.certificate};
                c.private_key = server_id.private_key;
            }
        };
        switch (effective_mode()) {
        case Mode::no_encrypt:
            return std::make_unique<PlainChannel>();
        case Mode::split_tls:
        case Mode::e2e_tls: {
            tls::SessionConfig tcfg;
            endpoint(tcfg);
            if (client) {
                tcfg.trust = &store;
                if (continuity() && client_tls_ticket.valid()) tcfg.ticket = &client_tls_ticket;
            } else if (continuity()) {
                tcfg.session_cache = &state.tls_cache();
            }
            return std::make_unique<TlsChannel>(std::move(tcfg));
        }
        case Mode::mctls: {
            mctls::SessionConfig mcfg;
            endpoint(mcfg);
            mcfg.trust = &store;
            if (client) {
                alive_composition(&mcfg.middleboxes, &mcfg.contexts);
                if (continuity() && client_mctls_ticket.valid())
                    mcfg.ticket = &client_mctls_ticket;
            } else {
                mcfg.client_key_distribution = cfg.client_key_distribution;
                if (continuity()) mcfg.session_cache = &state.server_cache();
            }
            return std::make_unique<McTlsChannel>(std::move(mcfg));
        }
        }
        return nullptr;
    }

    // Harvest the client channel's resumption state (if its handshake got
    // far enough to mint a ticket) so the next attempt can offer an
    // abbreviated handshake. A failed handshake keeps the previous ticket.
    void capture_ticket(SecureChannel* channel)
    {
        if (!continuity() || !channel) return;
        if (auto* t = dynamic_cast<TlsChannel*>(channel)) {
            tls::TlsTicket ticket = t->session().ticket();
            if (ticket.valid()) client_tls_ticket = std::move(ticket);
        } else if (auto* m = dynamic_cast<McTlsChannel*>(channel)) {
            mctls::ResumptionTicket ticket = m->session().ticket();
            if (ticket.valid()) client_mctls_ticket = std::move(ticket);
        }
    }

    // ---- Server ----

    struct ServerConn {
        std::unique_ptr<SecureChannel> channel;
        RequestParser parser;
        net::ConnectionPtr conn;
        Impl* impl;
        bool retired = false;

        void flush() { flush_channel(channel.get(), conn); }

        void on_data(ConstBytes data)
        {
            drain_rx_spans(conn, channel.get());
            if (!channel->on_bytes(data)) {
                flush();  // the fatal alert
                if (!conn->close_queued()) conn->close();
                return;
            }
            flush();
            parser.feed(channel->take_received());
            while (true) {
                auto req = parser.next();
                if (!req.ok() || !req.value().has_value()) break;
                const std::string& path = req.value()->path;
                Response resp = make_object_response(
                    parse_object_size(path),
                    impl->cfg.tag_sessions ? fill_for(parse_fetch_id(path)) : 'x');
                for (auto& part : partition_response(impl->cfg.strategy, resp)) {
                    (void)channel->send_part(part.context_id, part.data);
                    flush();  // one transport send per part/record
                }
            }
            if (channel->closed()) {
                // close_notify exchanged: finish the TCP conversation too.
                flush();
                if (!conn->close_queued()) conn->close();
            }
        }
    };

    void retire_server(const std::shared_ptr<ServerConn>& state)
    {
        if (!prune() || state->retired) return;
        state->retired = true;
        retire_session("server", state->channel->session_stats(), /*endpoint=*/true);
        release_conn(state->conn, state);
    }

    void start_server()
    {
        net.listen("server", kPort, [this](net::ConnectionPtr conn) {
            auto state = std::make_shared<ServerConn>();
            state->impl = this;
            state->conn = conn;
            state->channel = make_channel(tls::Role::server, server_lane);
            track("server", [channel = state->channel.get()] { return channel->session_stats(); },
                  /*endpoint=*/true);
            conn->set_nagle(cfg.nagle);
            conn->set_on_data([state](ConstBytes data) { state->on_data(data); });
            conn->set_on_close([this, state] {
                // EOF without close_notify: typed truncation at the server.
                // (After a clean close_notify exchange this is the normal
                // FIN and a no-op for the channel.) The transport is gone
                // either way: the per-connection session can retire.
                state->channel->transport_closed();
                retire_server(state);
            });
            arm_channel_deadline(state, state->channel.get(), conn,
                                 [state](const std::string&) {
                                     if (!state->conn->close_queued())
                                         state->conn->close();
                                 });
            if (!prune()) anchors.push_back(state);
        });
    }

    // ---- Relays ----

    // One relay process's handling of one downstream connection. start_relay
    // writes the wiring once (accept, the lazy upstream connect, closing the
    // other leg, retirement); a mode only says what the four events do to
    // bytes and which sessions it folds when it retires.
    struct Relay {
        Impl* impl = nullptr;
        size_t index = 0;
        net::ConnectionPtr down, up;
        bool up_ready = false;
        bool retired = false;

        Relay() = default;
        Relay(const Relay&) = delete;
        Relay& operator=(const Relay&) = delete;
        virtual ~Relay() = default;
        virtual void down_bytes(ConstBytes data) = 0;
        virtual void up_connected() = 0;  // up_ready is already set
        virtual void up_bytes(ConstBytes data) = 0;
        // EOF on one side; the wiring then closes the other (half-close).
        virtual void side_closed(bool from_down) = 0;
        // Prune mode: fold the relay's sessions into their classes.
        virtual void fold_stats() {}
    };

    // NoEncrypt and E2E-TLS: bytes pass through untouched.
    struct BlindRelay final : Relay {
        Bytes up_backlog;

        void down_bytes(ConstBytes data) override
        {
            if (!up_ready)
                append(up_backlog, data);
            else if (!up->close_queued())
                down->forward_to(*up, data);
        }
        void up_connected() override
        {
            if (!up_backlog.empty() && !up->close_queued()) {
                up->send(up_backlog);
                up_backlog.clear();
            }
        }
        void up_bytes(ConstBytes data) override
        {
            if (!down->close_queued()) up->forward_to(*down, data);
        }
        void side_closed(bool) override {}
    };

    // SplitTLS: a TLS server toward the client under the impersonation
    // certificate, a TLS client toward the next hop, plaintext in between.
    struct SplitRelay final : Relay {
        std::unique_ptr<TlsChannel> down_tls;  // server role, impersonation cert
        std::unique_ptr<TlsChannel> up_tls;    // client role toward next hop
        Bytes backlog_up;
        bool up_closed = false;  // the upstream leg's FIN or abort arrived

        void flush_down() { flush_channel(down_tls.get(), down); }
        void flush_up()
        {
            if (up_ready) flush_channel(up_tls.get(), up);
        }
        void pump()
        {
            flush_down();
            flush_up();
            // Decrypted relay in both directions.
            Bytes from_client = down_tls->take_received();
            if (!from_client.empty() && up_tls->ready())
                (void)up_tls->send_part(0, from_client);
            else if (!from_client.empty())
                append(backlog_up, from_client);
            Bytes from_server = up_tls->take_received();
            if (!from_server.empty() && down_tls->ready())
                (void)down_tls->send_part(0, from_server);
            flush_down();
            flush_up();
            if (up_tls->ready() && !backlog_up.empty()) {
                (void)up_tls->send_part(0, backlog_up);
                backlog_up.clear();
                flush_up();
            }
            // The client's close_notify ends the upstream leg cleanly too,
            // behind everything relayed before it; otherwise every later
            // hop would see the TCP close as a truncation.
            if (down_tls->closed() && up_tls->ready() && backlog_up.empty()) {
                up_tls->close();
                flush_up();
            }
        }
        void down_bytes(ConstBytes data) override
        {
            drain_rx_spans(down, down_tls.get());
            (void)down_tls->on_bytes(data);
            pump();
        }
        // The upstream leg can close before its SYN-ACK arrives; its session
        // is then already truncated and must not start.
        void up_connected() override
        {
            if (up_closed) return;
            up_tls->start();
            pump();
        }
        void up_bytes(ConstBytes data) override
        {
            drain_rx_spans(up, up_tls.get());
            (void)up_tls->on_bytes(data);
            pump();
        }
        void side_closed(bool from_down) override
        {
            if (!from_down) up_closed = true;
            (from_down ? down_tls : up_tls)->transport_closed();
        }
        void fold_stats() override
        {
            std::string host = mbox_host(index);
            impl->retire_session(host + "-down", down_tls->session_stats(), /*endpoint=*/false);
            impl->retire_session(host + "-up", up_tls->session_stats(), /*endpoint=*/false);
        }
    };

    // mcTLS: a MiddleboxSession; its write units keep their span contexts
    // through the backlog, and a corrupt_record fault flips the next
    // application record it forwards.
    struct McTlsRelay final : Relay {
        std::unique_ptr<mctls::MiddleboxSession> session;
        std::vector<Bytes> up_backlog;
        std::vector<obs::SpanContext> up_backlog_spans;

        void pump()
        {
            std::vector<Bytes> to_client = session->take_to_client();
            std::vector<obs::SpanContext> client_ctxs = session->take_to_client_spans();
            for (size_t i = 0; i < to_client.size(); ++i) {
                impl->maybe_corrupt(index, to_client[i]);
                send_unit(down, to_client[i],
                          i < client_ctxs.size() ? client_ctxs[i] : obs::SpanContext{});
            }
            std::vector<Bytes> to_server = session->take_to_server();
            std::vector<obs::SpanContext> server_ctxs = session->take_to_server_spans();
            for (size_t i = 0; i < to_server.size(); ++i) {
                impl->maybe_corrupt(index, to_server[i]);
                obs::SpanContext ctx =
                    i < server_ctxs.size() ? server_ctxs[i] : obs::SpanContext{};
                if (up_ready) {
                    send_unit(up, to_server[i], ctx);
                } else {
                    up_backlog.push_back(std::move(to_server[i]));
                    up_backlog_spans.push_back(ctx);
                }
            }
        }
        void down_bytes(ConstBytes data) override
        {
            for (const auto& ctx : down->take_rx_spans()) session->queue_rx_span(true, ctx);
            (void)session->feed_from_client(data);
            pump();
        }
        void up_connected() override
        {
            for (size_t i = 0; i < up_backlog.size(); ++i)
                send_unit(up, up_backlog[i], up_backlog_spans[i]);
            up_backlog.clear();
            up_backlog_spans.clear();
        }
        void up_bytes(ConstBytes data) override
        {
            for (const auto& ctx : up->take_rx_spans()) session->queue_rx_span(false, ctx);
            (void)session->feed_from_server(data);
            pump();
        }
        // The session originates a fatal middlebox_failure alert toward the
        // survivor unless close_notify already flowed; flush it first.
        void side_closed(bool from_down) override
        {
            session->transport_closed(/*from_client_side=*/from_down);
            pump();
        }
        void fold_stats() override
        {
            impl->retire_session(mbox_host(index), session->session_stats(), /*endpoint=*/false);
        }
    };

    std::shared_ptr<Relay> make_relay(size_t index)
    {
        std::string host = mbox_host(index);
        obs::Lane* lane = index < mbox_lanes.size() ? mbox_lanes[index] : nullptr;
        switch (effective_mode()) {
        case Mode::no_encrypt:
        case Mode::e2e_tls:
            return std::make_shared<BlindRelay>();
        case Mode::split_tls: {
            auto relay = std::make_shared<SplitRelay>();
            tls::SessionConfig down_cfg;
            down_cfg.role = tls::Role::server;
            down_cfg.chain = {impersonation_ids[index].certificate};
            down_cfg.private_key = impersonation_ids[index].private_key;
            down_cfg.rng = &rng;
            down_cfg.journal = journal;
            down_cfg.trace_actor = host + "-down";
            down_cfg.lane = lane;
            relay->down_tls = std::make_unique<TlsChannel>(std::move(down_cfg));
            tls::SessionConfig up_cfg;
            up_cfg.role = tls::Role::client;
            up_cfg.server_name = "server.example.com";
            up_cfg.trust = &store;
            up_cfg.rng = &rng;
            up_cfg.journal = journal;
            up_cfg.trace_actor = host + "-up";
            up_cfg.lane = lane;
            relay->up_tls = std::make_unique<TlsChannel>(std::move(up_cfg));
            // Stats only: the relay's legs are not endpoints.
            track(host + "-down", [leg = relay->down_tls.get()] { return leg->session_stats(); },
                  /*endpoint=*/false);
            track(host + "-up", [leg = relay->up_tls.get()] { return leg->session_stats(); },
                  /*endpoint=*/false);
            return relay;
        }
        case Mode::mctls: {
            auto relay = std::make_shared<McTlsRelay>();
            mctls::MiddleboxConfig mcfg;
            mcfg.name = mbox_ids[index].certificate.subject;
            mcfg.chain = {mbox_ids[index].certificate};
            mcfg.private_key = mbox_ids[index].private_key;
            mcfg.trust = &store;
            mcfg.rng = &rng;
            mcfg.journal = journal;
            mcfg.trace_actor = host;
            mcfg.lane = lane;
            if (continuity()) mcfg.session_cache = &state.middlebox_cache(index);
            if (customize_middlebox) customize_middlebox(index, mcfg);
            relay->session = std::make_unique<mctls::MiddleboxSession>(std::move(mcfg));
            track(host, [session = relay->session.get()] { return session->session_stats(); },
                  /*endpoint=*/false);
            return relay;
        }
        }
        return nullptr;
    }

    void start_relay(size_t index)
    {
        std::string host = mbox_host(index);
        net.listen(host, kPort, [this, host, index](net::ConnectionPtr down) {
            if (mbox_dead[index]) {
                down->abort();  // a dead process accepts nothing
                return;
            }
            down->set_nagle(cfg.nagle);
            if (prune()) compact_relay_conns(index);
            relay_conns[index].push_back(down);

            std::shared_ptr<Relay> relay = make_relay(index);
            relay->impl = this;
            relay->index = index;
            relay->down = down;
            auto retire = [this, relay] {
                if (!prune() || relay->retired) return;
                relay->retired = true;
                relay->fold_stats();
                release_conn(relay->down, relay);
                release_conn(relay->up, relay);
            };
            auto side_closed = [relay, retire](bool from_down) {
                relay->side_closed(from_down);
                net::ConnectionPtr other = from_down ? relay->up : relay->down;
                if (other && !other->close_queued()) other->close();
                retire();
            };
            // Proxies open the upstream leg when the first downstream bytes
            // arrive (they need the request / ClientHello first), matching
            // the paper's 2-RTT NoEncrypt / 4-RTT TLS-family baselines.
            // The upstream target is resolved at connect time so recovery
            // attempts route around middleboxes that died meanwhile.
            down->set_on_data([this, host, index, relay, side_closed](ConstBytes data) {
                if (!relay->up) {
                    auto up = net.connect(host, next_alive_host(index), kPort);
                    up->set_nagle(cfg.nagle);
                    relay_conns[index].push_back(up);
                    up->set_on_connect([relay] {
                        relay->up_ready = true;
                        relay->up_connected();
                    });
                    up->set_on_data([relay](ConstBytes b) { relay->up_bytes(b); });
                    up->set_on_close([side_closed] { side_closed(/*from_down=*/false); });
                    relay->up = std::move(up);
                }
                relay->down_bytes(data);
            });
            down->set_on_close([side_closed] { side_closed(/*from_down=*/true); });
            if (!prune()) anchors.push_back(relay);
        });
    }

    // ---- Client ----

    struct ClientConn : std::enable_shared_from_this<ClientConn> {
        Impl* impl;
        net::ConnectionPtr conn;
        obs::Lane* lane = nullptr;  // this fetch's black box
        std::unique_ptr<SecureChannel> channel;
        ResponseParser parser;
        std::deque<size_t> pending;
        FetchPtr result;
        std::function<void()> on_done;
        bool request_outstanding = false;
        bool attempt_done = false;  // this attempt finished (either way)

        void flush() { flush_channel(channel.get(), conn); }

        void transport_lost()
        {
            if (attempt_done) return;
            channel->transport_closed();
            attempt_failed(channel->failed() ? channel->error()
                                             : "testbed: transport closed");
        }

        // This attempt is over; hand control to the Impl-level retry logic.
        void attempt_failed(std::string reason)
        {
            if (attempt_done) return;
            attempt_done = true;
            if (!impl->prune()) {
                // Clear on_connect too: a dead middlebox's FIN can outrun
                // its SYN-ACK, and a late establish must not start() a dead
                // channel. In prune mode these callbacks are the attempt's
                // only owners, so clearing happens via release_conn one tick
                // later instead; the attempt_done guards cover the gap.
                conn->set_on_connect({});
                conn->set_on_data({});
                conn->set_on_close({});
            }
            if (!conn->close_queued()) conn->abort();
            impl->capture_ticket(channel.get());
            if (impl->prune()) {
                impl->retire_session("client", channel->session_stats(), /*endpoint=*/true);
                impl->release_conn(conn, shared_from_this());
            }
            std::vector<size_t> remaining(pending.begin(), pending.end());
            impl->attempt_failed(std::move(remaining), result, on_done,
                                 std::move(reason));
        }

        void maybe_send_request()
        {
            if (request_outstanding || pending.empty() || !channel->ready()) return;
            if (result->handshake_done == 0) {
                result->handshake_done = impl->loop->now();
                result->handshake_wire_bytes = channel->handshake_wire_bytes();
            }
            std::string size_str = std::to_string(pending.front());
            Request req = make_request(
                impl->cfg.tag_sessions
                    ? "/f" + std::to_string(result->id) + "/obj/" + size_str
                    : "/obj/" + size_str);
            for (auto& part : partition_request(impl->cfg.strategy, req)) {
                (void)channel->send_part(part.context_id, part.data);
                flush();
            }
            request_outstanding = true;
        }

        void on_data(ConstBytes data)
        {
            if (attempt_done) return;
            drain_rx_spans(conn, channel.get());
            if (!channel->on_bytes(data)) {
                flush();  // our fatal alert, if the transport still stands
                attempt_failed(channel->error());
                return;
            }
            flush();
            maybe_send_request();
            Bytes received = channel->take_received();
            if (!received.empty()) {
                if (result->first_byte == 0) result->first_byte = impl->loop->now();
                result->app_bytes_received += received.size();
                parser.feed(received);
            }
            while (true) {
                auto resp = parser.next();
                if (!resp.ok()) {
                    attempt_failed("testbed: " + resp.error().message);
                    return;
                }
                if (!resp.value().has_value()) break;
                if (impl->cfg.tag_sessions) {
                    // Organic isolation check: every body byte must carry
                    // this fetch's fill. Anything else is another session's
                    // plaintext (or corruption) delivered to this client.
                    char want = fill_for(result->id);
                    for (char c : resp.value()->body)
                        if (c != want) ++result->body_mismatch_bytes;
                }
                result->object_done.push_back(impl->loop->now());
                pending.pop_front();
                request_outstanding = false;
                if (pending.empty()) {
                    finish();
                    return;
                }
                maybe_send_request();
            }
        }

        void finish()
        {
            if (result->completed) return;
            attempt_done = true;
            result->completed = true;
            result->done = impl->loop->now();
            result->resumed = channel->resumed();
            result->app_overhead_bytes = channel->app_overhead_bytes();
            result->wire_bytes_client_link = conn->wire_bytes_sent();
            impl->capture_ticket(channel.get());
            obs::emit_at(impl->journal, impl->loop->now(), lane, impl->actor_testbed,
                         obs::EventType::fetch_complete, 0, result->app_bytes_received,
                         result->attempts);
            if (impl->journal) impl->journal->close_lane(lane);
            ++impl->completed_count;
            impl->live_clients.erase(result->id);
            if (impl->prune()) {
                channel->close();  // polite close_notify toward the server
                flush();
                if (!conn->close_queued()) conn->close();
                impl->retire_session("client", channel->session_stats(), /*endpoint=*/true);
                impl->release_conn(conn, shared_from_this());
            }
            impl->fetch_finished();
            if (on_done) on_done();
        }
    };

    // Epoch-age deadline fired (or a chaos campaign asked for a rekey
    // storm): bump every live client session's key epoch in place via the
    // three-phase in-band rekey. Only meaningful for established
    // contributory-mode mcTLS channels; anything else skips this deadline
    // (the next one fires regardless). Returns how many rekeys started.
    size_t rekey_live_sessions()
    {
        if (cfg.mode != Mode::mctls || cfg.client_key_distribution) return 0;
        size_t n = 0;
        for (auto it = live_clients.begin(); it != live_clients.end();) {
            auto client = it->second.lock();
            if (!client || client->attempt_done) {
                it = live_clients.erase(it);
                continue;
            }
            auto* m = dynamic_cast<McTlsChannel*>(client->channel.get());
            if (m && m->ready() && m->session().initiate_rekey()) {
                client->flush();
                ++n;
            }
            ++it;
        }
        return n;
    }

    FetchPtr fetch_sequence(std::vector<size_t> sizes, std::function<void()> on_done)
    {
        auto result = std::make_shared<Fetch>();
        result->id = ++next_fetch_id;
        result->start = loop->now();
        ++outstanding_fetches;
        schedule_maintenance();
        start_attempt(std::move(sizes), result, std::move(on_done));
        return result;
    }

    void start_attempt(std::vector<size_t> sizes, FetchPtr result,
                       std::function<void()> on_done)
    {
        ++result->attempts;
        obs::Lane* lane = client_lane(result->id);
        obs::emit_at(journal, loop->now(), lane, actor_testbed, obs::EventType::attempt_start,
                     0, result->attempts, sizes.size());
        if (fallback_engaged && cfg.mode == Mode::mctls) result->fell_back_to_tls = true;
        auto state = std::make_shared<ClientConn>();
        state->impl = this;
        state->result = std::move(result);
        state->on_done = std::move(on_done);
        state->pending.assign(sizes.begin(), sizes.end());
        state->lane = lane;
        state->channel = make_channel(tls::Role::client, lane);
        track("client", [channel = state->channel.get()] { return channel->session_stats(); },
              /*endpoint=*/true);
        state->conn = net.connect("client", client_first_hop(), kPort);
        state->conn->set_nagle(cfg.nagle);
        state->conn->set_on_connect([state] {
            if (state->attempt_done) return;
            state->channel->start();
            state->flush();
            state->maybe_send_request();  // NoEncrypt is ready immediately
        });
        state->conn->set_on_data([state](ConstBytes d) { state->on_data(d); });
        state->conn->set_on_close([state] { state->transport_lost(); });
        arm_channel_deadline(state, state->channel.get(), state->conn,
                             [state](const std::string& reason) {
                                 state->attempt_failed(reason);
                             });
        live_clients[state->result->id] = state;
        if (!prune()) anchors.push_back(state);
    }

    // A client attempt failed: retry with backoff under the configured
    // recovery policy, or surface the typed failure.
    void attempt_failed(std::vector<size_t> remaining, FetchPtr result,
                        std::function<void()> on_done, std::string reason)
    {
        result->error = std::move(reason);
        obs::Lane* lane = client_lane(result->id);
        obs::emit_at(journal, loop->now(), lane, actor_testbed, obs::EventType::attempt_failed,
                     0, result->attempts);
        bool can_retry = cfg.recovery != RecoveryPolicy::abort &&
                         result->attempts < cfg.retry.max_attempts &&
                         !remaining.empty();
        if (!can_retry) {
            result->failed = true;
            result->done = loop->now();
            if (journal) journal->close_lane(lane);
            ++failed_count;
            live_clients.erase(result->id);
            fetch_finished();
            if (on_done) on_done();
            return;
        }
        if (cfg.recovery == RecoveryPolicy::tls_fallback && !fallback_engaged) {
            fallback_engaged = true;
            obs::emit_at(journal, loop->now(), nullptr, actor_testbed,
                         obs::EventType::tls_fallback, 0, result->attempts);
        }
        if (cfg.recovery == RecoveryPolicy::excise) {
            for (size_t i = 0; i < cfg.n_middleboxes; ++i) {
                if (!mbox_dead[i] || excised_traced[i]) continue;
                excised_traced[i] = 1;
                obs::emit_at(journal, loop->now(), nullptr, actor_testbed,
                             obs::EventType::mbox_excised, 0, i);
            }
        }
        net::SimTime delay = cfg.retry.backoff;
        for (size_t i = 1; i + 1 < result->attempts; ++i)
            delay = static_cast<net::SimTime>(static_cast<double>(delay) *
                                              cfg.retry.backoff_multiplier);
        if (cfg.retry.jitter > 0.0) {
            // Uniform factor in [1 - jitter, 1 + jitter], drawn from the
            // testbed DRBG so runs stay reproducible per seed.
            Bytes draw = rng.bytes(4);
            double frac = ((static_cast<double>(draw[0]) * 16777216.0) +
                           (static_cast<double>(draw[1]) * 65536.0) +
                           (static_cast<double>(draw[2]) * 256.0) +
                           static_cast<double>(draw[3])) /
                          4294967296.0;
            double factor = 1.0 - cfg.retry.jitter + 2.0 * cfg.retry.jitter * frac;
            delay = static_cast<net::SimTime>(static_cast<double>(delay) * factor);
        }
        if (cfg.retry.max_backoff != 0 && delay > cfg.retry.max_backoff)
            delay = cfg.retry.max_backoff;
        loop->schedule(delay, [this, remaining = std::move(remaining), result,
                               on_done = std::move(on_done)] {
            start_attempt(remaining, result, on_done);
        });
    }

    Testbed::OverheadTotals overhead_totals() const
    {
        Testbed::OverheadTotals totals;
        for (const auto& tracked : sessions) {
            if (!tracked.endpoint) continue;
            obs::SessionStats s = tracked.stats();
            totals.overhead_bytes += s.app_overhead_bytes;
            totals.records += s.app_records_sent;
        }
        totals.overhead_bytes += retired_overhead.overhead_bytes;
        totals.records += retired_overhead.records;
        return totals;
    }

    void publish_stats()
    {
        if (!cfg.obs) return;
        // Global per-alert-type counters ("alerts.sent.<type>") accumulate
        // across every session in the testbed; per-label variants are
        // published by Hub::publish under "<label>.alerts.sent.<type>".
        std::map<std::string, uint64_t> alerts_sent, alerts_received;
        auto acc_alerts = [&](const obs::SessionStats& s) {
            for (const auto& [type, n] : s.alerts_sent_by_type) alerts_sent[type] += n;
            for (const auto& [type, n] : s.alerts_received_by_type)
                alerts_received[type] += n;
        };
        for (const auto& tracked : sessions) {
            obs::SessionStats s = tracked.stats();
            acc_alerts(s);
            cfg.obs->publish(tracked.label, s);
        }
        // Prune mode folds each retired session into a per-class aggregate
        // ("client", "server", "mbox0", ...) at retirement time.
        for (const auto& [cls, stats] : retired_stats) {
            acc_alerts(stats);
            cfg.obs->publish(cls, stats);
        }
        for (const auto& [type, n] : alerts_sent)
            cfg.obs->metrics.counter("alerts.sent." + type)->set(n);
        for (const auto& [type, n] : alerts_received)
            cfg.obs->metrics.counter("alerts.received." + type)->set(n);
        cfg.obs->publish_trace_health(journal);
        if (journal && journal->max_lanes()) {
            cfg.obs->metrics.counter("obs.flight.events")->set(journal->lane_events());
            cfg.obs->metrics.counter("obs.flight.dropped")->set(journal->lane_dropped());
            cfg.obs->metrics.counter("obs.flight.rings_opened")->set(journal->lanes_opened());
            cfg.obs->metrics.counter("obs.flight.rings_denied")->set(journal->lanes_denied());
            cfg.obs->metrics.counter("obs.flight.rings_recycled")
                ->set(journal->lanes_recycled());
        }
        cfg.obs->metrics.counter("fetch.completed")->set(completed_count);
        cfg.obs->metrics.counter("fetch.failed")->set(failed_count);
        cfg.obs->metrics.counter("loop.events_run")->set(loop->events_run());
        cfg.obs->metrics.counter("loop.events_scheduled")->set(loop->events_scheduled());
        auto snap = state.snapshot();
        cfg.obs->publish_cache("cache.tls", snap.tls);
        cfg.obs->publish_cache("cache.mctls", snap.server);
        cfg.obs->publish_cache("cache.mbox", snap.middlebox);
        cfg.obs->metrics.counter("state.sweeps")->set(snap.sweeps);
        cfg.obs->metrics.counter("state.swept_entries")->set(snap.swept_entries);
        cfg.obs->metrics.counter("state.rekeys_signalled")->set(snap.rekeys_signalled);
        cfg.obs->metrics.counter("state.excisions_signalled")
            ->set(snap.excisions_signalled);
        cfg.obs->metrics.counter("state.excisions_applied")->set(snap.excisions_applied);
        // Degradation gauges: instantaneous live-session count plus
        // shed/decline/evict rates (per simulated second) over the window
        // since the previous publish — the overload signals an operator
        // would watch on the Prometheus hub.
        cfg.obs->metrics.gauge("sessions.live")
            ->set(static_cast<double>(outstanding_fetches));
        uint64_t shed_total = snap.tls.shed + snap.server.shed + snap.middlebox.shed;
        uint64_t decline_total =
            snap.tls.declines + snap.server.declines + snap.middlebox.declines;
        uint64_t evict_total =
            snap.tls.evictions + snap.server.evictions + snap.middlebox.evictions;
        net::SimTime now = loop->now();
        double shed_rate = 0, decline_rate = 0, evict_rate = 0;
        if (gauges_published && now > last_publish_at) {
            double secs = static_cast<double>(now - last_publish_at) / 1e6;
            shed_rate = static_cast<double>(shed_total - last_shed) / secs;
            decline_rate = static_cast<double>(decline_total - last_declines) / secs;
            evict_rate = static_cast<double>(evict_total - last_evictions) / secs;
        }
        cfg.obs->metrics.gauge("cache.shed_rate")->set(shed_rate);
        cfg.obs->metrics.gauge("cache.decline_rate")->set(decline_rate);
        cfg.obs->metrics.gauge("cache.evict_rate")->set(evict_rate);
        gauges_published = true;
        last_publish_at = now;
        last_shed = shed_total;
        last_declines = decline_total;
        last_evictions = evict_total;
        if (obs::span_on(journal)) cfg.obs->publish_spans(*journal);
    }
};

Testbed::Testbed(TestbedConfig cfg)
{
    impl_ = std::make_unique<Impl>(std::move(cfg), &loop_);
}

Testbed::~Testbed()
{
    // The journal may outlive the testbed: pin its clock at the final sim
    // time so later emissions never call into the destroyed loop.
    if (obs::Journal* journal = impl_->journal) {
        net::SimTime end = loop_.now();
        journal->set_clock([end] { return end; });
    }
}

Testbed::FetchPtr Testbed::fetch_sequence(std::vector<size_t> sizes,
                                          std::function<void()> on_done)
{
    return impl_->fetch_sequence(std::move(sizes), std::move(on_done));
}

}  // namespace mct::http

namespace mct::http {

void Testbed::set_middlebox_customizer(
    std::function<void(size_t, mctls::MiddleboxConfig&)> customize)
{
    impl_->customize_middlebox = std::move(customize);
}

Testbed::OverheadTotals Testbed::record_overhead_totals() const
{
    return impl_->overhead_totals();
}

void Testbed::publish_session_stats()
{
    impl_->publish_stats();
}

mctls::StatePlane& Testbed::state_plane()
{
    return impl_->state;
}

net::SimNet& Testbed::sim_net()
{
    return impl_->net;
}

void Testbed::inject_fault(const FaultEvent& fault)
{
    impl_->apply_fault(fault);
}

size_t Testbed::rekey_live_sessions()
{
    return impl_->rekey_live_sessions();
}

}  // namespace mct::http
