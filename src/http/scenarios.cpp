#include "http/scenarios.h"

#include <utility>

namespace mct::http {

using mctls::Permission;

const char* to_string(Scenario s)
{
    switch (s) {
    case Scenario::corporate_proxy: return "corporate_proxy";
    case Scenario::cdn_edge_fanin: return "cdn_edge_fanin";
    case Scenario::ids_compression_chain: return "ids_compression_chain";
    case Scenario::industrial_tiny_records: return "industrial_tiny_records";
    }
    return "?";
}

std::vector<Scenario> all_scenarios()
{
    return {Scenario::corporate_proxy, Scenario::cdn_edge_fanin,
            Scenario::ids_compression_chain, Scenario::industrial_tiny_records};
}

const char* to_string(FaultPlan p)
{
    switch (p) {
    case FaultPlan::clean: return "clean";
    case FaultPlan::kill_restart: return "kill_restart";
    case FaultPlan::flap: return "flap";
    case FaultPlan::corrupt: return "corrupt";
    }
    return "?";
}

ScenarioSpec scenario_spec(Scenario s)
{
    ScenarioSpec spec;
    spec.scenario = s;
    spec.name = to_string(s);
    switch (s) {
    case Scenario::corporate_proxy:
        // One filtering proxy with rewrite rights on headers (URL filtering,
        // policy banners) and inspect-only rights on bodies.
        spec.n_middleboxes = 1;
        spec.object_sizes = {16000, 16000, 4000};
        spec.recovery = RecoveryPolicy::resume;
        break;
    case Scenario::cdn_edge_fanin:
        // An edge cache close to the client, origin far away. Several
        // clients arrive back to back through the same edge, so the later
        // connections ride the session cache (abbreviated handshakes).
        spec.n_middleboxes = 1;
        spec.object_sizes = {64000, 64000};
        spec.recovery = RecoveryPolicy::resume;
        break;
    case Scenario::ids_compression_chain:
        // Read-only IDS stacked with a body-rewriting compression proxy.
        // The chain tolerates losing a member: recovery excises it.
        spec.n_middleboxes = 2;
        spec.object_sizes = {32000, 8000};
        spec.recovery = RecoveryPolicy::excise;
        break;
    case Scenario::industrial_tiny_records:
        // Low-latency two-relay chain moving a long run of tiny commands
        // (the paper's per-record overhead worst case), Nagle off.
        spec.n_middleboxes = 2;
        spec.object_sizes.assign(20, 200);
        spec.recovery = RecoveryPolicy::resume;
        break;
    }
    return spec;
}

namespace {

// Scenario-specific topology, permissions, and state-plane bounds. Faults
// come later (scenario_config), so the clean baseline and the fault runs
// share every other parameter.
TestbedConfig base_config(const ScenarioSpec& spec)
{
    TestbedConfig cfg;
    cfg.mode = Mode::mctls;
    cfg.n_middleboxes = spec.n_middleboxes;
    cfg.strategy = ContextStrategy::four_contexts;
    cfg.handshake_deadline = 5_s;

    // Maintenance cadence shared by every scenario: sweeps reclaim expired
    // tickets while fetches are in flight.
    cfg.state_plane.sweep_interval = 500_ms;
    cfg.state_plane.sweep_batch = 256;
    for (util::CacheConfig* c : {&cfg.state_plane.tls, &cfg.state_plane.server,
                                 &cfg.state_plane.middlebox}) {
        c->capacity = 128;
        c->ttl = 60_s;
    }

    switch (spec.scenario) {
    case Scenario::corporate_proxy:
        // Rewrite headers, inspect bodies.
        cfg.permission_rows = {{Permission::write, Permission::read,
                                Permission::write, Permission::read}};
        break;
    case Scenario::cdn_edge_fanin:
        // The edge only needs to read content to cache it; it is 4 ms from
        // the client while the origin is 40 ms further.
        cfg.mbox_permission = Permission::read;
        cfg.per_hop_links = {{4_ms, 0}, {40_ms, 0}};
        // Fan-in churns the ticket caches; shed batches of cold entries
        // instead of evicting one at a time.
        cfg.state_plane.server.policy = util::DegradationPolicy::shed;
        cfg.state_plane.middlebox.policy = util::DegradationPolicy::shed;
        cfg.state_plane.server.shed_batch = 16;
        cfg.state_plane.middlebox.shed_batch = 16;
        break;
    case Scenario::ids_compression_chain:
        // IDS reads everything; the compressor rewrites bodies only.
        cfg.permission_rows = {
            {Permission::read, Permission::read, Permission::read, Permission::read},
            {Permission::read, Permission::write, Permission::read, Permission::write},
        };
        // A relay that stays dead past the grace window has its pairwise
        // keys dropped, so a zombie restart cannot rejoin old sessions.
        cfg.state_plane.excise_grace = 200_ms;
        // Under overload the relay caches refuse inserts rather than evict:
        // a declined rejoin just relays blind, never breaks the session.
        cfg.state_plane.middlebox.policy = util::DegradationPolicy::decline;
        break;
    case Scenario::industrial_tiny_records:
        cfg.mbox_permission = Permission::read;
        cfg.link = {5_ms, 0};
        cfg.nagle = false;
        // Long-lived command streams: force an in-band epoch rekey whenever
        // a session's keys have lived a full interval.
        cfg.state_plane.rekey_interval = 200_ms;
        break;
    }
    return cfg;
}

// Extra connections issued before the measured one. Models the CDN edge's
// fan-in: later clients resume through the shared edge cache.
size_t warmup_fetches(const ScenarioSpec& spec)
{
    return spec.scenario == Scenario::cdn_edge_fanin ? 2 : 0;
}

}  // namespace

TestbedConfig scenario_config(const ScenarioSpec& spec, FaultPlan plan,
                              ScenarioBaseline base)
{
    TestbedConfig cfg = base_config(spec);
    if (plan == FaultPlan::clean) {
        // Warmup fetches (fan-in) resume through the shared caches even
        // without faults, so continuity policies stay on in the clean run.
        cfg.recovery = spec.recovery;
        cfg.retry = {/*max_attempts=*/4, /*backoff=*/200_ms, /*multiplier=*/2.0};
        return cfg;
    }

    // Aim the fault at the measured transfer's data phase. Both times refer
    // to the *measured* fetch, which postdates any warmups (deterministic
    // sim: clean-run times transfer exactly).
    net::SimTime mid = (base.handshake_done + base.done) / 2;
    switch (plan) {
    case FaultPlan::clean:
        break;
    case FaultPlan::kill_restart:
        cfg.faults = {{FaultEvent::Kind::kill_middlebox, mid, 0, 0},
                      {FaultEvent::Kind::restart_middlebox, mid + 400_ms, 0, 0}};
        break;
    case FaultPlan::flap:
        cfg.faults = {{FaultEvent::Kind::link_down, mid, 0, /*hop=*/0},
                      {FaultEvent::Kind::link_up, mid + 300_ms, 0, /*hop=*/0}};
        break;
    case FaultPlan::corrupt:
        // One byzantine byte flip in an app record forwarded by relay 0,
        // a quarter of the way into the data phase.
        cfg.faults = {{FaultEvent::Kind::corrupt_record,
                       base.handshake_done + (base.done - base.handshake_done) / 4,
                       0, 0}};
        break;
    }
    cfg.recovery = spec.recovery;
    cfg.retry = {/*max_attempts=*/4, /*backoff=*/200_ms, /*multiplier=*/2.0};
    return cfg;
}

namespace {

struct RunOutput {
    Testbed::FetchPtr fetch;
    mctls::StatePlane::Snapshot state;
};

RunOutput run_once(const ScenarioSpec& spec, const TestbedConfig& cfg)
{
    Testbed tb(cfg);
    // Warmups (separate connections through the same testbed, so the session
    // caches are shared) chain into the measured fetch inside ONE loop run:
    // run() drains the event queue, so running each fetch separately would
    // fast-forward past the scheduled fault times in the idle gap between
    // fetches and the faults would fire against nothing.
    Testbed::FetchPtr measured;
    auto chain = std::make_shared<std::function<void(size_t)>>();
    std::function<void(size_t)>* chainp = chain.get();
    *chain = [&tb, &measured, &spec, chainp](size_t remaining) {
        if (remaining == 0) {
            measured = tb.fetch_sequence(spec.object_sizes);
            return;
        }
        (void)tb.fetch(4000, [chainp, remaining] { (*chainp)(remaining - 1); });
    };
    (*chain)(warmup_fetches(spec));
    tb.run();
    if (cfg.obs) tb.publish_session_stats();
    return {std::move(measured), tb.state_plane().snapshot()};
}

}  // namespace

ScenarioResult run_scenario(Scenario s, FaultPlan plan, obs::Hub* hub)
{
    ScenarioResult result;
    result.spec = scenario_spec(s);
    result.plan = plan;

    // Clean pass: the baseline for aiming, and the result itself when the
    // requested plan is clean.
    TestbedConfig clean_cfg = scenario_config(result.spec, FaultPlan::clean);
    if (plan == FaultPlan::clean && hub) clean_cfg.obs = hub;
    RunOutput clean = run_once(result.spec, clean_cfg);
    result.baseline = {clean.fetch->handshake_done, clean.fetch->done};
    if (plan == FaultPlan::clean) {
        result.fetch = std::move(clean.fetch);
        result.state = clean.state;
        return result;
    }

    TestbedConfig cfg = scenario_config(result.spec, plan, result.baseline);
    if (hub) cfg.obs = hub;
    RunOutput out = run_once(result.spec, cfg);
    result.fetch = std::move(out.fetch);
    result.state = out.state;
    return result;
}

SoakConfig scenario_soak(Scenario s, size_t sessions, uint64_t seed)
{
    ScenarioSpec spec = scenario_spec(s);
    TestbedConfig base = base_config(spec);

    SoakConfig soak;
    soak.seed = seed;
    soak.mode = Mode::mctls;
    soak.n_middleboxes = spec.n_middleboxes;
    soak.mbox_permission = base.mbox_permission;
    soak.permission_rows = base.permission_rows;
    soak.sessions = sessions;
    if (!spec.object_sizes.empty()) {
        soak.object_size = spec.object_sizes.front();
        soak.objects_per_fetch =
            spec.object_sizes.size() < 4 ? spec.object_sizes.size() : 4;
    }
    // Soak-sized bounds, degraded the way this deployment degrades.
    soak.state_plane = soak_state_plane(sessions);
    soak.state_plane.tls.policy = base.state_plane.tls.policy;
    soak.state_plane.server.policy = base.state_plane.server.policy;
    soak.state_plane.middlebox.policy = base.state_plane.middlebox.policy;
    return soak;
}

}  // namespace mct::http
