// Deployment-scenario matrix for the mcTLS testbed (DESIGN.md "State
// plane"; paper §5.4 "failure semantics" and §2 deployment examples).
//
// Each scenario is a named middlebox deployment the paper argues mcTLS
// enables — a corporate filtering proxy, a CDN edge cache, an IDS stacked
// with a compression proxy, an industrial chain moving tiny records — with
// topology, permissions, object mix, and state-plane bounds chosen to match.
// Every scenario runs clean AND under each fault plan (kill/restart, link
// flap, record corruption) with the session-continuity recovery policy the
// deployment would use (resume, or excise for the chain that can shed a
// member), so the matrix exercises the state plane end to end: tickets
// minted, caches bounded, faults injected, abbreviated handshakes run, and
// the client finishing every time.
#pragma once

#include <string>
#include <vector>

#include "http/chaos.h"
#include "http/testbed.h"

namespace mct::http {

enum class Scenario {
    corporate_proxy,          // 1 filtering proxy, full read/write on headers
    cdn_edge_fanin,           // edge cache near the client, far origin, read-only
    ids_compression_chain,    // read-only IDS + body-rewriting compressor
    industrial_tiny_records,  // low-latency chain moving many tiny objects
};

const char* to_string(Scenario s);
std::vector<Scenario> all_scenarios();

enum class FaultPlan {
    clean,         // no faults: the scenario's baseline
    kill_restart,  // crash middlebox 0 mid-transfer, restart it shortly after
    flap,          // client-side link down mid-transfer, back up shortly after
    corrupt,       // one byzantine byte flip in a forwarded app record
};

const char* to_string(FaultPlan p);

// Static description of one scenario: enough to build a TestbedConfig and
// to know what the matrix should expect of it.
struct ScenarioSpec {
    Scenario scenario = Scenario::corporate_proxy;
    std::string name;
    size_t n_middleboxes = 1;
    std::vector<size_t> object_sizes;
    RecoveryPolicy recovery = RecoveryPolicy::resume;
};

ScenarioSpec scenario_spec(Scenario s);

// Fault-free completion times of a scenario, used to aim fault plans at a
// specific phase of the transfer (the sim is deterministic, so these times
// transfer exactly between runs with the same config).
struct ScenarioBaseline {
    net::SimTime handshake_done = 0;
    net::SimTime done = 0;
};

// Build the scenario's TestbedConfig for one fault plan. `base` positions
// the faults (required for every plan except clean; pass the result of a
// clean run). All plans beyond clean enable the scenario's recovery policy
// with retries, so the run is expected to complete either way.
TestbedConfig scenario_config(const ScenarioSpec& spec, FaultPlan plan,
                              ScenarioBaseline base = {});

struct ScenarioResult {
    ScenarioSpec spec;
    FaultPlan plan = FaultPlan::clean;
    Testbed::FetchPtr fetch;                // the watched transfer
    mctls::StatePlane::Snapshot state;      // cache/maintenance counters at end
    ScenarioBaseline baseline;              // clean-run times used for aiming
};

// Run one cell of the matrix: measure the clean baseline, then (for fault
// plans) rerun with the plan's faults injected. `hub` (optional) receives
// session and cache metrics from the fault run.
ScenarioResult run_scenario(Scenario s, FaultPlan plan, obs::Hub* hub = nullptr);

// Map a deployment scenario onto a chaos-plane soak: the scenario supplies
// the chain shape, permissions, and state-plane degradation policies; the
// soak supplies load shape and campaign. Bounds come from
// soak_state_plane(sessions) with the scenario's ladder policies applied,
// so each deployment squeezes the way it would in production.
SoakConfig scenario_soak(Scenario s, size_t sessions, uint64_t seed);

}  // namespace mct::http
