// Deterministic chaos plane for concurrent-session soaks (DESIGN.md
// "Concurrency model & chaos plane").
//
// A soak drives N client fetch chains through one shared Testbed — one
// server accept loop, shared relay middleboxes, the PR-6 state plane — while
// a seeded campaign scheduler interleaves faults against the live traffic:
// middlebox kills and restarts, link flaps, record corruption, latency
// spikes, rekey storms across every live session, and cache-budget squeezes.
// Every disruptive action schedules its own undo, and the scheduler
// quiesces once the last session has been launched, so a campaign always
// converges: the drain phase retries stragglers over a healed network. The
// realized schedule is recorded and digested (FNV-1a 64) so two runs with
// the same seed can assert byte-identical event timelines.
//
// Invariants are evaluated continuously while the campaign runs:
//
//   isolation   every object body carries its session's fill byte
//               (Testbed tag_sessions), so cross-session plaintext leakage
//               is caught at the client that received it; the keylog is
//               checked post-run for key material reuse across sessions
//   budget      every state-plane cache stays within its (possibly
//               squeezed) byte budget at every poll
//   liveness    a session that makes no observable progress for
//               `stall_polls` consecutive polls is flagged
//   telescoping optional (span_capacity > 0): per-record sim spans sum to
//               the record's end-to-end latency
//   privilege   optional (audit_capture): offline wire audit proves no
//               middlebox modified a context it lacked write permission on
//
// Violations are strings in SoakReport::violations; an empty list is green.
// Every report carries the campaign seed and a rerun hint so failures are
// exactly reproducible (MCT_CHAOS_SEED overrides the configured seed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "http/testbed.h"

namespace mct::http {

// Campaign seed resolution: MCT_CHAOS_SEED (decimal or 0x-hex) overrides
// `fallback` when set and parseable.
uint64_t chaos_seed_from_env(uint64_t fallback);

struct SoakConfig {
    uint64_t seed = 1;
    Mode mode = Mode::mctls;
    size_t n_middleboxes = 1;
    mctls::Permission mbox_permission = mctls::Permission::read;
    // Optional per-middlebox, per-context permission override (same shape
    // as TestbedConfig::permission_rows); empty = uniform mbox_permission.
    std::vector<std::vector<mctls::Permission>> permission_rows;

    // Load shape: `sessions` total fetch chains, at most `concurrency` in
    // flight; each chain fetches `objects_per_fetch` objects of
    // `object_size` bytes.
    size_t sessions = 200;
    size_t concurrency = 24;
    size_t objects_per_fetch = 2;
    size_t object_size = 2000;
    // Once half the sessions have completed (tickets minted), start up to
    // 4x concurrency chains in one tick — a resumption stampede against the
    // shared ticket caches.
    bool resumption_stampede = true;

    // Chaos campaign. One action (kill, flap, corruption, delay, rekey
    // storm or budget squeeze) is drawn from the seeded schedule every
    // `chaos_interval`.
    bool chaos = true;
    net::SimTime chaos_interval = 40_ms;

    // Invariant poller cadence and the liveness threshold K.
    net::SimTime poll_interval = 10_ms;
    size_t stall_polls = 200;

    // Optional heavier invariants (memory scales with traffic; keep off for
    // 10k-session runs, on for test-scale campaigns).
    size_t span_capacity = 0;   // journal ring size; 0 = no ring, spans off
    bool audit_capture = false; // record wire + keys, offline audit post-run

    // State-plane bounds; default from soak_state_plane(sessions).
    mctls::StatePlaneConfig state_plane;

    // Optional external hub: live-session and shed/decline/evict-rate
    // gauges land here. Null = a soak-internal hub is used.
    obs::Hub* hub = nullptr;

    // Incident bundles. When incident_dir is non-empty (or MCT_INCIDENT_DIR
    // is set, which overrides it), the soak writes
    // "<dir>/incident-<tag>-seed<seed>.jsonl" after the campaign: always on
    // a red run, and on green runs too when incident_on_green is set (so
    // scripts/soak.sh can always print a replayable artifact path). The
    // directory must exist.
    std::string incident_dir;
    std::string incident_tag = "soak";
    bool incident_on_green = true;
};

// Cache bounds sized so `sessions` concurrent sessions exercise the
// degradation ladder organically (evict on the TLS cache, shed on the
// server ticket cache, decline on the relay key caches).
mctls::StatePlaneConfig soak_state_plane(size_t sessions);

// One realized campaign action (or its scheduled undo), in fire order.
struct ChaosEvent {
    net::SimTime at = 0;
    std::string kind;  // kill | restart | link_down | link_up | corrupt |
                       // delay | delay_clear | rekey_storm | squeeze |
                       // squeeze_clear | stampede | quiesce
    uint64_t arg = 0;  // middlebox / hop index, storm size, or factor x100
};

struct SoakReport {
    uint64_t seed = 0;
    uint64_t schedule_digest = 0;  // FNV-1a 64 over realized events
    std::vector<ChaosEvent> events;
    std::vector<std::string> violations;  // empty = all invariants green

    uint64_t completed = 0;
    uint64_t failed = 0;
    // Last-attempt error of up to 10 permanently failed fetches, for
    // post-mortems (a failure is not an invariant violation by itself, but
    // soaks that expect zero failures want to know why).
    std::vector<std::string> failure_samples;
    uint64_t resumed = 0;           // sessions completed via abbreviated HS
    uint64_t mismatch_bytes = 0;    // cross-session plaintext bytes observed
    uint64_t rekeys_started = 0;    // storm-initiated in-band rekeys
    uint64_t peak_live = 0;
    net::SimTime virtual_duration = 0;

    // Concurrent-session bench series (BENCH_fig5 "soak:*" points).
    double connections_per_sec = 0;  // completed / virtual second
    double ttfb_p50_ms = 0;
    double ttfb_p99_ms = 0;

    // Path of the incident bundle written for this campaign ("" when bundle
    // writing was off or the write failed).
    std::string incident_path;

    bool green() const { return violations.empty(); }
    // "campaign seed 42 (rerun: MCT_CHAOS_SEED=42)" — stitch this into
    // every failure message so any red soak is reproducible from the log.
    std::string seed_hint() const;
};

SoakReport run_soak(const SoakConfig& cfg);

}  // namespace mct::http
