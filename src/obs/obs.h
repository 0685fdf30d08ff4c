// Top-level observability surface: the Hub holds the MetricsRegistry of a
// simulation/testbed run and folds the run's Journal into it, and
// SessionStats is the uniform
// snapshot every secure session (tls::Session, mctls::Session,
// mctls::MiddleboxSession, the HTTP channels) can produce on demand.
//
// Sessions do NOT write the registry on their hot paths — they bump plain
// local uint64 members (the same idiom as the pre-existing
// handshake_wire_bytes_ counters) and assemble a SessionStats snapshot when
// asked. Hub::publish() folds a snapshot into the registry under a name
// prefix, which is how benches and the testbed aggregate across sessions.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "util/session_cache.h"

namespace mct::obs {

// Per-encryption-context byte/record accounting (mcTLS contexts; baseline
// TLS sessions report a single pseudo-context).
struct ContextStats {
    std::string name;
    uint16_t id = 0;
    uint64_t bytes_out = 0;    // plaintext payload bytes sealed
    uint64_t bytes_in = 0;     // plaintext payload bytes opened
    uint64_t records_out = 0;
    uint64_t records_in = 0;
};

struct SessionStats {
    std::string actor;
    bool established = false;
    std::string failure;  // empty when healthy

    // Session continuity: abbreviated-handshake establishment, current key
    // epoch, and the number of completed in-band rekeys.
    bool resumed = false;
    uint32_t epoch = 0;
    uint64_t rekeys = 0;

    uint64_t handshake_wire_bytes = 0;
    uint64_t app_overhead_bytes = 0;
    uint64_t app_records_sent = 0;
    uint64_t app_records_received = 0;

    // MAC accounting for the endpoint–writer–reader scheme: an endpoint
    // generates 3 MACs per sealed record; a receiving endpoint verifies 2
    // (writer MAC + endpoint MAC check); a middlebox verifies 1 per record
    // it opens. Baseline TLS counts its single per-record MAC here.
    uint64_t macs_generated = 0;
    uint64_t macs_verified = 0;
    uint64_t mac_failures = 0;

    uint64_t alerts_sent = 0;
    uint64_t alerts_received = 0;

    // Per-alert-type breakdown keyed by tls::to_string(AlertDescription)
    // (string keys: obs cannot see the tls enum). Lets chaos campaigns tell a
    // close_notify drain from a bad_record_mac storm.
    std::map<std::string, uint64_t> alerts_sent_by_type;
    std::map<std::string, uint64_t> alerts_received_by_type;

    // Events the session's journal ring failed to retain (overwrites);
    // nonzero means the captured trace is missing its oldest events and
    // consumers should warn instead of silently truncating.
    uint64_t trace_events_dropped = 0;

    std::vector<ContextStats> contexts;

    void to_json(std::string* out) const;
};

struct Hub {
    MetricsRegistry metrics;

    // Fold a snapshot into the registry as counters named
    // "<prefix>.handshake_wire_bytes", "<prefix>.ctx.<name>.bytes_out", etc.
    // Counters are set (not added): re-publishing the same session updates
    // in place.
    void publish(const std::string& prefix, const SessionStats& s);

    // Fold a cache snapshot into the registry ("<prefix>.hits",
    // "<prefix>.evictions", ...). Same set-in-place semantics; the PR 5
    // Prometheus endpoint exports these like any other counter.
    void publish_cache(const std::string& prefix, const util::CacheStats& s);

    // Aggregate the journal's retained spans into per-stage histograms:
    // "span.<stage>.sim_us" (sim-clock duration) and, for stages carrying a
    // measured CPU cost, "span.<stage>.cpu_ns"; plus a "span.dropped"
    // counter for ring overwrites. Histograms accumulate, so call once per
    // run (the testbed does, at publish_stats time).
    void publish_spans(const Journal& journal);

    // Surface the journal's own health as metrics: "obs.trace.dropped" is
    // the number of events its ring failed to retain (0 without a journal).
    // Zero in a properly-sized steady state — the fast-path test asserts
    // exactly that.
    void publish_trace_health(const Journal* journal);
};

}  // namespace mct::obs
