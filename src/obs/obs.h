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

// One description per stats field: its JSON key, the counter name
// Hub::publish gives it (null: not published), and how SessionStats::fold
// combines two sessions' values when retired sessions aggregate per class.
enum class Fold : uint8_t {
    none,  // identity, not folded (actor, failure, a context's name and id)
    any,   // flag: set when set in any session
    max,   // the highest value (the key epoch)
    sum,   // counters; per-key for maps, per-name for contexts
};

struct StatField {
    const char* key;
    const char* metric;
    Fold fold;
};

// Per-encryption-context byte/record accounting (mcTLS contexts; baseline
// TLS sessions report a single pseudo-context).
struct ContextStats {
    std::string name;
    uint16_t id = 0;
    uint64_t bytes_out = 0;    // plaintext payload bytes sealed
    uint64_t bytes_in = 0;     // plaintext payload bytes opened
    uint64_t records_out = 0;
    uint64_t records_in = 0;

    // The field walk: f(field, member of each stats passed), in JSON order.
    template <class F, class... S>
    static void walk(F&& f, S&... s)
    {
        auto sum = [&f](const char* key, auto&... m) { f(StatField{key, key, Fold::sum}, m...); };
        f(StatField{"name", nullptr, Fold::none}, s.name...);
        f(StatField{"id", nullptr, Fold::none}, s.id...);
        sum("bytes_out", s.bytes_out...);
        sum("bytes_in", s.bytes_in...);
        sum("records_out", s.records_out...);
        sum("records_in", s.records_in...);
    }
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

    // The field walk: f(field, member of each stats passed), in JSON order.
    // to_json, Hub::publish and fold are all written over it, so a field
    // added here reaches all three.
    template <class F, class... S>
    static void walk(F&& f, S&... s)
    {
        auto sum = [&f](const char* key, auto&... m) { f(StatField{key, key, Fold::sum}, m...); };
        f(StatField{"actor", nullptr, Fold::none}, s.actor...);
        f(StatField{"established", "established", Fold::any}, s.established...);
        f(StatField{"failure", nullptr, Fold::none}, s.failure...);
        f(StatField{"resumed", "resumed", Fold::any}, s.resumed...);
        f(StatField{"epoch", "epoch", Fold::max}, s.epoch...);
        sum("rekeys", s.rekeys...);
        sum("handshake_wire_bytes", s.handshake_wire_bytes...);
        sum("app_overhead_bytes", s.app_overhead_bytes...);
        sum("app_records_sent", s.app_records_sent...);
        sum("app_records_received", s.app_records_received...);
        sum("macs_generated", s.macs_generated...);
        sum("macs_verified", s.macs_verified...);
        sum("mac_failures", s.mac_failures...);
        sum("alerts_sent", s.alerts_sent...);
        sum("alerts_received", s.alerts_received...);
        f(StatField{"alerts_sent_by_type", "alerts.sent", Fold::sum}, s.alerts_sent_by_type...);
        f(StatField{"alerts_received_by_type", "alerts.received", Fold::sum},
          s.alerts_received_by_type...);
        sum("trace_events_dropped", s.trace_events_dropped...);
        f(StatField{"contexts", "ctx", Fold::sum}, s.contexts...);
    }

    void to_json(std::string* out) const;

    // Aggregate another session of the same class into this one: counters
    // and per-key/per-context counts add, flags OR, epoch takes the max;
    // actor and failure are left as they are.
    void fold(const SessionStats& other);
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
