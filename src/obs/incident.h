// Incident bundles (DESIGN.md §17): self-contained JSONL forensics
// artifacts written when something terminal happens — a typed session
// failure, a chaos-invariant violation, a liveness-watchdog trip — or on
// demand for a green run that should stay replayable.
//
// A bundle is everything needed to triage a failure *from the artifact
// alone*, without re-running the campaign:
//
//   incident   reason, campaign seed, schedule digest, rerun hint, and the
//              full violation list
//   chaos      the realized chaos schedule (kill/flap/corrupt/... in fire
//              order)
//   counter/gauge/hist   the metrics registry at snapshot time; histograms
//              carry their non-empty log-linear buckets so a reader can
//              merge them and re-derive percentiles (Histogram::merge)
//   ring/ev    the affected sessions' journal lanes (obs/journal.h):
//              per-session event history, interleavable across hops via the
//              journal-wide seq
//   span       the newest spans of the journal's ring, for correlating a
//              dying record's span ids with stage timings
//   flow/frame the MCCAP capture tail as per-frame summaries (timestamps,
//              stream offsets, leading bytes) — enough to line wire activity
//              up against the event timeline
//
// The format is line-oriented JSON (one object per line, discriminated by
// "kind") so bundles stream out of a dying process, survive truncation, and
// stay grep-able. `mctool report` (examples/) renders a bundle into a
// human-readable timeline; parse_incident_bundle() is the library half it
// uses, and the write -> parse -> write round trip is pinned by tests.
//
// Layering: this header stays inside obs (no net/tls includes); the chaos
// plane converts its net::Capture tail into IncidentFlow/IncidentFrame
// summaries before handing them over.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "util/result.h"

namespace mct::obs {

constexpr int kIncidentSchema = 1;

struct IncidentMeta {
    int schema = kIncidentSchema;
    std::string reason;           // first violation, failure, or "green"
    uint64_t seed = 0;            // campaign seed
    uint64_t schedule_digest = 0; // FNV-1a 64 over the realized schedule
    std::string rerun;            // e.g. "MCT_CHAOS_SEED=42"
    std::vector<std::string> violations;
};

struct IncidentChaosEvent {
    uint64_t at = 0;      // sim time (µs)
    std::string action;   // kill | restart | link_down | ... (chaos.h kinds)
    uint64_t arg = 0;
};

struct IncidentHistogram {
    uint64_t count = 0, sum = 0, min = 0, max = 0;
    uint64_t p50 = 0, p90 = 0, p99 = 0;
    std::vector<std::pair<uint64_t, uint64_t>> buckets;  // (index, count), non-empty only
};

struct IncidentRing {
    uint64_t sid = 0;
    std::string label;
    uint64_t total = 0;    // events ever pushed (dropped = total - retained)
    uint64_t dropped = 0;
    struct Event {
        uint64_t seq = 0, ts = 0;
        std::string type;  // EventType name (to_string form)
        uint16_t ctx = 0;
        uint64_t a = 0, b = 0, span = 0;
    };
    std::vector<Event> events;
};

struct IncidentSpan {
    uint64_t trace_id = 0, span_id = 0, parent_id = 0;
    uint64_t start_ts = 0, end_ts = 0, cpu_ns = 0, a = 0;
    std::string actor, stage;
    uint16_t ctx = 0;
};

struct IncidentFlow {
    uint32_t id = 0;
    std::string initiator, responder;
    uint16_t port = 0;
    uint64_t opened_at = 0;
};

struct IncidentFrame {
    uint64_t ts = 0;
    uint32_t flow = 0;
    uint8_t dir = 0;
    std::string kind;  // syn | data | fin
    uint64_t seq = 0;
    uint64_t len = 0;
    std::string head;  // leading payload bytes, lowercase hex (bounded)
};

struct IncidentBundle {
    IncidentMeta meta;
    std::vector<IncidentChaosEvent> chaos;
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, IncidentHistogram> histograms;
    std::vector<IncidentRing> rings;
    std::vector<IncidentSpan> spans;
    std::vector<IncidentFlow> flows;
    std::vector<IncidentFrame> frames;
};

// Live inputs an IncidentManager snapshots into a bundle. All borrowed and
// optional (null/empty sections are simply absent from the bundle).
struct IncidentSources {
    const MetricsRegistry* metrics = nullptr;
    // Source of the ring (lane) and span sections.
    const Journal* journal = nullptr;
    // Lane filter: sids whose lanes belong in the bundle (sid 0 carries the
    // shared infrastructure lanes — server, relays, state plane). Empty =
    // every retained lane.
    std::vector<uint64_t> sids;
    size_t span_tail = 512;  // newest spans retained in the bundle
    std::vector<IncidentChaosEvent> chaos;
    std::vector<IncidentFlow> flows;
    std::vector<IncidentFrame> frames;
};

// Materialize a bundle from live sources (deterministic: map-ordered
// metrics, seq-ordered events/spans).
IncidentBundle build_incident_bundle(const IncidentMeta& meta,
                                     const IncidentSources& sources);

// Serialize / parse the JSONL form. to_jsonl(parse(to_jsonl(b))) is
// byte-identical (pinned by tests/http/incident_test.cpp).
std::string incident_to_jsonl(const IncidentBundle& bundle);
Result<IncidentBundle> parse_incident_bundle(std::string_view jsonl);
Result<IncidentBundle> read_incident_bundle(const std::string& path);

// Snapshot-and-write front end used by the chaos/soak harness: builds the
// bundle, writes "<dir>/incident-<tag>-seed<seed>.jsonl" (directory must
// exist), and returns the path ("" on I/O failure). Deterministic naming —
// no wall clock — so seeded reruns overwrite their own artifact.
class IncidentManager {
public:
    IncidentManager(std::string dir, std::string tag)
        : dir_(std::move(dir)), tag_(std::move(tag))
    {
    }

    std::string write(const IncidentMeta& meta, const IncidentSources& sources) const;
    std::string bundle_path(uint64_t seed) const;

private:
    std::string dir_;
    std::string tag_;
};

}  // namespace mct::obs
