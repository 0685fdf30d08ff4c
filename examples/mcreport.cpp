// mcreport: render an incident bundle (DESIGN.md §17) into a human-readable
// triage report — no re-run required.
//
//   mcreport <incident.jsonl> [--session SID] [--no-metrics] [--no-wire]
//
//     Print the incident header (reason, seed, rerun hint, violations), the
//     realized chaos schedule, and every bundled session's lane (flight
//     recorder) timeline. Lane events across sessions and hops interleave
//     causally via the journal-wide seq; events that carry a span id are
//     annotated with the matching stage timings from the bundled span tail.
//
//     --session SID   only print that session's rings (sid 0 = the shared
//                     server/relay/state-plane infrastructure rings)
//     --no-metrics    skip the metrics registry section
//     --no-wire       skip the capture-tail section
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/incident.h"

using namespace mct;

namespace {

void print_usage()
{
    std::fprintf(stderr,
                 "usage: mcreport <incident.jsonl> [--session SID] [--no-metrics] "
                 "[--no-wire]\n");
}

std::string fmt_time(uint64_t us)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%8.3fms", static_cast<double>(us) / 1000.0);
    return buf;
}

void print_header(const obs::IncidentBundle& b)
{
    std::printf("incident: %s\n", b.meta.reason.c_str());
    std::printf("  schema   %d\n", b.meta.schema);
    std::printf("  seed     %" PRIu64 "\n", b.meta.seed);
    std::printf("  digest   0x%016" PRIx64 "\n", b.meta.schedule_digest);
    if (!b.meta.rerun.empty()) std::printf("  rerun    %s\n", b.meta.rerun.c_str());
    if (!b.meta.violations.empty()) {
        std::printf("  violations (%zu):\n", b.meta.violations.size());
        for (const auto& v : b.meta.violations) std::printf("    - %s\n", v.c_str());
    }
    std::printf("\n");
}

void print_chaos(const obs::IncidentBundle& b)
{
    if (b.chaos.empty()) return;
    std::printf("chaos schedule (%zu events):\n", b.chaos.size());
    for (const auto& e : b.chaos)
        std::printf("  %s  %-12s arg=%" PRIu64 "\n", fmt_time(e.at).c_str(),
                    e.action.c_str(), e.arg);
    std::printf("\n");
}

// Span annotations by span id: "stage actor 12.3ms" for the event lines.
std::map<uint64_t, std::string> index_spans(const obs::IncidentBundle& b)
{
    std::map<uint64_t, std::string> by_id;
    for (const auto& s : b.spans) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%s@%s %.3fms", s.stage.c_str(),
                      s.actor.c_str(),
                      static_cast<double>(s.end_ts - s.start_ts) / 1000.0);
        by_id[s.span_id] = buf;
        // Record roots are referenced by trace id from seal/open events.
        if (s.parent_id == 0 && s.trace_id != 0 && !by_id.count(s.trace_id))
            by_id[s.trace_id] = buf;
    }
    return by_id;
}

struct TimelineRow {
    uint64_t seq = 0;
    uint64_t sid = 0;
    const std::string* label = nullptr;
    const obs::IncidentRing::Event* ev = nullptr;
};

void print_sessions(const obs::IncidentBundle& b, bool session_filter,
                    uint64_t session)
{
    auto spans = index_spans(b);
    // Group rings by sid; a session's timeline merges all its rings (a
    // client ring plus whatever infrastructure rings the filter admitted).
    std::map<uint64_t, std::vector<const obs::IncidentRing*>> by_sid;
    for (const auto& ring : b.rings) {
        if (session_filter && ring.sid != session) continue;
        by_sid[ring.sid].push_back(&ring);
    }
    if (by_sid.empty()) {
        std::printf("no flight rings%s in bundle\n\n",
                    session_filter ? " for that session" : "");
        return;
    }
    for (const auto& [sid, rings] : by_sid) {
        uint64_t total = 0, dropped = 0;
        std::vector<TimelineRow> rows;
        for (const obs::IncidentRing* ring : rings) {
            total += ring->total;
            dropped += ring->dropped;
            for (const auto& ev : ring->events)
                rows.push_back({ev.seq, ring->sid, &ring->label, &ev});
        }
        std::sort(rows.begin(), rows.end(),
                  [](const TimelineRow& a, const TimelineRow& b2) {
                      return a.seq < b2.seq;
                  });
        if (sid == 0)
            std::printf("infrastructure (sid 0): %zu rings, %" PRIu64
                        " events (%" PRIu64 " dropped)\n",
                        rings.size(), total, dropped);
        else
            std::printf("session %" PRIu64 ": %" PRIu64 " events (%" PRIu64
                        " dropped)\n",
                        sid, total, dropped);
        for (const auto& row : rows) {
            const auto& ev = *row.ev;
            std::printf("  %s  #%-6" PRIu64 " %-8s %-18s ctx=%u a=%" PRIu64
                        " b=%" PRIu64,
                        fmt_time(ev.ts).c_str(), ev.seq, row.label->c_str(),
                        ev.type.c_str(), ev.ctx, ev.a, ev.b);
            if (ev.span != 0) {
                auto it = spans.find(ev.span);
                if (it != spans.end())
                    std::printf("  [span %s]", it->second.c_str());
                else
                    std::printf("  [span %" PRIu64 "]", ev.span);
            }
            std::printf("\n");
        }
        std::printf("\n");
    }
}

void print_metrics(const obs::IncidentBundle& b)
{
    if (b.counters.empty() && b.gauges.empty() && b.histograms.empty()) return;
    std::printf("metrics (%zu counters, %zu gauges, %zu histograms):\n",
                b.counters.size(), b.gauges.size(), b.histograms.size());
    for (const auto& [name, v] : b.counters) {
        if (v == 0) continue;  // the registry is wide; zeros add no signal
        std::printf("  %-44s %" PRIu64 "\n", name.c_str(), v);
    }
    for (const auto& [name, v] : b.gauges)
        std::printf("  %-44s %.6g\n", name.c_str(), v);
    for (const auto& [name, h] : b.histograms)
        std::printf("  %-44s n=%" PRIu64 " p50=%" PRIu64 " p90=%" PRIu64
                    " p99=%" PRIu64 " max=%" PRIu64 "\n",
                    name.c_str(), h.count, h.p50, h.p90, h.p99, h.max);
    std::printf("\n");
}

void print_wire(const obs::IncidentBundle& b)
{
    if (b.frames.empty()) return;
    std::printf("capture tail (%zu flows, %zu frames):\n", b.flows.size(),
                b.frames.size());
    std::map<uint32_t, const obs::IncidentFlow*> flows;
    for (const auto& fl : b.flows) flows[fl.id] = &fl;
    for (const auto& fr : b.frames) {
        const obs::IncidentFlow* fl =
            flows.count(fr.flow) ? flows[fr.flow] : nullptr;
        std::string who = fl ? (fr.dir == 0 ? fl->initiator + ">" + fl->responder
                                            : fl->responder + ">" + fl->initiator)
                             : "flow" + std::to_string(fr.flow);
        std::printf("  %s  %-20s %-4s seq=%-8" PRIu64 " len=%-5" PRIu64 " %s\n",
                    fmt_time(fr.ts).c_str(), who.c_str(), fr.kind.c_str(), fr.seq,
                    fr.len, fr.head.c_str());
    }
    std::printf("\n");
}

}  // namespace

int main(int argc, char** argv)
{
    std::string path;
    bool session_filter = false;
    uint64_t session = 0;
    bool show_metrics = true, show_wire = true;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--session") == 0 && i + 1 < argc) {
            session_filter = true;
            session = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(argv[i], "--no-metrics") == 0) {
            show_metrics = false;
        } else if (std::strcmp(argv[i], "--no-wire") == 0) {
            show_wire = false;
        } else if (argv[i][0] == '-') {
            print_usage();
            return 2;
        } else {
            path = argv[i];
        }
    }
    if (path.empty()) {
        print_usage();
        return 2;
    }

    auto bundle = obs::read_incident_bundle(path);
    if (!bundle.ok()) {
        std::fprintf(stderr, "mcreport: %s: %s\n", path.c_str(),
                     bundle.error().message.c_str());
        return 1;
    }
    const obs::IncidentBundle& b = bundle.value();
    print_header(b);
    print_chaos(b);
    print_sessions(b, session_filter, session);
    if (show_metrics && !session_filter) print_metrics(b);
    if (show_wire && !session_filter) print_wire(b);
    return 0;
}
