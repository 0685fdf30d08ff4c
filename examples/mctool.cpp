// mctool: one command-line tool for inspecting mcTLS runs and timing
// handshakes.
//
//   mctool trace  [trace.jsonl] [--session <actor>] [--ctx <id>] [--perfetto <out.json>]
//   mctool flame  [--top <n>] [--perfetto <out.json>]
//   mctool report <incident.jsonl> [--session SID] [--no-metrics] [--no-wire]
//   mctool dump   [capture.mccap] [--keylog <file>] [--audit] [--metrics] [--json]
//   mctool perf   [middleboxes] [contexts] [seconds] [--ckd]
//
// trace   Print a JSONL event trace (obs::write_jsonl) as a table, optionally
//         filtered to one actor and/or one context id. Columns: seq (global
//         causal order), ts (µs on the sim clock), actor, event type,
//         context id, and the two type-dependent payload fields a/b.
// flame   Text flame view of the latency-attribution spans: the handshake
//         waterfall, where end-to-end record time goes (sim-clock stages
//         plus measured CPU of the crypto stages), and the top-N slowest
//         records with their per-hop breakdown.
// report  Render an incident bundle (DESIGN.md §17) as a triage report:
//         header, realized chaos schedule, each session's lane timeline
//         (annotated with span timings), metrics and the capture tail.
//         --session SID prints only that session (sid 0 = the shared
//         infrastructure rings) and implies --no-metrics --no-wire.
// dump    Reassemble every flow of an MCCAP capture (docs/PROTOCOL.md
//         "Capture file format"), group hops into sessions and print the
//         record structure. With --keylog, payloads are decrypted and all
//         three MACs verified per record; --audit prints the least-privilege
//         access report as JSON, --metrics the dissection counters in
//         Prometheus text format, --json the records as JSON lines.
// perf    The analogue of the paper's modified `openssl s_time` (§5.4):
//         full mcTLS handshakes per second through an in-memory chain
//         (client + middleboxes + server in one process).
//
// Without an input file, trace, flame and dump run one demo: a 2 kB + 64 kB
// fetch through client -> mbox0 (read) -> mbox1 (write, upper-cases the
// response body) -> server over the simulated network, with the event
// journal, a wire capture and a keylog attached. The demo writes
// trace_demo.jsonl, mcdump_demo.mccap and mcdump_demo.keylog, which the
// file modes read back. --perfetto also writes the events (and spans) as
// Chrome trace JSON for ui.perfetto.dev.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "chain_bench.h"
#include "http/testbed.h"
#include "inspect/audit.h"
#include "inspect/dissect.h"
#include "inspect/keyring.h"
#include "net/capture.h"
#include "obs/incident.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/perfetto.h"
#include "tls/keylog.h"

using namespace mct;
using mct::net::operator""_ms;

namespace {

// ---- Arguments ----------------------------------------------------------

struct Args {
    std::vector<std::string> positional;
    std::map<std::string, std::string> flags;  // switches map to ""

    const char* get(const char* flag) const
    {
        auto it = flags.find(flag);
        return it == flags.end() ? nullptr : it->second.c_str();
    }
    bool has(const char* flag) const { return flags.count(flag) != 0; }
};

struct Command {
    const char* name;
    const char* usage;  // what follows the command name
    std::vector<std::string> value_flags;
    std::vector<std::string> switches;
    size_t max_positional;
    int (*run)(const Args&);
};

// ---- Shared output --------------------------------------------------------

int write_perfetto(const char* path, const obs::ChromeTraceInput& in, const std::string& what)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "mctool: cannot write %s\n", path);
        return 1;
    }
    out << obs::to_chrome_trace(in);
    std::printf("-- wrote %s to %s (open in ui.perfetto.dev)\n", what.c_str(), path);
    return 0;
}

void warn_dropped(const obs::Journal& journal)
{
    // Diagnostics go to stderr so piped/redirected output stays clean.
    if (journal.dropped() > 0)
        std::fprintf(stderr,
                     "WARNING: journal ring dropped %llu events (oldest first); "
                     "the output above is incomplete\n",
                     static_cast<unsigned long long>(journal.dropped()));
}

// ---- The demo chain -------------------------------------------------------

constexpr const char* kDemoTrace = "trace_demo.jsonl";
constexpr const char* kDemoCapture = "mcdump_demo.mccap";
constexpr const char* kDemoKeylog = "mcdump_demo.keylog";

// Runs the demo fetch into `journal` and writes the three demo files.
// Returns false (having said why on stderr) when the fetch fails.
bool run_demo(obs::Journal& journal)
{
    net::CaptureFileWriter capture(kDemoCapture);
    tls::KeyLogFile keylog(kDemoKeylog);
    if (!capture.ok() || !keylog.ok()) {
        std::fprintf(stderr, "mctool: cannot write %s / %s\n", kDemoCapture, kDemoKeylog);
        return false;
    }
    http::TestbedConfig cfg;
    cfg.mode = http::Mode::mctls;
    cfg.n_middleboxes = 2;
    cfg.strategy = http::ContextStrategy::four_contexts;
    size_t n_ctx = http::strategy_contexts(cfg.strategy, 2, mctls::Permission::write).size();
    cfg.permission_rows = {
        std::vector<mctls::Permission>(n_ctx, mctls::Permission::read),
        std::vector<mctls::Permission>(n_ctx, mctls::Permission::write),
    };
    cfg.per_hop_links = {{20_ms, 0}, {10_ms, 0}, {5_ms, 0}};
    cfg.journal = &journal;
    cfg.capture = &capture;
    cfg.keylog = &keylog;

    http::Testbed bed(cfg);
    // Give the write box real work: upper-case the response body so the
    // writer path reseals (re-MAC + re-encrypt) instead of passing records
    // through untouched.
    bed.set_middlebox_customizer([](size_t index, mctls::MiddleboxConfig& mcfg) {
        if (index != 1) return;
        mcfg.transform = [](uint8_t ctx, mctls::Direction dir, Bytes payload) {
            if (ctx != 4 || dir != mctls::Direction::server_to_client) return payload;
            for (auto& b : payload)
                if (b >= 'a' && b <= 'z') b = static_cast<uint8_t>(b - 'a' + 'A');
            return payload;
        };
    });
    std::printf("Fetching 2 kB + 64 kB through client -> mbox0(read) -> mbox1(write) "
                "-> server...\n");
    auto fetch = bed.fetch_sequence({2000, 64000});
    bed.run();
    capture.flush();
    if (!fetch->completed || fetch->failed) {
        std::fprintf(stderr, "mctool: demo fetch failed: %s\n", fetch->error.c_str());
        return false;
    }
    if (!obs::write_jsonl(journal, kDemoTrace))
        std::fprintf(stderr, "mctool: could not write %s\n", kDemoTrace);
    return true;
}

// ---- trace ----------------------------------------------------------------

void print_trace_header()
{
    std::printf("%6s %10s %-12s %-22s %4s %10s %6s\n", "seq", "ts(us)", "actor", "type",
                "ctx", "a", "b");
}

void print_trace_row(uint64_t seq, uint64_t ts, const std::string& actor,
                     const std::string& type, uint64_t ctx, uint64_t a, uint64_t b)
{
    std::printf("%6llu %10llu %-12s %-22s %4llu %10llu %6llu\n",
                static_cast<unsigned long long>(seq), static_cast<unsigned long long>(ts),
                actor.c_str(), type.c_str(), static_cast<unsigned long long>(ctx),
                static_cast<unsigned long long>(a), static_cast<unsigned long long>(b));
}

int trace_file(const char* path, const std::string& session_filter, int ctx_filter,
               const char* perfetto_path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "mctool trace: cannot open %s\n", path);
        return 1;
    }
    print_trace_header();
    // --perfetto: re-intern actors into a local journal so the converter can
    // name them, and keep the parsed events for serialization.
    obs::Journal actors({.capacity = 0});
    std::vector<obs::Event> parsed;
    std::string line;
    size_t lineno = 0, shown = 0, total = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty()) continue;
        auto doc = obs::json_parse(line);
        if (!doc.ok()) {
            std::fprintf(stderr, "mctool trace: %s:%zu: %s\n", path, lineno,
                         doc.error().message.c_str());
            return 1;
        }
        const obs::JsonValue& v = doc.value();
        auto num = [&](const char* key) -> uint64_t {
            const obs::JsonValue* f = v.get(key);
            return f ? static_cast<uint64_t>(f->num) : 0;
        };
        auto str = [&](const char* key) -> std::string {
            const obs::JsonValue* f = v.get(key);
            return f ? f->str : std::string("?");
        };
        ++total;
        if (perfetto_path) {
            obs::Event e;
            e.seq = num("seq");
            e.ts = num("ts");
            e.actor = actors.intern(str("actor"));
            e.ctx = static_cast<uint16_t>(num("ctx"));
            e.a = num("a");
            e.b = num("b");
            // Unknown names (from a newer writer) are left out of the
            // Perfetto output; the table below still shows their text.
            if (obs::event_type_from_string(str("type"), &e.type)) parsed.push_back(e);
        }
        if (!session_filter.empty() && str("actor") != session_filter) continue;
        if (ctx_filter >= 0 && num("ctx") != static_cast<uint64_t>(ctx_filter)) continue;
        print_trace_row(num("seq"), num("ts"), str("actor"), str("type"), num("ctx"),
                        num("a"), num("b"));
        ++shown;
    }
    if (shown == total)
        std::printf("-- %zu events\n", shown);
    else
        std::printf("-- %zu of %zu events (filtered)\n", shown, total);
    if (perfetto_path)
        return write_perfetto(perfetto_path, {&parsed, &actors},
                              std::to_string(parsed.size()) + " trace entries");
    return 0;
}

int trace_demo(const char* perfetto_path)
{
    obs::Journal journal({.capacity = 40960});
    if (!run_demo(journal)) return 1;
    std::vector<obs::Event> all = journal.events();
    size_t n_events = 0;
    for (const auto& e : all) {
        if (e.is_span()) continue;
        if (n_events++ == 0) print_trace_header();
        print_trace_row(e.seq, e.ts, journal.actor_name(e.actor), obs::to_string(e.type),
                        e.ctx, e.a, e.b);
    }
    if (n_events == 0) {
        std::printf("No trace events captured.\n"
                    "This tree was configured with -DMCT_OBS=OFF; rebuild with the\n"
                    "default -DMCT_OBS=ON to enable trace emission.\n");
        return 0;
    }
    std::printf("-- %zu events (also written to %s; re-run as\n"
                "   `mctool trace %s` to dump from the file)\n",
                n_events, kDemoTrace, kDemoTrace);
    warn_dropped(journal);
    if (perfetto_path)
        return write_perfetto(perfetto_path, {&all, &journal},
                              std::to_string(all.size()) + " trace entries");
    return 0;
}

int cmd_trace(const Args& args)
{
    const char* perfetto_path = args.get("--perfetto");
    std::string session_filter = args.has("--session") ? args.get("--session") : "";
    int ctx_filter = args.has("--ctx") ? std::atoi(args.get("--ctx")) : -1;
    if (!args.positional.empty())
        return trace_file(args.positional[0].c_str(), session_filter, ctx_filter,
                          perfetto_path);
    if (!session_filter.empty() || ctx_filter >= 0) {
        std::fprintf(stderr, "mctool trace: filters need a trace file\n");
        return 2;
    }
    return trace_demo(perfetto_path);
}

// ---- flame ----------------------------------------------------------------

constexpr int kBarWidth = 40;

std::string bar(double fraction)
{
    int fill = static_cast<int>(fraction * kBarWidth + 0.5);
    if (fill > kBarWidth) fill = kBarWidth;
    std::string out;
    for (int i = 0; i < kBarWidth; ++i) out += i < fill ? '#' : '.';
    return out;
}

// Everything the flame view needs about one traced application record.
struct RecordTrace {
    uint64_t trace_id = 0;
    uint64_t start_ts = 0;  // record root span emission (sender)
    uint64_t end_ts = 0;    // latest span end (receiver's deliver)
    uint64_t bytes = 0;
    uint16_t ctx = 0;
    uint16_t origin = 0;  // root span's actor
    std::vector<const obs::Event*> spans;

    bool rooted() const { return start_ts != 0 || bytes != 0; }  // root still in the ring
    uint64_t latency() const { return end_ts > start_ts ? end_ts - start_ts : 0; }
};

void print_waterfall(const std::vector<obs::Event>& events, const obs::Journal& journal)
{
    std::printf("\n== Handshake waterfall (sim ms) ==\n");
    auto phases = obs::handshake_phases(events, journal);
    uint64_t hs_end = 0;
    for (const auto& p : phases) hs_end = std::max(hs_end, p.end_ts);
    for (const auto& p : phases) {
        int lead = hs_end ? static_cast<int>(kBarWidth * p.start_ts / hs_end) : 0;
        int span = hs_end ? static_cast<int>(kBarWidth * (p.end_ts - p.start_ts) / hs_end)
                          : 0;
        std::printf("  %-10s %-22s %*s%-*s %7.1f..%-7.1f\n", p.actor.c_str(),
                    p.phase.c_str(), lead, "", kBarWidth - lead,
                    std::string(static_cast<size_t>(span) + 1, '#').c_str(),
                    static_cast<double>(p.start_ts) / 1000.0,
                    static_cast<double>(p.end_ts) / 1000.0);
    }
}

void print_stage_totals(const std::map<uint64_t, RecordTrace>& traces)
{
    uint64_t sim_by_stage[16] = {};
    uint64_t cpu_by_stage[16] = {};
    uint64_t total_latency = 0;
    size_t n_records = 0;
    for (const auto& [id, t] : traces) {
        if (!t.rooted()) continue;
        ++n_records;
        total_latency += t.latency();
        for (const auto* s : t.spans) {
            auto i = static_cast<size_t>(s->stage);
            if (i >= 16) continue;
            sim_by_stage[i] += s->end_ts - s->ts;
            cpu_by_stage[i] += s->cpu_ns;
        }
    }
    std::printf("\n== Where the time goes (%zu traced records, %.1f ms total "
                "end-to-end) ==\n",
                n_records, static_cast<double>(total_latency) / 1000.0);
    std::printf("  sim-clock stages (sum to end-to-end latency):\n");
    for (auto stage : {obs::Stage::queue_wait, obs::Stage::transmit}) {
        auto i = static_cast<size_t>(stage);
        double frac =
            total_latency ? static_cast<double>(sim_by_stage[i]) / total_latency : 0;
        std::printf("    %-14s %s %9.1f ms (%5.1f%%)\n", obs::to_string(stage),
                    bar(frac).c_str(), static_cast<double>(sim_by_stage[i]) / 1000.0,
                    100.0 * frac);
    }
    uint64_t cpu_total = 0;
    for (uint64_t c : cpu_by_stage) cpu_total += c;
    std::printf("  measured CPU cost of crypto stages:\n");
    for (auto stage : {obs::Stage::encode, obs::Stage::mac, obs::Stage::encrypt,
                       obs::Stage::reseal, obs::Stage::decrypt_verify}) {
        auto i = static_cast<size_t>(stage);
        double frac = cpu_total ? static_cast<double>(cpu_by_stage[i]) / cpu_total : 0;
        std::printf("    %-14s %s %9.1f us (%5.1f%%)\n", obs::to_string(stage),
                    bar(frac).c_str(), static_cast<double>(cpu_by_stage[i]) / 1000.0,
                    100.0 * frac);
    }
}

void print_slowest(const std::map<uint64_t, RecordTrace>& traces, size_t top_n,
                   const obs::Journal& journal)
{
    std::vector<const RecordTrace*> ranked;
    for (const auto& [id, t] : traces)
        if (t.rooted()) ranked.push_back(&t);
    std::sort(ranked.begin(), ranked.end(), [](const RecordTrace* a, const RecordTrace* b) {
        return a->latency() > b->latency();
    });
    if (ranked.size() > top_n) ranked.resize(top_n);
    std::printf("\n== Top %zu slowest records ==\n", ranked.size());
    for (const auto* t : ranked) {
        std::printf("  trace %llu: %llu B, ctx %u, from %s, end-to-end %.1f ms\n",
                    static_cast<unsigned long long>(t->trace_id),
                    static_cast<unsigned long long>(t->bytes), t->ctx,
                    journal.actor_name(t->origin).c_str(),
                    static_cast<double>(t->latency()) / 1000.0);
        // Spans in seq order = causal order along the pipeline.
        std::vector<const obs::Event*> ordered = t->spans;
        std::sort(ordered.begin(), ordered.end(),
                  [](const obs::Event* a, const obs::Event* b) { return a->seq < b->seq; });
        for (const auto* s : ordered) {
            uint64_t dur = s->end_ts - s->ts;
            if (dur == 0 && s->cpu_ns == 0) continue;  // zero-width markers
            double frac = t->latency() ? static_cast<double>(dur) / t->latency() : 0;
            std::printf("    %-16s %-14s %s", journal.actor_name(s->actor).c_str(),
                        obs::to_string(s->stage), bar(frac).c_str());
            if (dur)
                std::printf(" %9.1f ms\n", static_cast<double>(dur) / 1000.0);
            else
                std::printf(" %7.1f us(cpu)\n", static_cast<double>(s->cpu_ns) / 1000.0);
        }
    }
}

int cmd_flame(const Args& args)
{
    size_t top_n = args.has("--top") ? static_cast<size_t>(std::atoi(args.get("--top"))) : 3;
    obs::Journal journal({.capacity = 40960});
    if (!run_demo(journal)) return 1;

    std::vector<obs::Event> all = journal.events();
    std::vector<obs::Event> events, spans;
    for (const auto& e : all) (e.is_span() ? spans : events).push_back(e);
    print_waterfall(events, journal);

    std::map<uint64_t, RecordTrace> traces;
    for (const auto& s : spans) {
        if (s.stage == obs::Stage::handshake) continue;
        RecordTrace& t = traces[s.trace_id];
        t.trace_id = s.trace_id;
        t.end_ts = std::max(t.end_ts, s.end_ts);
        if (s.stage == obs::Stage::record) {
            t.start_ts = s.ts;
            t.bytes = s.a;
            t.ctx = s.ctx;
            t.origin = s.actor;
        }
        t.spans.push_back(&s);
    }
    print_stage_totals(traces);
    print_slowest(traces, top_n, journal);
    warn_dropped(journal);

    const char* perfetto_path = args.get("--perfetto");
    if (!perfetto_path) return 0;
    std::printf("\n");
    return write_perfetto(perfetto_path, {&all, &journal},
                          std::to_string(spans.size()) + " spans + " +
                              std::to_string(events.size()) + " events");
}

// ---- report ---------------------------------------------------------------

std::string fmt_time(uint64_t us)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%8.3fms", static_cast<double>(us) / 1000.0);
    return buf;
}

void print_incident_header(const obs::IncidentBundle& b)
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
    if (b.chaos.empty()) return;
    std::printf("chaos schedule (%zu events):\n", b.chaos.size());
    for (const auto& e : b.chaos)
        std::printf("  %s  %-12s arg=%" PRIu64 "\n", fmt_time(e.at).c_str(),
                    e.action.c_str(), e.arg);
    std::printf("\n");
}

// Span annotations by span id: "stage@actor 12.3ms" for the event lines.
std::map<uint64_t, std::string> index_spans(const obs::IncidentBundle& b)
{
    std::map<uint64_t, std::string> by_id;
    for (const auto& s : b.spans) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%s@%s %.3fms", s.stage.c_str(), s.actor.c_str(),
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
    const std::string* label = nullptr;
    const obs::IncidentRing::Event* ev = nullptr;
};

void print_sessions(const obs::IncidentBundle& b, const char* session)
{
    uint64_t sid_filter = session ? std::strtoull(session, nullptr, 0) : 0;
    auto spans = index_spans(b);
    // Group rings by sid; a session's timeline merges all its rings (a
    // client ring plus whatever infrastructure rings the filter admitted).
    std::map<uint64_t, std::vector<const obs::IncidentRing*>> by_sid;
    for (const auto& ring : b.rings)
        if (!session || ring.sid == sid_filter) by_sid[ring.sid].push_back(&ring);
    if (by_sid.empty()) {
        std::printf("no flight rings%s in bundle\n\n", session ? " for that session" : "");
        return;
    }
    for (const auto& [sid, rings] : by_sid) {
        uint64_t total = 0, dropped = 0;
        std::vector<TimelineRow> rows;
        for (const obs::IncidentRing* ring : rings) {
            total += ring->total;
            dropped += ring->dropped;
            for (const auto& ev : ring->events) rows.push_back({ev.seq, &ring->label, &ev});
        }
        std::sort(rows.begin(), rows.end(),
                  [](const TimelineRow& a, const TimelineRow& c) { return a.seq < c.seq; });
        if (sid == 0)
            std::printf("infrastructure (sid 0): %zu rings, %" PRIu64 " events (%" PRIu64
                        " dropped)\n",
                        rings.size(), total, dropped);
        else
            std::printf("session %" PRIu64 ": %" PRIu64 " events (%" PRIu64 " dropped)\n",
                        sid, total, dropped);
        for (const auto& row : rows) {
            const auto& ev = *row.ev;
            std::printf("  %s  #%-6" PRIu64 " %-8s %-18s ctx=%u a=%" PRIu64 " b=%" PRIu64,
                        fmt_time(ev.ts).c_str(), ev.seq, row.label->c_str(), ev.type.c_str(),
                        ev.ctx, ev.a, ev.b);
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

void print_incident_metrics(const obs::IncidentBundle& b)
{
    if (b.counters.empty() && b.gauges.empty() && b.histograms.empty()) return;
    std::printf("metrics (%zu counters, %zu gauges, %zu histograms):\n", b.counters.size(),
                b.gauges.size(), b.histograms.size());
    for (const auto& [name, v] : b.counters) {
        if (v == 0) continue;  // the registry is wide; zeros add no signal
        std::printf("  %-44s %" PRIu64 "\n", name.c_str(), v);
    }
    for (const auto& [name, v] : b.gauges) std::printf("  %-44s %.6g\n", name.c_str(), v);
    for (const auto& [name, h] : b.histograms)
        std::printf("  %-44s n=%" PRIu64 " p50=%" PRIu64 " p90=%" PRIu64 " p99=%" PRIu64
                    " max=%" PRIu64 "\n",
                    name.c_str(), h.count, h.p50, h.p90, h.p99, h.max);
    std::printf("\n");
}

void print_incident_wire(const obs::IncidentBundle& b)
{
    if (b.frames.empty()) return;
    std::printf("capture tail (%zu flows, %zu frames):\n", b.flows.size(), b.frames.size());
    std::map<uint32_t, const obs::IncidentFlow*> flows;
    for (const auto& fl : b.flows) flows[fl.id] = &fl;
    for (const auto& fr : b.frames) {
        std::string who = "flow" + std::to_string(fr.flow);
        if (auto it = flows.find(fr.flow); it != flows.end()) {
            const obs::IncidentFlow& fl = *it->second;
            who = fr.dir == 0 ? fl.initiator + ">" + fl.responder
                              : fl.responder + ">" + fl.initiator;
        }
        std::printf("  %s  %-20s %-4s seq=%-8" PRIu64 " len=%-5" PRIu64 " %s\n",
                    fmt_time(fr.ts).c_str(), who.c_str(), fr.kind.c_str(), fr.seq, fr.len,
                    fr.head.c_str());
    }
    std::printf("\n");
}

int cmd_report(const Args& args)
{
    if (args.positional.empty()) return -1;  // usage
    const std::string& path = args.positional[0];
    auto bundle = obs::read_incident_bundle(path);
    if (!bundle.ok()) {
        std::fprintf(stderr, "mctool report: %s: %s\n", path.c_str(),
                     bundle.error().message.c_str());
        return 1;
    }
    const obs::IncidentBundle& b = bundle.value();
    const char* session = args.get("--session");
    print_incident_header(b);
    print_sessions(b, session);
    if (!args.has("--no-metrics") && !session) print_incident_metrics(b);
    if (!args.has("--no-wire") && !session) print_incident_wire(b);
    return 0;
}

// ---- dump -----------------------------------------------------------------

const char* type_name(tls::ContentType t)
{
    switch (t) {
    case tls::ContentType::change_cipher_spec: return "ccs";
    case tls::ContentType::alert: return "alert";
    case tls::ContentType::handshake: return "handshake";
    case tls::ContentType::application_data: return "appdata";
    case tls::ContentType::rekey: return "rekey";
    }
    return "?";
}

char mac_char(inspect::MacStatus s)
{
    switch (s) {
    case inspect::MacStatus::not_checked: return '-';
    case inspect::MacStatus::ok: return 'v';
    case inspect::MacStatus::mismatch: return 'X';
    }
    return '?';
}

std::string preview(ConstBytes payload, size_t limit = 28)
{
    std::string out;
    for (size_t i = 0; i < payload.size() && i < limit; ++i) {
        char c = static_cast<char>(payload[i]);
        out.push_back(c >= 0x20 && c < 0x7f ? c : '.');
    }
    if (payload.size() > limit) out += "...";
    return out;
}

void dump_session_table(size_t index, const inspect::SessionDissection& session)
{
    std::printf("session %zu: %s%s%s, client_random=%s\n", index,
                session.is_mctls ? "mcTLS" : "TLS", session.resumed ? " (resumed)" : "",
                session.ckd ? " (client-key-distribution)" : "",
                session.client_random.empty()
                    ? "?"
                    : to_hex(ConstBytes(session.client_random).subspan(0, 8)).c_str());
    if (!session.error.empty()) std::printf("  note: %s\n", session.error.c_str());
    std::printf("  chain:");
    for (const auto& n : session.entities()) std::printf(" %s", n.c_str());
    std::printf("\n");
    if (session.is_mctls) {
        for (size_t c = 0; c < session.contexts.size(); ++c) {
            const auto& ctx = session.contexts[c];
            std::printf("  context %u (%s):", ctx.id, ctx.purpose.c_str());
            for (size_t m = 0; m < session.middleboxes.size(); ++m)
                std::printf(" %s=%s", session.middleboxes[m].name.c_str(),
                            mctls::to_string(session.effective_permission(c, m)));
            std::printf("\n");
        }
        if (session.rekeys_observed)
            std::printf("  rekeys observed: %u\n", session.rekeys_observed);
    }
    std::printf("  keys: %s\n", session.keys_available ? "available (keylog matched)"
                                                       : "none (framing-only dissection)");
    for (size_t h = 0; h < session.hops.size(); ++h) {
        const auto& hop = session.hops[h];
        std::printf("  hop %zu: %s <-> %s (flow %u)%s%s\n", h, hop.initiator.c_str(),
                    hop.responder.c_str(), hop.flow_id, hop.error.empty() ? "" : "  ERROR: ",
                    hop.error.c_str());
        std::printf("    %3s %10s %-9s %3s %5s %5s %6s %-4s %s\n", "dir", "ts(us)", "type",
                    "ctx", "epoch", "seq", "len", "EWR", "note/payload");
        for (const auto& rec : hop.records) {
            char macs[5] = {mac_char(rec.endpoint_mac), mac_char(rec.writer_mac),
                            mac_char(rec.reader_mac), 0, 0};
            std::string info = rec.note;
            if (rec.is_app && rec.decrypted)
                info = (info.empty() ? "" : info + " ") + "\"" + preview(rec.payload) + "\"";
            else if (rec.is_app && !rec.keys_found)
                info = "<no keys>";
            else if (rec.is_app)
                info = "<decrypt failed>";
            std::printf("    %3s %10llu %-9s %3u %5u %5llu %6u %-4s %s\n",
                        rec.dir == 0 ? "->" : "<-", static_cast<unsigned long long>(rec.ts),
                        type_name(rec.type), rec.context_id, rec.epoch,
                        static_cast<unsigned long long>(rec.app_seq), rec.wire_len, macs,
                        info.c_str());
        }
    }
}

void dump_session_json(const inspect::SessionDissection& session)
{
    for (size_t h = 0; h < session.hops.size(); ++h) {
        for (const auto& rec : session.hops[h].records) {
            std::string line;
            obs::JsonWriter w(&line);
            w.begin_object();
            w.key("hop");
            w.value(static_cast<uint64_t>(h));
            w.key("dir");
            w.value(static_cast<uint64_t>(rec.dir));
            w.key("ts");
            w.value(rec.ts);
            w.key("type");
            w.value(type_name(rec.type));
            w.key("ctx");
            w.value(static_cast<uint64_t>(rec.context_id));
            w.key("epoch");
            w.value(static_cast<uint64_t>(rec.epoch));
            if (rec.is_app) {
                w.key("app_seq");
                w.value(rec.app_seq);
                w.key("decrypted");
                w.value(rec.decrypted);
                w.key("endpoint_mac");
                w.value(inspect::to_string(rec.endpoint_mac));
                w.key("writer_mac");
                w.value(inspect::to_string(rec.writer_mac));
                w.key("reader_mac");
                w.value(inspect::to_string(rec.reader_mac));
                if (rec.decrypted) {
                    w.key("payload");
                    w.value(preview(rec.payload, 64));
                }
            }
            if (!rec.note.empty()) {
                w.key("note");
                w.value(rec.note);
            }
            w.end_object();
            std::printf("%s\n", line.c_str());
        }
    }
}

void dump_metrics(const std::vector<inspect::SessionDissection>& sessions)
{
    obs::MetricsRegistry metrics;
    auto* n_sessions = metrics.counter("mcdump.sessions");
    auto* n_records = metrics.counter("mcdump.records");
    auto* n_app = metrics.counter("mcdump.app_records");
    auto* n_decrypted = metrics.counter("mcdump.app_records_decrypted");
    auto* n_anomalies = metrics.counter("mcdump.audit_anomalies");
    auto* sizes = metrics.histogram("mcdump.record_wire_bytes");
    for (const auto& session : sessions) {
        n_sessions->add(1);
        for (const auto& hop : session.hops) {
            for (const auto& rec : hop.records) {
                n_records->add(1);
                sizes->record(rec.wire_len);
                if (!rec.is_app) continue;
                n_app->add(1);
                if (rec.decrypted) n_decrypted->add(1);
            }
        }
        n_anomalies->add(inspect::build_audit(session).anomalies.size());
    }
    std::string text;
    metrics.to_prometheus(&text);
    std::printf("%s", text.c_str());
}

int dump_capture(const char* capture_path, const char* keylog_path, const Args& args)
{
    auto capture = net::capture_read_file(capture_path);
    if (!capture.ok()) {
        std::fprintf(stderr, "mctool dump: %s\n", capture.error().message.c_str());
        return 1;
    }
    inspect::KeyRing ring;
    if (keylog_path) {
        auto parsed = inspect::read_keylog_file(keylog_path);
        if (!parsed.ok()) {
            std::fprintf(stderr, "mctool dump: %s\n", parsed.error().message.c_str());
            return 1;
        }
        ring = parsed.take();
    }
    auto sessions = inspect::dissect_capture(capture.value(), keylog_path ? &ring : nullptr);
    if (sessions.empty()) {
        std::printf("mctool dump: no flows in capture\n");
        return 0;
    }
    if (args.has("--metrics")) {
        dump_metrics(sessions);
        return 0;
    }
    for (size_t i = 0; i < sessions.size(); ++i) {
        if (args.has("--audit")) {
            std::string out;
            inspect::build_audit(sessions[i]).to_json(&out);
            std::printf("%s\n", out.c_str());
        } else if (args.has("--json")) {
            dump_session_json(sessions[i]);
        } else {
            dump_session_table(i, sessions[i]);
        }
    }
    return 0;
}

int cmd_dump(const Args& args)
{
    if (!args.positional.empty())
        return dump_capture(args.positional[0].c_str(), args.get("--keylog"), args);
    if (args.has("--keylog")) {
        std::fprintf(stderr, "mctool dump: --keylog needs a capture file\n");
        return 2;
    }
    obs::Journal journal({.capacity = 40960});
    if (!run_demo(journal)) return 1;
    std::printf("wrote %s and %s; dissecting:\n\n", kDemoCapture, kDemoKeylog);
    int rc = dump_capture(kDemoCapture, kDemoKeylog, args);
    std::printf("\n(re-run as `mctool dump %s --keylog %s --audit` for the JSON access "
                "audit)\n",
                kDemoCapture, kDemoKeylog);
    return rc;
}

// ---- perf -----------------------------------------------------------------

int cmd_perf(const Args& args)
{
    auto arg = [&](size_t i, const char* fallback) {
        return i < args.positional.size() ? args.positional[i].c_str() : fallback;
    };
    bench::ChainConfig cfg;
    cfg.n_middleboxes = std::strtoul(arg(0, "1"), nullptr, 10);
    cfg.n_contexts = std::strtoul(arg(1, "4"), nullptr, 10);
    cfg.client_key_distribution = args.has("--ckd");
    double seconds = std::strtod(arg(2, "2.0"), nullptr);
    if (cfg.n_middleboxes > 16 || cfg.n_contexts == 0 || cfg.n_contexts > 200) {
        std::fprintf(stderr, "mctool perf: middleboxes must be <= 16, contexts 1..200\n");
        return 2;
    }

    bench::BenchPki pki;
    crypto::HmacDrbg rng(str_to_bytes("perf-seed"));
    std::printf("mctool perf: %zu middlebox(es), %zu context(s)%s, %.1f s budget\n",
                cfg.n_middleboxes, cfg.n_contexts,
                cfg.client_key_distribution ? ", client key distribution" : "", seconds);
    auto start = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    };
    size_t count = 0;
    while (elapsed() < seconds) {
        if (!bench::run_mctls_handshake(pki, cfg, rng, nullptr, nullptr)) {
            std::fprintf(stderr, "mctool perf: handshake failed\n");
            return 1;
        }
        ++count;
    }
    double total = elapsed();
    std::printf("%zu handshakes in %.2f s -> %.1f full-chain handshakes/sec\n", count, total,
                count / total);
    std::printf("(counts the whole chain: client + middleboxes + server in-process)\n");
    return 0;
}

// ---- Command table ----------------------------------------------------------

const std::vector<Command>& commands()
{
    static const std::vector<Command> table = {
        {"trace", "[trace.jsonl] [--session <actor>] [--ctx <id>] [--perfetto <out.json>]",
         {"--session", "--ctx", "--perfetto"}, {}, 1, cmd_trace},
        {"flame", "[--top <n>] [--perfetto <out.json>]", {"--top", "--perfetto"}, {}, 0,
         cmd_flame},
        {"report", "<incident.jsonl> [--session SID] [--no-metrics] [--no-wire]",
         {"--session"}, {"--no-metrics", "--no-wire"}, 1, cmd_report},
        {"dump", "[capture.mccap] [--keylog <file>] [--audit] [--metrics] [--json]",
         {"--keylog"}, {"--audit", "--metrics", "--json"}, 1, cmd_dump},
        {"perf", "[middleboxes] [contexts] [seconds] [--ckd]", {}, {"--ckd"}, 3, cmd_perf},
    };
    return table;
}

int usage()
{
    std::fprintf(stderr, "usage:\n");
    for (const auto& c : commands()) std::fprintf(stderr, "  mctool %-6s %s\n", c.name, c.usage);
    return 2;
}

bool contains(const std::vector<std::string>& list, const std::string& s)
{
    return std::find(list.begin(), list.end(), s) != list.end();
}

}  // namespace

int main(int argc, char** argv)
{
    if (argc < 2) return usage();
    const std::string name = argv[1];
    auto cmd = std::find_if(commands().begin(), commands().end(),
                            [&](const Command& c) { return name == c.name; });
    if (cmd == commands().end()) return usage();

    Args args;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (contains(cmd->value_flags, arg) && i + 1 < argc) {
            args.flags[arg] = argv[++i];
        } else if (contains(cmd->switches, arg)) {
            args.flags[arg] = "";
        } else if (!arg.empty() && arg[0] != '-' &&
                   args.positional.size() < cmd->max_positional) {
            args.positional.push_back(arg);
        } else {
            return usage();
        }
    }
    int rc = cmd->run(args);
    return rc < 0 ? usage() : rc;
}
