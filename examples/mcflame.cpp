// mcflame: text flame view of the mcTLS latency-attribution plane.
//
// Runs client -> rbox (read) -> wbox (write) -> server over the simulated
// network with span collection on, then renders:
//
//   1. the handshake waterfall (ClientHello -> Finished, per hop),
//   2. aggregate per-stage time: sim-clock stages (queue wait, transmit)
//      that sum to end-to-end record latency, plus measured CPU cost of the
//      crypto stages (MAC x3, encrypt, reseal, decrypt/verify),
//   3. the top-N slowest application records with their per-hop breakdown.
//
//   mcflame [--top <n>] [--perfetto <out.json>]
//
// --perfetto additionally writes the full span tree + event markers as
// Chrome trace JSON for ui.perfetto.dev.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "http/testbed.h"
#include "obs/perfetto.h"

using namespace mct;
using mct::net::operator""_ms;

namespace {

constexpr int kBarWidth = 40;

std::string bar(double fraction)
{
    int fill = static_cast<int>(fraction * kBarWidth + 0.5);
    if (fill > kBarWidth) fill = kBarWidth;
    std::string out;
    for (int i = 0; i < kBarWidth; ++i) out += i < fill ? '#' : '.';
    return out;
}

// Everything mcflame needs about one traced application record.
struct RecordTrace {
    uint64_t trace_id = 0;
    uint64_t start_ts = 0;  // record root span emission (sender)
    uint64_t end_ts = 0;    // latest span end (receiver's deliver)
    uint64_t bytes = 0;
    uint16_t ctx = 0;
    uint16_t origin = 0;  // root span's actor
    std::vector<const obs::Event*> spans;

    uint64_t latency() const { return end_ts > start_ts ? end_ts - start_ts : 0; }
};

}  // namespace

int main(int argc, char** argv)
{
    size_t top_n = 3;
    const char* perfetto_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--top" && i + 1 < argc) {
            top_n = static_cast<size_t>(std::atoi(argv[++i]));
        } else if (arg == "--perfetto" && i + 1 < argc) {
            perfetto_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--top <n>] [--perfetto <out.json>]\n",
                         argv[0]);
            return 2;
        }
    }

    obs::Hub hub;
    obs::Journal journal({.capacity = 40960});

    http::TestbedConfig cfg;
    cfg.mode = http::Mode::mctls;
    cfg.n_middleboxes = 2;  // mbox0 = rbox (read-only), mbox1 = wbox (read/write)
    cfg.strategy = http::ContextStrategy::four_contexts;
    size_t n_ctx = http::strategy_contexts(cfg.strategy, 2, mctls::Permission::write).size();
    cfg.permission_rows = {
        std::vector<mctls::Permission>(n_ctx, mctls::Permission::read),
        std::vector<mctls::Permission>(n_ctx, mctls::Permission::write),
    };
    cfg.per_hop_links = {{20_ms, 0}, {10_ms, 0}, {5_ms, 0}};
    cfg.obs = &hub;
    cfg.journal = &journal;

    http::Testbed bed(cfg);
    // Give the write box real work: flip the case of response-body bytes so
    // the writer path reseals (re-MAC + re-encrypt) instead of passing
    // records through untouched — that is the stage the reseal row measures.
    bed.set_middlebox_customizer([](size_t index, mctls::MiddleboxConfig& mcfg) {
        if (index != 1) return;
        mcfg.transform = [](uint8_t ctx, mctls::Direction dir, Bytes payload) {
            if (ctx != 4 || dir != mctls::Direction::server_to_client) return payload;
            for (auto& b : payload)
                if (b >= 'a' && b <= 'z') b = static_cast<uint8_t>(b - 'a' + 'A');
            return payload;
        };
    });
    std::printf("Fetching 2 kB + 64 kB through client -> rbox(read) -> wbox(write) "
                "-> server...\n");
    auto fetch = bed.fetch_sequence({2000, 64000});
    bed.run();
    if (!fetch->completed || fetch->failed) {
        std::fprintf(stderr, "mcflame: fetch failed: %s\n", fetch->error.c_str());
        return 1;
    }
    bed.publish_session_stats();

    std::vector<obs::Event> all = journal.events();
    std::vector<obs::Event> events, all_spans;
    for (const auto& e : all) (e.is_span() ? all_spans : events).push_back(e);

    // ---- 1. Handshake waterfall ----
    std::printf("\n== Handshake waterfall (sim ms) ==\n");
    auto phases = obs::handshake_phases(events, journal);
    uint64_t hs_end = 0;
    for (const auto& p : phases) hs_end = std::max(hs_end, p.end_ts);
    for (const auto& p : phases) {
        double start_ms = static_cast<double>(p.start_ts) / 1000.0;
        double end_ms = static_cast<double>(p.end_ts) / 1000.0;
        int lead = hs_end ? static_cast<int>(kBarWidth * p.start_ts / hs_end) : 0;
        int span = hs_end ? static_cast<int>(kBarWidth * (p.end_ts - p.start_ts) / hs_end)
                          : 0;
        std::printf("  %-10s %-22s %*s%-*s %7.1f..%-7.1f\n", p.actor.c_str(),
                    p.phase.c_str(), lead, "", kBarWidth - lead,
                    std::string(static_cast<size_t>(span) + 1, '#').c_str(), start_ms,
                    end_ms);
    }

    // ---- group spans by trace ----
    std::map<uint64_t, RecordTrace> traces;
    for (const auto& s : all_spans) {
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

    // ---- 2. Aggregate stage decomposition ----
    uint64_t sim_by_stage[16] = {};
    uint64_t cpu_by_stage[16] = {};
    uint64_t total_latency = 0;
    size_t n_records = 0;
    for (const auto& [id, t] : traces) {
        if (t.start_ts == 0 && t.bytes == 0) continue;  // root fell off the ring
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

    // ---- 3. Top-N slowest records ----
    std::vector<const RecordTrace*> ranked;
    for (const auto& [id, t] : traces)
        if (t.start_ts != 0 || t.bytes != 0) ranked.push_back(&t);
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
            double frac =
                t->latency() ? static_cast<double>(dur) / t->latency() : 0;
            std::printf("    %-16s %-14s %s", journal.actor_name(s->actor).c_str(),
                        obs::to_string(s->stage), bar(frac).c_str());
            if (dur)
                std::printf(" %9.1f ms", static_cast<double>(dur) / 1000.0);
            else
                std::printf(" %7.1f us(cpu)", static_cast<double>(s->cpu_ns) / 1000.0);
            std::printf("\n");
        }
    }
    if (journal.dropped() > 0)
        std::fprintf(stderr,
                     "WARNING: journal ring dropped %llu events; oldest records above "
                     "are incomplete\n",
                     static_cast<unsigned long long>(journal.dropped()));

    if (perfetto_path) {
        std::ofstream out(perfetto_path, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "mcflame: cannot write %s\n", perfetto_path);
            return 1;
        }
        out << obs::to_chrome_trace({&all, &journal});
        std::printf("\n-- wrote %zu spans + %zu events to %s (open in "
                    "ui.perfetto.dev)\n",
                    all_spans.size(), events.size(), perfetto_path);
    }
    return 0;
}
