// trace_dump: pretty-print a wire-visible mcTLS event trace.
//
// Two modes:
//
//   trace_dump <trace.jsonl> [--session <actor>] [--ctx <id>]
//                              parse a JSONL trace written by
//                              obs::write_jsonl and print it as a table,
//                              optionally filtered to one actor and/or one
//                              context id
//
//   trace_dump                 run a small in-memory mcTLS session (client,
//                              one read/write middlebox, server), capture its
//                              trace, write trace_demo.jsonl, and dump it
//
// Either mode accepts --perfetto <out.json>: the events (and, in demo mode,
// the latency-attribution spans) are additionally written as Chrome trace
// JSON loadable in ui.perfetto.dev / chrome://tracing.
//
// Columns: seq (global causal order), ts (µs on the sim clock; 0 when no
// clock was attached), actor, event type, context id, and the two
// type-dependent payload fields a/b (byte counts, MAC counts, fault kinds).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "crypto/drbg.h"
#include "mctls/middlebox.h"
#include "mctls/session.h"
#include "obs/journal.h"
#include "obs/json.h"
#include "obs/perfetto.h"
#include "pki/authority.h"

using namespace mct;

namespace {

void print_header()
{
    std::printf("%6s %10s %-12s %-22s %4s %10s %6s\n", "seq", "ts(us)", "actor", "type",
                "ctx", "a", "b");
}

void print_row(uint64_t seq, uint64_t ts, const std::string& actor, const std::string& type,
               uint64_t ctx, uint64_t a, uint64_t b)
{
    std::printf("%6llu %10llu %-12s %-22s %4llu %10llu %6llu\n",
                static_cast<unsigned long long>(seq), static_cast<unsigned long long>(ts),
                actor.c_str(), type.c_str(), static_cast<unsigned long long>(ctx),
                static_cast<unsigned long long>(a), static_cast<unsigned long long>(b));
}

int write_perfetto(const char* out_path, const obs::ChromeTraceInput& in, size_t n)
{
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "trace_dump: cannot write %s\n", out_path);
        return 1;
    }
    out << obs::to_chrome_trace(in);
    std::printf("-- wrote %zu trace entries to %s (open in ui.perfetto.dev)\n", n,
                out_path);
    return 0;
}

// Mode 1: dump an existing JSONL capture, optionally filtered by actor
// ("--session client") and/or context id ("--ctx 2").
int dump_file(const char* path, const std::string& session_filter, int ctx_filter,
              const char* perfetto_path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "trace_dump: cannot open %s\n", path);
        return 1;
    }
    print_header();
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
            std::fprintf(stderr, "trace_dump: %s:%zu: %s\n", path, lineno,
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
        print_row(num("seq"), num("ts"), str("actor"), str("type"), num("ctx"), num("a"),
                  num("b"));
        ++shown;
    }
    if (shown == total)
        std::printf("-- %zu events\n", shown);
    else
        std::printf("-- %zu of %zu events (filtered)\n", shown, total);
    if (perfetto_path) {
        return write_perfetto(perfetto_path, {&parsed, &actors}, parsed.size());
    }
    return 0;
}

// Mode 2: generate a demo trace from an in-memory session (same chain as
// examples/quickstart, with a journal attached to all three parties).
void pump(mctls::Session& client, mctls::MiddleboxSession& mbox, mctls::Session& server)
{
    bool progress = true;
    while (progress) {
        progress = false;
        for (auto& unit : client.take_write_units()) {
            progress = true;
            (void)mbox.feed_from_client(unit);
        }
        for (auto& unit : mbox.take_to_server()) {
            progress = true;
            (void)server.feed(unit);
        }
        for (auto& unit : server.take_write_units()) {
            progress = true;
            (void)mbox.feed_from_server(unit);
        }
        for (auto& unit : mbox.take_to_client()) {
            progress = true;
            (void)client.feed(unit);
        }
    }
}

int run_demo(const char* perfetto_path)
{
    crypto::HmacDrbg rng(str_to_bytes("trace-dump-seed"));
    pki::Authority ca("Example Root CA", rng);
    pki::TrustStore trust;
    trust.add_root(ca.root_certificate());
    pki::Identity server_id = ca.issue("server.example.com", rng);
    pki::Identity mbox_id = ca.issue("proxy.isp.net", rng);

    // The journal's ring also collects latency-attribution spans, which
    // --perfetto exports. No sim clock here, so timestamps stay 0 and the
    // interesting span payload is cpu_ns per stage.
    obs::Journal journal({.capacity = 4096});

    mctls::ContextDescription headers;
    headers.id = 1;
    headers.purpose = "headers";
    headers.permissions = {mctls::Permission::read};
    mctls::ContextDescription body;
    body.id = 2;
    body.purpose = "body";
    body.permissions = {mctls::Permission::write};

    mctls::SessionConfig client_cfg;
    client_cfg.role = tls::Role::client;
    client_cfg.server_name = "server.example.com";
    client_cfg.middleboxes = {{"proxy.isp.net", "proxy"}};
    client_cfg.contexts = {headers, body};
    client_cfg.trust = &trust;
    client_cfg.rng = &rng;
    client_cfg.journal = &journal;
    client_cfg.trace_actor = "client";

    mctls::SessionConfig server_cfg;
    server_cfg.role = tls::Role::server;
    server_cfg.chain = {server_id.certificate};
    server_cfg.private_key = server_id.private_key;
    server_cfg.trust = &trust;
    server_cfg.rng = &rng;
    server_cfg.journal = &journal;
    server_cfg.trace_actor = "server";

    mctls::MiddleboxConfig mbox_cfg;
    mbox_cfg.name = "proxy.isp.net";
    mbox_cfg.chain = {mbox_id.certificate};
    mbox_cfg.private_key = mbox_id.private_key;
    mbox_cfg.trust = &trust;
    mbox_cfg.rng = &rng;
    mbox_cfg.journal = &journal;
    mbox_cfg.trace_actor = "proxy";
    mbox_cfg.transform = [](uint8_t ctx, mctls::Direction, Bytes payload) {
        if (ctx != 2) return payload;
        std::string text = bytes_to_str(payload) + " [rewritten]";
        return str_to_bytes(text);
    };

    mctls::Session client(client_cfg);
    mctls::Session server(server_cfg);
    mctls::MiddleboxSession mbox(mbox_cfg);

    client.start();
    pump(client, mbox, server);
    if (!client.handshake_complete() || !server.handshake_complete()) {
        std::fprintf(stderr, "trace_dump: demo handshake failed: %s / %s\n",
                     client.error().c_str(), server.error().c_str());
        return 1;
    }
    (void)client.send_app_data(1, str_to_bytes("GET /article HTTP/1.1"));
    (void)client.send_app_data(2, str_to_bytes("please summarize"));
    pump(client, mbox, server);
    (void)server.take_app_data();
    (void)server.send_app_data(2, str_to_bytes("the article, summarized"));
    pump(client, mbox, server);
    (void)client.take_app_data();

    std::vector<obs::Event> all = journal.events();
    std::vector<obs::Event> events;
    for (const auto& e : all)
        if (!e.is_span()) events.push_back(e);
    bool written = obs::write_jsonl(journal, "trace_demo.jsonl");
    if (events.empty()) {
        std::printf("No trace events captured.\n"
                    "This tree was configured with -DMCT_OBS=OFF; rebuild with the\n"
                    "default -DMCT_OBS=ON to enable trace emission.\n");
        return 0;
    }
    print_header();
    for (const auto& e : events)
        print_row(e.seq, e.ts, journal.actor_name(e.actor), obs::to_string(e.type), e.ctx,
                  e.a, e.b);
    if (written)
        std::printf("-- %zu events (also written to trace_demo.jsonl; re-run as\n"
                    "   `trace_dump trace_demo.jsonl` to dump from the file)\n",
                    events.size());
    else
        std::printf("-- %zu events (could not write trace_demo.jsonl)\n", events.size());
    // Diagnostics go to stderr so piped/redirected table output stays clean.
    if (journal.dropped() > 0)
        std::fprintf(stderr,
                     "WARNING: journal ring dropped %llu events (oldest first); "
                     "the table above is truncated\n",
                     static_cast<unsigned long long>(journal.dropped()));
    if (perfetto_path) return write_perfetto(perfetto_path, {&all, &journal}, all.size());
    return 0;
}

}  // namespace

int main(int argc, char** argv)
{
    const char* path = nullptr;
    const char* perfetto_path = nullptr;
    std::string session_filter;
    int ctx_filter = -1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--session" && i + 1 < argc) {
            session_filter = argv[++i];
        } else if (arg == "--ctx" && i + 1 < argc) {
            ctx_filter = std::atoi(argv[++i]);
        } else if (arg == "--perfetto" && i + 1 < argc) {
            perfetto_path = argv[++i];
        } else if (!arg.empty() && arg[0] != '-' && !path) {
            path = argv[i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [trace.jsonl] [--session <actor>] [--ctx <id>] "
                         "[--perfetto <out.json>]\n",
                         argv[0]);
            return 2;
        }
    }
    if (path) return dump_file(path, session_filter, ctx_filter, perfetto_path);
    if (!session_filter.empty() || ctx_filter >= 0) {
        std::fprintf(stderr, "trace_dump: filters need a trace file\n");
        return 2;
    }
    return run_demo(perfetto_path);
}
