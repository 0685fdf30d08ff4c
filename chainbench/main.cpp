// Closed-loop benchmark of the in-memory mcTLS chain
// (client -> middlebox 0 -> middlebox 1 -> server), one driver thread.
//
//   chainbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--setup-only] [--spans <file>] [--drift-ms <ms>]
//
// --trace 0 times one untraced window and prints the end-to-end metrics;
// --trace 1 times an untraced and a traced half-window and prints the
// per-layer metrics. Every operation's outcome is checked; a mismatch counts
// as a failed operation and is never retried. See README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "chain.h"
#include "micro.h"

namespace chainbench {
namespace {

struct Options {
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    bool setup_only = false;
    std::string spans_path;
    double drift_ms = 0;
};

// Counts that must repeat exactly for a given workload, whatever the seed,
// the run length, or whether the run is traced.
struct Counts {
    crypto::OpCounters ops;  // summed over the four parties
    uint64_t wire_bytes = 0;  // client handshake_wire_bytes()
    uint64_t resumed = 0;     // client resumed()
    uint64_t rejoined = 0;    // middlebox resumed(), both middleboxes
    uint64_t records = 0;     // app records sealed by the endpoints
    uint64_t records_opened = 0;  // app records opened by the endpoints
    uint64_t macs = 0;        // MACs generated + verified, all parties
    uint64_t overhead = 0;    // endpoint app_overhead_bytes()
    uint64_t read = 0;        // middlebox records_read()
    uint64_t rewritten = 0;   // middlebox records_rewritten()
    uint64_t blind = 0;       // middlebox records_forwarded_blind()
    uint64_t scratch_allocs = 0;  // open_scratch().heap_allocations, all parties
    uint64_t cache_hits = 0;  // session-cache hits, server + middleboxes
};

Counts operator-(const Counts& a, const Counts& b)
{
    Counts d;
    d.ops.hash = a.ops.hash - b.ops.hash;
    d.ops.secret_comp = a.ops.secret_comp - b.ops.secret_comp;
    d.ops.key_gen = a.ops.key_gen - b.ops.key_gen;
    d.ops.asym_sign = a.ops.asym_sign - b.ops.asym_sign;
    d.ops.asym_verify = a.ops.asym_verify - b.ops.asym_verify;
    d.ops.sym_encrypt = a.ops.sym_encrypt - b.ops.sym_encrypt;
    d.ops.sym_decrypt = a.ops.sym_decrypt - b.ops.sym_decrypt;
    d.wire_bytes = a.wire_bytes - b.wire_bytes;
    d.resumed = a.resumed - b.resumed;
    d.rejoined = a.rejoined - b.rejoined;
    d.records = a.records - b.records;
    d.records_opened = a.records_opened - b.records_opened;
    d.macs = a.macs - b.macs;
    d.overhead = a.overhead - b.overhead;
    d.read = a.read - b.read;
    d.rewritten = a.rewritten - b.rewritten;
    d.blind = a.blind - b.blind;
    d.scratch_allocs = a.scratch_allocs - b.scratch_allocs;
    d.cache_hits = a.cache_hits - b.cache_hits;
    return d;
}

// Adds the session-level counters of one established chain.
void add_chain_counts(Counts& c, const Chain& chain)
{
    for (const mctls::Session* s : {chain.client.get(), chain.server.get()}) {
        obs::SessionStats st = s->session_stats();
        c.records += s->app_records_sent();
        c.records_opened += st.app_records_received;
        c.macs += st.macs_generated + st.macs_verified;
        c.overhead += s->app_overhead_bytes();
        c.scratch_allocs += s->open_scratch().heap_allocations;
    }
    for (const auto& m : chain.mbox) {
        obs::SessionStats st = m->session_stats();
        c.macs += st.macs_generated + st.macs_verified;
        c.read += m->records_read();
        c.rewritten += m->records_rewritten();
        c.blind += m->records_forwarded_blind();
        c.scratch_allocs += m->open_scratch().heap_allocations;
        c.rejoined += m->resumed();
    }
    c.wire_bytes += chain.client->handshake_wire_bytes();
    c.resumed += chain.client->resumed();
}

struct SetupError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

Bytes drbg_seed(const char* label, uint64_t seed)
{
    return str_to_bytes(std::string("chainbench-") + label + "-" + std::to_string(seed));
}

// ---- Workloads ----------------------------------------------------------
//
// Each workload provides:
//   warmup_ops()  operations run (and checked) before the timed window;
//   prepare()     per-operation input set-up, outside the operation's time;
//   op(probe)     the operation itself, every party call through `probe`;
//   finish(ok)    outcome checks and counter collection, outside the
//                 operation's time; returns whether the operation succeeded;
//   totals()      cumulative Counts;
//   payload()     record payload size for the record micro-calls.

// Fresh client, middlebox and server sessions per operation.
class HandshakeFull {
public:
    HandshakeFull(const Options& o, const Pki& pki) : pki_(pki), rng_(drbg_seed("hs", o.seed))
    {
        for (size_t p = 0; p < kParties; ++p) wiring_.ops[p] = &ops_[p];
        wiring_.rng = &rng_;
    }

    size_t warmup_ops() const { return 100; }
    size_t payload() const { return 64; }

    void prepare() { cfg_ = chain_.configs(pki_, wiring_); }

    template <class Probe>
    bool op(Probe& probe)
    {
        return handshake(chain_, cfg_, probe);
    }

    bool finish(bool ok)
    {
        add_chain_counts(counts_, chain_);
        reset();
        return ok;
    }

    Counts totals() const
    {
        Counts c = counts_;
        for (const auto& o : ops_) c.ops += o;
        return c;
    }

protected:
    void reset()
    {
        chain_.release_spent();
        chain_.client.reset();
        chain_.mbox[0].reset();
        chain_.mbox[1].reset();
        chain_.server.reset();
    }

    const Pki& pki_;
    crypto::HmacDrbg rng_;
    std::array<crypto::OpCounters, kParties> ops_;
    ChainWiring wiring_;
    Chain chain_;
    ChainConfigs cfg_;
    Counts counts_;
};

// Abbreviated handshakes: 256 distinct clients, each resumed in turn
// against warm server and middlebox caches, 16 contexts.
class HandshakeResumed : public HandshakeFull {
public:
    static constexpr size_t kClients = 256;
    static constexpr size_t kContexts = 16;

    HandshakeResumed(const Options& o, const Pki& pki)
        : HandshakeFull(o, pki),
          server_cache_(cache_config()),
          mbox_cache_{mctls::MiddleboxSessionCache(cache_config()),
                      mctls::MiddleboxSessionCache(cache_config())},
          tickets_(kClients)
    {
        wiring_.contexts = kContexts;
        wiring_.server_cache = &server_cache_;
        wiring_.mbox_cache = {&mbox_cache_[0], &mbox_cache_[1]};
        Direct direct;
        for (auto& t : tickets_) {
            ChainWiring w = wiring_;
            w.ticket = nullptr;
            ChainConfigs cfg = chain_.configs(pki_, w);
            if (!handshake(chain_, cfg, direct)) throw SetupError("priming handshake failed");
            t = chain_.client->ticket();
            if (!t.valid()) throw SetupError("priming handshake gave no ticket");
            reset();
        }
    }

    size_t warmup_ops() const { return kClients; }

    void prepare()
    {
        current_ = next_++ % kClients;
        wiring_.ticket = &tickets_[current_];
        HandshakeFull::prepare();
    }

    bool finish(bool ok)
    {
        ok = ok && chain_.client->resumed() && chain_.server->resumed() &&
             chain_.mbox[0]->resumed() && chain_.mbox[1]->resumed();
        if (ok) tickets_[current_] = chain_.client->ticket();
        return HandshakeFull::finish(ok);
    }

    Counts totals() const
    {
        Counts c = HandshakeFull::totals();
        c.cache_hits = server_cache_.stats().hits + mbox_cache_[0].stats().hits +
                       mbox_cache_[1].stats().hits;
        return c;
    }

private:
    // Room for every client's ticket: resumption must never miss.
    static util::CacheConfig cache_config()
    {
        util::CacheConfig c;
        c.capacity = 4 * kClients;
        return c;
    }

    mctls::ServerSessionCache server_cache_;
    std::array<mctls::MiddleboxSessionCache, 2> mbox_cache_;
    std::vector<mctls::ResumptionTicket> tickets_;
    size_t current_ = 0;
    size_t next_ = 0;
};

// Established flows driven round-robin.
class Flows {
public:
    static constexpr size_t kFlows = 4;

    Flows(const Options& o, const Pki& pki) : rng_(drbg_seed("flows", o.seed)), fill_(o.seed)
    {
        ChainWiring w;
        w.rng = &rng_;
        for (size_t p = 0; p < kParties; ++p) w.ops[p] = &ops_[p];
        Direct direct;
        for (auto& c : chains_) {
            c = std::make_unique<Chain>();
            ChainConfigs cfg = c->configs(pki, w);
            if (!handshake(*c, cfg, direct)) throw SetupError("flow handshake failed");
            c->release_spent();
        }
    }

    Counts totals() const
    {
        Counts c;
        for (const auto& o : ops_) c.ops += o;
        for (const auto& chain : chains_) add_chain_counts(c, *chain);
        return c;
    }

protected:
    // Moves to the next flow, round-robin.
    void advance()
    {
        ++seq_;
        flow_ = seq_ % kFlows;
        chains_[flow_]->observed_ctx[0] = 0;
    }
    Chain& current() { return *chains_[flow_]; }

    // Stamps the operation number into `buf` at `at`, so every operation
    // carries distinct bytes.
    void stamp(Bytes& buf, size_t at) const { std::memcpy(buf.data() + at, &seq_, sizeof seq_); }

    static bool delivered(const std::vector<mctls::AppChunk>& chunks, uint8_t ctx,
                          ConstBytes expect, bool from_endpoint)
    {
        size_t off = 0;
        for (const auto& c : chunks) {
            if (c.context_id != ctx || c.from_endpoint != from_endpoint ||
                c.data.size() > expect.size() - off ||
                std::memcmp(c.data.data(), expect.data() + off, c.data.size()) != 0)
                return false;
            off += c.data.size();
        }
        return off == expect.size();
    }

    static bool observed(const Chain& c, size_t mbox, uint8_t ctx, ConstBytes expect)
    {
        return c.observed_ctx[mbox] == ctx && equal(c.observed[mbox], expect);
    }

    crypto::HmacDrbg rng_;
    TestRng fill_;
    std::array<crypto::OpCounters, kParties> ops_;
    std::array<std::unique_ptr<Chain>, kFlows> chains_;
    uint64_t seq_ = 0;
    size_t flow_ = 0;
};

// 64 B request on req-hdr, 64 B response on resp-hdr.
class Rpc64 : public Flows {
public:
    static constexpr size_t kSize = 64;

    Rpc64(const Options& o, const Pki& pki) : Flows(o, pki)
    {
        for (size_t f = 0; f < kFlows; ++f) {
            req_[f] = fill_.bytes(kSize);
            resp_[f] = fill_.bytes(kSize);
        }
    }

    size_t warmup_ops() const { return 20000; }
    size_t payload() const { return kSize; }

    void prepare()
    {
        advance();
        stamp(req_[flow_], 1);
        stamp(resp_[flow_], 1);
    }

    template <class Probe>
    bool op(Probe& probe)
    {
        Chain& c = current();
        const Bytes& req = req_[flow_];
        if (!probe(kClient, kSendAppData, [&] { return c.client->send_app_data(kReqHdr, req); })
                 .ok())
            return false;
        c.dirty[kClient] = true;
        if (!pump(c, probe)) return false;
        at_server_ = probe(kServer, kTakeAppData, [&] { return c.server->take_app_data(); });
        const Bytes& resp = resp_[flow_];
        if (!probe(kServer, kSendAppData,
                   [&] { return c.server->send_app_data(kRespHdr, resp); })
                 .ok())
            return false;
        c.dirty[kServer] = true;
        if (!pump(c, probe)) return false;
        at_client_ = probe(kClient, kTakeAppData, [&] { return c.client->take_app_data(); });
        return true;
    }

    // The server got the exact request, middlebox 0 read it, and the client
    // got the response with middlebox 1's rewritten byte, flagged as not
    // from the endpoint.
    bool finish(bool ok)
    {
        Bytes& expect = rewritten_;
        expect = resp_[flow_];
        expect[0] ^= kRewriteMask;
        ok = ok && delivered(at_server_, kReqHdr, req_[flow_], true) &&
             observed(current(), 0, kReqHdr, req_[flow_]) &&
             delivered(at_client_, kRespHdr, expect, false);
        at_server_.clear();
        at_client_.clear();
        current().release_spent();
        return ok;
    }

private:
    std::array<Bytes, kFlows> req_, resp_;
    Bytes rewritten_;
    std::vector<mctls::AppChunk> at_server_, at_client_;
};

// One full 15000 B record from the server on resp-body.
class StreamBulk : public Flows {
public:
    static constexpr size_t kSize = 15000;

    StreamBulk(const Options& o, const Pki& pki) : Flows(o, pki)
    {
        for (auto& b : body_) b = fill_.bytes(kSize);
    }

    size_t warmup_ops() const { return 2000; }
    size_t payload() const { return kSize; }

    void prepare()
    {
        advance();
        stamp(body_[flow_], 0);
    }

    template <class Probe>
    bool op(Probe& probe)
    {
        Chain& c = current();
        const Bytes& body = body_[flow_];
        if (!probe(kServer, kSendAppData,
                   [&] { return c.server->send_app_data(kRespBody, body); })
                 .ok())
            return false;
        c.dirty[kServer] = true;
        if (!pump(c, probe)) return false;
        at_client_ = probe(kClient, kTakeAppData, [&] { return c.client->take_app_data(); });
        return true;
    }

    // The client got exactly the bytes sent, and middlebox 0 read them.
    bool finish(bool ok)
    {
        ok = ok && delivered(at_client_, kRespBody, body_[flow_], true) &&
             observed(current(), 0, kRespBody, body_[flow_]);
        at_client_.clear();
        current().release_spent();
        return ok;
    }

private:
    std::array<Bytes, kFlows> body_;
    std::vector<mctls::AppChunk> at_client_;
};

// ---- Driver -------------------------------------------------------------

struct Window {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    double seconds = 0;
    Histogram latency;  // thread CPU ns per operation
    Counts counts;
    std::vector<std::pair<double, uint64_t>> drift;  // (elapsed s, ops)
};

// Closed loop for `seconds`: the next operation starts once the previous one
// finished. Clocks are read only at operation boundaries. An operation's
// latency is its thread CPU time: on a shared virtual machine the vCPU is
// descheduled now and then for milliseconds, and wall-clock tails would
// measure those pauses rather than the protocol. The window itself is wall
// time. With a Traced probe, each operation is also a root span.
template <class W, class Probe>
Window run_window(W& w, Probe& probe, double seconds, SpanRecorder* rec, double drift_ms)
{
    Window r;
    uint16_t op_name = rec ? rec->intern("op") : 0;
    Counts before = w.totals();
    Clock::time_point start = Clock::now();
    auto span = [](double s) {
        return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
    };
    Clock::time_point deadline = start + span(seconds);
    Clock::time_point next_mark = drift_ms > 0 ? start + span(drift_ms / 1e3) : deadline;
    Clock::time_point t1;
    do {
        w.prepare();
        uint64_t cpu0 = thread_cpu_ns();
        bool ok;
        if constexpr (std::is_same_v<Probe, Traced>) {
            rec->begin_op(op_name);
            ok = w.op(probe);
            rec->end_op();
        } else {
            ok = w.op(probe);
        }
        uint64_t cpu1 = thread_cpu_ns();
        ok = w.finish(ok);
        t1 = Clock::now();
        r.latency.add(cpu1 - cpu0);
        ++r.attempted;
        r.failed += !ok;
        if (drift_ms > 0 && t1 >= next_mark) {
            r.drift.emplace_back(seconds_between(start, t1), r.attempted);
            next_mark += span(drift_ms / 1e3);
        }
    } while (t1 < deadline);
    r.seconds = seconds_between(start, t1);
    r.counts = w.totals() - before;
    return r;
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void print_result(const std::vector<Metric>& metrics, uint64_t attempted, uint64_t failed)
{
    for (const Metric& m : metrics)
        std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
}

// Exact per-operation counts; printed by both runs so they can be compared.
std::vector<Metric> exact_metrics(const Window& w)
{
    const Counts& c = w.counts;
    double n = static_cast<double>(w.attempted);
    auto per = [n](uint64_t v) { return static_cast<double>(v) / n; };
    return {
        {"mctls.handshake.secret_comp_per_op", per(c.ops.secret_comp), "count/op"},
        {"mctls.handshake.asym_sign_per_op", per(c.ops.asym_sign), "count/op"},
        {"mctls.handshake.asym_verify_per_op", per(c.ops.asym_verify), "count/op"},
        {"mctls.handshake.key_gen_per_op", per(c.ops.key_gen), "count/op"},
        {"mctls.handshake.hash_per_op", per(c.ops.hash), "count/op"},
        {"mctls.handshake.sym_ops_per_op", per(c.ops.sym_encrypt + c.ops.sym_decrypt),
         "count/op"},
        {"mctls.handshake.wire_bytes_per_op", per(c.wire_bytes), "bytes/op"},
        {"mctls.resumption.resumed_share", per(c.resumed), "share"},
        {"mctls.middlebox.rejoin_share", per(c.rejoined) / 2, "share"},
        {"util.cache.hits_per_op", per(c.cache_hits), "count/op"},
        {"mctls.record.records_per_op", per(c.records), "count/op"},
        {"mctls.record.macs_per_op", per(c.macs), "count/op"},
        {"mctls.record.overhead_bytes_per_op", per(c.overhead), "bytes/op"},
        {"mctls.middlebox.read_per_op", per(c.read), "count/op"},
        {"mctls.middlebox.rewritten_per_op", per(c.rewritten), "count/op"},
        {"mctls.middlebox.blind_per_op", per(c.blind), "count/op"},
        {"mctls.record.scratch_allocs_per_op", per(c.scratch_allocs), "count/op"},
    };
}

void print_exact(const Window& w)
{
    std::printf("exact {");
    auto m = exact_metrics(w);
    for (size_t i = 0; i < m.size(); ++i)
        std::printf("%s\"%s\": %.17g", i ? ", " : "", m[i].name.c_str(), m[i].value);
    std::printf("}\n");
}

// Peak resident set of this process image. VmHWM, not getrusage(): the
// latter's ru_maxrss carries the parent's peak across fork and exec.
double peak_rss_mb()
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (!f) return 0;
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof line, f))
        if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
    std::fclose(f);
    return kib / 1024.0;
}

template <class W>
int drive(const Options& o, Clock::time_point process_start)
{
    Pki pki(o.seed);
    W w(o, pki);
    Direct direct;
    for (size_t i = 0; i < w.warmup_ops(); ++i) {
        w.prepare();
        if (!w.finish(w.op(direct))) throw SetupError("warm-up operation failed");
    }
    double setup_s = seconds_between(process_start, Clock::now());
    if (o.setup_only) {
        print_result({{"setup_s", setup_s, "s"}}, 1, 0);
        return 0;
    }

    if (!o.trace) {
        Window r = run_window(w, direct, o.seconds, nullptr, o.drift_ms);
        print_exact(r);
        if (!r.drift.empty()) {
            std::printf("drift");
            for (const auto& [t, n] : r.drift)
                std::printf(" %.6f:%llu", t, static_cast<unsigned long long>(n));
            std::printf("\n");
        }
        std::printf("samples %llu", static_cast<unsigned long long>(r.latency.count()));
        for (double q : {0.01, 0.1, 0.5, 0.9, 0.99, 0.999})
            std::printf(" p%g=%.2fus", q * 100, r.latency.quantile_ns(q) / 1e3);
        std::printf("\n");
        print_result({{"setup_s", setup_s, "s"},
                      {"ops_per_s", static_cast<double>(r.attempted) / r.seconds, "1/s"},
                      {"op_p50_us", r.latency.quantile_ns(0.50) / 1e3, "us"},
                      {"op_p99_us", r.latency.quantile_ns(0.99) / 1e3, "us"},
                      {"peak_rss_MB", peak_rss_mb(), "MB"}},
                     r.attempted, r.failed);
        return 0;
    }

    // Traced run: an untraced half-window for the overhead baseline, then a
    // traced half-window, then the layer micro-calls.
    Window plain = run_window(w, direct, o.seconds / 2, nullptr, 0);
    SpanRecorder rec(1 << 14);
    Traced traced(rec);
    TickRate rate;
    rate.start();
    Window r = run_window(w, traced, o.seconds / 2, &rec, 0);
    rate.stop();

    double n = static_cast<double>(r.attempted);
    auto busy_us = [&](Party p) {
        uint64_t t = 0;
        for (size_t f = 0; f < kFns; ++f) t += rec.total(traced.name(p, static_cast<Fn>(f))).ticks;
        return rate.ns(t) / 1e3 / n;
    };
    double client_us = busy_us(kClient);
    double mbox_us = busy_us(kMbox0) + busy_us(kMbox1);
    double server_us = busy_us(kServer);
    double busy = client_us + mbox_us + server_us;
    double unattributed_us = rate.ns(rec.total(rec.intern("op")).self_ticks) / 1e3 / n;
    double plain_rate = static_cast<double>(plain.attempted) / plain.seconds;
    double traced_rate = n / r.seconds;

    MicroCosts m = measure_micro(rec, w.payload(), o.seed,
                                 std::min(0.15, std::max(0.01, o.seconds * 0.0075)));
    const Counts& c = r.counts;
    double asym_us = (static_cast<double>(c.ops.secret_comp) * m.x25519_us +
                      static_cast<double>(c.ops.asym_sign) * m.ed25519_sign_us +
                      static_cast<double>(c.ops.asym_verify) * m.ed25519_verify_us) /
                     n;
    double record_us = (static_cast<double>(c.records) * m.seal_ns +
                        static_cast<double>(c.records_opened) * m.open_endpoint_ns +
                        static_cast<double>(c.read) * m.open_reader_ns +
                        static_cast<double>(c.rewritten) * m.reseal_ns) /
                       1e3 / n;

    std::vector<Metric> metrics = {
        {"mctls.client.busy_us_per_op", client_us, "us"},
        {"mctls.middlebox.busy_us_per_op", mbox_us, "us"},
        {"mctls.server.busy_us_per_op", server_us, "us"},
        {"driver.unattributed_us_per_op", unattributed_us, "us"},
        {"driver.trace_overhead_share", 1 - traced_rate / plain_rate, "share"},
        {"mctls.handshake.asym_explained_share", asym_us / busy, "share"},
        {"mctls.record.explained_share", record_us / busy, "share"},
        {"crypto.x25519_us", m.x25519_us, "us"},
        {"crypto.ed25519_sign_us", m.ed25519_sign_us, "us"},
        {"crypto.ed25519_verify_us", m.ed25519_verify_us, "us"},
        {"crypto.prf_us", m.prf_us, "us"},
        {"crypto.hmac_sha256_64b_ns", m.hmac_sha256_64b_ns, "ns"},
        {"crypto.aes128_cbc_encrypt_MBps", m.aes128_cbc_encrypt_MBps, "MB/s"},
        {"crypto.sha256_MBps", m.sha256_MBps, "MB/s"},
        {"mctls.record.seal_ns", m.seal_ns, "ns"},
        {"mctls.record.open_endpoint_ns", m.open_endpoint_ns, "ns"},
        {"mctls.record.open_reader_ns", m.open_reader_ns, "ns"},
        {"mctls.record.reseal_ns", m.reseal_ns, "ns"},
    };
    for (Metric& e : exact_metrics(r)) metrics.push_back(std::move(e));

    if (!o.spans_path.empty() && !rec.write_jsonl(o.spans_path, rate))
        std::fprintf(stderr, "chainbench: could not write spans to %s\n", o.spans_path.c_str());
    print_exact(r);
    std::printf("samples %llu\n", static_cast<unsigned long long>(r.attempted));
    print_result(metrics, r.attempted, r.failed);
    return 0;
}

[[noreturn]] void usage(const char* why)
{
    std::fprintf(stderr,
                 "chainbench: %s\nusage: chainbench --workload "
                 "<handshake_full|handshake_resumed|rpc_64b|stream_bulk> --seed <n> "
                 "--seconds <s> --trace <0|1> [--setup-only] [--spans <file>] "
                 "[--drift-ms <ms>]\n",
                 why);
    std::exit(2);
}

Options parse(int argc, char** argv)
{
    Options o;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--setup-only") {
            o.setup_only = true;
            continue;
        }
        if (i + 1 >= argc) usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            have_seed = *end == '\0';
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            have_seconds = *end == '\0' && o.seconds > 0;
        } else if (a == "--trace") {
            have_trace = v == "0" || v == "1";
            o.trace = v == "1";
        } else if (a == "--spans") {
            o.spans_path = v;
        } else if (a == "--drift-ms") {
            o.drift_ms = std::strtod(v.c_str(), &end);
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (o.workload.empty() || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds (> 0) and --trace (0 or 1) are required");
    return o;
}

}  // namespace
}  // namespace chainbench

int main(int argc, char** argv)
{
    using namespace chainbench;
    Clock::time_point process_start = Clock::now();
    Options o = parse(argc, argv);
    try {
        if (o.workload == "handshake_full") return drive<HandshakeFull>(o, process_start);
        if (o.workload == "handshake_resumed") return drive<HandshakeResumed>(o, process_start);
        if (o.workload == "rpc_64b") return drive<Rpc64>(o, process_start);
        if (o.workload == "stream_bulk") return drive<StreamBulk>(o, process_start);
    } catch (const SetupError& e) {
        std::fprintf(stderr, "chainbench: set-up failed: %s\n", e.what());
        return 3;
    }
    usage(("unknown workload " + o.workload).c_str());
}
