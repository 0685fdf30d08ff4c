#include "http/chaos.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include "inspect/audit.h"
#include "inspect/dissect.h"
#include "inspect/keyring.h"
#include "mctls/keylog.h"
#include "net/capture.h"
#include "obs/incident.h"
#include "obs/journal.h"
#include "tls/keylog.h"
#include "util/rng.h"

namespace mct::http {
namespace {

// Flight-recorder forensics (DESIGN.md §17). Every soak runs with journal
// lanes: each fetch gets a black-box lane of kFlightRingCapacity events, the
// infrastructure shares lanes under sid 0, and closed lanes recycle once
// kFlightMaxRings are live — sized so a default campaign retains every
// failed session's history.
constexpr size_t kFlightRingCapacity = 128;
constexpr size_t kFlightMaxRings = 4096;

uint64_t fnv1a(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
    }
    return h;
}

uint64_t fnv1a(uint64_t h, const std::string& s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string hop_left(size_t hop) { return hop == 0 ? "client" : "mbox" + std::to_string(hop - 1); }

std::string hop_right(size_t hop, size_t n_mbox)
{
    return hop == n_mbox ? "server" : "mbox" + std::to_string(hop);
}

// Capture tail → incident summaries: the newest `tail` frames (plus every
// flow they reference) as obs-layer structs, payload heads bounded to 16
// bytes of hex — enough to line wire activity up against the event rings
// without embedding the whole MCCAP capture in the bundle.
void incident_capture_tail(const net::Capture& capture, size_t tail,
                           std::vector<obs::IncidentFlow>& flows,
                           std::vector<obs::IncidentFrame>& frames)
{
    size_t first = capture.frames.size() > tail ? capture.frames.size() - tail : 0;
    std::set<uint32_t> used;
    for (size_t i = first; i < capture.frames.size(); ++i) {
        const net::CaptureFrame& f = capture.frames[i];
        used.insert(f.flow);
        obs::IncidentFrame out;
        out.ts = f.ts;
        out.flow = f.flow;
        out.dir = f.dir;
        switch (f.kind) {
        case net::CaptureFrameKind::syn: out.kind = "syn"; break;
        case net::CaptureFrameKind::data: out.kind = "data"; break;
        case net::CaptureFrameKind::fin: out.kind = "fin"; break;
        }
        out.seq = f.seq;
        out.len = f.payload.size();
        static const char* hex = "0123456789abcdef";
        size_t head = std::min<size_t>(f.payload.size(), 16);
        for (size_t b = 0; b < head; ++b) {
            out.head.push_back(hex[f.payload[b] >> 4]);
            out.head.push_back(hex[f.payload[b] & 0xf]);
        }
        frames.push_back(std::move(out));
    }
    for (const net::CaptureFlow& fl : capture.flows) {
        if (!used.count(fl.id)) continue;
        flows.push_back({fl.id, fl.initiator, fl.responder, fl.port, fl.opened_at});
    }
}

// Percentile over a sorted vector (nearest-rank); 0 when empty.
double percentile_ms(const std::vector<net::SimTime>& sorted, double p)
{
    if (sorted.empty()) return 0;
    size_t rank = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1) + 0.5);
    if (rank >= sorted.size()) rank = sorted.size() - 1;
    return static_cast<double>(sorted[rank]) / 1000.0;
}

// The whole campaign: load generator, seeded fault scheduler, and the
// continuous invariant poller, all driving one shared Testbed. Heap-held
// behind a shared_ptr because loop callbacks outlive run_soak's stack
// frames until bed.run() returns.
struct Campaign {
    SoakConfig cfg;
    Testbed& bed;
    TestRng rng;
    SoakReport report;

    // Load generator.
    size_t started = 0;
    bool stampede_fired = false;
    std::map<uint64_t, Testbed::FetchPtr> live;

    // Fault scheduler bookkeeping: every disruptive action records its undo
    // here so overlapping actions never double-apply.
    std::vector<uint8_t> killed;     // per middlebox
    std::vector<uint8_t> hop_down;   // per hop
    std::vector<uint8_t> hop_slow;   // per hop (latency factor applied)
    bool squeezed = false;

    // Sessions worth bundling on an incident: permanently failed fetches,
    // liveness-flagged stalls, isolation victims. sid 0 (the shared
    // infrastructure rings) is always added by affected_sids().
    std::set<uint64_t> affected;

    // Liveness watchdog: progress snapshot + consecutive stalled polls.
    struct Progress {
        uint64_t bytes = 0;
        size_t attempts = 0;
        bool handshake = false;
        size_t stalled = 0;
        bool flagged = false;
    };
    std::map<uint64_t, Progress> watch;

    Campaign(SoakConfig c, Testbed& b) : cfg(std::move(c)), bed(b), rng(cfg.seed)
    {
        killed.assign(cfg.n_middleboxes, 0);
        hop_down.assign(cfg.n_middleboxes + 1, 0);
        hop_slow.assign(cfg.n_middleboxes + 1, 0);
        report.seed = cfg.seed;
    }

    bool work_remaining() const { return started < cfg.sessions || !live.empty(); }

    void record(const std::string& kind, uint64_t arg)
    {
        report.events.push_back({bed.loop().now(), kind, arg});
    }

    void violation(std::string what)
    {
        report.violations.push_back(std::move(what));
    }

    // ---- Load generator ----

    void start_one()
    {
        std::vector<size_t> sizes(cfg.objects_per_fetch, cfg.object_size);
        ++started;
        auto fetch = bed.fetch_sequence(sizes);
        live[fetch->id] = fetch;
        // on_done can't capture the FetchPtr before fetch_sequence returns,
        // so completion is detected by the poller (completed/failed flags);
        // the poller runs every poll_interval, far denser than a fetch.
    }

    void pump_load()
    {
        while (started < cfg.sessions && live.size() < cfg.concurrency) start_one();
    }

    void maybe_stampede()
    {
        if (!cfg.resumption_stampede || stampede_fired) return;
        if (report.completed < cfg.sessions / 2) return;
        stampede_fired = true;
        size_t burst = std::min(cfg.sessions - started, cfg.concurrency * 4);
        record("stampede", burst);
        for (size_t i = 0; i < burst; ++i) start_one();
    }

    // ---- Seeded fault scheduler ----

    // Chaos runs while load is still being offered; once every session has
    // been launched the scheduler quiesces (outstanding undos still fire),
    // and the drain phase asserts convergence: every straggler retries to
    // completion over a healed network. Without a quiesce, a campaign at
    // low concurrency re-arms faults faster than a lone session can retry
    // through them and "permanent" failures are just scheduler starvation.
    void schedule_chaos()
    {
        if (!cfg.chaos) return;
        bed.loop().schedule(cfg.chaos_interval, [this] {
            if (!work_remaining()) return;
            if (started >= cfg.sessions) {
                record("quiesce", started);
                return;
            }
            chaos_tick();
            schedule_chaos();
        });
    }

    // Undo delay in whole chaos intervals: 1-2. Paired with the breather
    // ratio below this keeps the fault duty cycle low enough that the
    // retry budget can always outlast a disruption — the soak asserts
    // recovery, not survival of a permanently-partitioned network.
    net::SimTime undo_delay() { return (1 + rng.next() % 2) * cfg.chaos_interval; }

    void chaos_tick()
    {
        // 6 action kinds over a 12-slot draw: half of all ticks are
        // breathers, so disruptions arrive in bursts with gaps to heal in.
        uint64_t pick = rng.next() % 12;
        if (cfg.n_middleboxes == 0 && (pick == 0 || pick == 2)) pick = 7;
        switch (pick) {
        case 0: {  // kill + scheduled restart
            size_t m = rng.next() % cfg.n_middleboxes;
            if (killed[m]) break;
            killed[m] = 1;
            record("kill", m);
            bed.inject_fault({FaultEvent::Kind::kill_middlebox, 0, m, 0});
            bed.loop().schedule(undo_delay(), [this, m] {
                killed[m] = 0;
                record("restart", m);
                bed.inject_fault({FaultEvent::Kind::restart_middlebox, 0, m, 0});
            });
            break;
        }
        case 1: {  // link flap
            size_t h = rng.next() % (cfg.n_middleboxes + 1);
            if (hop_down[h]) break;
            hop_down[h] = 1;
            record("link_down", h);
            bed.inject_fault({FaultEvent::Kind::link_down, 0, 0, h});
            bed.loop().schedule(undo_delay(), [this, h] {
                hop_down[h] = 0;
                record("link_up", h);
                bed.inject_fault({FaultEvent::Kind::link_up, 0, 0, h});
            });
            break;
        }
        case 2: {  // byzantine byte flip in a forwarded record
            size_t m = rng.next() % cfg.n_middleboxes;
            if (killed[m]) break;
            record("corrupt", m);
            bed.inject_fault({FaultEvent::Kind::corrupt_record, 0, m, 0});
            break;
        }
        case 3: {  // latency spike on one hop
            size_t h = rng.next() % (cfg.n_middleboxes + 1);
            if (hop_slow[h]) break;
            hop_slow[h] = 1;
            double factor = 2.0 + static_cast<double>(rng.next() % 3);
            record("delay", h * 1000 + static_cast<uint64_t>(factor * 100));
            bed.sim_net().set_link_latency_factor(
                hop_left(h), hop_right(h, cfg.n_middleboxes), factor);
            bed.loop().schedule(undo_delay(), [this, h] {
                hop_slow[h] = 0;
                record("delay_clear", h);
                bed.sim_net().set_link_latency_factor(
                    hop_left(h), hop_right(h, cfg.n_middleboxes), 1.0);
            });
            break;
        }
        case 4: {  // rekey storm across every live session
            size_t n = bed.rekey_live_sessions();
            report.rekeys_started += n;
            record("rekey_storm", n);
            break;
        }
        case 5: {  // cache-budget squeeze with live traffic
            if (squeezed) break;
            squeezed = true;
            record("squeeze", 25);
            bed.state_plane().scale_budgets(0.25);
            bed.loop().schedule(undo_delay(), [this] {
                squeezed = false;
                record("squeeze_clear", 100);
                bed.state_plane().scale_budgets(1.0);
            });
            break;
        }
        default:
            break;  // breather ticks keep the schedule sparse
        }
    }

    // ---- Continuous invariant poller ----

    void schedule_poll()
    {
        bed.loop().schedule(cfg.poll_interval, [this] {
            poll();
            if (work_remaining()) schedule_poll();
        });
    }

    void poll()
    {
        reap_finished();
        maybe_stampede();
        pump_load();
        check_budgets();
        check_liveness();
        report.peak_live = std::max<uint64_t>(report.peak_live, live.size());
    }

    void reap_finished()
    {
        for (auto it = live.begin(); it != live.end();) {
            const Testbed::FetchPtr& f = it->second;
            if (!f->completed && !f->failed) {
                ++it;
                continue;
            }
            if (f->completed) {
                ++report.completed;
                if (f->resumed) ++report.resumed;
                if (f->first_byte > f->start)
                    ttfbs.push_back(f->first_byte - f->start);
            } else {
                ++report.failed;
                affected.insert(f->id);
                if (report.failure_samples.size() < 10)
                    report.failure_samples.push_back(
                        "session " + std::to_string(f->id) + " after " +
                        std::to_string(f->attempts) + " attempts: " + f->error);
            }
            report.mismatch_bytes += f->body_mismatch_bytes;
            if (f->body_mismatch_bytes > 0) {
                affected.insert(f->id);
                violation("isolation: session " + std::to_string(f->id) +
                          " received " + std::to_string(f->body_mismatch_bytes) +
                          " bytes of foreign plaintext");
            }
            watch.erase(it->first);
            it = live.erase(it);
        }
    }

    void check_budgets()
    {
        auto snap = bed.state_plane().snapshot();
        double factor = bed.state_plane().budget_factor();
        auto bound = [factor](uint64_t configured) -> uint64_t {
            if (configured == 0) return 0;
            auto b = static_cast<uint64_t>(static_cast<double>(configured) * factor);
            return b == 0 ? 1 : b;
        };
        struct Row {
            const char* name;
            uint64_t bytes;
            uint64_t budget;
        } rows[] = {
            {"tls", snap.tls.bytes, bound(cfg.state_plane.tls.memory_budget)},
            {"server", snap.server.bytes, bound(cfg.state_plane.server.memory_budget)},
            {"mbox", snap.middlebox.bytes,
             bound(cfg.state_plane.middlebox.memory_budget) * cfg.n_middleboxes},
        };
        for (const auto& r : rows) {
            if (r.budget == 0 || r.bytes <= r.budget) continue;
            violation("budget: cache." + std::string(r.name) + " holds " +
                      std::to_string(r.bytes) + " bytes over its bound " +
                      std::to_string(r.budget) + " at t=" +
                      std::to_string(bed.loop().now()));
        }
    }

    void check_liveness()
    {
        for (auto& [id, fetch] : live) {
            Progress& p = watch[id];
            uint64_t bytes = fetch->app_bytes_received;
            bool handshake = fetch->handshake_done != 0;
            if (bytes != p.bytes || fetch->attempts != p.attempts ||
                handshake != p.handshake) {
                p.bytes = bytes;
                p.attempts = fetch->attempts;
                p.handshake = handshake;
                p.stalled = 0;
                continue;
            }
            if (++p.stalled >= cfg.stall_polls && !p.flagged) {
                p.flagged = true;
                affected.insert(id);
                violation("liveness: session " + std::to_string(id) + " made no " +
                          "progress for " + std::to_string(p.stalled) +
                          " polls (attempt " + std::to_string(fetch->attempts) +
                          ", " + std::to_string(bytes) + " bytes)");
            }
        }
    }

    // ---- Post-run checks ----

    // Every long hex token in an MCTLS_* keylog line is derived key
    // material; reuse across lines (beyond the client_random join key in
    // field 2) means two sessions or epochs derived the same secret.
    // CLIENT_RANDOM lines are excluded: TLS resumption reuses the master
    // secret by design, while mcTLS context/endpoint keys are always
    // re-derived from fresh randoms.
    void check_key_uniqueness(const tls::KeyLogMemory& keylog)
    {
        std::set<std::string> seen;
        for (const auto& line : keylog.lines()) {
            if (line.rfind("MCTLS_", 0) != 0) continue;
            size_t field = 0;
            size_t pos = 0;
            while (pos < line.size()) {
                size_t end = line.find(' ', pos);
                if (end == std::string::npos) end = line.size();
                std::string tok = line.substr(pos, end - pos);
                pos = end + 1;
                ++field;
                if (field <= 2 || tok == "-" || tok.size() < 16) continue;
                if (!seen.insert(tok).second)
                    violation("isolation: key material reused across sessions (" +
                              tok.substr(0, 16) + "...)");
            }
        }
    }

    // Telescoping: sim-clock stages of every complete trace sum to its
    // end-to-end latency (obs/journal.h). Partial traces — records in flight
    // when their session died to a fault — are skipped.
    void check_telescoping(const obs::Journal& journal)
    {
        if (journal.dropped() > 0) {
            violation("spans: journal dropped " + std::to_string(journal.dropped()) +
                      " events; grow span_capacity to check telescoping");
            return;
        }
        struct Trace {
            uint64_t root_start = 0, last_end = 0, stage_sum = 0;
            bool root = false, deliver = false;
        };
        std::map<uint64_t, Trace> traces;
        for (const auto& s : journal.events()) {
            if (!s.is_span() || s.stage == obs::Stage::handshake) continue;
            Trace& t = traces[s.trace_id];
            t.last_end = std::max(t.last_end, s.end_ts);
            if (s.stage == obs::Stage::record) {
                t.root = true;
                t.root_start = s.ts;
            } else if (s.stage == obs::Stage::queue_wait ||
                       s.stage == obs::Stage::transmit) {
                t.stage_sum += s.end_ts - s.ts;
            } else if (s.stage == obs::Stage::deliver) {
                t.deliver = true;
            }
        }
        for (const auto& [id, t] : traces) {
            if (!t.root || !t.deliver) continue;
            uint64_t e2e = t.last_end - t.root_start;
            if (e2e == 0) continue;
            double rel = std::abs(static_cast<double>(t.stage_sum) -
                                  static_cast<double>(e2e)) /
                         static_cast<double>(e2e);
            if (rel > 0.01)
                violation("spans: trace " + std::to_string(id) + " stages sum to " +
                          std::to_string(t.stage_sum) + " but end-to-end is " +
                          std::to_string(e2e));
        }
    }

    // Least privilege, proven from the wire: no *silent* modification — a
    // middlebox that changed a context's plaintext either holds a write
    // grant, or the change was caught by a MAC anomaly (the campaign's
    // corruption faults are exactly such unauthorized writes, and the audit
    // attributing them to the relay while the MACs flag them is the system
    // working). A no-grant modification with no covering anomaly in that
    // context is undetected tampering: a violation.
    void check_least_privilege(const net::Capture& capture,
                               const tls::KeyLogMemory& keylog)
    {
        auto keys = inspect::parse_keylog(keylog.text());
        const inspect::KeyRing* ring = keys.ok() ? &keys.value() : nullptr;
        auto sessions = inspect::dissect_capture(capture, ring);
        for (const auto& session : sessions) {
            if (!session.is_mctls || !session.keys_available) continue;
            auto audit = inspect::build_audit(session);
            std::map<uint8_t, uint64_t> caught;  // MAC anomalies per context
            for (const auto& a : audit.anomalies) ++caught[a.context_id];
            for (size_t e = 1; e + 1 < audit.entities.size(); ++e) {
                for (size_t c = 0; c < audit.context_ids.size(); ++c) {
                    const auto& cell = audit.matrix[e][c];
                    if (cell.permission == mctls::Permission::write ||
                        cell.records_modified == 0)
                        continue;
                    uint64_t flagged = caught[audit.context_ids[c]];
                    if (cell.records_modified > flagged)
                        violation("privilege: " + audit.entities[e] + " modified " +
                                  std::to_string(cell.records_modified) +
                                  " records in context " +
                                  std::to_string(audit.context_ids[c]) +
                                  " without a write grant (" +
                                  std::to_string(flagged) +
                                  " caught by MAC anomalies)");
                }
            }
        }
    }

    void finalize()
    {
        report.virtual_duration = bed.loop().now();
        uint64_t digest = 14695981039346656037ULL;
        for (const auto& e : report.events) {
            digest = fnv1a(digest, e.at);
            digest = fnv1a(digest, e.kind);
            digest = fnv1a(digest, e.arg);
        }
        report.schedule_digest = digest;
        double secs = static_cast<double>(report.virtual_duration) / 1e6;
        report.connections_per_sec =
            secs > 0 ? static_cast<double>(report.completed) / secs : 0;
        std::sort(ttfbs.begin(), ttfbs.end());
        report.ttfb_p50_ms = percentile_ms(ttfbs, 0.50);
        report.ttfb_p99_ms = percentile_ms(ttfbs, 0.99);
    }

    // Ring filter for the incident bundle: the sessions implicated above
    // plus sid 0 (server / relay / state-plane infrastructure rings).
    std::vector<uint64_t> affected_sids() const
    {
        std::vector<uint64_t> sids{0};
        sids.insert(sids.end(), affected.begin(), affected.end());
        return sids;
    }

    std::vector<net::SimTime> ttfbs;
};

}  // namespace

uint64_t chaos_seed_from_env(uint64_t fallback)
{
    const char* env = std::getenv("MCT_CHAOS_SEED");
    if (!env || !*env) return fallback;
    char* end = nullptr;
    uint64_t seed = std::strtoull(env, &end, 0);
    return (end && *end == '\0') ? seed : fallback;
}

mctls::StatePlaneConfig soak_state_plane(size_t sessions)
{
    mctls::StatePlaneConfig sp;
    // Bound every cache below the session count so overload walks the
    // ladder organically; byte budgets sized at a few hundred bytes per
    // admitted entry (tickets and pairwise keys are small).
    size_t cap = std::max<size_t>(32, sessions / 4);
    sp.tls = {cap, static_cast<uint64_t>(cap) * 512, 60_s,
              util::DegradationPolicy::evict_coldest, 32};
    sp.server = {cap, static_cast<uint64_t>(cap) * 512, 60_s,
                 util::DegradationPolicy::shed, 8};
    sp.middlebox = {cap, static_cast<uint64_t>(cap) * 512, 60_s,
                    util::DegradationPolicy::decline, 32};
    sp.sweep_interval = 500_ms;
    sp.sweep_batch = 128;
    sp.rekey_interval = 0;  // storms come from the campaign, not deadlines
    sp.excise_grace = 0;    // kills are transient; restarts beat excision
    return sp;
}

std::string SoakReport::seed_hint() const
{
    return "campaign seed " + std::to_string(seed) +
           " (rerun: MCT_CHAOS_SEED=" + std::to_string(seed) + ")";
}

SoakReport run_soak(const SoakConfig& cfg)
{
    TestbedConfig tb;
    tb.mode = cfg.mode;
    tb.n_middleboxes = cfg.n_middleboxes;
    tb.mbox_permission = cfg.mbox_permission;
    tb.permission_rows = cfg.permission_rows;
    tb.seed = cfg.seed;
    tb.nagle = false;
    tb.link = {10_ms, 0, 0, cfg.chaos};  // faultable arms retransmission
    tb.tag_sessions = true;
    tb.retain_sessions = false;
    tb.state_plane = cfg.state_plane;
    tb.handshake_deadline = 2_s;
    tb.recovery = RecoveryPolicy::resume;
    // Retry runway (sum of backoffs ≈ 8 s virtual) is sized to outlast the
    // chaos phase: a session that starts early and keeps losing attempts to
    // re-armed faults survives into the quiesce and completes there.
    tb.retry = {24, 30_ms, 2.0, 0.1, 400_ms};

    obs::Hub local_hub;
    tb.obs = cfg.hub ? cfg.hub : &local_hub;
    obs::Hub* tb_obs = tb.obs;

    tls::KeyLogMemory keylog;
    tb.keylog = &keylog;

    net::CaptureCollector capture;
    if (cfg.audit_capture) tb.capture = &capture;

    obs::Journal journal({.capacity = cfg.span_capacity,
                          .lane_capacity = kFlightRingCapacity,
                          .max_lanes = kFlightMaxRings});
    tb.journal = &journal;

    Testbed bed(std::move(tb));
    auto campaign = std::make_shared<Campaign>(cfg, bed);
    bed.loop().schedule(0, [campaign] {
        campaign->pump_load();
        campaign->schedule_chaos();
        campaign->schedule_poll();
    });
    bed.run();

    campaign->reap_finished();
    campaign->check_key_uniqueness(keylog);
    if (journal.keeps_spans()) campaign->check_telescoping(journal);
    if (cfg.audit_capture) campaign->check_least_privilege(capture.capture, keylog);
    campaign->finalize();
    bed.publish_session_stats();  // gauges + per-class aggregates on the hub

    // Incident bundle: MCT_INCIDENT_DIR overrides the configured directory;
    // no directory means no bundle. Red campaigns always write; green ones
    // only when incident_on_green asked for a replayable artifact anyway.
    std::string dir = cfg.incident_dir;
    if (const char* env = std::getenv("MCT_INCIDENT_DIR"); env && *env) dir = env;
    SoakReport& report = campaign->report;
    if (!dir.empty() && (!report.green() || cfg.incident_on_green)) {
        obs::IncidentMeta meta;
        meta.reason = report.green() ? "green" : report.violations.front();
        meta.seed = report.seed;
        meta.schedule_digest = report.schedule_digest;
        meta.rerun = "MCT_CHAOS_SEED=" + std::to_string(report.seed);
        meta.violations = report.violations;

        obs::IncidentSources src;
        src.metrics = &tb_obs->metrics;
        src.journal = &journal;
        src.sids = campaign->affected_sids();
        for (const auto& e : report.events) src.chaos.push_back({e.at, e.kind, e.arg});
        if (cfg.audit_capture)
            incident_capture_tail(capture.capture, 256, src.flows, src.frames);

        report.incident_path = obs::IncidentManager(dir, cfg.incident_tag)
                                   .write(meta, src);
    }
    return campaign->report;
}

}  // namespace mct::http
