#include "obs/perfetto.h"

#include <map>

#include "obs/json.h"

namespace mct::obs {

namespace {

// Stable per-actor process ids, numbered by name in order of first use.
class PidTable {
public:
    uint64_t pid_for(const std::string& name)
    {
        auto it = pids_.find(name);
        if (it != pids_.end()) return it->second;
        uint64_t pid = pids_.size() + 1;
        pids_.emplace(name, pid);
        return pid;
    }
    const std::map<std::string, uint64_t>& all() const { return pids_; }

private:
    std::map<std::string, uint64_t> pids_;
};

constexpr uint64_t kEventsTid = 99;  // instant-marker track, after stage tracks

void write_metadata(JsonWriter& w, const char* what, uint64_t pid, uint64_t tid,
                    const std::string& name, bool thread)
{
    w.begin_object();
    w.key("name");
    w.value(what);
    w.key("ph");
    w.value("M");
    w.key("pid");
    w.value(pid);
    if (thread) {
        w.key("tid");
        w.value(tid);
    }
    w.key("args");
    w.begin_object();
    w.key("name");
    w.value(name);
    w.end_object();
    w.end_object();
}

}  // namespace

std::string to_chrome_trace(const ChromeTraceInput& in)
{
    std::string out;
    JsonWriter w(&out);
    w.begin_object();
    w.key("displayTimeUnit");
    w.value("ms");
    w.key("traceEvents");
    w.begin_array();

    PidTable pids;
    // (pid, tid) -> track name, collected while writing events, named after.
    std::map<std::pair<uint64_t, uint64_t>, std::string> tracks;

    auto actor_of = [&in](const Event& e) -> std::string {
        return in.journal ? in.journal->actor_name(e.actor) : "?";
    };
    // Spans first, then instants, so process ids go to span actors first.
    if (in.events) {
        for (const auto& s : *in.events) {
            if (!s.is_span()) continue;
            std::string actor = actor_of(s);
            uint64_t pid = pids.pid_for(actor);
            uint64_t tid = static_cast<uint64_t>(s.stage);
            tracks.emplace(std::make_pair(pid, tid), to_string(s.stage));
            w.begin_object();
            w.key("name");
            w.value(to_string(s.stage));
            w.key("cat");
            w.value("span");
            w.key("ph");
            w.value("X");
            w.key("ts");
            w.value(s.ts);
            w.key("dur");
            w.value(s.end_ts >= s.ts ? s.end_ts - s.ts : 0);
            w.key("pid");
            w.value(pid);
            w.key("tid");
            w.value(tid);
            w.key("args");
            w.begin_object();
            w.key("trace");
            w.value(s.trace_id);
            w.key("span");
            w.value(s.span_id);
            w.key("parent");
            w.value(s.parent_id);
            w.key("ctx");
            w.value(static_cast<uint64_t>(s.ctx));
            w.key("a");
            w.value(s.a);
            if (s.cpu_ns) {
                w.key("cpu_ns");
                w.value(s.cpu_ns);
            }
            w.end_object();
            w.end_object();
        }
    }

    if (in.events) {
        for (const auto& e : *in.events) {
            if (e.is_span()) continue;
            std::string actor = actor_of(e);
            uint64_t pid = pids.pid_for(actor);
            tracks.emplace(std::make_pair(pid, kEventsTid), "events");
            w.begin_object();
            w.key("name");
            w.value(to_string(e.type));
            w.key("cat");
            w.value("event");
            w.key("ph");
            w.value("i");
            w.key("s");
            w.value("t");
            w.key("ts");
            w.value(e.ts);
            w.key("pid");
            w.value(pid);
            w.key("tid");
            w.value(kEventsTid);
            w.key("args");
            w.begin_object();
            w.key("ctx");
            w.value(static_cast<uint64_t>(e.ctx));
            w.key("a");
            w.value(e.a);
            w.key("b");
            w.value(e.b);
            w.end_object();
            w.end_object();
        }
    }

    for (const auto& [name, pid] : pids.all())
        write_metadata(w, "process_name", pid, 0, name, /*thread=*/false);
    for (const auto& [key, name] : tracks)
        write_metadata(w, "thread_name", key.first, key.second, name, /*thread=*/true);

    w.end_array();
    w.end_object();
    return out;
}

std::vector<HandshakePhase> handshake_phases(const std::vector<Event>& events,
                                             const Journal& journal)
{
    auto is_handshake = [](EventType t) {
        return t <= EventType::hs_failed ||
               (t >= EventType::hs_resume_offer && t <= EventType::hs_resume_reject);
    };
    std::vector<HandshakePhase> out;
    // Per-actor anchor: timestamp of the previous handshake event (the start
    // of whatever phase the next event completes).
    std::map<uint16_t, uint64_t> anchor;
    for (const auto& e : events) {
        if (!is_handshake(e.type)) continue;
        auto it = anchor.find(e.actor);
        if (it != anchor.end()) {
            HandshakePhase p;
            p.actor = journal.actor_name(e.actor);
            p.phase = to_string(e.type);
            p.start_ts = it->second;
            p.end_ts = e.ts;
            p.bytes = e.a;
            out.push_back(std::move(p));
        }
        if (e.type == EventType::hs_complete || e.type == EventType::hs_failed)
            anchor.erase(e.actor);  // a later handshake starts a fresh waterfall
        else
            anchor[e.actor] = e.ts;
    }
    return out;
}

}  // namespace mct::obs
