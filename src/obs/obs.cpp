#include "obs/obs.h"

#include "obs/json.h"

namespace mct::obs {

void SessionStats::to_json(std::string* out) const
{
    JsonWriter w(out);
    w.begin_object();
    w.key("actor");
    w.value(actor);
    w.key("established");
    w.value(established);
    w.key("failure");
    w.value(failure);
    w.key("resumed");
    w.value(resumed);
    w.key("epoch");
    w.value(static_cast<uint64_t>(epoch));
    w.key("rekeys");
    w.value(rekeys);
    w.key("handshake_wire_bytes");
    w.value(handshake_wire_bytes);
    w.key("app_overhead_bytes");
    w.value(app_overhead_bytes);
    w.key("app_records_sent");
    w.value(app_records_sent);
    w.key("app_records_received");
    w.value(app_records_received);
    w.key("macs_generated");
    w.value(macs_generated);
    w.key("macs_verified");
    w.value(macs_verified);
    w.key("mac_failures");
    w.value(mac_failures);
    w.key("alerts_sent");
    w.value(alerts_sent);
    w.key("alerts_received");
    w.value(alerts_received);
    w.key("alerts_sent_by_type");
    w.begin_object();
    for (const auto& [type, n] : alerts_sent_by_type) {
        w.key(type);
        w.value(n);
    }
    w.end_object();
    w.key("alerts_received_by_type");
    w.begin_object();
    for (const auto& [type, n] : alerts_received_by_type) {
        w.key(type);
        w.value(n);
    }
    w.end_object();
    w.key("trace_events_dropped");
    w.value(trace_events_dropped);
    w.key("contexts");
    w.begin_array();
    for (const auto& c : contexts) {
        w.begin_object();
        w.key("name");
        w.value(c.name);
        w.key("id");
        w.value(static_cast<uint64_t>(c.id));
        w.key("bytes_out");
        w.value(c.bytes_out);
        w.key("bytes_in");
        w.value(c.bytes_in);
        w.key("records_out");
        w.value(c.records_out);
        w.key("records_in");
        w.value(c.records_in);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

void Hub::publish(const std::string& prefix, const SessionStats& s)
{
    auto set = [&](const std::string& name, uint64_t v) {
        metrics.counter(prefix + "." + name)->set(v);
    };
    set("established", s.established ? 1 : 0);
    set("resumed", s.resumed ? 1 : 0);
    set("epoch", s.epoch);
    set("rekeys", s.rekeys);
    set("handshake_wire_bytes", s.handshake_wire_bytes);
    set("app_overhead_bytes", s.app_overhead_bytes);
    set("app_records_sent", s.app_records_sent);
    set("app_records_received", s.app_records_received);
    set("macs_generated", s.macs_generated);
    set("macs_verified", s.macs_verified);
    set("mac_failures", s.mac_failures);
    set("alerts_sent", s.alerts_sent);
    set("alerts_received", s.alerts_received);
    for (const auto& [type, n] : s.alerts_sent_by_type) set("alerts.sent." + type, n);
    for (const auto& [type, n] : s.alerts_received_by_type)
        set("alerts.received." + type, n);
    set("trace_events_dropped", s.trace_events_dropped);
    for (const auto& c : s.contexts) {
        set("ctx." + c.name + ".bytes_out", c.bytes_out);
        set("ctx." + c.name + ".bytes_in", c.bytes_in);
        set("ctx." + c.name + ".records_out", c.records_out);
        set("ctx." + c.name + ".records_in", c.records_in);
    }
}

void Hub::publish_cache(const std::string& prefix, const util::CacheStats& s)
{
    auto set = [&](const std::string& name, uint64_t v) {
        metrics.counter(prefix + "." + name)->set(v);
    };
    set("hits", s.hits);
    set("misses", s.misses);
    set("expirations", s.expirations);
    set("insertions", s.insertions);
    set("replacements", s.replacements);
    set("evictions", s.evictions);
    set("declines", s.declines);
    set("shed", s.shed);
    set("swept", s.swept);
    set("entries", s.entries);
    set("bytes", s.bytes);
}

void Hub::publish_spans(const Journal& journal)
{
    for (const auto& r : journal.events()) {
        if (!r.is_span()) continue;
        std::string stage = to_string(r.stage);
        metrics.histogram("span." + stage + ".sim_us")
            ->record(r.end_ts >= r.ts ? r.end_ts - r.ts : 0);
        if (r.cpu_ns) metrics.histogram("span." + stage + ".cpu_ns")->record(r.cpu_ns);
    }
    metrics.counter("span.dropped")->set(journal.dropped());
}

void Hub::publish_trace_health(const Journal* journal)
{
    metrics.counter("obs.trace.dropped")->set(journal ? journal->dropped() : 0);
}

}  // namespace mct::obs
