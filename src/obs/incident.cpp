#include "obs/incident.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/json.h"

namespace mct::obs {

namespace {

// Values a double cannot hold exactly (schedule digests are full 64-bit
// FNV-1a, seeds come verbatim from the environment) are written as decimal
// strings; everything else stays a plain JSON number. get_u64() accepts both
// forms, so the representation is an encoding detail, not schema.
constexpr uint64_t kMaxExactDouble = 1ull << 53;

void u64_value(JsonWriter& w, uint64_t v)
{
    if (v < kMaxExactDouble)
        w.value(v);
    else
        w.value(std::to_string(v));
}

void u64_field(JsonWriter& w, std::string_view key, uint64_t v)
{
    w.key(key);
    u64_value(w, v);
}

uint64_t get_u64(const JsonValue* v)
{
    if (!v) return 0;
    if (v->is_number()) return static_cast<uint64_t>(v->num);
    if (v->is_string()) return std::strtoull(v->str.c_str(), nullptr, 10);
    return 0;
}

std::string get_str(const JsonValue* v)
{
    return v && v->is_string() ? v->str : std::string();
}

double get_num(const JsonValue* v)
{
    return v && v->is_number() ? v->num : 0.0;
}

}  // namespace

IncidentBundle build_incident_bundle(const IncidentMeta& meta,
                                     const IncidentSources& sources)
{
    IncidentBundle b;
    b.meta = meta;
    b.chaos = sources.chaos;
    b.flows = sources.flows;
    b.frames = sources.frames;

    if (sources.metrics) {
        for (const auto& [name, c] : sources.metrics->counters())
            b.counters[name] = c->value();
        for (const auto& [name, g] : sources.metrics->gauges())
            b.gauges[name] = g->value();
        for (const auto& [name, h] : sources.metrics->histograms()) {
            IncidentHistogram ih;
            ih.count = h->count();
            ih.sum = h->sum();
            ih.min = h->min();
            ih.max = h->max();
            ih.p50 = h->quantile(0.50);
            ih.p90 = h->quantile(0.90);
            ih.p99 = h->quantile(0.99);
            for (size_t i = 0; i < Histogram::kBucketCount; ++i)
                if (uint64_t n = h->bucket_count_at(i))
                    ih.buckets.emplace_back(static_cast<uint64_t>(i), n);
            b.histograms[name] = std::move(ih);
        }
    }

    if (sources.journal) {
        const Journal& journal = *sources.journal;
        for (const auto& snap : journal.snapshot(sources.sids)) {
            IncidentRing r;
            r.sid = snap.sid;
            r.label = snap.label;
            r.total = snap.total;
            r.dropped = snap.dropped;
            r.events.reserve(snap.events.size());
            for (const Event& e : snap.events) {
                IncidentRing::Event ie;
                ie.seq = e.seq;
                ie.ts = e.ts;
                ie.type = to_string(e.type);
                ie.ctx = e.ctx;
                ie.a = e.a;
                ie.b = e.b;
                ie.span = e.trace_id;
                r.events.push_back(std::move(ie));
            }
            b.rings.push_back(std::move(r));
        }

        std::vector<Event> spans;
        for (const Event& e : journal.events())
            if (e.is_span()) spans.push_back(e);
        size_t start = spans.size() > sources.span_tail ? spans.size() - sources.span_tail : 0;
        b.spans.reserve(spans.size() - start);
        for (size_t i = start; i < spans.size(); ++i) {
            const Event& r = spans[i];
            IncidentSpan is;
            is.trace_id = r.trace_id;
            is.span_id = r.span_id;
            is.parent_id = r.parent_id;
            is.start_ts = r.ts;
            is.end_ts = r.end_ts;
            is.cpu_ns = r.cpu_ns;
            is.a = r.a;
            is.actor = journal.actor_name(r.actor);
            is.stage = to_string(r.stage);
            is.ctx = r.ctx;
            b.spans.push_back(std::move(is));
        }
    }

    return b;
}

std::string incident_to_jsonl(const IncidentBundle& b)
{
    std::string out;

    auto line = [&out](auto&& fill) {
        std::string text;
        JsonWriter w(&text);
        w.begin_object();
        fill(w);
        w.end_object();
        out += text;
        out.push_back('\n');
    };

    line([&](JsonWriter& w) {
        w.key("kind");
        w.value("incident");
        w.key("schema");
        w.value(static_cast<uint64_t>(b.meta.schema));
        w.key("reason");
        w.value(b.meta.reason);
        u64_field(w, "seed", b.meta.seed);
        u64_field(w, "digest", b.meta.schedule_digest);
        w.key("rerun");
        w.value(b.meta.rerun);
        w.key("violations");
        w.begin_array();
        for (const auto& v : b.meta.violations) w.value(v);
        w.end_array();
    });

    for (const auto& e : b.chaos) {
        line([&](JsonWriter& w) {
            w.key("kind");
            w.value("chaos");
            u64_field(w, "at", e.at);
            w.key("action");
            w.value(e.action);
            u64_field(w, "arg", e.arg);
        });
    }

    for (const auto& [name, v] : b.counters) {
        line([&](JsonWriter& w) {
            w.key("kind");
            w.value("counter");
            w.key("name");
            w.value(name);
            u64_field(w, "v", v);
        });
    }

    for (const auto& [name, v] : b.gauges) {
        line([&](JsonWriter& w) {
            w.key("kind");
            w.value("gauge");
            w.key("name");
            w.value(name);
            w.key("v");
            w.value(v);
        });
    }

    for (const auto& [name, h] : b.histograms) {
        line([&](JsonWriter& w) {
            w.key("kind");
            w.value("hist");
            w.key("name");
            w.value(name);
            u64_field(w, "count", h.count);
            u64_field(w, "sum", h.sum);
            u64_field(w, "min", h.min);
            u64_field(w, "max", h.max);
            u64_field(w, "p50", h.p50);
            u64_field(w, "p90", h.p90);
            u64_field(w, "p99", h.p99);
            w.key("buckets");
            w.begin_array();
            for (const auto& [idx, n] : h.buckets) {
                w.begin_array();
                u64_value(w, idx);
                u64_value(w, n);
                w.end_array();
            }
            w.end_array();
        });
    }

    for (const auto& r : b.rings) {
        line([&](JsonWriter& w) {
            w.key("kind");
            w.value("ring");
            u64_field(w, "sid", r.sid);
            w.key("label");
            w.value(r.label);
            u64_field(w, "total", r.total);
            u64_field(w, "dropped", r.dropped);
        });
        for (const auto& e : r.events) {
            line([&](JsonWriter& w) {
                w.key("kind");
                w.value("ev");
                u64_field(w, "sid", r.sid);
                w.key("label");
                w.value(r.label);
                u64_field(w, "seq", e.seq);
                u64_field(w, "ts", e.ts);
                w.key("type");
                w.value(e.type);
                u64_field(w, "ctx", e.ctx);
                u64_field(w, "a", e.a);
                u64_field(w, "b", e.b);
                u64_field(w, "span", e.span);
            });
        }
    }

    for (const auto& s : b.spans) {
        line([&](JsonWriter& w) {
            w.key("kind");
            w.value("span");
            u64_field(w, "trace", s.trace_id);
            u64_field(w, "id", s.span_id);
            u64_field(w, "parent", s.parent_id);
            u64_field(w, "start", s.start_ts);
            u64_field(w, "end", s.end_ts);
            u64_field(w, "cpu", s.cpu_ns);
            w.key("actor");
            w.value(s.actor);
            w.key("stage");
            w.value(s.stage);
            u64_field(w, "ctx", s.ctx);
            u64_field(w, "a", s.a);
        });
    }

    for (const auto& f : b.flows) {
        line([&](JsonWriter& w) {
            w.key("kind");
            w.value("flow");
            u64_field(w, "id", f.id);
            w.key("from");
            w.value(f.initiator);
            w.key("to");
            w.value(f.responder);
            u64_field(w, "port", f.port);
            u64_field(w, "opened", f.opened_at);
        });
    }

    for (const auto& f : b.frames) {
        line([&](JsonWriter& w) {
            w.key("kind");
            w.value("frame");
            u64_field(w, "ts", f.ts);
            u64_field(w, "flow", f.flow);
            u64_field(w, "dir", f.dir);
            w.key("type");
            w.value(f.kind);
            u64_field(w, "seq", f.seq);
            u64_field(w, "len", f.len);
            w.key("head");
            w.value(f.head);
        });
    }

    return out;
}

Result<IncidentBundle> parse_incident_bundle(std::string_view jsonl)
{
    IncidentBundle b;
    bool saw_header = false;
    // Events reference their ring by (sid, label); rings appear before their
    // events in our own output, but a truncated or hand-edited bundle may
    // not honor that, so ev lines create their ring on demand.
    std::map<std::pair<uint64_t, std::string>, size_t> ring_index;

    auto ring_for = [&](uint64_t sid, const std::string& label) -> IncidentRing& {
        auto key = std::make_pair(sid, label);
        auto it = ring_index.find(key);
        if (it != ring_index.end()) return b.rings[it->second];
        ring_index[std::move(key)] = b.rings.size();
        IncidentRing r;
        r.sid = sid;
        r.label = label;
        b.rings.push_back(std::move(r));
        return b.rings.back();
    };

    size_t line_no = 0;
    size_t pos = 0;
    while (pos <= jsonl.size()) {
        size_t nl = jsonl.find('\n', pos);
        std::string_view raw =
            jsonl.substr(pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
        pos = nl == std::string_view::npos ? jsonl.size() + 1 : nl + 1;
        ++line_no;
        if (raw.empty() || raw.find_first_not_of(" \t\r") == std::string_view::npos) continue;

        Result<JsonValue> parsed = json_parse(raw);
        if (!parsed.ok())
            return err("incident bundle line " + std::to_string(line_no) + ": " +
                       parsed.error().message);
        const JsonValue& v = parsed.value();
        std::string kind = get_str(v.get("kind"));
        if (kind.empty())
            return err("incident bundle line " + std::to_string(line_no) +
                       ": missing \"kind\"");

        if (kind == "incident") {
            saw_header = true;
            b.meta.schema = static_cast<int>(get_u64(v.get("schema")));
            b.meta.reason = get_str(v.get("reason"));
            b.meta.seed = get_u64(v.get("seed"));
            b.meta.schedule_digest = get_u64(v.get("digest"));
            b.meta.rerun = get_str(v.get("rerun"));
            if (const JsonValue* vio = v.get("violations"); vio && vio->is_array())
                for (const JsonValue& s : vio->items)
                    b.meta.violations.push_back(s.str);
        } else if (kind == "chaos") {
            IncidentChaosEvent e;
            e.at = get_u64(v.get("at"));
            e.action = get_str(v.get("action"));
            e.arg = get_u64(v.get("arg"));
            b.chaos.push_back(std::move(e));
        } else if (kind == "counter") {
            b.counters[get_str(v.get("name"))] = get_u64(v.get("v"));
        } else if (kind == "gauge") {
            b.gauges[get_str(v.get("name"))] = get_num(v.get("v"));
        } else if (kind == "hist") {
            IncidentHistogram h;
            h.count = get_u64(v.get("count"));
            h.sum = get_u64(v.get("sum"));
            h.min = get_u64(v.get("min"));
            h.max = get_u64(v.get("max"));
            h.p50 = get_u64(v.get("p50"));
            h.p90 = get_u64(v.get("p90"));
            h.p99 = get_u64(v.get("p99"));
            if (const JsonValue* bk = v.get("buckets"); bk && bk->is_array())
                for (const JsonValue& pair : bk->items)
                    if (pair.is_array() && pair.items.size() == 2)
                        h.buckets.emplace_back(get_u64(&pair.items[0]),
                                               get_u64(&pair.items[1]));
            b.histograms[get_str(v.get("name"))] = std::move(h);
        } else if (kind == "ring") {
            IncidentRing& r = ring_for(get_u64(v.get("sid")), get_str(v.get("label")));
            r.total = get_u64(v.get("total"));
            r.dropped = get_u64(v.get("dropped"));
        } else if (kind == "ev") {
            IncidentRing& r = ring_for(get_u64(v.get("sid")), get_str(v.get("label")));
            IncidentRing::Event e;
            e.seq = get_u64(v.get("seq"));
            e.ts = get_u64(v.get("ts"));
            e.type = get_str(v.get("type"));
            e.ctx = static_cast<uint16_t>(get_u64(v.get("ctx")));
            e.a = get_u64(v.get("a"));
            e.b = get_u64(v.get("b"));
            e.span = get_u64(v.get("span"));
            r.events.push_back(std::move(e));
        } else if (kind == "span") {
            IncidentSpan s;
            s.trace_id = get_u64(v.get("trace"));
            s.span_id = get_u64(v.get("id"));
            s.parent_id = get_u64(v.get("parent"));
            s.start_ts = get_u64(v.get("start"));
            s.end_ts = get_u64(v.get("end"));
            s.cpu_ns = get_u64(v.get("cpu"));
            s.actor = get_str(v.get("actor"));
            s.stage = get_str(v.get("stage"));
            s.ctx = static_cast<uint16_t>(get_u64(v.get("ctx")));
            s.a = get_u64(v.get("a"));
            b.spans.push_back(std::move(s));
        } else if (kind == "flow") {
            IncidentFlow f;
            f.id = static_cast<uint32_t>(get_u64(v.get("id")));
            f.initiator = get_str(v.get("from"));
            f.responder = get_str(v.get("to"));
            f.port = static_cast<uint16_t>(get_u64(v.get("port")));
            f.opened_at = get_u64(v.get("opened"));
            b.flows.push_back(std::move(f));
        } else if (kind == "frame") {
            IncidentFrame f;
            f.ts = get_u64(v.get("ts"));
            f.flow = static_cast<uint32_t>(get_u64(v.get("flow")));
            f.dir = static_cast<uint8_t>(get_u64(v.get("dir")));
            f.kind = get_str(v.get("type"));
            f.seq = get_u64(v.get("seq"));
            f.len = get_u64(v.get("len"));
            f.head = get_str(v.get("head"));
            b.frames.push_back(std::move(f));
        } else {
            // Unknown kinds are skipped, not fatal: newer writers may add
            // line kinds an older `mctool report` should read past.
        }
    }

    if (!saw_header) return err("incident bundle: no \"incident\" header line");
    return b;
}

Result<IncidentBundle> read_incident_bundle(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) return err("incident bundle: cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return parse_incident_bundle(ss.str());
}

std::string IncidentManager::bundle_path(uint64_t seed) const
{
    std::string path = dir_.empty() ? std::string() : dir_ + "/";
    path += "incident-" + tag_ + "-seed" + std::to_string(seed) + ".jsonl";
    return path;
}

std::string IncidentManager::write(const IncidentMeta& meta,
                                   const IncidentSources& sources) const
{
    IncidentBundle bundle = build_incident_bundle(meta, sources);
    std::string text = incident_to_jsonl(bundle);
    std::string path = bundle_path(meta.seed);
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    if (!out.good()) return std::string();
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.flush();
    return out.good() ? path : std::string();
}

}  // namespace mct::obs
