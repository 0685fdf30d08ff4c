#include "obs/obs.h"

#include <algorithm>
#include <type_traits>

#include "obs/json.h"

namespace mct::obs {

namespace {

using AlertCounts = std::map<std::string, uint64_t>;
using Contexts = std::vector<ContextStats>;

struct JsonField {
    JsonWriter& w;

    template <class T>
    void operator()(StatField f, const T& v) const
    {
        w.key(f.key);
        if constexpr (std::is_same_v<T, std::string> || std::is_same_v<T, bool>) {
            w.value(v);
        } else if constexpr (std::is_integral_v<T>) {
            w.value(static_cast<uint64_t>(v));
        } else if constexpr (std::is_same_v<T, AlertCounts>) {
            w.begin_object();
            for (const auto& [type, n] : v) {
                w.key(type);
                w.value(n);
            }
            w.end_object();
        } else {
            static_assert(std::is_same_v<T, Contexts>);
            w.begin_array();
            for (const auto& c : v) {
                w.begin_object();
                ContextStats::walk(*this, c);
                w.end_object();
            }
            w.end_array();
        }
    }
};

// Counter "<prefix><metric>"; a map publishes one counter per key and a
// context one per counter, under "<prefix>ctx.<name>.".
struct PublishField {
    MetricsRegistry& metrics;
    std::string prefix;

    template <class T>
    void operator()(StatField f, const T& v) const
    {
        if (!f.metric) return;
        std::string name = prefix + f.metric;
        if constexpr (std::is_integral_v<T>) {
            metrics.counter(name)->set(v);
        } else if constexpr (std::is_same_v<T, AlertCounts>) {
            for (const auto& [type, n] : v) metrics.counter(name + "." + type)->set(n);
        } else if constexpr (std::is_same_v<T, Contexts>) {
            for (const auto& c : v)
                ContextStats::walk(PublishField{metrics, name + "." + c.name + "."}, c);
        }
    }
};

struct FoldField {
    template <class T>
    void operator()(StatField f, T& agg, const T& v) const
    {
        if constexpr (std::is_integral_v<T>) {
            if (f.fold == Fold::any) agg = agg || v;
            if (f.fold == Fold::max) agg = std::max(agg, v);
            if (f.fold == Fold::sum) agg = static_cast<T>(agg + v);
        } else if constexpr (std::is_same_v<T, AlertCounts>) {
            for (const auto& [type, n] : v) agg[type] += n;
        } else if constexpr (std::is_same_v<T, Contexts>) {
            for (const auto& c : v) {
                auto it = std::find_if(agg.begin(), agg.end(),
                                       [&](const ContextStats& a) { return a.name == c.name; });
                if (it == agg.end())
                    agg.push_back(c);
                else
                    ContextStats::walk(*this, *it, c);
            }
        }
    }
};

}  // namespace

void SessionStats::to_json(std::string* out) const
{
    JsonWriter w(out);
    w.begin_object();
    walk(JsonField{w}, *this);
    w.end_object();
}

void SessionStats::fold(const SessionStats& other)
{
    walk(FoldField{}, *this, other);
}

void Hub::publish(const std::string& prefix, const SessionStats& s)
{
    SessionStats::walk(PublishField{metrics, prefix + "."}, s);
}

void Hub::publish_cache(const std::string& prefix, const util::CacheStats& s)
{
    util::CacheStats::walk(
        [&](const char* name, uint64_t v) { metrics.counter(prefix + "." + name)->set(v); }, s);
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
