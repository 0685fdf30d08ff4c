// Metrics registry and log-linear histogram behaviour, including the three
// quantile edge cases the telemetry consumers rely on: empty, single-sample,
// and overflow-bucket.
#include <gtest/gtest.h>

#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace mct::obs {
namespace {

TEST(Counter, AddAndSet)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.set(7);
    EXPECT_EQ(c.value(), 7u);
}

TEST(Histogram, EmptyReportsZeros)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.quantile(0.0), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
    EXPECT_EQ(h.quantile(1.0), 0u);
}

TEST(Histogram, SingleSampleQuantilesAreExact)
{
    Histogram h;
    h.record(37);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.sum(), 37u);
    EXPECT_EQ(h.min(), 37u);
    EXPECT_EQ(h.max(), 37u);
    // Clamping to [min, max] collapses every quantile onto the sample.
    EXPECT_EQ(h.quantile(0.0), 37u);
    EXPECT_EQ(h.quantile(0.5), 37u);
    EXPECT_EQ(h.quantile(0.99), 37u);
    EXPECT_EQ(h.quantile(1.0), 37u);
}

TEST(Histogram, ZeroValuesLandInZeroBucket)
{
    Histogram h;
    h.record(0);
    h.record(0);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
    EXPECT_EQ(Histogram::bucket_index(0), 0u);
}

TEST(Histogram, OverflowBucketClampsToObservedMax)
{
    Histogram h;
    uint64_t huge = uint64_t(1) << 41;  // beyond the 2^40 octave range
    h.record(huge);
    EXPECT_EQ(Histogram::bucket_index(huge), size_t(Histogram::kBucketCount - 1));
    EXPECT_EQ(h.max(), huge);
    // The overflow bucket's lower bound (2^40) is below the sample; the
    // [min, max] clamp pulls the estimate up to the exact observed value.
    EXPECT_EQ(h.quantile(0.5), huge);
    EXPECT_EQ(h.quantile(1.0), huge);
}

TEST(Histogram, QuantileRelativeErrorBounded)
{
    Histogram h;
    for (uint64_t v = 1; v <= 1000; ++v) h.record(v);
    EXPECT_EQ(h.count(), 1000u);
    // Log-linear buckets with 4 sub-buckets: estimates sit at bucket lower
    // bounds, at most 25% below the true quantile.
    uint64_t p50 = h.quantile(0.5);
    EXPECT_GE(p50, 375u);
    EXPECT_LE(p50, 500u);
    uint64_t p99 = h.quantile(0.99);
    EXPECT_GE(p99, 742u);
    EXPECT_LE(p99, 990u);
    EXPECT_EQ(h.quantile(0.0), 1u);
    EXPECT_LE(h.quantile(1.0), 1000u);
}

TEST(Histogram, BucketBoundsAreConsistent)
{
    // Values below 2^2 share bucket bounds (sub-buckets collapse when the
    // octave base is smaller than kSubBuckets), so start at 4.
    for (uint64_t v : {4u, 7u, 64u, 100u, 1459u, 1460u, 1u << 20}) {
        size_t idx = Histogram::bucket_index(v);
        EXPECT_LE(Histogram::bucket_lower_bound(idx), v) << "v=" << v;
        if (idx + 1 < size_t(Histogram::kBucketCount) - 1) {
            EXPECT_GT(Histogram::bucket_lower_bound(idx + 1), v) << "v=" << v;
        }
    }
}

TEST(MetricsRegistry, GetOrCreateReturnsStablePointers)
{
    MetricsRegistry reg;
    Counter* c1 = reg.counter("records");
    Counter* c2 = reg.counter("records");
    EXPECT_EQ(c1, c2);
    c1->add(3);
    EXPECT_EQ(reg.counter("records")->value(), 3u);
    Histogram* h1 = reg.histogram("latency");
    Histogram* h2 = reg.histogram("latency");
    EXPECT_EQ(h1, h2);
    EXPECT_EQ(reg.counters().size(), 1u);
    EXPECT_EQ(reg.histograms().size(), 1u);
}

TEST(MetricsRegistry, ToJsonRoundTrips)
{
    MetricsRegistry reg;
    reg.counter("client.macs_generated")->set(9);
    reg.histogram("ttfb")->record(120);
    reg.histogram("ttfb")->record(240);
    std::string out;
    reg.to_json(&out);
    auto doc = json_parse(out);
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    const JsonValue* counters = doc.value().get("counters");
    ASSERT_NE(counters, nullptr);
    const JsonValue* macs = counters->get("client.macs_generated");
    ASSERT_NE(macs, nullptr);
    EXPECT_DOUBLE_EQ(macs->num, 9.0);
    const JsonValue* hists = doc.value().get("histograms");
    ASSERT_NE(hists, nullptr);
    const JsonValue* ttfb = hists->get("ttfb");
    ASSERT_NE(ttfb, nullptr);
    ASSERT_NE(ttfb->get("count"), nullptr);
    EXPECT_DOUBLE_EQ(ttfb->get("count")->num, 2.0);
    ASSERT_NE(ttfb->get("p50"), nullptr);
    ASSERT_NE(ttfb->get("mean"), nullptr);
    EXPECT_DOUBLE_EQ(ttfb->get("mean")->num, 180.0);
}

TEST(MetricsRegistry, PrometheusTextExposition)
{
    MetricsRegistry reg;
    reg.counter("client.macs_generated")->set(9);
    Histogram* h = reg.histogram("ttfb.us");
    h->record(0);
    h->record(100);
    h->record(100);
    std::string text;
    reg.to_prometheus(&text);
    // Counters: dots sanitized to underscores, TYPE line precedes the sample.
    EXPECT_NE(text.find("# TYPE client_macs_generated counter\n"), std::string::npos);
    EXPECT_NE(text.find("client_macs_generated 9\n"), std::string::npos);
    // Histograms: cumulative buckets, +Inf equals the total count, _sum/_count.
    EXPECT_NE(text.find("# TYPE ttfb_us histogram\n"), std::string::npos);
    EXPECT_NE(text.find("ttfb_us_bucket{le=\"0\"} 1\n"), std::string::npos);
    // 100 lands in the [64+2*16, 64+3*16) sub-bucket, inclusive upper 111.
    EXPECT_NE(text.find("ttfb_us_bucket{le=\"111\"} 3\n"), std::string::npos);
    EXPECT_NE(text.find("ttfb_us_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
    EXPECT_NE(text.find("ttfb_us_sum 200\n"), std::string::npos);
    EXPECT_NE(text.find("ttfb_us_count 3\n"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusNameSanitization)
{
    MetricsRegistry reg;
    reg.counter("2xx responses/total")->set(1);
    std::string text;
    reg.to_prometheus(&text);
    // Leading digit gets a prefix underscore; spaces and slashes collapse to _.
    EXPECT_NE(text.find("_2xx_responses_total 1\n"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusEmptyHistogramStillWellFormed)
{
    MetricsRegistry reg;
    reg.histogram("idle");
    std::string text;
    reg.to_prometheus(&text);
    EXPECT_NE(text.find("idle_bucket{le=\"+Inf\"} 0\n"), std::string::npos);
    EXPECT_NE(text.find("idle_sum 0\n"), std::string::npos);
    EXPECT_NE(text.find("idle_count 0\n"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusHelpPrecedesTypeAndKeepsOriginalName)
{
    MetricsRegistry reg;
    reg.counter("span.mac.count")->set(3);
    reg.histogram("span.mac.cpu_ns")->record(500);
    std::string text;
    reg.to_prometheus(&text);
    // HELP carries the unsanitized registry name, so a scraper can map the
    // exposition back to the JSON/registry key.
    size_t help_c = text.find("# HELP span_mac_count span.mac.count\n");
    size_t type_c = text.find("# TYPE span_mac_count counter\n");
    ASSERT_NE(help_c, std::string::npos);
    ASSERT_NE(type_c, std::string::npos);
    EXPECT_LT(help_c, type_c);
    size_t help_h = text.find("# HELP span_mac_cpu_ns span.mac.cpu_ns\n");
    size_t type_h = text.find("# TYPE span_mac_cpu_ns histogram\n");
    ASSERT_NE(help_h, std::string::npos);
    ASSERT_NE(type_h, std::string::npos);
    EXPECT_LT(help_h, type_h);
}

// Exposition-format unescape (the scraper's side of the contract): HELP text
// unescapes \\ and \n; label values additionally unescape \".
std::string prom_unescape(const std::string& s, bool label)
{
    std::string out;
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\' || i + 1 == s.size()) {
            out.push_back(s[i]);
            continue;
        }
        char next = s[++i];
        if (next == 'n') out.push_back('\n');
        else if (next == '\\') out.push_back('\\');
        else if (label && next == '"') out.push_back('"');
        else { out.push_back('\\'); out.push_back(next); }
    }
    return out;
}

TEST(MetricsRegistry, PrometheusEscapingRoundTrips)
{
    // Every class the exposition format escapes: backslash, newline, quote.
    std::string nasty = "a\\b\nc\"d";
    EXPECT_EQ(prometheus_escape_help(nasty), "a\\\\b\\nc\"d");
    EXPECT_EQ(prom_unescape(prometheus_escape_help(nasty), /*label=*/false), nasty);
    EXPECT_EQ(prometheus_escape_label(nasty), "a\\\\b\\nc\\\"d");
    EXPECT_EQ(prom_unescape(prometheus_escape_label(nasty), /*label=*/true), nasty);
    // A metric name containing a newline must not break the HELP line.
    MetricsRegistry reg;
    reg.counter("weird\nname")->set(1);
    std::string text;
    reg.to_prometheus(&text);
    EXPECT_NE(text.find("# HELP weird_name weird\\nname\n"), std::string::npos);
    EXPECT_EQ(text.find("# HELP weird_name weird\nname"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusOverflowBucketExportsUnderInf)
{
    MetricsRegistry reg;
    Histogram* h = reg.histogram("big");
    h->record(uint64_t(1) << 41);  // overflow bucket, beyond the octave range
    h->record(10);
    std::string text;
    reg.to_prometheus(&text);
    // The overflow bucket has no finite upper bound: its count appears only
    // in +Inf, and the last finite cumulative line still excludes it.
    EXPECT_NE(text.find("big_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
    // 10 lands in the [10, 12) sub-bucket: inclusive upper bound 11.
    EXPECT_NE(text.find("big_bucket{le=\"11\"} 1\n"), std::string::npos);
    EXPECT_NE(text.find("big_count 2\n"), std::string::npos);
}

TEST(Gauge, SetAddAndRegistryIdentity)
{
    MetricsRegistry reg;
    Gauge* g = reg.gauge("sessions.live");
    EXPECT_DOUBLE_EQ(g->value(), 0.0);
    g->set(12);
    g->add(3);
    g->add(-5);
    EXPECT_DOUBLE_EQ(g->value(), 10.0);
    EXPECT_EQ(reg.gauge("sessions.live"), g);
    EXPECT_EQ(reg.gauges().size(), 1u);
}

TEST(Gauge, JsonAndPrometheusExposition)
{
    MetricsRegistry reg;
    reg.gauge("sessions.live")->set(42);
    reg.gauge("cache.shed_rate")->set(1.5);
    std::string out;
    reg.to_json(&out);
    auto doc = json_parse(out);
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    const JsonValue* gauges = doc.value().get("gauges");
    ASSERT_NE(gauges, nullptr);
    ASSERT_NE(gauges->get("sessions.live"), nullptr);
    EXPECT_DOUBLE_EQ(gauges->get("sessions.live")->num, 42.0);
    ASSERT_NE(gauges->get("cache.shed_rate"), nullptr);
    EXPECT_DOUBLE_EQ(gauges->get("cache.shed_rate")->num, 1.5);

    std::string text;
    reg.to_prometheus(&text);
    EXPECT_NE(text.find("# TYPE sessions_live gauge\n"), std::string::npos);
    EXPECT_NE(text.find("sessions_live 42\n"), std::string::npos);
    EXPECT_NE(text.find("cache_shed_rate 1.5\n"), std::string::npos);
    // Gauges carry the HELP line with the unsanitized name like every
    // other family.
    EXPECT_NE(text.find("# HELP sessions_live sessions.live\n"), std::string::npos);
}

TEST(Histogram, BucketBoundariesAtOctaveEdges)
{
    // A power of two starts a new octave: 2^k lands in sub-bucket 0 of
    // octave k, and 2^k - 1 in the last sub-bucket of octave k-1. Adjacency
    // needs k >= 3: below that, octave k-1 spans fewer than kSubBuckets
    // integers, so its trailing sub-buckets are unreachable.
    for (int k = 2; k < 20; ++k) {
        uint64_t pow2 = uint64_t{1} << k;
        size_t at = Histogram::bucket_index(pow2);
        size_t below = Histogram::bucket_index(pow2 - 1);
        EXPECT_EQ(at, 1 + static_cast<size_t>(k) * Histogram::kSubBuckets)
            << "v=2^" << k;
        EXPECT_LT(below, at) << "v=2^" << k << "-1";
        if (k >= 3) {
            EXPECT_EQ(below, at - 1) << "v=2^" << k << "-1";
        }
        EXPECT_EQ(Histogram::bucket_lower_bound(at), pow2);
    }
}

TEST(Histogram, BucketBoundariesAtSubBucketEdges)
{
    // Within octave k, sub-bucket s starts exactly at base + base*s/4: the
    // lower bound is the first value mapping to that bucket and its
    // predecessor maps one bucket lower.
    for (int k = 2; k < 20; ++k) {
        for (int s = 1; s < Histogram::kSubBuckets; ++s) {
            uint64_t base = uint64_t{1} << k;
            uint64_t edge = base + (base * static_cast<uint64_t>(s)) /
                                       Histogram::kSubBuckets;
            size_t idx = Histogram::bucket_index(edge);
            EXPECT_EQ(Histogram::bucket_lower_bound(idx), edge)
                << "k=" << k << " s=" << s;
            EXPECT_EQ(Histogram::bucket_index(edge - 1), idx - 1)
                << "k=" << k << " s=" << s;
        }
    }
}

TEST(Histogram, MergeEqualsSingleHistogram)
{
    // Bucket-exactness contract: merge(a, b) is indistinguishable from
    // recording every sample into one histogram — including samples placed
    // exactly on bucket boundaries and in the overflow bucket.
    std::vector<uint64_t> left, right;
    for (int k = 1; k < 24; ++k) {
        left.push_back(uint64_t{1} << k);          // octave edges
        right.push_back((uint64_t{1} << k) - 1);   // just below them
        right.push_back((uint64_t{1} << k) +
                        ((uint64_t{1} << k) / Histogram::kSubBuckets));
    }
    left.push_back(0);
    right.push_back(uint64_t{1} << 41);  // overflow bucket (>= 2^40)

    Histogram a, b, all;
    for (uint64_t v : left) {
        a.record(v);
        all.record(v);
    }
    for (uint64_t v : right) {
        b.record(v);
        all.record(v);
    }
    a.merge(b);

    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.sum(), all.sum());
    EXPECT_EQ(a.min(), all.min());
    EXPECT_EQ(a.max(), all.max());
    for (size_t i = 0; i < Histogram::kBucketCount; ++i)
        EXPECT_EQ(a.bucket_count_at(i), all.bucket_count_at(i)) << "bucket " << i;
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
        EXPECT_EQ(a.quantile(q), all.quantile(q)) << "q=" << q;
}

TEST(Histogram, MergeIntoEmptyAndFromEmpty)
{
    Histogram empty, filled;
    filled.record(5);
    filled.record(1000);

    Histogram target;
    target.merge(filled);  // into empty: adopts min/max wholesale
    EXPECT_EQ(target.count(), 2u);
    EXPECT_EQ(target.min(), 5u);
    EXPECT_EQ(target.max(), 1000u);
    EXPECT_EQ(target.quantile(0.5), filled.quantile(0.5));

    target.merge(empty);  // from empty: a no-op, min must not clobber to 0
    EXPECT_EQ(target.count(), 2u);
    EXPECT_EQ(target.min(), 5u);
}

}  // namespace
}  // namespace mct::obs
