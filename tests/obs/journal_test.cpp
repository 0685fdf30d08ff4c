// The event journal (obs/journal.h): one identity table, one sequence
// counter and one clock; the newest-N ring with its drop accounting; spans
// and their ids; per-session lanes (idempotent open, LRU recycling, refusal,
// snapshots); JSONL and Chrome-trace export, handshake phases and the span
// histograms. Suites are named after the retention role under test. These
// tests drive the Journal API directly (not the compiled-out helpers), so
// they hold under both MCT_OBS=ON and OFF unless they say otherwise.
#include "obs/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "obs/json.h"
#include "obs/obs.h"
#include "obs/perfetto.h"

namespace mct::obs {
namespace {

Journal::Config lanes(size_t lane_capacity, size_t max_lanes)
{
    return {.capacity = 16, .lane_capacity = lane_capacity, .max_lanes = max_lanes};
}

Event make_span(SpanContext ctx, uint64_t parent, Stage stage, uint64_t start, uint64_t end,
                uint16_t actor)
{
    Event e;
    e.type = EventType::span;
    e.trace_id = ctx.trace_id;
    e.span_id = ctx.span_id;
    e.parent_id = parent;
    e.stage = stage;
    e.ts = start;
    e.end_ts = end;
    e.actor = actor;
    return e;
}

// ---- Names ----

TEST(EventType, NamesAreUniqueAndNonEmpty)
{
    // Every enumerator up to the declared last one has its own name, and
    // the name parses back: JSONL consumers and `mctool trace` key on names.
    std::set<std::string> seen;
    for (int i = 0; i <= static_cast<int>(kLastEventType); ++i) {
        auto type = static_cast<EventType>(i);
        std::string name = to_string(type);
        EXPECT_FALSE(name.empty());
        EXPECT_NE(name, "unknown") << "enumerator " << i << " missing from to_string";
        EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
        EventType parsed;
        ASSERT_TRUE(event_type_from_string(name, &parsed)) << name;
        EXPECT_EQ(parsed, type);
    }
    // kLastEventType really is the last named enumerator.
    EXPECT_STREQ(to_string(static_cast<EventType>(static_cast<int>(kLastEventType) + 1)),
                 "unknown");
    EventType out;
    EXPECT_FALSE(event_type_from_string("unknown", &out));
    EXPECT_FALSE(event_type_from_string("", &out));
}

TEST(Stage, NamesAreUniqueAndNonEmpty)
{
    std::set<std::string> seen;
    for (int i = 0; i <= static_cast<int>(kLastStage); ++i) {
        auto stage = static_cast<Stage>(i);
        std::string name = to_string(stage);
        EXPECT_FALSE(name.empty());
        EXPECT_NE(name, "?") << "stage " << i << " missing from to_string";
        EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
        Stage parsed;
        ASSERT_TRUE(stage_from_string(name, &parsed)) << name;
        EXPECT_EQ(parsed, stage);
    }
    EXPECT_STREQ(to_string(static_cast<Stage>(static_cast<int>(kLastStage) + 1)), "?");
    Stage out;
    EXPECT_FALSE(stage_from_string("?", &out));
}

// ---- Identity, sequence and clock ----

TEST(Tracer, InternIsStableAndZeroIsReserved)
{
    Journal j;
    EXPECT_EQ(j.actor_name(0), "?");
    uint16_t client = j.intern("client");
    uint16_t server = j.intern("server");
    EXPECT_NE(client, 0);
    EXPECT_NE(client, server);
    EXPECT_EQ(j.intern("client"), client);
    EXPECT_EQ(j.actor_name(client), "client");
    // Out-of-range ids degrade to the reserved name, never UB.
    EXPECT_EQ(j.actor_name(9999), "?");
}

TEST(Tracer, EmitAssignsMonotonicSeqAndClockTimestamps)
{
    Journal j({.capacity = 16});
    uint64_t fake_now = 100;
    j.set_clock([&fake_now] { return fake_now; });
    uint16_t actor = j.intern("client");
    j.emit(nullptr, actor, EventType::hs_start);
    fake_now = 250;
    j.emit(nullptr, actor, EventType::hs_complete, 0, 1234);
    j.emit_at(999, nullptr, actor, EventType::session_close);

    auto events = j.events();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].seq, 0u);
    EXPECT_EQ(events[1].seq, 1u);
    EXPECT_EQ(events[2].seq, 2u);
    EXPECT_EQ(events[0].ts, 100u);
    EXPECT_EQ(events[1].ts, 250u);
    EXPECT_EQ(events[1].a, 1234u);
    EXPECT_EQ(events[2].ts, 999u);
    EXPECT_EQ(j.emitted(), 3u);
}

TEST(SpanCollector, InternNamesActorsAndReservesUnknown)
{
    // Spans and instant events share the one actor table: a span actor and
    // an event actor with the same name are the same id.
    Journal j;
    uint16_t client = j.intern("client");
    uint16_t hop = j.intern("tcp:client->server");
    EXPECT_NE(client, 0);
    EXPECT_EQ(j.intern("client"), client);  // stable
    EXPECT_EQ(j.actor_name(client), "client");
    EXPECT_EQ(j.actor_name(hop), "tcp:client->server");
    EXPECT_EQ(j.actor_name(0), "?");

    SpanContext root = j.begin_trace();
    j.record(make_span(root, 0, Stage::record, 0, 0, client));
    j.emit(nullptr, client, EventType::record_seal, 1, 64, 3, root.trace_id);
    auto events = j.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].actor, events[1].actor);
}

// ---- The ring ----

TEST(RingBufferSink, KeepsMostRecentAndCountsDrops)
{
    Journal j({.capacity = 4});
    uint16_t actor = j.intern("net");
    for (int i = 0; i < 6; ++i)
        j.emit(nullptr, actor, EventType::record_seal, 1, static_cast<uint64_t>(i));
    EXPECT_EQ(j.emitted(), 6u);
    EXPECT_EQ(j.dropped(), 2u);
    auto events = j.events();
    ASSERT_EQ(events.size(), 4u);
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, i + 2);  // oldest two were overwritten
        if (i > 0) {
            EXPECT_GT(events[i].seq, events[i - 1].seq);
        }
    }
}

TEST(SpanCollector, RingOverwritesOldestAndCountsDropped)
{
    Journal j({.capacity = 4});
    for (uint64_t i = 0; i < 10; ++i) {
        Event e;
        e.type = EventType::span;
        e.trace_id = i + 1;
        j.record(e);
    }
    EXPECT_EQ(j.emitted(), 10u);
    EXPECT_EQ(j.dropped(), 6u);
    auto spans = j.events();
    ASSERT_EQ(spans.size(), 4u);
    // Oldest retained first: traces 7..10 survive, in emission order.
    EXPECT_EQ(spans.front().trace_id, 7u);
    EXPECT_EQ(spans.back().trace_id, 10u);
}

TEST(Journal, ZeroCapacityKeepsNoRingAndNoSpans)
{
    // Without a ring there is nowhere to keep spans, so emitters skip span
    // work; events still take a seq (and reach lanes), but nothing drops.
    Journal j({.capacity = 0, .lane_capacity = 4, .max_lanes = 1});
    EXPECT_FALSE(j.keeps_spans());
    Lane* lane = j.open_lane(1, "client");
    ASSERT_NE(lane, nullptr);
    j.emit(lane, j.intern("client"), EventType::hs_start);
    j.emit(nullptr, j.intern("net"), EventType::net_link_down);
    EXPECT_EQ(j.emitted(), 2u);
    EXPECT_TRUE(j.events().empty());
    EXPECT_EQ(j.dropped(), 0u);
    EXPECT_EQ(lane->events().size(), 1u);
    EXPECT_TRUE(Journal({.capacity = 1}).keeps_spans());
}

TEST(Journal, ZeroLaneCapacityClampsToOne)
{
    Journal j({.capacity = 0, .lane_capacity = 0, .max_lanes = 1});
    Lane* lane = j.open_lane(1, "client");
    ASSERT_NE(lane, nullptr);
    j.emit(lane, 0, EventType::record_seal, 0, 5);
    j.emit(lane, 0, EventType::record_seal, 0, 6);
    auto events = lane->events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].a, 6u);
    EXPECT_EQ(lane->dropped(), 1u);
}

// ---- Spans ----

TEST(SpanCollector, IdsAreFreshAndIndependent)
{
    Journal j;
    SpanContext a = j.begin_trace();
    SpanContext b = j.begin_trace();
    EXPECT_TRUE(a.valid());
    EXPECT_NE(a.trace_id, b.trace_id);
    EXPECT_NE(a.span_id, b.span_id);
    // Span ids never collide with trace ids (independent counters), so
    // exporters can key maps by either without disambiguation.
    uint64_t child = j.next_span_id();
    EXPECT_NE(child, b.span_id);
    EXPECT_GT(child, b.span_id);
    // Neither counter is the event sequence: ids are not consumed by emits.
    j.emit(nullptr, 0, EventType::hs_start);
    EXPECT_EQ(j.begin_trace().trace_id, b.trace_id + 1);
    EXPECT_EQ(j.next_span_id(), child + 2);
}

TEST(SpanCollector, DefaultContextIsUntraced)
{
    SpanContext ctx;
    EXPECT_FALSE(ctx.valid());
}

TEST(SpanCollector, SameTickParentChildKeepCausalOrder)
{
    // Crypto runs in zero sim time: a record's root span and every crypto
    // child carry identical timestamps. The emission seq must still order
    // parent before child so consumers can rebuild the tree without ts ties.
    Journal j({.capacity = 16});
    j.set_clock([] { return 42u; });
    SpanContext root = j.begin_trace();
    j.record(make_span(root, 0, Stage::record, j.now(), j.now(), 1));
    uint64_t mac_id = j.next_span_id();
    j.record(make_span({root.trace_id, mac_id}, root.span_id, Stage::mac, j.now(), j.now(), 1));
    uint64_t enc_id = j.next_span_id();
    j.record(
        make_span({root.trace_id, enc_id}, root.span_id, Stage::encrypt, j.now(), j.now(), 1));
    auto spans = j.events();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].stage, Stage::record);
    EXPECT_EQ(spans[1].stage, Stage::mac);
    EXPECT_EQ(spans[2].stage, Stage::encrypt);
    EXPECT_LT(spans[0].seq, spans[1].seq);
    EXPECT_LT(spans[1].seq, spans[2].seq);
    // Children reference the root; all stamped at the same tick.
    EXPECT_EQ(spans[1].parent_id, spans[0].span_id);
    EXPECT_EQ(spans[2].parent_id, spans[0].span_id);
    EXPECT_EQ(spans[0].ts, spans[2].ts);
}

// ---- Lanes ----

TEST(FlightRing, RetainsNewestEventsAfterWrap)
{
    Journal j(lanes(4, 2));
    Lane* lane = j.open_lane(7, "client");
    ASSERT_NE(lane, nullptr);
    for (uint64_t i = 0; i < 10; ++i) j.emit(lane, 0, EventType::record_seal, 1, i);

    EXPECT_EQ(lane->total(), 10u);
    EXPECT_EQ(lane->dropped(), 6u);
    auto events = lane->events();
    ASSERT_EQ(events.size(), 4u);
    // Oldest-first, and only the newest four survive the wrap.
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].a, 6 + i);
        EXPECT_EQ(events[i].type, EventType::record_seal);
    }
    EXPECT_EQ(j.lane_events(), 10u);
    EXPECT_EQ(j.lane_dropped(), 6u);
}

TEST(FlightRing, SeqIsRecorderGlobalAcrossRings)
{
    Journal j(lanes(8, 4));
    Lane* a = j.open_lane(1, "client");
    Lane* b = j.open_lane(0, "server");
    j.emit(a, 0, EventType::hs_start);
    j.emit(b, 0, EventType::hs_start);
    j.emit(nullptr, 0, EventType::net_link_down);  // ring only
    j.emit(a, 0, EventType::hs_complete);

    auto ea = a->events();
    auto eb = b->events();
    ASSERT_EQ(ea.size(), 2u);
    ASSERT_EQ(eb.size(), 1u);
    // Interleaving across lanes (and the ring) is reconstructable from seq.
    EXPECT_LT(ea[0].seq, eb[0].seq);
    EXPECT_LT(eb[0].seq, ea[1].seq);
    EXPECT_EQ(ea[1].seq, 3u);
}

TEST(FlightRing, ClockStampsTimestamps)
{
    Journal j(lanes(4, 1));
    uint64_t now = 100;
    j.set_clock([&now] { return now; });
    Lane* lane = j.open_lane(1, "client");
    j.emit(lane, 0, EventType::hs_start);
    now = 250;
    j.emit(lane, 0, EventType::hs_complete);

    auto events = lane->events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].ts, 100u);
    EXPECT_EQ(events[1].ts, 250u);
}

TEST(FlightRecorder, OpenIsIdempotentWhileLive)
{
    Journal j(lanes(4, 4));
    Lane* first = j.open_lane(5, "client");
    j.emit(first, 0, EventType::hs_start);
    // A retrying session reopens its pair and keeps appending.
    Lane* again = j.open_lane(5, "client");
    EXPECT_EQ(first, again);
    EXPECT_EQ(j.lanes_opened(), 1u);

    // Same sid, different label is a distinct black box.
    Lane* other = j.open_lane(5, "server");
    EXPECT_NE(other, first);
    EXPECT_EQ(j.lanes_opened(), 2u);

    // After close, the pair maps to a new lane generation.
    j.close_lane(first);
    Lane* reborn = j.open_lane(5, "client");
    ASSERT_NE(reborn, nullptr);
    EXPECT_EQ(j.lanes_opened(), 3u);
}

TEST(FlightRecorder, ClosedRingStaysSnapshotableUntilRecycled)
{
    Journal j(lanes(4, 2));
    Lane* lane = j.open_lane(1, "client");
    j.emit(lane, 0, EventType::alert_sent, 0, 40);
    j.close_lane(lane);

    auto snaps = j.snapshot();
    ASSERT_EQ(snaps.size(), 1u);
    EXPECT_EQ(snaps[0].sid, 1u);
    EXPECT_EQ(snaps[0].label, "client");
    ASSERT_EQ(snaps[0].events.size(), 1u);
    EXPECT_EQ(snaps[0].events[0].a, 40u);
}

TEST(FlightRecorder, RecyclesOldestClosedSlotFirst)
{
    Journal j(lanes(2, 2));
    Lane* a = j.open_lane(1, "client");
    j.emit(a, 0, EventType::hs_start);
    Lane* b = j.open_lane(2, "client");
    j.emit(b, 0, EventType::hs_start);
    j.close_lane(a);  // closed first -> recycled first
    j.close_lane(b);

    Lane* c = j.open_lane(3, "client");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(j.lanes_recycled(), 1u);
    // Session 1's history is gone; session 2's survives.
    auto snaps = j.snapshot();
    ASSERT_EQ(snaps.size(), 2u);
    EXPECT_EQ(snaps[0].sid, 2u);
    EXPECT_EQ(snaps[1].sid, 3u);
    // Recycled slot starts empty: no stale events, drop accounting carries.
    EXPECT_EQ(c->total(), 0u);
    EXPECT_EQ(j.lane_dropped(), 1u);  // session 1's event, now unretained
}

TEST(FlightRecorder, DeniesWhenEverySlotIsLive)
{
    Journal j(lanes(2, 2));
    Lane* a = j.open_lane(1, "client");
    Lane* b = j.open_lane(2, "client");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);

    // No closed slot to recycle: refuse rather than evict live history.
    EXPECT_EQ(j.open_lane(3, "client"), nullptr);
    EXPECT_EQ(j.lanes_denied(), 1u);
    // The existing live pair is still reachable.
    EXPECT_EQ(j.open_lane(1, "client"), a);

    j.close_lane(b);
    EXPECT_NE(j.open_lane(3, "client"), nullptr);

    // A journal without lanes hands out none and counts no denial.
    Journal none({.capacity = 16});
    EXPECT_EQ(none.open_lane(1, "client"), nullptr);
    EXPECT_EQ(none.lanes_denied(), 0u);
}

TEST(FlightRecorder, SnapshotFiltersBySidAndSorts)
{
    Journal j(lanes(4, 8));
    j.emit(j.open_lane(3, "client"), 0, EventType::hs_start);
    j.emit(j.open_lane(0, "server"), 0, EventType::hs_start);
    j.emit(j.open_lane(0, "mbox0"), 0, EventType::hs_start);
    j.emit(j.open_lane(1, "client"), 0, EventType::hs_start);

    auto all = j.snapshot();
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(all[0].label, "mbox0");  // (0, mbox0) < (0, server) < (1, ...)
    EXPECT_EQ(all[1].label, "server");
    EXPECT_EQ(all[2].sid, 1u);
    EXPECT_EQ(all[3].sid, 3u);

    auto filtered = j.snapshot({0, 3});
    ASSERT_EQ(filtered.size(), 3u);
    EXPECT_EQ(filtered[0].sid, 0u);
    EXPECT_EQ(filtered[1].sid, 0u);
    EXPECT_EQ(filtered[2].sid, 3u);
}

TEST(Journal, OneEmitLandsInRingAndLaneWithSameSeq)
{
#if !defined(MCT_OBS_ENABLED)
    GTEST_SKIP() << "emission helpers compiled out under MCT_OBS=OFF";
#endif
    Journal j(lanes(4, 1));
    uint16_t actor = j.intern("client");
    Lane* lane = j.open_lane(1, "client");

    emit(&j, lane, actor, EventType::alert_received, 0, 20, 0, 77);
    // A null journal is a no-op, not a crash.
    emit(nullptr, lane, actor, EventType::alert_received);

    auto ring = j.events();
    auto own = lane->events();
    ASSERT_EQ(ring.size(), 1u);
    ASSERT_EQ(own.size(), 1u);
    EXPECT_EQ(ring[0].seq, own[0].seq);
    EXPECT_EQ(ring[0].type, EventType::alert_received);
    EXPECT_EQ(own[0].a, 20u);
    EXPECT_EQ(own[0].trace_id, 77u);
    EXPECT_EQ(ring[0].trace_id, 77u);
}

// ---- Export ----

TEST(TraceEventJson, RoundTripsThroughParser)
{
    Journal j;
    uint16_t actor = j.intern("mbox0");
    Event e;
    e.seq = 7;
    e.ts = 123456;
    e.actor = actor;
    e.type = EventType::mbox_rewrite;
    e.ctx = 2;
    e.a = 1460;
    e.b = 2;
    std::string line;
    event_to_json(e, j, &line);
    auto doc = json_parse(line);
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    EXPECT_DOUBLE_EQ(doc.value().get("seq")->num, 7.0);
    EXPECT_DOUBLE_EQ(doc.value().get("ts")->num, 123456.0);
    EXPECT_EQ(doc.value().get("actor")->str, "mbox0");
    EXPECT_EQ(doc.value().get("type")->str, "mbox_rewrite");
    EXPECT_DOUBLE_EQ(doc.value().get("ctx")->num, 2.0);
    EXPECT_DOUBLE_EQ(doc.value().get("a")->num, 1460.0);
    EXPECT_DOUBLE_EQ(doc.value().get("b")->num, 2.0);
}

TEST(JsonlFileSink, OneParsableObjectPerLine)
{
    std::string path = ::testing::TempDir() + "mct_trace_test.jsonl";
    {
        Journal j({.capacity = 16});
        uint16_t actor = j.intern("client");
        j.emit(nullptr, actor, EventType::hs_start);
        j.emit(nullptr, actor, EventType::record_seal, 1, 512, 3);
        j.record(make_span(j.begin_trace(), 0, Stage::record, 0, 0, actor));  // not a line
        j.emit(nullptr, actor, EventType::session_close);
        ASSERT_TRUE(write_jsonl(j, path));
    }
    std::ifstream in(path);
    std::string line;
    size_t lines = 0;
    uint64_t last_seq = 0;
    while (std::getline(in, line)) {
        auto doc = json_parse(line);
        ASSERT_TRUE(doc.ok()) << "line " << lines << ": " << doc.error().message;
        uint64_t seq = static_cast<uint64_t>(doc.value().get("seq")->num);
        if (lines > 0) {
            EXPECT_GT(seq, last_seq);
        }
        EXPECT_NE(doc.value().get("type")->str, "span");
        last_seq = seq;
        ++lines;
    }
    EXPECT_EQ(lines, 3u);
    std::remove(path.c_str());
}

TEST(ChromeTrace, SpansAndEventsSerializeLoadable)
{
    Journal j({.capacity = 16});
    uint16_t client = j.intern("client");
    uint16_t hop = j.intern("tcp:client->server");
    SpanContext root = j.begin_trace();
    Event rec = make_span(root, 0, Stage::record, 100, 100, client);
    rec.a = 1460;
    rec.ctx = 2;
    j.record(rec);
    uint64_t tx = j.next_span_id();
    j.record(make_span({root.trace_id, tx}, root.span_id, Stage::transmit, 100, 20100, hop));
    j.emit_at(100, nullptr, client, EventType::record_seal, 0, 1460);

    std::vector<Event> events = j.events();
    std::string doc_text = to_chrome_trace({&events, &j});

    auto doc = json_parse(doc_text);
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    const JsonValue* trace_events = doc.value().get("traceEvents");
    ASSERT_NE(trace_events, nullptr);
    ASSERT_TRUE(trace_events->is_array());

    size_t complete = 0, instants = 0, metadata = 0;
    const JsonValue* transmit = nullptr;
    for (const auto& item : trace_events->items) {
        const JsonValue* ph = item.get("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->str == "X") {
            ++complete;
            if (item.get("name")->str == "transmit") transmit = &item;
        } else if (ph->str == "i") {
            ++instants;
        } else if (ph->str == "M") {
            ++metadata;
        }
    }
    EXPECT_EQ(complete, 2u);
    EXPECT_EQ(instants, 1u);
    EXPECT_GE(metadata, 2u);  // at least process_name entries per actor
    ASSERT_NE(transmit, nullptr);
    EXPECT_DOUBLE_EQ(transmit->get("ts")->num, 100.0);
    EXPECT_DOUBLE_EQ(transmit->get("dur")->num, 20000.0);
    const JsonValue* args = transmit->get("args");
    ASSERT_NE(args, nullptr);
    // Causal chain survives serialization: the hop span names its parent.
    EXPECT_DOUBLE_EQ(args->get("parent")->num, static_cast<double>(root.span_id));
    EXPECT_DOUBLE_EQ(args->get("trace")->num, static_cast<double>(root.trace_id));
}

TEST(ChromeTrace, HandshakePhasesFoldPerActorIntervals)
{
    Journal j;
    uint16_t client = j.intern("client");
    uint16_t server = j.intern("server");
    std::vector<Event> events;
    auto push = [&](uint64_t ts, uint16_t actor, EventType type, uint64_t a = 0) {
        Event e;
        e.ts = ts;
        e.actor = actor;
        e.type = type;
        e.a = a;
        events.push_back(e);
    };
    push(0, client, EventType::hs_start);
    push(100, server, EventType::hs_client_hello, 300);
    push(250, client, EventType::hs_server_flight, 1200);
    push(400, client, EventType::hs_complete);
    push(400, server, EventType::hs_complete);
    push(500, client, EventType::record_seal);  // not a handshake event
    push(500, client, EventType::span);         // nor is a span

    auto phases = handshake_phases(events, j);
    // An actor's first handshake event anchors its waterfall without
    // emitting; each later event completes the phase since the anchor.
    ASSERT_EQ(phases.size(), 3u);
    const HandshakePhase* flight = nullptr;
    const HandshakePhase* server_done = nullptr;
    for (const auto& p : phases) {
        if (p.phase == std::string("hs_server_flight")) flight = &p;
        if (p.actor == "server") server_done = &p;
    }
    ASSERT_NE(flight, nullptr);
    EXPECT_EQ(flight->actor, "client");
    EXPECT_EQ(flight->start_ts, 0u);
    EXPECT_EQ(flight->end_ts, 250u);
    EXPECT_EQ(flight->bytes, 1200u);
    // The server's only phase spans from its anchor (hs_client_hello at 100)
    // to hs_complete at 400.
    ASSERT_NE(server_done, nullptr);
    EXPECT_EQ(server_done->phase, std::string("hs_complete"));
    EXPECT_EQ(server_done->start_ts, 100u);
    EXPECT_EQ(server_done->end_ts, 400u);
    // hs_complete closes the actor's waterfall; the record_seal afterwards
    // must not reopen it.
    for (const auto& p : phases) EXPECT_NE(p.phase, std::string("record_seal"));
}

TEST(Hub, PublishSpansAggregatesStageHistograms)
{
    Hub hub;
    Journal j({.capacity = 16});
    uint16_t a = j.intern("client");
    SpanContext root = j.begin_trace();
    Event mac = make_span({root.trace_id, j.next_span_id()}, root.span_id, Stage::mac, 10, 10, a);
    mac.cpu_ns = 3000;
    j.record(mac);
    j.record(make_span({root.trace_id, j.next_span_id()}, root.span_id, Stage::transmit, 10,
                       20010, a));
    j.emit(nullptr, a, EventType::record_seal);  // instant events are not spans
    hub.publish_spans(j);
    Histogram* sim = hub.metrics.histogram("span.transmit.sim_us");
    EXPECT_EQ(sim->count(), 1u);
    EXPECT_EQ(sim->sum(), 20000u);
    Histogram* cpu = hub.metrics.histogram("span.mac.cpu_ns");
    EXPECT_EQ(cpu->count(), 1u);
    EXPECT_EQ(cpu->sum(), 3000u);
    EXPECT_EQ(hub.metrics.histogram("span.record.sim_us")->count(), 0u);
    EXPECT_EQ(hub.metrics.counter("span.dropped")->value(), 0u);
}

}  // namespace
}  // namespace mct::obs
