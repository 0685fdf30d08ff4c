// End-to-end pin of the record fast path's steady-state property: once a
// session (or middlebox) has seen its largest record, further app records
// are decrypted into the reused scratch without touching the heap. The
// scratch counters feed the records-per-allocation metric the benches
// report; this test makes the property a CI invariant, not a bench artifact.
#include <gtest/gtest.h>

#include "obs/journal.h"
#include "obs/obs.h"
#include "tests/mctls/harness.h"

namespace mct::mctls {
namespace {

using test::ChainEnv;

TEST(RecordFastPath, SteadyStateOpensDoNotAllocate)
{
    ChainEnv env;
    ContextDescription ctx;
    ctx.id = 1;
    ctx.purpose = "body";
    ctx.permissions = {Permission::read, Permission::write};
    env.build(2, {ctx});
    env.handshake();
    ASSERT_TRUE(env.all_complete());

    // Warm-up: one record at the largest payload this test will send, both
    // directions, so every scratch reaches its high-water capacity.
    Bytes big(4000, 0x42);
    ASSERT_TRUE(env.client->send_app_data(1, big).ok());
    env.pump();
    ASSERT_TRUE(env.server->send_app_data(1, big).ok());
    env.pump();
    env.server->take_app_data();
    env.client->take_app_data();

    uint64_t server_allocs = env.server->open_scratch().heap_allocations;
    uint64_t client_allocs = env.client->open_scratch().heap_allocations;
    uint64_t read_allocs = env.mboxes[0]->open_scratch().heap_allocations;
    uint64_t write_allocs = env.mboxes[1]->open_scratch().heap_allocations;
    uint64_t server_records = env.server->open_scratch().records;
    uint64_t read_records = env.mboxes[0]->open_scratch().records;
    uint64_t write_records = env.mboxes[1]->open_scratch().records;

    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(env.client->send_app_data(1, Bytes(1460, uint8_t(i))).ok());
        ASSERT_TRUE(env.server->send_app_data(1, Bytes(512, uint8_t(i))).ok());
        env.pump();
    }
    EXPECT_EQ(env.server->take_app_data().size(), 50u);
    EXPECT_EQ(env.client->take_app_data().size(), 50u);

    // Every hop opened every record...
    EXPECT_EQ(env.server->open_scratch().records, server_records + 50);
    EXPECT_EQ(env.mboxes[0]->open_scratch().records, read_records + 100);
    EXPECT_EQ(env.mboxes[1]->open_scratch().records, write_records + 100);
    // ...and no hop allocated for any of them.
    EXPECT_EQ(env.server->open_scratch().heap_allocations, server_allocs);
    EXPECT_EQ(env.client->open_scratch().heap_allocations, client_allocs);
    EXPECT_EQ(env.mboxes[0]->open_scratch().heap_allocations, read_allocs);
    EXPECT_EQ(env.mboxes[1]->open_scratch().heap_allocations, write_allocs);
}

// The latency-attribution plane must not disturb the fast path: with a
// span-keeping journal attached at every hop and transport contexts flowing
// record by record — so the instrumented open path runs, not the untraced
// one — the steady-state scratch still never grows.
TEST(RecordFastPath, SteadyStateOpensDoNotAllocateWithSpans)
{
#if !defined(MCT_OBS_ENABLED)
    GTEST_SKIP() << "span emission compiled out under MCT_OBS=OFF";
#endif
    uint64_t tick = 0;
    obs::Journal journal({.capacity = 1 << 15});
    journal.set_clock([&tick] { return ++tick; });

    ChainEnv env;
    ContextDescription ctx;
    ctx.id = 1;
    ctx.purpose = "body";
    ctx.permissions = {Permission::read, Permission::write};
    auto infos = env.make_middleboxes(2);
    auto ccfg = env.client_config(infos, {ctx});
    ccfg.journal = &journal;
    env.client = std::make_unique<Session>(ccfg);
    auto scfg = env.server_config();
    scfg.journal = &journal;
    env.server = std::make_unique<Session>(scfg);
    for (size_t i = 0; i < 2; ++i) {
        auto mcfg = env.mbox_config(i);
        mcfg.journal = &journal;
        env.mboxes.push_back(std::make_unique<MiddleboxSession>(mcfg));
    }
    env.handshake();
    ASSERT_TRUE(env.all_complete());

    Bytes big(4000, 0x42);
    ASSERT_TRUE(env.client->send_app_data(1, big).ok());
    env.pump();
    ASSERT_TRUE(env.server->send_app_data(1, big).ok());
    env.pump();
    env.server->take_app_data();
    env.client->take_app_data();

    uint64_t server_allocs = env.server->open_scratch().heap_allocations;
    uint64_t client_allocs = env.client->open_scratch().heap_allocations;
    uint64_t read_allocs = env.mboxes[0]->open_scratch().heap_allocations;
    uint64_t write_allocs = env.mboxes[1]->open_scratch().heap_allocations;
    uint64_t server_records = env.server->open_scratch().records;

    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(env.client->send_app_data(1, Bytes(1460, uint8_t(i))).ok());
        ASSERT_TRUE(env.server->send_app_data(1, Bytes(512, uint8_t(i))).ok());
        env.pump();
    }
    EXPECT_EQ(env.server->take_app_data().size(), 50u);
    EXPECT_EQ(env.client->take_app_data().size(), 50u);

    EXPECT_EQ(env.server->open_scratch().records, server_records + 50);
    EXPECT_EQ(env.server->open_scratch().heap_allocations, server_allocs);
    EXPECT_EQ(env.client->open_scratch().heap_allocations, client_allocs);
    EXPECT_EQ(env.mboxes[0]->open_scratch().heap_allocations, read_allocs);
    EXPECT_EQ(env.mboxes[1]->open_scratch().heap_allocations, write_allocs);

    // The spans actually flowed: the contexts survived the whole chain, so
    // every delivered record emitted a deliver span at its endpoint.
    EXPECT_EQ(journal.dropped(), 0u);
    size_t delivers = 0;
    for (const auto& s : journal.events())
        if (s.is_span() && s.stage == obs::Stage::deliver) ++delivers;
    EXPECT_GE(delivers, 100u);
}

// The flight-recorder plane must be equally invisible: with the shared
// journal ring *and* a per-hop black-box lane attached (the always-on
// production shape from DESIGN.md §17), steady-state opens still never
// allocate, the ring never overflows (obs.trace.dropped == 0 on the hub —
// the steady-state health gate), and the lanes demonstrably captured the
// traffic they rode along with.
TEST(RecordFastPath, SteadyStateOpensDoNotAllocateWithFlightRecorder)
{
#if !defined(MCT_OBS_ENABLED)
    GTEST_SKIP() << "trace/flight emission compiled out under MCT_OBS=OFF";
#endif
    obs::Hub hub;
    // Ample ring: nothing may drop. 128-event lanes, 1024 slots.
    obs::Journal journal({.capacity = 1 << 16, .lane_capacity = 128, .max_lanes = 1024});

    ChainEnv env;
    ContextDescription ctx;
    ctx.id = 1;
    ctx.purpose = "body";
    ctx.permissions = {Permission::read, Permission::write};
    auto infos = env.make_middleboxes(2);
    auto ccfg = env.client_config(infos, {ctx});
    ccfg.journal = &journal;
    ccfg.trace_actor = "client";
    ccfg.lane = journal.open_lane(1, "client");
    env.client = std::make_unique<Session>(ccfg);
    auto scfg = env.server_config();
    scfg.journal = &journal;
    scfg.trace_actor = "server";
    scfg.lane = journal.open_lane(0, "server");
    env.server = std::make_unique<Session>(scfg);
    for (size_t i = 0; i < 2; ++i) {
        auto mcfg = env.mbox_config(i);
        mcfg.journal = &journal;
        mcfg.trace_actor = "mbox" + std::to_string(i);
        mcfg.lane = journal.open_lane(0, "mbox" + std::to_string(i));
        env.mboxes.push_back(std::make_unique<MiddleboxSession>(mcfg));
    }
    env.handshake();
    ASSERT_TRUE(env.all_complete());

    Bytes big(4000, 0x42);
    ASSERT_TRUE(env.client->send_app_data(1, big).ok());
    env.pump();
    ASSERT_TRUE(env.server->send_app_data(1, big).ok());
    env.pump();
    env.server->take_app_data();
    env.client->take_app_data();

    uint64_t server_allocs = env.server->open_scratch().heap_allocations;
    uint64_t client_allocs = env.client->open_scratch().heap_allocations;
    uint64_t read_allocs = env.mboxes[0]->open_scratch().heap_allocations;
    uint64_t write_allocs = env.mboxes[1]->open_scratch().heap_allocations;
    uint64_t server_records = env.server->open_scratch().records;
    uint64_t events_before = journal.lane_events();

    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(env.client->send_app_data(1, Bytes(1460, uint8_t(i))).ok());
        ASSERT_TRUE(env.server->send_app_data(1, Bytes(512, uint8_t(i))).ok());
        env.pump();
    }
    EXPECT_EQ(env.server->take_app_data().size(), 50u);
    EXPECT_EQ(env.client->take_app_data().size(), 50u);

    EXPECT_EQ(env.server->open_scratch().records, server_records + 50);
    EXPECT_EQ(env.server->open_scratch().heap_allocations, server_allocs);
    EXPECT_EQ(env.client->open_scratch().heap_allocations, client_allocs);
    EXPECT_EQ(env.mboxes[0]->open_scratch().heap_allocations, read_allocs);
    EXPECT_EQ(env.mboxes[1]->open_scratch().heap_allocations, write_allocs);

    // The lanes rode the whole run: steady-state records landed in them.
    EXPECT_GT(journal.lane_events(), events_before);
    EXPECT_EQ(journal.lanes_denied(), 0u);

    // Steady-state trace health: an amply-sized ring dropped nothing, and
    // the gate metric reflects that on the hub.
    hub.publish_trace_health(&journal);
    EXPECT_EQ(hub.metrics.counter("obs.trace.dropped")->value(), 0u);
}

}  // namespace
}  // namespace mct::mctls
