#include "http/testbed.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "obs/journal.h"

namespace mct::http {
namespace {

using net::operator""_ms;

TestbedConfig base_config(Mode mode, size_t n_mbox)
{
    TestbedConfig cfg;
    cfg.mode = mode;
    cfg.n_middleboxes = n_mbox;
    cfg.link = {20_ms, 0};
    return cfg;
}

TEST(Testbed, NoEncryptDirectFetch)
{
    Testbed bed(base_config(Mode::no_encrypt, 0));
    auto fetch = bed.fetch(1000);
    bed.run();
    ASSERT_TRUE(fetch->completed);
    EXPECT_FALSE(fetch->failed);
    EXPECT_GT(fetch->app_bytes_received, 1000u);  // body + response head
    EXPECT_LT(fetch->app_bytes_received, 1000u + 200);
    // TCP connect (1 RTT) + request/response (1 RTT) = 80 ms.
    EXPECT_EQ(fetch->first_byte, 80_ms);
}

TEST(Testbed, NoEncryptOneMiddleboxIsTwoPathRtt)
{
    Testbed bed(base_config(Mode::no_encrypt, 1));
    auto fetch = bed.fetch(100);
    bed.run();
    ASSERT_TRUE(fetch->completed);
    // Matches Figure 3's NoEncrypt baseline: 160 ms at 80 ms path RTT.
    EXPECT_EQ(fetch->first_byte, 160_ms);
}

TEST(Testbed, AllModesCompleteWithOneMiddlebox)
{
    for (Mode mode : {Mode::no_encrypt, Mode::e2e_tls, Mode::split_tls, Mode::mctls}) {
        Testbed bed(base_config(mode, 1));
        auto fetch = bed.fetch(5000);
        bed.run();
        EXPECT_TRUE(fetch->completed) << to_string(mode);
        EXPECT_FALSE(fetch->failed) << to_string(mode);
        EXPECT_GT(fetch->app_bytes_received, 5000u) << to_string(mode);
        EXPECT_LT(fetch->app_bytes_received, 5000u + 200) << to_string(mode);
    }
}

TEST(Testbed, EncryptedModesSlowerThanPlaintext)
{
    std::map<Mode, net::SimTime> ttfb;
    for (Mode mode : {Mode::no_encrypt, Mode::e2e_tls, Mode::split_tls, Mode::mctls}) {
        Testbed bed(base_config(mode, 1));
        auto fetch = bed.fetch(100);
        bed.run();
        ASSERT_TRUE(fetch->completed);
        ttfb[mode] = fetch->first_byte;
    }
    // NoEncrypt = 2 path-RTT; every TLS-family protocol adds 2 more.
    EXPECT_LT(ttfb[Mode::no_encrypt], ttfb[Mode::e2e_tls]);
    EXPECT_LT(ttfb[Mode::no_encrypt], ttfb[Mode::mctls]);
    // The paper's headline: mcTLS handshake is not discernibly longer than
    // SplitTLS / E2E-TLS (within one RTT).
    EXPECT_LE(ttfb[Mode::mctls], ttfb[Mode::split_tls] + 80_ms);
    EXPECT_LE(ttfb[Mode::mctls], ttfb[Mode::e2e_tls] + 80_ms);
}

TEST(Testbed, McTlsZeroMiddleboxes)
{
    Testbed bed(base_config(Mode::mctls, 0));
    auto fetch = bed.fetch(100);
    bed.run();
    ASSERT_TRUE(fetch->completed);
    EXPECT_FALSE(fetch->failed);
}

TEST(Testbed, McTlsFourMiddleboxes)
{
    Testbed bed(base_config(Mode::mctls, 4));
    auto fetch = bed.fetch(100);
    bed.run();
    ASSERT_TRUE(fetch->completed);
    EXPECT_FALSE(fetch->failed);
}

TEST(Testbed, AllStrategiesDeliverIdenticalContent)
{
    for (auto strategy : {ContextStrategy::one_context, ContextStrategy::four_contexts,
                          ContextStrategy::context_per_header}) {
        auto cfg = base_config(Mode::mctls, 1);
        cfg.strategy = strategy;
        Testbed bed(cfg);
        auto fetch = bed.fetch(2000);
        bed.run();
        ASSERT_TRUE(fetch->completed) << to_string(strategy);
        EXPECT_GT(fetch->app_bytes_received, 2000u) << to_string(strategy);
        EXPECT_LT(fetch->app_bytes_received, 2000u + 200) << to_string(strategy);
    }
}

TEST(Testbed, SequentialFetchesReuseConnection)
{
    Testbed bed(base_config(Mode::mctls, 1));
    auto fetch = bed.fetch_sequence({100, 200, 300});
    bed.run();
    ASSERT_TRUE(fetch->completed);
    ASSERT_EQ(fetch->object_done.size(), 3u);
    EXPECT_LT(fetch->object_done[0], fetch->object_done[1]);
    EXPECT_LT(fetch->object_done[1], fetch->object_done[2]);
}

TEST(Testbed, NagleOffNotSlower)
{
    net::SimTime with_nagle, without_nagle;
    {
        auto cfg = base_config(Mode::mctls, 1);
        cfg.strategy = ContextStrategy::four_contexts;
        Testbed bed(cfg);
        auto fetch = bed.fetch(100);
        bed.run();
        ASSERT_TRUE(fetch->completed);
        with_nagle = fetch->done;
    }
    {
        auto cfg = base_config(Mode::mctls, 1);
        cfg.strategy = ContextStrategy::four_contexts;
        cfg.nagle = false;
        Testbed bed(cfg);
        auto fetch = bed.fetch(100);
        bed.run();
        ASSERT_TRUE(fetch->completed);
        without_nagle = fetch->done;
    }
    EXPECT_LE(without_nagle, with_nagle);
}

TEST(Testbed, CkdModeWorks)
{
    auto cfg = base_config(Mode::mctls, 1);
    cfg.client_key_distribution = true;
    Testbed bed(cfg);
    auto fetch = bed.fetch(1000);
    bed.run();
    ASSERT_TRUE(fetch->completed);
    EXPECT_FALSE(fetch->failed);
}

TEST(Testbed, BandwidthLimitedDownload)
{
    auto cfg = base_config(Mode::mctls, 1);
    cfg.link = {20_ms, 1e6};  // 1 Mbps
    Testbed bed(cfg);
    auto fetch = bed.fetch(185600);
    bed.run();
    ASSERT_TRUE(fetch->completed);
    // 185.6 kB at 1 Mbps is at least ~1.5 s of serialization.
    EXPECT_GT(fetch->done, 1400 * 1000u);
}

TEST(Testbed, HandshakeBytesLargerForMcTls)
{
    uint64_t mctls_bytes, tls_bytes;
    {
        Testbed bed(base_config(Mode::mctls, 1));
        auto fetch = bed.fetch(10);
        bed.run();
        ASSERT_TRUE(fetch->completed);
        mctls_bytes = fetch->handshake_wire_bytes;
    }
    {
        Testbed bed(base_config(Mode::e2e_tls, 1));
        auto fetch = bed.fetch(10);
        bed.run();
        ASSERT_TRUE(fetch->completed);
        tls_bytes = fetch->handshake_wire_bytes;
    }
    EXPECT_GT(mctls_bytes, tls_bytes);  // Figure 8 shape
}

TEST(Testbed, McTlsRecordOverheadRoughlyTripleOfTls)
{
    // §5.2: three MACs instead of one.
    uint64_t mctls_overhead, tls_overhead;
    {
        Testbed bed(base_config(Mode::mctls, 0));
        auto fetch = bed.fetch(10000);
        bed.run();
        mctls_overhead = fetch->app_overhead_bytes;
    }
    {
        Testbed bed(base_config(Mode::e2e_tls, 0));
        auto fetch = bed.fetch(10000);
        bed.run();
        tls_overhead = fetch->app_overhead_bytes;
    }
    EXPECT_GT(mctls_overhead, tls_overhead);
    EXPECT_LT(mctls_overhead, tls_overhead * 5);
}

TEST(Testbed, ParallelConnectionsIndependent)
{
    Testbed bed(base_config(Mode::mctls, 1));
    auto f1 = bed.fetch(1000);
    auto f2 = bed.fetch(2000);
    auto f3 = bed.fetch(500);
    bed.run();
    EXPECT_TRUE(f1->completed && f2->completed && f3->completed);
}

TEST(Testbed, JournalOutlivingTestbedKeepsFinalSimTime)
{
    // The journal is borrowed and may outlive the testbed; an emission after
    // the testbed is gone must be stamped with the final sim time instead of
    // reading the destroyed event loop.
    obs::Journal journal;
    TestbedConfig cfg = base_config(Mode::mctls, 1);
    cfg.journal = &journal;
    auto bed = std::make_unique<Testbed>(cfg);
    auto fetch = bed->fetch(1000);
    bed->run();
    ASSERT_TRUE(fetch->completed);
    const net::SimTime end = bed->loop().now();
    ASSERT_GT(end, 0u);
    bed.reset();

    journal.emit(nullptr, journal.intern("after"), obs::EventType::hs_start);
    ASSERT_FALSE(journal.events().empty());
    EXPECT_EQ(journal.events().back().ts, end);
}

}  // namespace
}  // namespace mct::http
