// Fault-injection harness tests (DESIGN.md "Failure model"): middlebox
// crashes, link flaps, and byzantine record corruption injected into the
// simulated testbed, with every recovery policy exercised. The common thread
// is bounded failure: every scenario must end with the event loop drained and
// the client holding either a completed fetch or a typed error — never a
// hang.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "http/testbed.h"

namespace mct::http {
namespace {

// Fault-free run of the same topology, to learn when the handshake and the
// transfer complete so faults can be scheduled inside specific phases. The
// simulation is deterministic and fault-mode retransmission timers never
// fire on loss-free links, so these times transfer exactly.
struct Baseline {
    net::SimTime handshake_done = 0;
    net::SimTime done = 0;
};

Baseline measure_baseline(size_t n_middleboxes, const std::vector<size_t>& sizes)
{
    TestbedConfig cfg;
    cfg.n_middleboxes = n_middleboxes;
    Testbed tb(cfg);
    auto fetch = tb.fetch_sequence(sizes);
    tb.run();
    EXPECT_TRUE(fetch->completed);
    return {fetch->handshake_done, fetch->done};
}

const std::vector<size_t> kSmall = {2000};
const std::vector<size_t> kStream = {2000, 2000, 2000, 2000, 2000, 2000};

TEST(FaultInjection, MiddleboxCrashDuringHandshakeAbortsTyped)
{
    Baseline base = measure_baseline(1, kSmall);
    // Kill the middlebox inside each handshake phase: during TCP connect,
    // mid-flight, and just before completion.
    for (double fraction : {0.2, 0.5, 0.9}) {
        TestbedConfig cfg;
        cfg.n_middleboxes = 1;
        cfg.handshake_deadline = 5_s;
        cfg.faults = {{FaultEvent::Kind::kill_middlebox,
                       net::SimTime(fraction * double(base.handshake_done)), 0, 0}};
        Testbed tb(cfg);
        auto fetch = tb.fetch(2000);
        tb.run();  // must drain: no livelock on a dead chain

        EXPECT_FALSE(fetch->completed) << "fraction " << fraction;
        EXPECT_TRUE(fetch->failed) << "fraction " << fraction;
        EXPECT_EQ(fetch->attempts, 1u);
        EXPECT_FALSE(fetch->error.empty());
        // Typed failure well within the handshake deadline: the crash is
        // detected by connection teardown, not by waiting out the timer.
        EXPECT_LE(fetch->done, fetch->start + 5_s);
    }
}

TEST(FaultInjection, MiddleboxCrashMidStreamAbortsTyped)
{
    Baseline base = measure_baseline(1, kStream);
    ASSERT_LT(base.handshake_done, base.done);

    TestbedConfig cfg;
    cfg.n_middleboxes = 1;
    cfg.handshake_deadline = 5_s;
    cfg.faults = {{FaultEvent::Kind::kill_middlebox,
                   (base.handshake_done + base.done) / 2, 0, 0}};
    Testbed tb(cfg);
    auto fetch = tb.fetch_sequence(kStream);
    tb.run();

    EXPECT_FALSE(fetch->completed);
    EXPECT_TRUE(fetch->failed);
    EXPECT_FALSE(fetch->error.empty());
    // The stream was cut after the handshake finished.
    EXPECT_GT(fetch->handshake_done, fetch->start);
}

TEST(FaultInjection, ReconnectPolicyRecoversAfterRestart)
{
    Baseline base = measure_baseline(1, kSmall);
    net::SimTime kill_at = base.handshake_done / 2;

    TestbedConfig cfg;
    cfg.n_middleboxes = 1;
    cfg.handshake_deadline = 5_s;
    cfg.faults = {{FaultEvent::Kind::kill_middlebox, kill_at, 0, 0},
                  {FaultEvent::Kind::restart_middlebox, kill_at + 500_ms, 0, 0}};
    cfg.recovery = RecoveryPolicy::reconnect;
    cfg.retry = {/*max_attempts=*/5, /*backoff=*/300_ms, /*multiplier=*/2.0};
    Testbed tb(cfg);
    auto fetch = tb.fetch(2000);
    tb.run();

    EXPECT_TRUE(fetch->completed);
    EXPECT_FALSE(fetch->failed);
    EXPECT_GE(fetch->attempts, 2u);
    EXPECT_FALSE(fetch->fell_back_to_tls);
    // Completion necessarily postdates the restart.
    EXPECT_GT(fetch->done, kill_at + 500_ms);
}

TEST(FaultInjection, DropDeadMiddleboxesReroutesAroundCrash)
{
    Baseline base = measure_baseline(2, kSmall);

    TestbedConfig cfg;
    cfg.n_middleboxes = 2;
    cfg.handshake_deadline = 5_s;
    cfg.faults = {{FaultEvent::Kind::kill_middlebox, base.handshake_done / 2, 0, 0}};
    cfg.recovery = RecoveryPolicy::drop_dead_middleboxes;
    cfg.retry = {/*max_attempts=*/3, /*backoff=*/200_ms, /*multiplier=*/2.0};
    Testbed tb(cfg);
    auto fetch = tb.fetch(2000);
    tb.run();

    // The retry renegotiates mcTLS with the dead middlebox dropped from the
    // session composition, routing over the bypass link around it.
    EXPECT_TRUE(fetch->completed);
    EXPECT_GE(fetch->attempts, 2u);
    EXPECT_FALSE(fetch->fell_back_to_tls);
}

TEST(FaultInjection, TlsFallbackCompletesWithoutMiddlebox)
{
    Baseline base = measure_baseline(1, kSmall);

    TestbedConfig cfg;
    cfg.n_middleboxes = 1;
    cfg.handshake_deadline = 5_s;
    cfg.faults = {{FaultEvent::Kind::kill_middlebox, base.handshake_done / 2, 0, 0}};
    cfg.recovery = RecoveryPolicy::tls_fallback;
    cfg.retry = {/*max_attempts=*/3, /*backoff=*/200_ms, /*multiplier=*/2.0};
    Testbed tb(cfg);
    auto fetch = tb.fetch(2000);
    tb.run();

    // §5.4: the client falls back to plain end-to-end TLS when the mcTLS
    // path cannot be (re)established; the middlebox never restarts.
    EXPECT_TRUE(fetch->completed);
    EXPECT_TRUE(fetch->fell_back_to_tls);
    EXPECT_GE(fetch->attempts, 2u);
}

TEST(FaultInjection, LinkFlapMidStreamHealsViaRetransmission)
{
    Baseline base = measure_baseline(1, kStream);
    ASSERT_LT(base.handshake_done, base.done);
    net::SimTime flap_at = (base.handshake_done + base.done) / 2;
    net::SimTime heal_at = flap_at + 450_ms;

    TestbedConfig cfg;
    cfg.n_middleboxes = 1;
    cfg.faults = {{FaultEvent::Kind::link_down, flap_at, 0, /*hop=*/0},
                  {FaultEvent::Kind::link_up, heal_at, 0, /*hop=*/0}};
    Testbed tb(cfg);
    auto fetch = tb.fetch_sequence(kStream);
    tb.run();

    // A transient partition is absorbed by the transport (RTO go-back-N):
    // the session survives, the transfer just finishes late.
    EXPECT_TRUE(fetch->completed);
    EXPECT_FALSE(fetch->failed);
    EXPECT_EQ(fetch->attempts, 1u);
    EXPECT_GE(fetch->done, heal_at);
    EXPECT_GT(fetch->done, base.done);
}

TEST(FaultInjection, ByzantineCorruptionDetectedByMacAndAlerted)
{
    TestbedConfig cfg;
    cfg.n_middleboxes = 1;
    // Arm at t=0: the corruption fires on the first application-data record
    // the relay forwards (the HTTP request), leaving the handshake intact.
    cfg.faults = {{FaultEvent::Kind::corrupt_record, 1, 0, 0}};
    Testbed tb(cfg);
    auto fetch = tb.fetch(2000);
    tb.run();

    // The three-MAC scheme catches the flipped byte at the receiving
    // endpoint, which answers with a fatal bad_record_mac alert; the other
    // endpoint surfaces it as a typed peer failure.
    EXPECT_FALSE(fetch->completed);
    EXPECT_TRUE(fetch->failed);
    EXPECT_NE(fetch->error.find("bad_record_mac"), std::string::npos) << fetch->error;
}

TEST(FaultInjection, ResumePolicyRecoversViaAbbreviatedHandshake)
{
    Baseline base = measure_baseline(1, kStream);
    ASSERT_LT(base.handshake_done, base.done);
    net::SimTime kill_at = (base.handshake_done + base.done) / 2;

    obs::Hub hub;
    obs::Journal journal({.capacity = 1 << 16});
    TestbedConfig cfg;
    cfg.n_middleboxes = 1;
    cfg.handshake_deadline = 5_s;
    // Kill mid-transfer — after the full handshake minted tickets — and
    // restart before the retry budget runs out.
    cfg.faults = {{FaultEvent::Kind::kill_middlebox, kill_at, 0, 0},
                  {FaultEvent::Kind::restart_middlebox, kill_at + 500_ms, 0, 0}};
    cfg.recovery = RecoveryPolicy::resume;
    cfg.retry = {/*max_attempts=*/5, /*backoff=*/300_ms, /*multiplier=*/2.0};
    cfg.obs = &hub;
    cfg.journal = &journal;
    Testbed tb(cfg);
    auto fetch = tb.fetch_sequence(kStream);
    tb.run();

    // The retry completed over an abbreviated handshake through the
    // restarted middlebox, which rejoined from its cached pairwise keys.
    EXPECT_TRUE(fetch->completed) << fetch->error;
    EXPECT_GE(fetch->attempts, 2u);
    EXPECT_TRUE(fetch->resumed);
    EXPECT_FALSE(fetch->fell_back_to_tls);

    // Handshake counters: the resumed attempt must NOT have re-run the full
    // 2-RTT exchange — its flight is a fraction of the first attempt's.
    // (Attempt 1 ran full; the completing attempt is "client#<attempts>".)
    tb.publish_session_stats();
    std::string last = "client#" + std::to_string(fetch->attempts);
    uint64_t full = hub.metrics.counter("client.handshake_wire_bytes")->value();
    uint64_t resumed = hub.metrics.counter(last + ".handshake_wire_bytes")->value();
    EXPECT_EQ(hub.metrics.counter(last + ".resumed")->value(), 1u);
    ASSERT_GT(full, 0u);
    ASSERT_GT(resumed, 0u);
    EXPECT_LT(resumed, full);
#if defined(MCT_OBS_ENABLED)
    bool saw_accept = false, saw_rejoin = false;
    for (const auto& e : journal.events()) {
        if (e.type == obs::EventType::hs_resume_accept) saw_accept = true;
        if (e.type == obs::EventType::mbox_rejoin) saw_rejoin = true;
    }
    EXPECT_TRUE(saw_accept);
    EXPECT_TRUE(saw_rejoin);
#endif
}

TEST(FaultInjection, ExcisePolicySplicesOutDeadMiddlebox)
{
    Baseline base = measure_baseline(2, kStream);
    ASSERT_LT(base.handshake_done, base.done);

    obs::Hub hub;
    obs::Journal journal({.capacity = 1 << 16});
    TestbedConfig cfg;
    cfg.n_middleboxes = 2;
    cfg.handshake_deadline = 5_s;
    // mbox0 dies mid-transfer and never comes back.
    cfg.faults = {{FaultEvent::Kind::kill_middlebox,
                   (base.handshake_done + base.done) / 2, 0, 0}};
    cfg.recovery = RecoveryPolicy::excise;
    cfg.retry = {/*max_attempts=*/4, /*backoff=*/200_ms, /*multiplier=*/2.0};
    cfg.obs = &hub;
    cfg.journal = &journal;
    Testbed tb(cfg);
    auto fetch = tb.fetch_sequence(kStream);
    tb.run();

    // The retry resumed with the dead middlebox spliced out of the session
    // composition; both endpoints contributed fresh context-key halves the
    // dead middlebox never saw, so its old keys are useless going forward
    // (key rotation itself is asserted by the session-level excision test).
    EXPECT_TRUE(fetch->completed) << fetch->error;
    EXPECT_GE(fetch->attempts, 2u);
    EXPECT_TRUE(fetch->resumed);
    EXPECT_FALSE(fetch->fell_back_to_tls);

    tb.publish_session_stats();
    std::string last = "client#" + std::to_string(fetch->attempts);
    EXPECT_EQ(hub.metrics.counter(last + ".resumed")->value(), 1u);
    uint64_t full = hub.metrics.counter("client.handshake_wire_bytes")->value();
    uint64_t resumed = hub.metrics.counter(last + ".handshake_wire_bytes")->value();
    ASSERT_GT(resumed, 0u);
    EXPECT_LT(resumed, full);
#if defined(MCT_OBS_ENABLED)
    bool saw_excised = false;
    for (const auto& e : journal.events())
        if (e.type == obs::EventType::mbox_excised) saw_excised = true;
    EXPECT_TRUE(saw_excised);
#endif
}

TEST(FaultInjection, RetryBackoffJitterAndCapStillRecover)
{
    Baseline base = measure_baseline(1, kSmall);
    net::SimTime kill_at = base.handshake_done / 2;

    TestbedConfig cfg;
    cfg.n_middleboxes = 1;
    cfg.handshake_deadline = 5_s;
    cfg.faults = {{FaultEvent::Kind::kill_middlebox, kill_at, 0, 0},
                  {FaultEvent::Kind::restart_middlebox, kill_at + 900_ms, 0, 0}};
    cfg.recovery = RecoveryPolicy::reconnect;
    cfg.retry = {/*max_attempts=*/8, /*backoff=*/300_ms, /*multiplier=*/4.0};
    cfg.retry.jitter = 0.5;        // each delay scaled by U[0.5, 1.5]
    cfg.retry.max_backoff = 350_ms;  // exponential growth clamped
    Testbed tb(cfg);
    auto fetch = tb.fetch(2000);
    tb.run();

    EXPECT_TRUE(fetch->completed) << fetch->error;
    EXPECT_GE(fetch->attempts, 2u);
    // With the cap at 350ms (plus at most 50% jitter), the retries keep
    // probing densely enough to catch the restart quickly; uncapped 4x
    // growth would have slept past it. 8 capped+jittered delays fit well
    // under 5 simulated seconds.
    EXPECT_LE(fetch->done, fetch->start + 5_s);
}

TEST(FaultInjection, NoFaultConfigKeepsAccountingIdentical)
{
    // Guard for the figure benches: configuring zero faults must leave the
    // byte-for-byte accounting of the plain testbed untouched.
    auto run = [](bool with_fault_knobs) {
        TestbedConfig cfg;
        cfg.n_middleboxes = 1;
        if (with_fault_knobs) cfg.handshake_deadline = 30_s;
        Testbed tb(cfg);
        auto fetch = tb.fetch(16000);
        tb.run();
        EXPECT_TRUE(fetch->completed);
        return std::tuple{fetch->handshake_wire_bytes, fetch->wire_bytes_client_link,
                          fetch->done};
    };
    EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace mct::http
