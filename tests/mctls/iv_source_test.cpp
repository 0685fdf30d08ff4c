// Session-level pins of the CBC IV source (crypto::IvSource held in
// tls::SessionCore): where each party's IVs come from, that they do not
// repeat, and what one application seal and one resumed handshake cost in
// exact primitive counts.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>
#include <vector>

#include "crypto/aes.h"
#include "crypto/drbg.h"
#include "mctls/context_crypto.h"
#include "mctls/key_schedule.h"
#include "mctls/resumption.h"
#include "tests/alloc_counter.h"
#include "tests/mctls/harness.h"
#include "tests/work_counter.h"
#include "tls/record.h"

namespace mct::mctls {
namespace {

using test::ChainEnv;

constexpr uint8_t kCtx = 1;

// The IV of every application record that crosses hop 0 (client -> mbox)
// and hop 1 (mbox -> server), in order; a chain::pump tap.
struct IvTap {
    struct Hop {
        tls::RecordCodec codec{/*with_context_id=*/true};
        std::vector<Bytes> ivs;
    };
    std::array<Hop, 2> hops;

    void operator()(size_t hop, const Bytes& unit)
    {
        if (hop >= hops.size()) return;
        Hop& h = hops[hop];
        h.codec.feed(unit);
        while (true) {
            auto next = h.codec.next_view();
            if (!next.ok() || !next.value()) break;
            const tls::RecordView& rv = *next.value();
            if (rv.context_id == kCtx)
                h.ivs.emplace_back(rv.payload.begin(), rv.payload.begin() + 16);
        }
    }
};

// A client -> writer middlebox -> server chain whose parties draw from one
// HmacDrbg, as deployed sessions do. The middlebox rewrites every record, so
// each one is sealed by the client and resealed by the middlebox.
// `client_key` is the first 16 bytes the client drew from the DRBG.
struct WriterChain {
    ChainEnv env;
    Bytes drbg_seed = env.rng.bytes(32);
    crypto::HmacDrbg drbg{drbg_seed};
    Bytes client_key;

    WriterChain()
    {
        auto infos = env.make_middleboxes(1);
        auto ccfg = env.client_config(infos, {test::ctx_row(kCtx, "body", 1, Permission::write)});
        ccfg.rng = &drbg;
        env.client = std::make_unique<Session>(ccfg);
        client_key = crypto::HmacDrbg(drbg_seed).bytes(16);
        auto scfg = env.server_config();
        scfg.rng = &drbg;
        env.server = std::make_unique<Session>(scfg);
        auto mcfg = env.mbox_config(0);
        mcfg.rng = &drbg;
        mcfg.transform = [](uint8_t, Direction, Bytes payload) {
            payload.push_back('!');
            return payload;
        };
        env.mboxes.push_back(std::make_unique<MiddleboxSession>(mcfg));
        env.handshake();
    }

    IvTap pump()
    {
        IvTap tap;
        EXPECT_TRUE(chain::pump(*env.client, env.mboxes, *env.server, chain::NoProbe{}, tap))
            << "livelock";
        return tap;
    }
};

Bytes aes_of_counter(const crypto::Aes128& cipher, uint64_t i)
{
    uint8_t block[16] = {};
    for (int b = 0; b < 8; ++b) block[15 - b] = static_cast<uint8_t>(i >> (8 * b));
    cipher.encrypt_block(block, block);
    return Bytes(block, block + 16);
}

// The client's record IVs are AES_K(be128(i)) for consecutive i, where K is
// the first 16 bytes the client drew: the counter picks up after the IVs of
// the handshake's Finished and key-material seals.
TEST(SessionIvSource, RecordIvsAreAesCounterUnderClientsFirstDraw)
{
    WriterChain chain;
    ASSERT_TRUE(chain.env.all_complete());
    crypto::Aes128 cipher(chain.client_key);
    for (int r = 0; r < 3; ++r)
        ASSERT_TRUE(chain.env.client->send_app_data(kCtx, Bytes(64, 0x61)).ok());
    auto ivs = chain.pump().hops[0].ivs;
    ASSERT_EQ(ivs.size(), 3u);

    uint64_t first = 0;
    while (first < 64 && aes_of_counter(cipher, first) != ivs[0]) ++first;
    ASSERT_LT(first, 64u) << "first record IV is not AES_K(i) for any i < 64";
    EXPECT_GT(first, 0u);  // the handshake's seals drew IVs first
    EXPECT_EQ(ivs[1], aes_of_counter(cipher, first + 1));
    EXPECT_EQ(ivs[2], aes_of_counter(cipher, first + 2));
}

// 10,000 records of one session: no IV repeats, on either hop, and no IV of
// the client's seals reappears in the writer's reseals.
TEST(SessionIvSource, NoIvRepeatsOverTenThousandRecords)
{
    WriterChain chain;
    ASSERT_TRUE(chain.env.all_complete());
    std::set<Bytes> seen;
    size_t collected = 0;
    Bytes payload(64, 0x62);
    for (int batch = 0; batch < 100; ++batch) {
        for (int r = 0; r < 100; ++r)
            ASSERT_TRUE(chain.env.client->send_app_data(kCtx, payload).ok());
        for (const auto& hop : chain.pump().hops) {
            collected += hop.ivs.size();
            seen.insert(hop.ivs.begin(), hop.ivs.end());
        }
        chain.env.server->take_app_data();
    }
    EXPECT_EQ(collected, 20000u);
    EXPECT_EQ(seen.size(), 20000u);
}

// The endpoint's seal and the writer's reseal of the same record use the
// same reader key, so an IV derived from that key and the sequence number
// would repeat; each party's private IV source keeps them apart.
TEST(SessionIvSource, WriterResealCarriesADifferentIvThanTheEndpointSeal)
{
    WriterChain chain;
    ASSERT_TRUE(chain.env.all_complete());
    ASSERT_TRUE(chain.env.client->send_app_data(kCtx, Bytes(64, 0x63)).ok());
    IvTap tap = chain.pump();
    const auto& sealed = tap.hops[0].ivs;
    const auto& resealed = tap.hops[1].ivs;
    ASSERT_EQ(sealed.size(), 1u);
    ASSERT_EQ(resealed.size(), 1u);
    EXPECT_NE(sealed[0], resealed[0]);
    EXPECT_EQ(chain.env.mboxes[0]->records_rewritten(), 1u);
    auto got = chain.env.server->take_app_data();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].data.size(), 65u);  // the rewrite reached the server
}

// --- Exact primitive counts ---------------------------------------------
//
// Each ExactCounts test counts the work through tests/work_counter.h, whose
// table is installed before the sessions are built.
using mct::test::WorkCounts;

void expect_work(const WorkCounts& got, const WorkCounts& want, const char* party)
{
    EXPECT_EQ(got.sha256_blocks, want.sha256_blocks) << party;
    EXPECT_EQ(got.aes_enc_blocks, want.aes_enc_blocks) << party;
    EXPECT_EQ(got.aes_dec_blocks, want.aes_dec_blocks) << party;
    EXPECT_EQ(got.aes_expansions, want.aes_expansions) << party;
}

class ExactCounts : public ::testing::Test {
protected:
    template <class F>
    WorkCounts count(F&& step)
    {
        return mct::test::CountingDispatch::count(step);
    }

    mct::test::CountingDispatch counting_;
};

// One CBC IV: 1 AES block from the IV source. The HMAC-DRBG draw it
// replaced costs 8 SHA-256 compressions, 2 each for HMAC(K, V), then the
// SP 800-90A update's HMAC for the new K, its key expansion and HMAC(K, V).
TEST_F(ExactCounts, OneIvIsOneAesBlockNotEightCompressions)
{
    TestRng seed(5);
    crypto::IvSource ivs(seed);
    crypto::HmacDrbg drbg(seed.bytes(32));
    uint8_t iv[16];
    WorkCounts from_source = count([&] { ivs.fill(iv); });
    EXPECT_EQ(from_source.sha256_blocks, 0u);
    EXPECT_EQ(from_source.aes_enc_blocks, 1u);
    EXPECT_EQ(from_source.aes_expansions, 0u);
    WorkCounts from_drbg = count([&] { drbg.fill(iv); });
    EXPECT_EQ(from_drbg.sha256_blocks, 8u);
    EXPECT_EQ(from_drbg.aes_enc_blocks, 0u);
}

// One session-level 64 B mcTLS application seal in steady state (the
// session's second): three MACs of 3 compressions each (two inner blocks
// over the 14 B pseudo-header and the payload, one outer) and 12 AES blocks
// (the IV, then CBC over 64 B payload + 3 x 32 B MACs + 16 B padding). When
// the session drew each IV from its HmacDrbg, the same seal cost 17
// compressions and 11 blocks, as the record-layer seal with a DRBG-drawn IV
// below still does.
TEST_F(ExactCounts, SessionSealOf64BytesIsNineCompressionsTwelveBlocks)
{
    WriterChain chain;
    ASSERT_TRUE(chain.env.all_complete());
    Bytes payload(64, 0x64);
    auto seal = [&] {
        return count([&] { ASSERT_TRUE(chain.env.client->send_app_data(kCtx, payload).ok()); });
    };
    (void)seal();  // expands the context's keys; see the test below
    WorkCounts steady = seal();
    EXPECT_EQ(steady.sha256_blocks, 9u);
    EXPECT_EQ(steady.aes_enc_blocks, 12u);
    EXPECT_EQ(steady.aes_dec_blocks, 0u);
    EXPECT_EQ(steady.aes_expansions, 0u);

    TestRng rng(6);
    Bytes rand_c = rng.bytes(32), rand_s = rng.bytes(32);
    EndpointKeys endpoint = derive_endpoint_keys(rng.bytes(48), rand_c, rand_s);
    ContextKeys ctx = combine_context_keys(derive_partial_keys(rng.bytes(48), rand_c, kCtx),
                                           derive_partial_keys(rng.bytes(48), rand_s, kCtx),
                                           rand_c, rand_s);
    crypto::HmacDrbg drbg(rng.bytes(32));
    Bytes out;
    auto drbg_seal = [&] {
        return count([&] {
            out.clear();
            seal_record_into(ctx, endpoint, Direction::client_to_server, 0, kCtx, payload, drbg,
                             out);
        });
    };
    (void)drbg_seal();  // first use of these keys
    WorkCounts steady_drbg = drbg_seal();
    EXPECT_EQ(steady_drbg.sha256_blocks, 17u);
    EXPECT_EQ(steady_drbg.aes_enc_blocks, 11u);
    EXPECT_EQ(steady_drbg.aes_expansions, 0u);
}

// The first seal in a context is where its keys expand (crypto/key.h): the
// client's writer and reader MAC keys for client->server (2 compressions
// each, the ipad and opad midstates) and its reader encryption key (1 AES
// key expansion) on top of the steady-state seal above. The endpoint MAC key
// was already expanded by the handshake's Finished. Nothing else moves.
TEST_F(ExactCounts, FirstSessionSealExpandsItsContextKeysOnce)
{
    WriterChain chain;
    ASSERT_TRUE(chain.env.all_complete());
    Bytes payload(64, 0x64);
    WorkCounts first =
        count([&] { ASSERT_TRUE(chain.env.client->send_app_data(kCtx, payload).ok()); });
    EXPECT_EQ(first.sha256_blocks, 9u + 2 * 2);
    EXPECT_EQ(first.aes_enc_blocks, 12u);
    EXPECT_EQ(first.aes_dec_blocks, 0u);
    EXPECT_EQ(first.aes_expansions, 1u);
}

// A client -> mbox0 -> mbox1 -> server chain with warm session caches: a
// full handshake mints the ticket, then build() rebuilds a party's session
// for an abbreviated handshake that resumes it. In chainbench's shape every
// party draws from one HmacDrbg, as chainbench's parties do (each session's
// first draw seeds its IV source), and the server does not authenticate the
// middleboxes; otherwise the parties draw from the harness's TestRng.
struct ResumedChain {
    enum PartyId { kClient, kMbox0, kMbox1, kServer };

    ChainEnv env;
    crypto::HmacDrbg drbg{str_to_bytes("resumed chain")};
    bool chainbench_shape;
    ServerSessionCache server_cache;
    std::array<MiddleboxSessionCache, 2> mbox_caches;
    std::vector<MiddleboxInfo> infos = env.make_middleboxes(2);
    std::vector<ContextDescription> contexts;
    ResumptionTicket ticket;

    ResumedChain(std::vector<ContextDescription> ctxs, bool chainbench)
        : chainbench_shape(chainbench), contexts(std::move(ctxs))
    {
        for (int p = kClient; p <= kServer; ++p) build(static_cast<PartyId>(p), nullptr);
        env.handshake();
        EXPECT_TRUE(env.all_complete());
        ticket = env.client->ticket();
        env.mboxes.clear();
    }

    // (Re)builds party `p`; the client resumes `resume`, if given.
    void build(PartyId p, const ResumptionTicket* resume)
    {
        Rng* rng = chainbench_shape ? static_cast<Rng*>(&drbg) : &env.rng;
        if (p == kClient) {
            auto cfg = env.client_config(infos, contexts);
            cfg.ticket = resume;
            cfg.rng = rng;
            env.client = std::make_unique<Session>(cfg);
        } else if (p == kServer) {
            auto cfg = env.server_config();
            cfg.authenticate_middleboxes = !chainbench_shape;
            cfg.session_cache = &server_cache;
            cfg.rng = rng;
            env.server = std::make_unique<Session>(cfg);
        } else {
            size_t i = p == kMbox0 ? 0 : 1;
            auto cfg = env.mbox_config(i);
            cfg.session_cache = &mbox_caches[i];
            cfg.rng = rng;
            if (env.mboxes.size() <= i) env.mboxes.resize(i + 1);
            env.mboxes[i] = std::make_unique<MiddleboxSession>(cfg);
        }
    }

    // Runs the resumed handshake from the client's start() until the chain
    // goes quiet. `measure(party, call)` runs call() and charges its work to
    // the party; a pump tap names the party each unit is delivered to.
    template <class Measure>
    void resume(Measure&& measure)
    {
        measure(kClient, [&] { env.client->start(); });
        PartyId to = kClient;
        // Hops 0 and 1 deliver to mbox 0 and 1, hop 2 to the server, hops 3
        // and 4 to mbox 1 and 0, hop 5 to the client.
        auto tap = [&](size_t hop, const Bytes&) {
            to = hop == 2   ? kServer
                 : hop == 5 ? kClient
                 : (hop == 0 || hop == 4) ? kMbox0
                                          : kMbox1;
        };
        auto probe = [&](chain::Party, auto&& call) { measure(to, [&] { (void)call(); }); };
        ASSERT_TRUE(chain::pump(*env.client, env.mboxes, *env.server, probe, tap));
        ASSERT_TRUE(env.all_complete());
        ASSERT_TRUE(env.client->resumed());
    }
};

// One resumed handshake, client -> mbox0 -> mbox1 -> server with four
// contexts of mixed permissions, resuming the session of a full handshake:
// each party's primitive work from the client's start() until the chain
// goes quiet. Pinned by value, with no wall-clock noise: a refactor of the
// handshake must leave every count as it is.
TEST_F(ExactCounts, ResumedHandshakeWithTwoMiddleboxesAndFourContexts)
{
    const Permission table[4][2] = {{Permission::read, Permission::write},
                                    {Permission::write, Permission::read},
                                    {Permission::none, Permission::read},
                                    {Permission::write, Permission::write}};
    std::vector<ContextDescription> contexts;
    for (uint8_t id = 1; id <= 4; ++id)
        contexts.push_back({id, "ctx" + std::to_string(id), {table[id - 1][0], table[id - 1][1]}});
    ResumedChain chain(contexts, /*chainbench=*/false);
    for (int p = ResumedChain::kClient; p <= ResumedChain::kServer; ++p)
        chain.build(static_cast<ResumedChain::PartyId>(p), &chain.ticket);

    std::array<WorkCounts, 4> work;
    chain.resume([&](ResumedChain::PartyId p, auto&& call) { work[p] += count(call); });

    // {SHA-256 compressions, AES blocks encrypted, AES blocks decrypted,
    // AES key expansions}. The endpoints mirror each other; the middleboxes
    // only open their halves, and mbox1 opens more because it holds keys
    // for more contexts. No party uses a context key during the handshake,
    // so none is expanded: what is left is the endpoints' control and
    // key-material keys and the pairwise keys, expanded on first use.
    expect_work(work[ResumedChain::kClient], {252, 51, 21, 5}, "client");
    expect_work(work[ResumedChain::kMbox0], {94, 0, 24, 2}, "mbox0");
    expect_work(work[ResumedChain::kMbox1], {112, 0, 28, 2}, "mbox1");
    expect_work(work[ResumedChain::kServer], {252, 51, 21, 5}, "server");
}

// chainbench's handshake_resumed operation, counted: 16 contexts in its
// four-row permission pattern, two middleboxes, every party drawing from
// one HmacDrbg, each session built and then driven to completion. Per party:
// SHA-256 compressions, AES key expansions and heap allocations (every
// operator new, tests/alloc_counter.h), construction included.
TEST_F(ExactCounts, ResumedSixteenContextHandshakeInChainbenchShape)
{
    const char* const purpose[4] = {"req-hdr", "resp-hdr", "resp-body", "req-body"};
    const Permission rows[4][2] = {{Permission::read, Permission::none},
                                   {Permission::none, Permission::write},
                                   {Permission::read, Permission::none},
                                   {Permission::write, Permission::read}};
    std::vector<ContextDescription> contexts;
    for (size_t i = 0; i < 16; ++i) {
        std::string name = purpose[i % 4];
        if (i >= 4) name += "." + std::to_string(i / 4);
        contexts.push_back({static_cast<uint8_t>(i + 1), name, {rows[i % 4][0], rows[i % 4][1]}});
    }
    ResumedChain chain(contexts, /*chainbench=*/true);

    struct Cost {
        uint64_t sha256_blocks = 0;
        uint64_t aes_expansions = 0;
        uint64_t allocations = 0;
    };
    std::array<Cost, 4> cost;
    auto measure = [&](ResumedChain::PartyId p, auto&& call) {
        uint64_t allocs = mct::test::heap_allocations();
        WorkCounts w = count(call);
        cost[p].allocations += mct::test::heap_allocations() - allocs;
        cost[p].sha256_blocks += w.sha256_blocks;
        cost[p].aes_expansions += w.aes_expansions;
    };
    // Client, mbox0, mbox1, server, as chainbench constructs them.
    for (int p = ResumedChain::kClient; p <= ResumedChain::kServer; ++p) {
        auto party = static_cast<ResumedChain::PartyId>(p);
        measure(party, [&] { chain.build(party, &chain.ticket); });
    }
    chain.resume(measure);

    const char* names[4] = {"client", "mbox0", "mbox1", "server"};
    const Cost want[4] = {{820, 6, 358}, {302, 3, 257}, {226, 3, 256}, {812, 6, 376}};
    for (size_t p = 0; p < 4; ++p) {
        EXPECT_EQ(cost[p].sha256_blocks, want[p].sha256_blocks) << names[p];
        EXPECT_EQ(cost[p].aes_expansions, want[p].aes_expansions) << names[p];
        EXPECT_EQ(cost[p].allocations, want[p].allocations) << names[p];
    }
}

}  // namespace
}  // namespace mct::mctls
