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
#include "crypto/cpu.h"
#include "crypto/drbg.h"
#include "mctls/context_crypto.h"
#include "mctls/key_schedule.h"
#include "mctls/resumption.h"
#include "tests/mctls/harness.h"
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
// A CryptoDispatch that forwards every slot to the table active when it was
// installed and counts the work: SHA-256 compressions, AES block
// encryptions (single and CBC), AES block decryptions, key expansions.
// Installed before the sessions are built, since Aes128 and Sha256 bind
// their table at construction.
struct WorkCounts {
    uint64_t sha256_blocks = 0;
    uint64_t aes_enc_blocks = 0;
    uint64_t aes_dec_blocks = 0;
    uint64_t aes_expansions = 0;

    WorkCounts& operator+=(const WorkCounts& rhs)
    {
        sha256_blocks += rhs.sha256_blocks;
        aes_enc_blocks += rhs.aes_enc_blocks;
        aes_dec_blocks += rhs.aes_dec_blocks;
        aes_expansions += rhs.aes_expansions;
        return *this;
    }
};

void expect_work(const WorkCounts& got, const WorkCounts& want, const char* party)
{
    EXPECT_EQ(got.sha256_blocks, want.sha256_blocks) << party;
    EXPECT_EQ(got.aes_enc_blocks, want.aes_enc_blocks) << party;
    EXPECT_EQ(got.aes_dec_blocks, want.aes_dec_blocks) << party;
    EXPECT_EQ(got.aes_expansions, want.aes_expansions) << party;
}

WorkCounts g_work;
const crypto::CryptoDispatch* g_base = nullptr;

const crypto::CryptoDispatch& counting_dispatch()
{
    static const crypto::CryptoDispatch table{
        "counting",
        [](const uint8_t key[16], uint8_t rk[176], uint8_t drk[176]) {
            ++g_work.aes_expansions;
            g_base->aes128_expand(key, rk, drk);
        },
        [](const uint8_t rk[176], const uint8_t in[16], uint8_t out[16]) {
            ++g_work.aes_enc_blocks;
            g_base->aes128_encrypt_block(rk, in, out);
        },
        [](const uint8_t rk[176], const uint8_t drk[176], const uint8_t in[16], uint8_t out[16]) {
            ++g_work.aes_dec_blocks;
            g_base->aes128_decrypt_block(rk, drk, in, out);
        },
        [](const uint8_t rk[176], uint8_t chain[16], const uint8_t* in, uint8_t* out,
           size_t nblocks) {
            g_work.aes_enc_blocks += nblocks;
            g_base->aes128_cbc_encrypt_blocks(rk, chain, in, out, nblocks);
        },
        [](const uint8_t rk[176], const uint8_t drk[176], const uint8_t iv[16], const uint8_t* in,
           uint8_t* out, size_t nblocks) {
            g_work.aes_dec_blocks += nblocks;
            g_base->aes128_cbc_decrypt_blocks(rk, drk, iv, in, out, nblocks);
        },
        [](uint32_t state[8], const uint8_t* blocks, size_t nblocks) {
            g_work.sha256_blocks += nblocks;
            g_base->sha256_compress(state, blocks, nblocks);
        },
    };
    return table;
}

class ExactCounts : public ::testing::Test {
protected:
    static const crypto::CryptoDispatch& install()
    {
        g_base = &crypto::dispatch();
        return counting_dispatch();
    }

    template <class F>
    WorkCounts count(F&& work)
    {
        g_work = {};
        work();
        return g_work;
    }

    crypto::ScopedDispatchOverride pin_{install()};
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

// One session-level 64 B mcTLS application seal: three MACs of 3
// compressions each (two inner blocks over the 14 B pseudo-header and the
// payload, one outer) and 12 AES blocks (the IV, then CBC over 64 B payload
// + 3 x 32 B MACs + 16 B padding). When the session drew each IV from its
// HmacDrbg, the same seal cost 17 compressions and 11 blocks, as the
// record-layer seal with a DRBG-drawn IV below still does.
TEST_F(ExactCounts, SessionSealOf64BytesIsNineCompressionsTwelveBlocks)
{
    WriterChain chain;
    ASSERT_TRUE(chain.env.all_complete());
    Bytes payload(64, 0x64);
    WorkCounts seal =
        count([&] { ASSERT_TRUE(chain.env.client->send_app_data(kCtx, payload).ok()); });
    EXPECT_EQ(seal.sha256_blocks, 9u);
    EXPECT_EQ(seal.aes_enc_blocks, 12u);
    EXPECT_EQ(seal.aes_dec_blocks, 0u);
    EXPECT_EQ(seal.aes_expansions, 0u);

    TestRng rng(6);
    Bytes rand_c = rng.bytes(32), rand_s = rng.bytes(32);
    EndpointKeys endpoint = derive_endpoint_keys(rng.bytes(48), rand_c, rand_s);
    ContextKeys ctx = combine_context_keys(derive_partial_keys(rng.bytes(48), rand_c, kCtx),
                                           derive_partial_keys(rng.bytes(48), rand_s, kCtx),
                                           rand_c, rand_s);
    crypto::HmacDrbg drbg(rng.bytes(32));
    Bytes out;
    WorkCounts drbg_seal = count([&] {
        seal_record_into(ctx, endpoint, Direction::client_to_server, 0, kCtx, payload, drbg, out);
    });
    EXPECT_EQ(drbg_seal.sha256_blocks, 17u);
    EXPECT_EQ(drbg_seal.aes_enc_blocks, 11u);
}

// One resumed handshake, client -> mbox0 -> mbox1 -> server with four
// contexts of mixed permissions, resuming the session of a full handshake:
// each party's primitive work from the client's start() until the chain
// goes quiet. A pump tap names the party each unit is delivered to and the
// probe charges that delivery's work to it. Pinned by value, with no
// wall-clock noise: a refactor of the handshake must leave every count
// as it is.
TEST_F(ExactCounts, ResumedHandshakeWithTwoMiddleboxesAndFourContexts)
{
    ChainEnv env;
    ServerSessionCache server_cache;
    std::array<MiddleboxSessionCache, 2> mbox_caches;
    auto infos = env.make_middleboxes(2);
    std::vector<ContextDescription> contexts;
    const Permission table[4][2] = {{Permission::read, Permission::write},
                                    {Permission::write, Permission::read},
                                    {Permission::none, Permission::read},
                                    {Permission::write, Permission::write}};
    for (uint8_t id = 1; id <= 4; ++id)
        contexts.push_back({id, "ctx" + std::to_string(id), {table[id - 1][0], table[id - 1][1]}});
    auto build = [&](const ResumptionTicket* ticket) {
        auto ccfg = env.client_config(infos, contexts);
        ccfg.ticket = ticket;
        env.client = std::make_unique<Session>(ccfg);
        auto scfg = env.server_config();
        scfg.session_cache = &server_cache;
        env.server = std::make_unique<Session>(scfg);
        env.mboxes.clear();
        for (size_t i = 0; i < 2; ++i) {
            auto mcfg = env.mbox_config(i);
            mcfg.session_cache = &mbox_caches[i];
            env.mboxes.push_back(std::make_unique<MiddleboxSession>(mcfg));
        }
    };
    build(nullptr);
    env.handshake();
    ASSERT_TRUE(env.all_complete());
    ResumptionTicket ticket = env.client->ticket();
    build(&ticket);

    WorkCounts client = count([&] { env.client->start(); });
    WorkCounts server;
    std::array<WorkCounts, 2> mbox;
    WorkCounts* to = nullptr;
    // Hops 0 and 1 deliver to mbox 0 and 1, hop 2 to the server, hops 3
    // and 4 to mbox 1 and 0, hop 5 to the client.
    auto tap = [&](size_t hop, const Bytes&) {
        to = hop == 2 ? &server : hop == 5 ? &client : &mbox[hop < 2 ? hop : 4 - hop];
    };
    auto probe = [&](chain::Party, auto&& call) {
        g_work = {};
        (void)call();
        *to += g_work;
    };
    ASSERT_TRUE(chain::pump(*env.client, env.mboxes, *env.server, probe, tap));
    ASSERT_TRUE(env.all_complete());
    ASSERT_TRUE(env.client->resumed());

    // {SHA-256 compressions, AES blocks encrypted, AES blocks decrypted,
    // AES key expansions}. The endpoints mirror each other; the middleboxes
    // only open their halves, and mbox1 opens more because it holds keys
    // for more contexts.
    expect_work(client, {284, 51, 21, 13}, "client");
    expect_work(mbox[0], {114, 0, 24, 8}, "mbox0");
    expect_work(mbox[1], {136, 0, 28, 10}, "mbox1");
    expect_work(server, {284, 51, 21, 13}, "server");
}

}  // namespace
}  // namespace mct::mctls
