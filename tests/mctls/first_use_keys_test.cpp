// Context keys derived on first use (ContextTable::keys), checked against
// the eager forms over seeded random permission tables: the table against
// combine_context_keys / combine_reader_keys byte for byte, and whole chains
// (1-16 contexts, 0-3 middleboxes, full and resumed handshakes, contributory
// and client-key-distribution modes) against the keys a keylog makes every
// endpoint derive inside the handshake. Rekeys started before any record,
// with and without a revocation, close it out.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "crypto/sha2.h"
#include "mctls/key_schedule.h"
#include "mctls/resumption.h"
#include "tests/mctls/harness.h"
#include "tls/keylog.h"

namespace mct::mctls {
namespace {

using test::ChainEnv;

KeyHalf random_half(TestRng& rng)
{
    KeyHalf h;
    rng.fill(h);
    return h;
}

// 1-16 contexts with distinct random ids and a random permission per
// middlebox.
std::vector<ContextDescription> random_contexts(TestRng& rng, size_t n_mbox)
{
    std::vector<uint8_t> ids(kMaxContexts);
    std::iota(ids.begin(), ids.end(), uint8_t{1});
    for (size_t i = ids.size() - 1; i > 0; --i) std::swap(ids[i], ids[rng.next() % (i + 1)]);
    std::vector<ContextDescription> contexts(1 + rng.next() % 16);
    for (size_t c = 0; c < contexts.size(); ++c) {
        contexts[c].id = ids[c];
        contexts[c].purpose = "ctx" + std::to_string(ids[c]);
        for (size_t m = 0; m < n_mbox; ++m)
            contexts[c].permissions.push_back(static_cast<Permission>(rng.next() % 3));
    }
    return contexts;
}

TEST(FirstUseKeys, TableDerivationMatchesEagerCombine)
{
    TestRng rng(2801);
    for (int round = 0; round < 200; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        ContextTable table;
        std::vector<ContextDescription> contexts = random_contexts(rng, 0);
        table.assign(contexts);
        Bytes rand_c = rng.bytes(32), rand_s = rng.bytes(32);
        table.set_seed(rand_c, rand_s);

        std::map<uint8_t, ContextKeys> eager;
        for (ContextEntry& e : table.entries()) {
            PartialContextKeys c{random_half(rng), random_half(rng)};
            PartialContextKeys s{random_half(rng), random_half(rng)};
            bool writer = rng.next() % 2;
            table.combine(e, writer ? ContextSecrets::join(c, s)
                                    : ContextSecrets::join(c.reader_half, s.reader_half),
                          /*pending=*/false);
            eager[e.desc.id] = writer ? combine_context_keys(c, s, rand_c, rand_s)
                                      : combine_reader_keys(c.reader_half, s.reader_half,
                                                            rand_c, rand_s);
            // The access is known before anything is derived.
            for (Direction d : {Direction::client_to_server, Direction::server_to_client})
                EXPECT_EQ(e.access(d), writer ? Permission::write : Permission::read);
            // A pending epoch is derived at once, by the same routine.
            if (rng.next() % 4 == 0) {
                table.combine(e, ContextSecrets::join(s, c), /*pending=*/true);
                ASSERT_NE(e.next, nullptr);
                EXPECT_EQ(e.next->serialize(true),
                          combine_context_keys(s, c, rand_c, rand_s).serialize(true));
            }
        }
        // First use in a random order; a second use returns the same keys.
        std::vector<ContextEntry*> order;
        for (ContextEntry& e : table.entries()) order.push_back(&e);
        for (size_t i = order.size() - 1; i > 0; --i)
            std::swap(order[i], order[rng.next() % (i + 1)]);
        for (ContextEntry* e : order) {
            const ContextKeys& keys = table.keys(*e);
            EXPECT_EQ(keys.serialize(true), eager[e->desc.id].serialize(true));
            EXPECT_EQ(&table.keys(*e), &keys);
            EXPECT_EQ(e->access(Direction::client_to_server),
                      eager[e->desc.id].access(Direction::client_to_server));
        }
    }
}

// One seeded chain scenario, run twice with identical draws: once with a
// keylog at both endpoints (which derives every context's keys inside the
// handshake) and once without (every key derived on first use).
struct Scenario {
    size_t n_mbox;
    std::vector<ContextDescription> contexts;
    bool ckd;
    bool resumed;
    bool records_first;  // first use by a record, or by a key query
};

// What one run exposes about every party's keys after records flowed.
struct Observed {
    std::map<uint8_t, Bytes> client_fp, server_fp;
    std::vector<std::map<uint8_t, Bytes>> mbox_keys;  // serialized; absent = no access
    std::map<uint8_t, ContextKeys> client_log;         // the last handshake's lines
};

Bytes fingerprint(const ContextKeys& keys)
{
    auto digest = crypto::Sha256::digest(keys.serialize(/*writer=*/true));
    return Bytes(digest.begin(), digest.end());
}

// "MCTLS_CONTEXT <client random> <epoch> <id> <six keys, '-' when absent>"
std::pair<uint8_t, ContextKeys> parse_context_line(const std::string& line)
{
    std::istringstream in(line);
    std::vector<std::string> tok;
    for (std::string t; in >> t;) tok.push_back(t);
    EXPECT_EQ(tok.size(), 10u) << line;
    EXPECT_EQ(tok.at(2), "0") << line;
    auto field = [&](size_t i) { return tok.at(i) == "-" ? Bytes{} : from_hex(tok.at(i)); };
    ContextKeys keys;
    for (int d = 0; d < 2; ++d) {
        keys.reader_enc[d] = field(4 + d);
        keys.reader_mac[d] = field(6 + d);
        keys.writer_mac[d] = field(8 + d);
    }
    return {static_cast<uint8_t>(std::stoi(tok.at(3))), keys};
}

Observed run_scenario(const Scenario& sc, bool keylog)
{
    ChainEnv env;
    tls::KeyLogMemory client_log, server_log;
    ServerSessionCache server_cache;
    std::vector<MiddleboxSessionCache> mbox_caches(sc.n_mbox);
    std::vector<MiddleboxInfo> infos = env.make_middleboxes(sc.n_mbox);
    ResumptionTicket ticket;

    auto build = [&](const ResumptionTicket* resume) {
        auto ccfg = env.client_config(infos, sc.contexts);
        ccfg.ticket = resume;
        if (keylog) ccfg.keylog = &client_log;
        env.client = std::make_unique<Session>(ccfg);
        auto scfg = env.server_config();
        scfg.client_key_distribution = sc.ckd;
        scfg.session_cache = &server_cache;
        if (keylog) scfg.keylog = &server_log;
        env.server = std::make_unique<Session>(scfg);
        env.mboxes.clear();
        for (size_t i = 0; i < sc.n_mbox; ++i) {
            auto mcfg = env.mbox_config(i);
            mcfg.session_cache = &mbox_caches[i];
            env.mboxes.push_back(std::make_unique<MiddleboxSession>(mcfg));
        }
        env.handshake();
    };
    build(nullptr);
    if (sc.resumed) {
        ticket = env.client->ticket();
        build(&ticket);
        EXPECT_TRUE(env.client->resumed());
    }
    EXPECT_TRUE(env.all_complete()) << env.client->error() << " / " << env.server->error();

    Observed o;
    auto query = [&] {
        for (const ContextDescription& c : sc.contexts) {
            o.client_fp[c.id] = env.client->context_key_fingerprint(c.id);
            o.server_fp[c.id] = env.server->context_key_fingerprint(c.id);
        }
        o.mbox_keys.assign(sc.n_mbox, {});
        for (size_t m = 0; m < sc.n_mbox; ++m)
            for (const ContextDescription& c : sc.contexts)
                if (const ContextKeys* k = env.mboxes[m]->context_keys(c.id))
                    o.mbox_keys[m][c.id] = k->serialize(k->can_write());
    };
    if (!sc.records_first) query();
    // Every record round-trips, in both directions, on every context.
    for (const ContextDescription& c : sc.contexts) {
        EXPECT_TRUE(env.client->send_app_data(c.id, str_to_bytes("up" + c.purpose)).ok());
        EXPECT_TRUE(env.server->send_app_data(c.id, str_to_bytes("down" + c.purpose)).ok());
    }
    env.pump();
    auto got_server = env.server->take_app_data();
    auto got_client = env.client->take_app_data();
    EXPECT_EQ(got_server.size(), sc.contexts.size());
    EXPECT_EQ(got_client.size(), sc.contexts.size());
    for (size_t i = 0; i < sc.contexts.size() && i < got_server.size() && i < got_client.size();
         ++i) {
        const ContextDescription& c = sc.contexts[i];
        EXPECT_EQ(got_server[i].context_id, c.id);
        EXPECT_EQ(bytes_to_str(got_server[i].data), "up" + c.purpose);
        EXPECT_EQ(got_client[i].context_id, c.id);
        EXPECT_EQ(bytes_to_str(got_client[i].data), "down" + c.purpose);
    }
    // Each middlebox opened exactly the records of its grant.
    for (size_t m = 0; m < sc.n_mbox; ++m) {
        auto records = [&](Permission p) {
            return 2 * std::count_if(sc.contexts.begin(), sc.contexts.end(),
                                     [&](const ContextDescription& c) {
                                         return c.permissions[m] == p;
                                     });
        };
        EXPECT_EQ(env.mboxes[m]->records_read(), records(Permission::read)) << "mbox" << m;
        EXPECT_EQ(env.mboxes[m]->records_forwarded_blind(), records(Permission::none))
            << "mbox" << m;
    }
    if (sc.records_first) query();
    // The last handshake's lines (a resumed run logged the first one too).
    for (const std::string& line : client_log.lines()) {
        if (line.rfind("MCTLS_CONTEXT ", 0) != 0) continue;
        auto [id, keys] = parse_context_line(line);
        o.client_log.insert_or_assign(id, keys);
    }
    if (keylog) {
        EXPECT_EQ(client_log.lines(), server_log.lines());
    }
    return o;
}

TEST(FirstUseKeys, ChainsMatchKeysDerivedInTheHandshake)
{
    TestRng rng(2802);
    for (int round = 0; round < 32; ++round) {
        Scenario sc;
        sc.n_mbox = rng.next() % 4;
        sc.contexts = random_contexts(rng, sc.n_mbox);
        sc.ckd = rng.next() % 3 == 0;
        sc.resumed = rng.next() % 2;
        sc.records_first = rng.next() % 2;
        SCOPED_TRACE("round " + std::to_string(round) + ": " + std::to_string(sc.n_mbox) +
                     " mboxes, " + std::to_string(sc.contexts.size()) + " contexts" +
                     (sc.ckd ? ", ckd" : "") + (sc.resumed ? ", resumed" : "") +
                     (sc.records_first ? ", records first" : ", keys first"));
        Observed eager = run_scenario(sc, /*keylog=*/true);
        Observed lazy = run_scenario(sc, /*keylog=*/false);

        EXPECT_EQ(lazy.client_fp, eager.client_fp);
        EXPECT_EQ(lazy.server_fp, eager.server_fp);
        EXPECT_EQ(lazy.client_fp, lazy.server_fp);
        EXPECT_EQ(lazy.mbox_keys, eager.mbox_keys);
        // The keylog's bytes, written inside the handshake, are the keys
        // the endpoints derive on first use.
        ASSERT_EQ(eager.client_log.size(), sc.contexts.size());
        for (const auto& [id, keys] : eager.client_log)
            EXPECT_EQ(fingerprint(keys), lazy.client_fp[id]) << "context " << int(id);
        // A middlebox holds exactly the reader (and, for writers, writer)
        // keys of its grant, equal to the endpoints'.
        for (size_t m = 0; m < sc.n_mbox; ++m) {
            for (const ContextDescription& c : sc.contexts) {
                auto it = lazy.mbox_keys[m].find(c.id);
                ASSERT_EQ(it != lazy.mbox_keys[m].end(), c.permissions[m] != Permission::none);
                if (it == lazy.mbox_keys[m].end()) continue;
                EXPECT_EQ(it->second,
                          eager.client_log[c.id].serialize(c.permissions[m] == Permission::write))
                    << "mbox" << m << " context " << int(c.id);
            }
        }
    }
}

// A contributory chain after its handshake, no record sent yet: every
// context's keys are still underived at every party.
struct IdleChain {
    ChainEnv env;
    std::vector<ContextDescription> contexts;
    std::vector<std::vector<std::string>> observed;  // per middlebox: payloads read

    explicit IdleChain(TestRng& rng)
    {
        size_t n_mbox = 1 + rng.next() % 3;
        contexts = random_contexts(rng, n_mbox);
        auto infos = env.make_middleboxes(n_mbox);
        env.client = std::make_unique<Session>(env.client_config(infos, contexts));
        env.server = std::make_unique<Session>(env.server_config());
        observed.resize(n_mbox);
        for (size_t i = 0; i < n_mbox; ++i) {
            auto mcfg = env.mbox_config(i);
            mcfg.observe = [this, i](uint8_t, Direction, ConstBytes payload) {
                observed[i].push_back(bytes_to_str(payload));
            };
            env.mboxes.push_back(std::make_unique<MiddleboxSession>(mcfg));
        }
        env.handshake();
        EXPECT_TRUE(env.all_complete());
    }

    // The observers hold `this`.
    IdleChain(const IdleChain&) = delete;
    IdleChain& operator=(const IdleChain&) = delete;

    // One record each way on every context.
    void send_all(const std::string& tag)
    {
        for (const ContextDescription& c : contexts) {
            EXPECT_TRUE(env.client->send_app_data(c.id, str_to_bytes(tag + "up")).ok());
            EXPECT_TRUE(env.server->send_app_data(c.id, str_to_bytes(tag + "down")).ok());
        }
    }
    // What each context carried up and down since the last call.
    void expect_delivered(const std::string& tags_up, const std::string& tags_down)
    {
        std::map<uint8_t, std::string> up, down;
        for (auto& chunk : env.server->take_app_data())
            up[chunk.context_id] += bytes_to_str(chunk.data);
        for (auto& chunk : env.client->take_app_data())
            down[chunk.context_id] += bytes_to_str(chunk.data);
        for (const ContextDescription& c : contexts) {
            EXPECT_EQ(up[c.id], tags_up) << "context " << int(c.id);
            EXPECT_EQ(down[c.id], tags_down) << "context " << int(c.id);
        }
    }
};

TEST(FirstUseKeys, RevokedBeforeAnyRecordNeverReads)
{
    TestRng rng(2803);
    for (int round = 0; round < 24; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        IdleChain chain(rng);
        ChainEnv& env = chain.env;
        size_t revoked = rng.next() % env.mboxes.size();
        ASSERT_TRUE(env.client->initiate_rekey({env.client->middleboxes()[revoked].name}).ok());
        env.pump();
        ASSERT_EQ(env.client->epoch(), 1u);
        ASSERT_EQ(env.server->epoch(), 1u);
        for (const ContextDescription& c : chain.contexts) {
            EXPECT_EQ(env.mboxes[revoked]->permission(c.id), Permission::none);
            EXPECT_EQ(env.mboxes[revoked]->context_keys(c.id), nullptr);
        }
        chain.send_all("a");
        chain.send_all("b");
        env.pump();
        chain.expect_delivered("aupbup", "adownbdown");
        EXPECT_TRUE(chain.observed[revoked].empty());
        EXPECT_EQ(env.mboxes[revoked]->records_read(), 0u);
        EXPECT_EQ(env.mboxes[revoked]->records_rewritten(), 0u);
        EXPECT_EQ(env.mboxes[revoked]->records_forwarded_blind(), 4 * chain.contexts.size());
        // Every other middlebox still reads what it was granted.
        for (size_t m = 0; m < env.mboxes.size(); ++m) {
            if (m == revoked) continue;
            size_t granted = std::count_if(
                chain.contexts.begin(), chain.contexts.end(),
                [m](const ContextDescription& c) { return c.permissions[m] == Permission::read; });
            EXPECT_EQ(env.mboxes[m]->records_read(), 4 * granted) << "mbox" << m;
        }
    }
}

TEST(FirstUseKeys, RekeyOverUnderivedKeysCarriesBothDirections)
{
    TestRng rng(2804);
    for (int round = 0; round < 24; ++round) {
        bool in_flight = round % 2;
        SCOPED_TRACE("round " + std::to_string(round) + (in_flight ? ", in flight" : ", idle"));
        TestRng twin_rng = rng;
        IdleChain chain(rng);
        ChainEnv& env = chain.env;
        ASSERT_TRUE(env.client->initiate_rekey().ok());
        if (in_flight) {
            // The client's init and its first records leave together; the
            // server's first records cross the init on the wire. Both run
            // under epoch 0 keys no party has derived yet.
            chain.send_all("a");
            env.pump();
        } else {
            // The whole rekey runs before any party derives epoch 0.
            env.pump();
            IdleChain twin(twin_rng);  // the same draws, never rekeyed
            for (const ContextDescription& c : chain.contexts)
                EXPECT_NE(env.client->context_key_fingerprint(c.id),
                          twin.env.client->context_key_fingerprint(c.id))
                    << "context " << int(c.id) << " still runs on epoch 0";
            chain.send_all("a");
        }
        ASSERT_EQ(env.client->epoch(), 1u);
        ASSERT_EQ(env.server->epoch(), 1u);
        chain.send_all("b");
        env.pump();
        chain.expect_delivered("aupbup", "adownbdown");
        for (const ContextDescription& c : chain.contexts)
            EXPECT_EQ(env.client->context_key_fingerprint(c.id),
                      env.server->context_key_fingerprint(c.id));
        for (size_t m = 0; m < env.mboxes.size(); ++m) {
            EXPECT_EQ(env.mboxes[m]->epoch(), 1u);
            size_t readable = std::count_if(
                chain.contexts.begin(), chain.contexts.end(),
                [m](const ContextDescription& c) { return c.permissions[m] != Permission::none; });
            EXPECT_EQ(chain.observed[m].size(), 4 * readable) << "mbox" << m;
        }
    }
}

}  // namespace
}  // namespace mct::mctls
