// Session continuity (DESIGN.md "Session continuity"): abbreviated mcTLS
// handshakes from cached tickets, middlebox rejoin, clean fallback on a
// server cache miss, in-band rekeying with data in flight, middlebox
// revocation, and live excision of a dead middlebox.
#include "mctls/resumption.h"

#include <gtest/gtest.h>

#include <sstream>

#include "mctls/key_schedule.h"
#include "mctls/messages.h"
#include "mctls/session.h"
#include "tls/keylog.h"
#include "tests/mctls/harness.h"

namespace mct::mctls {
namespace {

using test::ChainEnv;
using test::ctx_row;

// ChainEnv plus the continuity stores: a server-side ticket cache, one
// pairwise-key cache per middlebox, and the client's last ticket.
struct ResumeEnv : ChainEnv {
    ServerSessionCache server_cache;
    std::vector<MiddleboxSessionCache> mbox_caches;
    ResumptionTicket client_ticket;
    std::vector<MiddleboxInfo> infos;
    std::vector<ContextDescription> ctxs;
    bool ckd = false;

    void full_handshake(size_t n, std::vector<ContextDescription> contexts,
                        bool use_ckd = false)
    {
        ctxs = contexts;
        ckd = use_ckd;
        infos = make_middleboxes(n);
        mbox_caches.resize(n);
        client = std::make_unique<Session>(client_config(infos, std::move(contexts)));
        auto scfg = server_config();
        scfg.client_key_distribution = ckd;
        scfg.session_cache = &server_cache;
        server = std::make_unique<Session>(scfg);
        for (size_t i = 0; i < n; ++i) {
            auto mcfg = mbox_config(i);
            mcfg.session_cache = &mbox_caches[i];
            mboxes.push_back(std::make_unique<MiddleboxSession>(std::move(mcfg)));
        }
        handshake();
    }

    // Tear the chain down and reconnect, keeping only the middleboxes at
    // `keep` (indices into the original list). keep == all -> plain resume;
    // a subset -> excision of the absent middleboxes.
    void resume(const std::vector<size_t>& keep)
    {
        client_ticket = client->ticket();
        ASSERT_TRUE(client_ticket.valid());
        std::vector<MiddleboxInfo> rinfos;
        for (size_t idx : keep) rinfos.push_back(infos[idx]);
        std::vector<ContextDescription> rctxs = ctxs;
        for (auto& ctx : rctxs) {
            std::vector<Permission> kept;
            for (size_t idx : keep)
                if (idx < ctx.permissions.size()) kept.push_back(ctx.permissions[idx]);
            ctx.permissions = std::move(kept);
        }
        auto ccfg = client_config(rinfos, std::move(rctxs));
        ccfg.ticket = &client_ticket;
        client = std::make_unique<Session>(ccfg);
        auto scfg = server_config();
        scfg.client_key_distribution = ckd;
        scfg.session_cache = &server_cache;
        server = std::make_unique<Session>(scfg);
        mboxes.clear();
        for (size_t idx : keep) {
            auto mcfg = mbox_config(idx);
            mcfg.session_cache = &mbox_caches[idx];
            mboxes.push_back(std::make_unique<MiddleboxSession>(std::move(mcfg)));
        }
        handshake();
    }
};

Bytes drain(Session& session)
{
    Bytes out;
    for (auto& chunk : session.take_app_data()) append(out, chunk.data);
    return out;
}

TEST(Resumption, AbbreviatedHandshakeThroughMiddlebox)
{
    ResumeEnv env;
    env.full_handshake(1, {ctx_row(1, "data", 1, Permission::read)});
    ASSERT_TRUE(env.all_complete());
    ASSERT_FALSE(env.client->resumed());
    uint64_t full_bytes = env.client->handshake_wire_bytes();
    Bytes fp_before = env.client->context_key_fingerprint(1);
    ASSERT_FALSE(fp_before.empty());

    env.resume({0});
    ASSERT_TRUE(env.all_complete())
        << env.client->error() << " / " << env.server->error();
    EXPECT_TRUE(env.client->resumed());
    EXPECT_TRUE(env.server->resumed());
    EXPECT_TRUE(env.mboxes[0]->resumed());
    // No certificates, no DH: the abbreviated handshake is much smaller.
    EXPECT_LT(env.client->handshake_wire_bytes(), full_bytes);

    // Both endpoints contributed FRESH halves: the context keys rotated,
    // and both ends agree on the new material.
    Bytes fp_after = env.client->context_key_fingerprint(1);
    EXPECT_NE(fp_after, fp_before);
    EXPECT_EQ(fp_after, env.server->context_key_fingerprint(1));

    // Data flows, and the rejoined middlebox can still read it.
    ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("GET /")).ok());
    env.pump();
    EXPECT_EQ(bytes_to_str(drain(*env.server)), "GET /");
    EXPECT_EQ(env.mboxes[0]->records_read(), 1u);
    ASSERT_TRUE(env.server->send_app_data(1, str_to_bytes("200 OK")).ok());
    env.pump();
    EXPECT_EQ(bytes_to_str(drain(*env.client)), "200 OK");
}

TEST(Resumption, CacheMissFallsBackToFullHandshake)
{
    ResumeEnv env;
    env.full_handshake(1, {ctx_row(1, "data", 1, Permission::read)});
    ASSERT_TRUE(env.all_complete());

    // Server lost the session state: the offer must be rejected and the
    // connection completed via a clean full handshake.
    env.server_cache.erase(env.client->ticket().session_id);
    env.resume({0});
    ASSERT_TRUE(env.all_complete())
        << env.client->error() << " / " << env.server->error();
    EXPECT_FALSE(env.client->resumed());
    EXPECT_FALSE(env.server->resumed());
    EXPECT_FALSE(env.mboxes[0]->resumed());

    ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("ping")).ok());
    env.pump();
    EXPECT_EQ(bytes_to_str(drain(*env.server)), "ping");
    // The fallback minted a replacement ticket under a fresh id.
    EXPECT_NE(env.client->ticket().session_id, env.client_ticket.session_id);
}

TEST(Resumption, CkdSessionsResumeToo)
{
    ResumeEnv env;
    env.full_handshake(1, {ctx_row(1, "data", 1, Permission::read)},
                       /*use_ckd=*/true);
    ASSERT_TRUE(env.all_complete());
    Bytes fp_before = env.client->context_key_fingerprint(1);

    env.resume({0});
    ASSERT_TRUE(env.all_complete())
        << env.client->error() << " / " << env.server->error() << " / mbox: "
        << env.mboxes[0]->error();
    EXPECT_TRUE(env.client->resumed());
    EXPECT_TRUE(env.server->resumed());
    EXPECT_TRUE(env.mboxes[0]->resumed());
    EXPECT_NE(env.client->context_key_fingerprint(1), fp_before);

    ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("hi")).ok());
    env.pump();
    EXPECT_EQ(bytes_to_str(drain(*env.server)), "hi");
    EXPECT_EQ(env.mboxes[0]->records_read(), 1u);
}

TEST(Resumption, ExcisionRemovesWriteMiddleboxAndRotatesKeys)
{
    ResumeEnv env;
    env.full_handshake(2, {ctx_row(1, "data", 2, Permission::write)});
    ASSERT_TRUE(env.all_complete());
    Bytes fp_before = env.client->context_key_fingerprint(1);

    // mbox0 (write access over context 1) died; splice it out by resuming
    // with the reduced list. The context it could read gets fresh keys.
    env.resume({1});
    ASSERT_TRUE(env.all_complete())
        << env.client->error() << " / " << env.server->error();
    EXPECT_TRUE(env.client->resumed());
    EXPECT_TRUE(env.server->resumed());
    ASSERT_EQ(env.mboxes.size(), 1u);
    EXPECT_TRUE(env.mboxes[0]->resumed());
    EXPECT_EQ(env.client->middleboxes().size(), 1u);

    // The fresh halves were never sealed toward mbox0: its old context keys
    // cannot decrypt post-excision records.
    Bytes fp_after = env.client->context_key_fingerprint(1);
    EXPECT_NE(fp_after, fp_before);
    EXPECT_EQ(fp_after, env.server->context_key_fingerprint(1));

    // The survivor keeps its write grant; the endpoint MAC invariants hold
    // (the endpoints still accept the records the survivor re-MACs).
    EXPECT_EQ(env.client->granted_permission(0, 1), Permission::write);
    EXPECT_EQ(env.mboxes[0]->permission(1), Permission::write);
    ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("POST /")).ok());
    env.pump();
    EXPECT_EQ(bytes_to_str(drain(*env.server)), "POST /");

    // The server's cache entry narrowed to the surviving composition, so a
    // later resumption cannot silently re-admit the excised middlebox.
    const ResumptionTicket* cached =
        env.server_cache.find(env.client->ticket().session_id);
    ASSERT_NE(cached, nullptr);
    EXPECT_EQ(cached->middleboxes.size(), 1u);
}

TEST(Rekey, RekeyWithAppDataInFlight)
{
    ChainEnv env;
    env.build(1, {ctx_row(1, "data", 1, Permission::read)});
    env.handshake();
    ASSERT_TRUE(env.all_complete());
    Bytes fp_before = env.client->context_key_fingerprint(1);

    // Data queued on both directions BEFORE the rekey records flow: the
    // per-direction switch points must leave all of it decryptable.
    ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("before ")).ok());
    ASSERT_TRUE(env.client->initiate_rekey().ok());
    ASSERT_TRUE(env.server->send_app_data(1, str_to_bytes("reply ")).ok());
    env.pump();

    EXPECT_EQ(env.client->epoch(), 1u);
    EXPECT_EQ(env.server->epoch(), 1u);
    EXPECT_EQ(env.mboxes[0]->epoch(), 1u);
    EXPECT_EQ(env.client->rekeys_completed(), 1u);

    // Keys rotated and both ends agree.
    Bytes fp_after = env.client->context_key_fingerprint(1);
    EXPECT_NE(fp_after, fp_before);
    EXPECT_EQ(fp_after, env.server->context_key_fingerprint(1));

    // Post-rekey data flows in both directions, still readable in flight.
    ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("after")).ok());
    ASSERT_TRUE(env.server->send_app_data(1, str_to_bytes("done")).ok());
    env.pump();
    EXPECT_EQ(bytes_to_str(drain(*env.server)), "before after");
    EXPECT_EQ(bytes_to_str(drain(*env.client)), "reply done");
    EXPECT_EQ(env.mboxes[0]->records_read(), 4u);

    // Hygiene rekeys can repeat.
    ASSERT_TRUE(env.client->initiate_rekey().ok());
    env.pump();
    EXPECT_EQ(env.client->epoch(), 2u);
    EXPECT_EQ(env.server->epoch(), 2u);
    EXPECT_EQ(env.mboxes[0]->epoch(), 2u);
}

TEST(Rekey, RevocationDegradesMiddleboxToBlindForwarding)
{
    ChainEnv env;
    env.build(1, {ctx_row(1, "data", 1, Permission::read)});
    env.handshake();
    ASSERT_TRUE(env.all_complete());

    ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("visible")).ok());
    env.pump();
    EXPECT_EQ(env.mboxes[0]->records_read(), 1u);
    drain(*env.server);

    // Revoke the middlebox: it receives no fresh key material, so once the
    // epoch switches it can only forward, blind.
    ASSERT_TRUE(env.client->initiate_rekey({env.client->middleboxes()[0].name}).ok());
    env.pump();
    EXPECT_EQ(env.client->epoch(), 1u);
    EXPECT_EQ(env.server->epoch(), 1u);
    EXPECT_EQ(env.mboxes[0]->permission(1), Permission::none);
    // The epoch-0 keys are gone too, not merely unused.
    EXPECT_EQ(env.mboxes[0]->context_keys(1), nullptr);

    uint64_t blind_before = env.mboxes[0]->records_forwarded_blind();
    ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("secret")).ok());
    ASSERT_TRUE(env.server->send_app_data(1, str_to_bytes("hidden")).ok());
    env.pump();
    // End-to-end delivery still works; the revoked middlebox saw only
    // ciphertext it can no longer open.
    EXPECT_EQ(bytes_to_str(drain(*env.server)), "secret");
    EXPECT_EQ(bytes_to_str(drain(*env.client)), "hidden");
    EXPECT_EQ(env.mboxes[0]->records_read(), 1u);
    EXPECT_GT(env.mboxes[0]->records_forwarded_blind(), blind_before);
}

// Two orders a party exposes: the keylog lists MCTLS_CONTEXT lines in
// ascending context id, and session_stats() lists contexts in negotiated
// order, each row with its own counters. Both hold at epoch 0 and after a
// rekey.
TEST(Rekey, KeylogByIdStatsByNegotiatedOrder)
{
    ChainEnv env;
    auto infos = env.make_middleboxes(1);
    tls::KeyLogMemory client_log;
    tls::KeyLogMemory server_log;
    auto ccfg = env.client_config(infos, {ctx_row(3, "third", 1, Permission::read),
                                          ctx_row(1, "first", 1, Permission::write),
                                          ctx_row(2, "", 1, Permission::none)});
    ccfg.keylog = &client_log;
    env.client = std::make_unique<Session>(ccfg);
    auto scfg = env.server_config();
    scfg.keylog = &server_log;
    env.server = std::make_unique<Session>(scfg);
    env.mboxes.push_back(std::make_unique<MiddleboxSession>(env.mbox_config(0)));
    env.handshake();
    ASSERT_TRUE(env.all_complete());

    // (epoch, context id) of each MCTLS_CONTEXT line, in emission order.
    auto context_lines = [](const tls::KeyLogMemory& log) {
        std::vector<std::pair<unsigned, unsigned>> out;
        for (const auto& line : log.lines()) {
            std::istringstream in(line);
            std::string kind, random;
            unsigned epoch = 0, id = 0;
            in >> kind >> random >> epoch >> id;
            if (kind == "MCTLS_CONTEXT") out.emplace_back(epoch, id);
        }
        return out;
    };
    // Sends 3 bytes on context 3 and 1 byte on context 1 each way, then
    // checks every party's rows: negotiated order, counters on their row.
    uint64_t round = 0;
    auto check_stats = [&] {
        ++round;
        ASSERT_TRUE(env.client->send_app_data(3, str_to_bytes("ccc")).ok());
        ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("a")).ok());
        ASSERT_TRUE(env.server->send_app_data(3, str_to_bytes("ccc")).ok());
        ASSERT_TRUE(env.server->send_app_data(1, str_to_bytes("a")).ok());
        env.pump();
        drain(*env.client);
        drain(*env.server);
        const std::vector<obs::SessionStats> all = {env.client->session_stats(),
                                                    env.server->session_stats(),
                                                    env.mboxes[0]->session_stats()};
        for (const auto& s : all) {
            ASSERT_EQ(s.contexts.size(), 3u);
            EXPECT_EQ(s.contexts[0].id, 3);
            EXPECT_EQ(s.contexts[0].name, "third");
            EXPECT_EQ(s.contexts[1].id, 1);
            EXPECT_EQ(s.contexts[1].name, "first");
            EXPECT_EQ(s.contexts[2].id, 2);
            EXPECT_EQ(s.contexts[2].name, "ctx2");
            EXPECT_EQ(s.contexts[2].records_in, 0u);
        }
        for (const auto& s : {all[0], all[1]}) {
            EXPECT_EQ(s.contexts[0].records_in, round);
            EXPECT_EQ(s.contexts[1].records_in, round);
            EXPECT_EQ(s.contexts[0].bytes_out, 3 * round);
            EXPECT_EQ(s.contexts[1].bytes_out, round);
            EXPECT_EQ(s.contexts[0].bytes_in, 3 * round);
            EXPECT_EQ(s.contexts[1].bytes_in, round);
        }
        // The middlebox sees both directions inbound.
        EXPECT_EQ(all[2].contexts[0].records_in, 2 * round);
        EXPECT_EQ(all[2].contexts[1].records_in, 2 * round);
        EXPECT_EQ(all[2].contexts[0].bytes_in, 6 * round);
        EXPECT_EQ(all[2].contexts[1].bytes_in, 2 * round);
    };

    const std::vector<std::pair<unsigned, unsigned>> epoch0 = {{0, 1}, {0, 2}, {0, 3}};
    EXPECT_EQ(context_lines(client_log), epoch0);
    EXPECT_EQ(context_lines(server_log), epoch0);
    check_stats();

    ASSERT_TRUE(env.client->initiate_rekey().ok());
    env.pump();
    ASSERT_EQ(env.client->epoch(), 1u);
    ASSERT_EQ(env.mboxes[0]->epoch(), 1u);
    const std::vector<std::pair<unsigned, unsigned>> epoch1 = {{0, 1}, {0, 2}, {0, 3},
                                                               {1, 1}, {1, 2}, {1, 3}};
    EXPECT_EQ(context_lines(client_log), epoch1);
    EXPECT_EQ(context_lines(server_log), epoch1);
    check_stats();
}

TEST(Rekey, CkdSessionsRejectInBandRekey)
{
    ChainEnv env;
    env.build(1, {ctx_row(1, "data", 1, Permission::read)}, /*ckd=*/true);
    env.handshake();
    ASSERT_TRUE(env.all_complete());
    // Contributory rekeying needs both endpoints' halves; CKD sessions must
    // resume instead.
    EXPECT_FALSE(env.client->initiate_rekey().ok());
}

// ---- Hostile rekey records ------------------------------------------------
//
// Rekey records are plaintext control records, so an on-path party can drop,
// edit or forge them. Each case below edits one record on the hop next to
// the endpoint under test and checks that the endpoint fails closed with the
// expected alert.

RekeyRecord decode_rekey(ConstBytes unit)
{
    tls::RecordCodec codec{/*with_context_id=*/true};
    codec.feed(unit);
    auto record = codec.next_view();
    EXPECT_TRUE(record.ok() && record.value().has_value());
    EXPECT_EQ(record.value()->type, tls::ContentType::rekey);
    auto rk = RekeyRecord::parse(record.value()->payload);
    EXPECT_TRUE(rk.ok());
    return rk.value();
}

Bytes encode_rekey(const RekeyRecord& rk)
{
    tls::RecordCodec codec{/*with_context_id=*/true};
    return codec.encode({tls::ContentType::rekey, kControlContext, rk.serialize()});
}

void drop_entry(RekeyRecord& rk, uint8_t entity)
{
    std::erase_if(rk.entries, [&](const RekeyEntry& e) { return e.entity == entity; });
}

void flip_entry(RekeyRecord& rk, uint8_t entity)
{
    for (auto& e : rk.entries)
        if (e.entity == entity) e.sealed.back() ^= 0x01;
}

// The random of the ClientHello or ServerHello that opens `unit`; empty
// for any other unit.
Bytes hello_random(ConstBytes unit)
{
    tls::RecordCodec codec{/*with_context_id=*/true};
    codec.feed(unit);
    auto record = codec.next_view();
    if (!record.ok() || !record.value() || record.value()->type != tls::ContentType::handshake)
        return {};
    tls::HandshakeReader reader;
    reader.feed(record.value()->payload);
    auto msg = reader.next();
    if (!msg.ok() || !msg.value()) return {};
    if (msg.value()->type == tls::HandshakeType::client_hello)
        return tls::ClientHello::parse(msg.value()->body).value().random;
    if (msg.value()->type == tls::HandshakeType::server_hello)
        return tls::ServerHello::parse(msg.value()->body).value().random;
    return {};
}

// One established client -> mbox0 (read) -> server chain, with the two
// hello randoms as they crossed the wire.
struct HostileRekeyEnv : ChainEnv {
    Bytes client_random;
    Bytes server_random;

    HostileRekeyEnv()
    {
        build(1, {ctx_row(1, "data", 1, Permission::read)});
        client->start();
        // Hop 0 carries client -> mbox0, hop 2 server -> mbox0.
        auto tap = [&](size_t hop, const Bytes& unit) {
            Bytes& random = hop == 0 ? client_random : server_random;
            if ((hop == 0 || hop == 2) && random.empty()) random = hello_random(unit);
        };
        EXPECT_TRUE(chain::pump(*client, mboxes, *server, chain::NoProbe{}, tap)) << "livelock";
        EXPECT_TRUE(all_complete());
        EXPECT_EQ(client_random.size(), tls::kRandomSize);
        EXPECT_EQ(server_random.size(), tls::kRandomSize);
    }

    // The client's rekey init as it leaves the middlebox toward the server.
    RekeyRecord init_toward_server()
    {
        EXPECT_TRUE(client->initiate_rekey().ok());
        for (auto& unit : client->take_write_units()) (void)mboxes[0]->feed_from_client(unit);
        auto units = mboxes[0]->take_to_server();
        EXPECT_EQ(units.size(), 1u);
        return decode_rekey(units.at(0));
    }

    // The server's rekey response as it leaves the middlebox toward the
    // client (the init reached the server untouched).
    RekeyRecord resp_toward_client()
    {
        RekeyRecord init = init_toward_server();
        EXPECT_TRUE(server->feed(encode_rekey(init)).ok());
        for (auto& unit : server->take_write_units()) (void)mboxes[0]->feed_from_server(unit);
        auto units = mboxes[0]->take_to_client();
        EXPECT_EQ(units.size(), 1u);
        return decode_rekey(units.at(0));
    }
};

// `message` is matched as a prefix: an unsealing failure appends the
// AuthEnc error to it.
void expect_failed_closed(Session& session, tls::AlertDescription alert,
                          const std::string& message)
{
    EXPECT_TRUE(session.failed());
    EXPECT_EQ(session.failure().origin, tls::SessionError::Origin::local);
    EXPECT_EQ(session.failure().alert, alert);
    EXPECT_EQ(session.failure().message.rfind(message, 0), 0u) << session.failure().message;
    EXPECT_EQ(session.epoch(), 0u);
    EXPECT_FALSE(session.send_app_data(1, str_to_bytes("after")).ok());
}

TEST(Rekey, ServerRejectsInitWithoutEndpointEntry)
{
    HostileRekeyEnv env;
    RekeyRecord init = env.init_toward_server();
    drop_entry(init, kEntityServer);
    EXPECT_FALSE(env.server->feed(encode_rekey(init)).ok());
    expect_failed_closed(*env.server, tls::AlertDescription::illegal_parameter,
                         "mctls: rekey init without endpoint entry");
}

TEST(Rekey, ServerRejectsTamperedInitEntry)
{
    HostileRekeyEnv env;
    RekeyRecord init = env.init_toward_server();
    flip_entry(init, kEntityServer);
    EXPECT_FALSE(env.server->feed(encode_rekey(init)).ok());
    expect_failed_closed(*env.server, tls::AlertDescription::decrypt_error,
                         "mctls: rekey material: ");
}

// The handshake's key-material opener rejects a half for a context that
// was never negotiated, and the rekey opener is the same code. The entry is
// sealed correctly under K_endpoints, as only an endpoint holding S_C-S can.
TEST(Rekey, ServerRejectsInitHalfForUnknownContext)
{
    HostileRekeyEnv env;
    RekeyRecord init = env.init_toward_server();
    EndpointKeys keys =
        derive_endpoint_keys(env.client->ticket().s_cs, env.client_random, env.server_random);
    Bytes secret(32, 0x5e);
    std::vector<EndpointMaterialEntry> halves = {
        {1, derive_partial_keys(secret, env.client_random, 1)},
        {9, derive_partial_keys(secret, env.client_random, 9)},  // never negotiated
    };
    TestRng rng(7);
    for (auto& e : init.entries)
        if (e.entity == kEntityServer)
            e.sealed = authenc_seal(keys.key_material,
                                    rekey_ad(kEntityClient, kEntityServer, init.epoch),
                                    serialize_endpoint_material(halves), rng);
    EXPECT_FALSE(env.server->feed(encode_rekey(init)).ok());
    expect_failed_closed(*env.server, tls::AlertDescription::illegal_parameter,
                         "mctls: key material for unknown context");
}

// The same hostile material, aimed at the middlebox: each endpoint's entry
// for it is sealed under that endpoint's real pairwise key (from the
// middlebox's ticket) and carries a half for a context the ClientHello never
// listed, so the two would combine into keys for it.
TEST(Rekey, MiddleboxRejectsHalvesForUnknownContext)
{
    HostileRekeyEnv env;
    MiddleboxTicket ticket = env.mboxes[0]->ticket();
    ASSERT_FALSE(ticket.pairwise_client.enc_key.empty());
    ASSERT_TRUE(env.client->initiate_rekey().ok());
    RekeyRecord init = decode_rekey(env.client->take_write_units().at(0));
    ASSERT_TRUE(env.server->feed(encode_rekey(init)).ok());
    RekeyRecord resp = decode_rekey(env.server->take_write_units().at(0));
    ASSERT_TRUE(env.client->feed(encode_rekey(resp)).ok());
    Bytes commit = env.client->take_write_units().at(0);

    TestRng rng(11);
    auto reseal = [&](RekeyRecord& rk, uint8_t sender, const AuthEncKeyBytes& pairwise,
                      ConstBytes random) {
        std::vector<MiddleboxMaterialEntry> material;
        for (uint8_t id : {1, 9}) {  // 9 was never negotiated
            MiddleboxMaterialEntry e;
            e.context_id = id;
            e.permission = Permission::read;
            e.reader_half = derive_partial_keys(Bytes(32, 0x6a), random, id).reader_half;
            material.push_back(std::move(e));
        }
        for (auto& e : rk.entries)
            if (e.entity == 0)
                e.sealed = authenc_seal(AuthEncKey(pairwise), rekey_ad(sender, 0, rk.epoch),
                                        serialize_middlebox_material(material), rng);
    };
    reseal(init, kEntityClient, ticket.pairwise_client, env.client_random);
    reseal(resp, kEntityServer, ticket.pairwise_server, env.server_random);
    MiddleboxSession& mbox = *env.mboxes[0];
    (void)mbox.feed_from_client(encode_rekey(init));
    (void)mbox.feed_from_server(encode_rekey(resp));
    (void)mbox.feed_from_client(commit);
    EXPECT_EQ(mbox.context_keys(9), nullptr);
    EXPECT_TRUE(mbox.failed());
    EXPECT_EQ(mbox.failure().alert, tls::AlertDescription::illegal_parameter);
    EXPECT_EQ(mbox.failure().message, "mctls mbox: key material for unknown context");
}

TEST(Rekey, ServerRejectsOutOfSequenceEpoch)
{
    HostileRekeyEnv env;
    RekeyRecord init = env.init_toward_server();
    init.epoch = 2;
    EXPECT_FALSE(env.server->feed(encode_rekey(init)).ok());
    expect_failed_closed(*env.server, tls::AlertDescription::illegal_parameter,
                         "mctls: rekey epoch out of sequence");
}

TEST(Rekey, ServerRejectsCommitWithoutInit)
{
    HostileRekeyEnv env;
    RekeyRecord commit;
    commit.phase = RekeyPhase::commit;
    commit.epoch = 1;
    EXPECT_FALSE(env.server->feed(encode_rekey(commit)).ok());
    expect_failed_closed(*env.server, tls::AlertDescription::unexpected_message,
                         "mctls: unexpected rekey commit");
}

TEST(Rekey, ClientRejectsResponseWithoutEndpointEntry)
{
    HostileRekeyEnv env;
    RekeyRecord resp = env.resp_toward_client();
    drop_entry(resp, kEntityClient);
    EXPECT_FALSE(env.client->feed(encode_rekey(resp)).ok());
    expect_failed_closed(*env.client, tls::AlertDescription::illegal_parameter,
                         "mctls: rekey response without endpoint entry");
}

TEST(Rekey, ClientRejectsTamperedResponseEntry)
{
    HostileRekeyEnv env;
    RekeyRecord resp = env.resp_toward_client();
    flip_entry(resp, kEntityClient);
    EXPECT_FALSE(env.client->feed(encode_rekey(resp)).ok());
    expect_failed_closed(*env.client, tls::AlertDescription::decrypt_error,
                         "mctls: rekey material: ");
}

TEST(Rekey, ClientRejectsOutOfSequenceEpoch)
{
    HostileRekeyEnv env;
    RekeyRecord resp = env.resp_toward_client();
    resp.epoch = 2;
    EXPECT_FALSE(env.client->feed(encode_rekey(resp)).ok());
    expect_failed_closed(*env.client, tls::AlertDescription::unexpected_message,
                         "mctls: unexpected rekey record");
}

TEST(Rekey, ClientRejectsCommitWithoutInit)
{
    HostileRekeyEnv env;
    RekeyRecord commit;
    commit.phase = RekeyPhase::commit;
    commit.epoch = 1;
    EXPECT_FALSE(env.client->feed(encode_rekey(commit)).ok());
    expect_failed_closed(*env.client, tls::AlertDescription::unexpected_message,
                         "mctls: unexpected rekey record");
}

}  // namespace
}  // namespace mct::mctls
