// Pins of the handshake behaviour the paper's Table 3 and Fig. 8 report, as
// the benches measure it: every OpCounters field of every party for mcTLS,
// mcTLS with client key distribution (CKD), SplitTLS and end-to-end TLS,
// and the handshake bytes at the client. EXPERIMENTS.md compares these
// counts with the paper's formulas; a change to any of them is a change of
// behaviour, not of measurement.
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "chain_bench.h"
#include "util/rng.h"

namespace mct::bench {
namespace {

// hash, secret_comp, key_gen, asym_sign, asym_verify, sym_encrypt, sym_decrypt
using Ops = std::array<uint64_t, 7>;

Ops fields(const crypto::OpCounters& c)
{
    return {c.hash, c.secret_comp, c.key_gen, c.asym_sign, c.asym_verify, c.sym_encrypt,
            c.sym_decrypt};
}

// Client, middlebox (mbox 0), server.
using PartyRow = std::array<Ops, 3>;

void expect_ops(const char* protocol, const PartyOps& got, const PartyRow& want)
{
    EXPECT_EQ(fields(got.client), want[0]) << protocol << " client";
    EXPECT_EQ(fields(got.middlebox), want[1]) << protocol << " middlebox";
    EXPECT_EQ(fields(got.server), want[2]) << protocol << " server";
}

struct Table3Row {
    size_t n, k;
    PartyRow mctls, ckd;
    uint64_t mctls_bytes;
};

// The TLS rows do not depend on N or K.
const PartyRow kSplitTls = {Ops{10, 1, 1, 0, 1, 1, 1}, Ops{20, 2, 2, 1, 1, 2, 2},
                            Ops{10, 1, 1, 1, 0, 1, 1}};
const PartyRow kE2eTls = {Ops{10, 1, 1, 0, 1, 1, 1}, Ops{}, Ops{10, 1, 1, 1, 0, 1, 1}};
constexpr uint64_t kTlsBytes = 591;

const Table3Row kRows[] = {
    {1, 1,
     {Ops{14, 2, 6, 0, 3, 3, 2}, Ops{0, 2, 4, 2, 0, 0, 2}, Ops{15, 2, 6, 1, 0, 3, 2}},
     {Ops{13, 2, 4, 0, 3, 2, 1}, Ops{0, 1, 1, 2, 0, 0, 1}, Ops{14, 1, 3, 1, 0, 1, 1}},
     1612},
    {1, 4,
     {Ops{14, 2, 18, 0, 3, 3, 2}, Ops{0, 2, 10, 2, 0, 0, 2}, Ops{15, 2, 18, 1, 0, 3, 2}},
     {Ops{13, 2, 10, 0, 3, 2, 1}, Ops{0, 1, 1, 2, 0, 0, 1}, Ops{14, 1, 9, 1, 0, 1, 1}},
     2442},
    {2, 4,
     {Ops{18, 3, 19, 0, 5, 4, 2}, Ops{0, 2, 10, 2, 0, 0, 2}, Ops{19, 3, 19, 1, 0, 4, 2}},
     {Ops{17, 3, 11, 0, 5, 3, 1}, Ops{0, 1, 1, 2, 0, 0, 1}, Ops{18, 1, 9, 1, 0, 1, 1}},
     3582},
    {4, 8,
     {Ops{26, 5, 37, 0, 9, 6, 2}, Ops{0, 2, 18, 2, 0, 0, 2}, Ops{27, 5, 37, 1, 0, 6, 2}},
     {Ops{25, 5, 21, 0, 9, 5, 1}, Ops{0, 1, 1, 2, 0, 0, 1}, Ops{26, 1, 17, 1, 0, 1, 1}},
     8774},
};

TEST(HandshakePin, Table3OpCountsAndFig8Bytes)
{
    BenchPki pki;
    TestRng rng(123);
    for (const Table3Row& row : kRows) {
        SCOPED_TRACE("N=" + std::to_string(row.n) + " K=" + std::to_string(row.k));
        PartyOps mctls, ckd, split, e2e;
        ASSERT_TRUE(run_mctls_handshake(pki, {row.n, row.k, false}, rng, nullptr, &mctls));
        ASSERT_TRUE(run_mctls_handshake(pki, {row.n, row.k, true}, rng, nullptr, &ckd));
        ASSERT_TRUE(run_split_tls_handshake(pki, {row.n, row.k, false}, rng, nullptr, &split));
        ASSERT_TRUE(run_e2e_tls_handshake(pki, {row.n, row.k, false}, rng, nullptr, &e2e));
        expect_ops("mcTLS", mctls, row.mctls);
        expect_ops("CKD", ckd, row.ckd);
        expect_ops("SplitTLS", split, kSplitTls);
        expect_ops("E2E TLS", e2e, kE2eTls);
        EXPECT_EQ(mctls_handshake_bytes(pki, {row.n, row.k}, rng), row.mctls_bytes);
    }
    EXPECT_EQ(tls_handshake_bytes(pki, rng), kTlsBytes);
}

}  // namespace
}  // namespace mct::bench
