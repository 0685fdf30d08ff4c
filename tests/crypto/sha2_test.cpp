#include "crypto/sha2.h"

#include <gtest/gtest.h>

#include <utility>

#include "util/bytes.h"

namespace mct::crypto {
namespace {

// FIPS 180-4 / NIST CAVP published vectors.
TEST(Sha256, EmptyString)
{
    EXPECT_EQ(to_hex(Sha256::digest({})),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc)
{
    EXPECT_EQ(to_hex(Sha256::digest(str_to_bytes("abc"))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    EXPECT_EQ(to_hex(Sha256::digest(
                  str_to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs)
{
    Bytes input(1000000, 'a');
    EXPECT_EQ(to_hex(Sha256::digest(input)),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot)
{
    Bytes data = str_to_bytes("the quick brown fox jumps over the lazy dog repeatedly");
    Sha256 h;
    // Feed in awkward chunk sizes crossing block boundaries.
    size_t cuts[] = {1, 3, 13, 31, 63, 64, 65};
    size_t pos = 0;
    for (size_t cut : cuts) {
        if (pos >= data.size()) break;
        size_t take = std::min(cut, data.size() - pos);
        h.update(ConstBytes{data}.subspan(pos, take));
        pos += take;
    }
    if (pos < data.size()) h.update(ConstBytes{data}.subspan(pos));
    auto d = h.finish();
    EXPECT_EQ(Bytes(d.begin(), d.end()), Sha256::digest(data));
}

TEST(Sha256, BlockBoundaryLengths)
{
    // finish() pads in place: lengths up to 55 fit the length field in the
    // final block, 56..63 need one more block, and whole blocks pad into a
    // fresh one. Digests of 0x5a * len from Python's hashlib.sha256.
    const std::pair<size_t, const char*> kVectors[] = {
        {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        {55, "5f25f149aa92e3e13093aed8216072fae623f35e26ca605b6cce17e04b7ccf44"},
        {56, "301c69927f1603720c9f847b7e5e3bef77a7b9f75344490fe9039f13c36b842a"},
        {57, "30ab35131f9b368e840dc65fc1eb832706e748e3c5e44ec40bc19cd1ce5c0dc2"},
        {63, "939765b120205cbedae2ed31256b1967c38b6bdd9b0220535224cbc0b906d333"},
        {64, "cc7321cce5e4409bd8077d58422e1214969059bbd40b4eeb0de0a642f40f7282"},
        {65, "b8de0db62b6c87db61345504a8038bf973d987e8d2111abd8beb407c0bf3d9db"},
        {119, "a96851d641310ce032ff832b6f08125878deed2a825fe515dd1ba414afe95f7e"},
        {120, "60ec7f280e45d0c7bf77b70ff16958b1c1701a9fb7faa12b798207cf120ec6ee"},
        {127, "f4651f880655488aadc1ea0287ef8954296d9e7487a642bd4800744e15ee3771"},
        {128, "349d65e9ba1de7b0a13f9a3eadcc5b0202f15d6008fe9477f2a7b80f6194b20f"},
        {129, "651526df875ac6cec56a649780e20fc4b9c71df77afb62199bf15864cb1f1241"},
    };
    for (const auto& [len, hex] : kVectors) {
        EXPECT_EQ(to_hex(Sha256::digest(Bytes(len, 0x5a))), hex) << "len " << len;
        // Byte-at-a-time updates reach finish() with every buffered count.
        Sha256 h;
        for (size_t i = 0; i < len; ++i) h.update(Bytes{0x5a});
        EXPECT_EQ(to_hex(h.finish()), hex) << "len " << len << " bytewise";
    }
}

TEST(Sha512, EmptyString)
{
    EXPECT_EQ(to_hex(Sha512::digest({})),
              "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
              "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, Abc)
{
    EXPECT_EQ(to_hex(Sha512::digest(str_to_bytes("abc"))),
              "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
              "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockMessage)
{
    EXPECT_EQ(
        to_hex(Sha512::digest(str_to_bytes(
            "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
            "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))),
        "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
        "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, IncrementalMatchesOneShot)
{
    Bytes data(517, 0xa7);
    Sha512 h;
    h.update(ConstBytes{data}.subspan(0, 100));
    h.update(ConstBytes{data}.subspan(100, 300));
    h.update(ConstBytes{data}.subspan(400));
    auto d = h.finish();
    EXPECT_EQ(Bytes(d.begin(), d.end()), Sha512::digest(data));
}

TEST(Sha512, BlockBoundaryLengths)
{
    Bytes prev;
    for (size_t len : {111u, 112u, 113u, 127u, 128u, 129u, 255u, 256u}) {
        Bytes input(len, 0x33);
        Bytes d = Sha512::digest(input);
        EXPECT_NE(d, prev);
        prev = d;
    }
}

}  // namespace
}  // namespace mct::crypto
