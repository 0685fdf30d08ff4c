#include "crypto/hmac.h"

#include <gtest/gtest.h>

namespace mct::crypto {
namespace {

// RFC 4231 test case 1.
TEST(HmacSha256, Rfc4231Case1)
{
    Bytes key(20, 0x0b);
    EXPECT_EQ(to_hex(HmacSha256::mac(key, str_to_bytes("Hi There"))),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(HmacSha256, Rfc4231Case2)
{
    EXPECT_EQ(to_hex(HmacSha256::mac(str_to_bytes("Jefe"),
                                     str_to_bytes("what do ya want for nothing?"))),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 cases 3, 4, 6 and 7, through the raw-key constructor and
// through an HmacKey expanded once and reused for two MACs. Cases 6 and 7
// use 131-byte keys (hashed first); case 7's message spans three blocks.
TEST(HmacSha256, Rfc4231Cases3467RawAndKeyed)
{
    Bytes case4_key;
    for (uint8_t b = 0x01; b <= 0x19; ++b) case4_key.push_back(b);
    struct Case {
        int number;
        Bytes key;
        Bytes data;
        const char* tag;
    };
    const Case kCases[] = {
        {3, Bytes(20, 0xaa), Bytes(50, 0xdd),
         "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
        {4, case4_key, Bytes(50, 0xcd),
         "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
        {6, Bytes(131, 0xaa),
         str_to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
         "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
        {7, Bytes(131, 0xaa),
         str_to_bytes("This is a test using a larger than block-size key and a larger than "
                      "block-size data. The key needs to be hashed before being used by the "
                      "HMAC algorithm."),
         "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
    };
    for (const auto& c : kCases) {
        EXPECT_EQ(to_hex(HmacSha256::mac(c.key, c.data)), c.tag) << "case " << c.number;
        HmacSha256 raw(c.key);
        raw.update(c.data);
        EXPECT_EQ(to_hex(raw.finish_tag()), c.tag) << "case " << c.number;
        HmacKey key(c.key);
        for (int use = 0; use < 2; ++use) {
            HmacSha256 keyed(key);
            keyed.update(c.data);
            EXPECT_EQ(to_hex(keyed.finish_tag()), c.tag) << "case " << c.number << " use " << use;
        }
    }
}

TEST(HmacSha256, LongKeyIsHashedFirst)
{
    // Keys longer than the block size must first be hashed; verify the
    // implementation agrees with using the hash of the key directly.
    Bytes long_key(200, 0x42);
    Bytes data = str_to_bytes("payload");
    EXPECT_EQ(HmacSha256::mac(long_key, data), HmacSha256::mac(Sha256::digest(long_key), data));
}

TEST(HmacSha256, IncrementalMatchesOneShot)
{
    Bytes key = str_to_bytes("key");
    HmacSha256 h(key);
    h.update(str_to_bytes("part one, "));
    h.update(str_to_bytes("part two"));
    EXPECT_EQ(h.finish(), HmacSha256::mac(key, str_to_bytes("part one, part two")));
}

TEST(HmacSha256, DistinctKeysDistinctTags)
{
    Bytes data = str_to_bytes("same data");
    EXPECT_NE(HmacSha256::mac(str_to_bytes("key1"), data),
              HmacSha256::mac(str_to_bytes("key2"), data));
}

TEST(HmacSha256, EmptyKeyAndData)
{
    // Must not crash; tag is 32 bytes.
    EXPECT_EQ(HmacSha256::mac({}, {}).size(), 32u);
}

}  // namespace
}  // namespace mct::crypto
