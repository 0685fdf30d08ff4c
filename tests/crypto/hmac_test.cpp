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
