// crypto::InstalledKey (crypto/key.h): raw bytes held inline, the expansion
// built on first use and dropped whenever the bytes change.
#include "crypto/key.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "crypto/cpu.h"
#include "tests/work_counter.h"
#include "util/rng.h"

namespace mct::crypto {
namespace {

using test::CountingDispatch;
using test::work;

HmacTag mac(const MacKey& key) { return hmac_sha256(key.expanded(), {str_to_bytes("record")}); }

HmacTag mac_raw(ConstBytes raw) { return hmac_sha256(HmacKey(raw), {str_to_bytes("record")}); }

Bytes encrypt_block(const Aes128& cipher)
{
    uint8_t block[16] = {1, 2, 3};
    cipher.encrypt_block(block, block);
    return Bytes(block, block + 16);
}

TEST(InstalledKey, InstallingDoesNoCryptoAndFirstUseExpandsOnce)
{
    TestRng rng(1);
    Bytes mac_bytes = rng.bytes(32), enc_raw = rng.bytes(16);
    CountingDispatch counting;
    MacKey mac_key = mac_bytes;
    CipherKey enc_key = enc_raw;
    EXPECT_EQ(work().sha256_blocks, 0u);
    EXPECT_EQ(work().aes_expansions, 0u);
    (void)mac_key.expanded();
    (void)mac_key.expanded();
    (void)enc_key.expanded();
    (void)enc_key.expanded();
    EXPECT_EQ(work().sha256_blocks, 2u);  // the ipad and opad midstates
    EXPECT_EQ(work().aes_expansions, 1u);
}

TEST(InstalledKey, ReassignedAfterFirstUseMacsAndEncryptsUnderTheNewBytes)
{
    TestRng rng(2);
    Bytes a = rng.bytes(32), b = rng.bytes(32);
    MacKey mac_key = a;
    EXPECT_EQ(mac(mac_key), mac_raw(a));
    mac_key = b;
    EXPECT_EQ(mac(mac_key), mac_raw(b));
    EXPECT_NE(mac(mac_key), mac_raw(a));

    Bytes k1 = rng.bytes(16), k2 = rng.bytes(16);
    CipherKey enc_key = k1;
    EXPECT_EQ(encrypt_block(enc_key.expanded()), encrypt_block(Aes128(k1)));
    enc_key = k2;
    EXPECT_EQ(encrypt_block(enc_key.expanded()), encrypt_block(Aes128(k2)));
}

TEST(InstalledKey, ClearDropsTheCachedExpansion)
{
    TestRng rng(3);
    Bytes raw = rng.bytes(16);
    CipherKey key = raw;
    CountingDispatch counting;
    (void)key.expanded();
    key.clear();
    EXPECT_TRUE(key.empty());
    EXPECT_THROW((void)key.expanded(), std::invalid_argument);  // AES needs 16 bytes
    key = raw;  // the same bytes again: a new expansion, not the dropped one
    (void)key.expanded();
    EXPECT_EQ(work().aes_expansions, 2u);

    MacKey mac_key = rng.bytes(32);
    (void)mac(mac_key);
    mac_key.clear();
    EXPECT_EQ(mac(mac_key), mac_raw(ConstBytes{}));  // HMAC under the empty key
}

TEST(InstalledKey, CopyOfAnUnexpandedKeyExpandsOnItsOwn)
{
    TestRng rng(4);
    Bytes raw = rng.bytes(16);
    CountingDispatch counting;
    CipherKey original = raw;
    CipherKey copy = original;
    EXPECT_EQ(encrypt_block(copy.expanded()), encrypt_block(Aes128(raw)));
    EXPECT_EQ(work().aes_expansions, 2u);  // the reference Aes128 and the copy
    EXPECT_EQ(encrypt_block(original.expanded()), encrypt_block(Aes128(raw)));
    EXPECT_EQ(work().aes_expansions, 4u);  // the original had not been expanded
    EXPECT_EQ(copy, original);
}

TEST(InstalledKey, ExpansionBindsTheDispatchTableActiveAtFirstUse)
{
    TestRng rng(5);
    CipherKey key = rng.bytes(16);
    {
        ScopedDispatchOverride scalar(scalar_dispatch());
        EXPECT_EQ(std::string(key.expanded().backend().name), "scalar");
    }
    // Kept: the expansion does not follow a later change of table.
    EXPECT_EQ(std::string(key.expanded().backend().name), "scalar");
    key = rng.bytes(16);
    EXPECT_EQ(std::string(key.expanded().backend().name), dispatch().name);
}

TEST(InstalledKey, RejectsKeysItCannotHoldAndNeverTruncates)
{
    TestRng rng(6);
    Bytes full = rng.bytes(MacKey::kCapacity);
    MacKey mac_key = full;
    EXPECT_EQ(mac_key.size(), full.size());
    EXPECT_EQ(mac_key, full);
    EXPECT_THROW(MacKey(rng.bytes(MacKey::kCapacity + 1)), std::invalid_argument);
    EXPECT_THROW(MacKey(rng.bytes(255)), std::invalid_argument);
    EXPECT_THROW(CipherKey(rng.bytes(15)), std::invalid_argument);
    EXPECT_THROW(CipherKey(rng.bytes(32)), std::invalid_argument);
    EXPECT_TRUE(CipherKey(Bytes{}).empty());
}

}  // namespace
}  // namespace mct::crypto
