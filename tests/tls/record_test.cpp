#include "tls/record.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace mct::tls {
namespace {

TEST(RecordCodec, EncodeDecodeRoundTrip)
{
    RecordCodec codec(false);
    Record rec{ContentType::handshake, 0, str_to_bytes("payload")};
    codec.feed(codec.encode(rec));
    auto out = codec.next_view();
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out.value().has_value());
    EXPECT_EQ(out.value()->type, ContentType::handshake);
    EXPECT_EQ(to_bytes(out.value()->payload), rec.payload);
}

TEST(RecordCodec, ContextIdRoundTrip)
{
    RecordCodec codec(true);
    Record rec{ContentType::application_data, 3, str_to_bytes("ctx data")};
    codec.feed(codec.encode(rec));
    auto out = codec.next_view();
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out.value().has_value());
    EXPECT_EQ(out.value()->context_id, 3);
}

TEST(RecordCodec, HeaderSizes)
{
    EXPECT_EQ(RecordCodec(false).header_size(), 5u);
    EXPECT_EQ(RecordCodec(true).header_size(), 6u);
}

TEST(RecordCodec, PartialFeedNeedsMoreBytes)
{
    RecordCodec codec(false);
    Record rec{ContentType::handshake, 0, Bytes(100, 'x')};
    Bytes wire = codec.encode(rec);
    codec.feed(ConstBytes{wire}.subspan(0, 3));
    auto out = codec.next_view();
    ASSERT_TRUE(out.ok());
    EXPECT_FALSE(out.value().has_value());
    codec.feed(ConstBytes{wire}.subspan(3, 50));
    out = codec.next_view();
    ASSERT_TRUE(out.ok());
    EXPECT_FALSE(out.value().has_value());
    codec.feed(ConstBytes{wire}.subspan(53));
    out = codec.next_view();
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out.value().has_value());
    EXPECT_EQ(out.value()->payload.size(), 100u);
}

TEST(RecordCodec, MultipleRecordsInOneFeed)
{
    RecordCodec codec(false);
    Bytes wire = concat(codec.encode({ContentType::handshake, 0, Bytes{1}}),
                        codec.encode({ContentType::application_data, 0, Bytes{2, 3}}));
    codec.feed(wire);
    auto first = codec.next_view();
    ASSERT_TRUE(first.value().has_value());
    EXPECT_EQ(first.value()->type, ContentType::handshake);
    auto second = codec.next_view();
    ASSERT_TRUE(second.value().has_value());
    EXPECT_EQ(to_bytes(second.value()->payload), (Bytes{2, 3}));
}

TEST(RecordCodec, BadVersionRejected)
{
    RecordCodec codec(false);
    Bytes wire{22, 0x03, 0x01, 0x00, 0x00};  // TLS 1.0 version
    codec.feed(wire);
    EXPECT_FALSE(codec.next_view().ok());
}

TEST(RecordCodec, UnknownContentTypeRejected)
{
    RecordCodec codec(false);
    Bytes wire{99, 0x03, 0x03, 0x00, 0x00};
    codec.feed(wire);
    EXPECT_FALSE(codec.next_view().ok());
}

TEST(RecordCodec, OversizedRecordRejected)
{
    // The bound is the shared ciphertext-expansion limit: a protected
    // fragment may exceed kMaxFragment by at most kMaxRecordExpansion.
    RecordCodec codec(false);
    EXPECT_NO_THROW(codec.encode({ContentType::handshake, 0, Bytes(kMaxWireFragment, 0)}));
    EXPECT_THROW(codec.encode({ContentType::handshake, 0, Bytes(kMaxWireFragment + 1, 0)}),
                 std::length_error);
}

// Protects `payload` with `sender` into a fresh fragment.
Bytes protect(CbcHmacProtector& sender, ContentType type, uint8_t context_id, ConstBytes payload,
              Rng& rng)
{
    Bytes frag;
    sender.protect_into(type, context_id, payload, rng, frag);
    return frag;
}

bool unprotects(CbcHmacProtector& receiver, ContentType type, uint8_t context_id,
                ConstBytes frag)
{
    Bytes plain;
    return receiver.unprotect_into(type, context_id, frag, plain).ok();
}

TEST(CbcHmacProtector, ProtectUnprotectRoundTrip)
{
    TestRng rng(50);
    Bytes enc_key = rng.bytes(16), mac_key = rng.bytes(32);
    CbcHmacProtector sender(enc_key, mac_key);
    CbcHmacProtector receiver(enc_key, mac_key);
    for (int i = 0; i < 5; ++i) {
        Bytes payload = rng.bytes(100 + i);
        Bytes frag = protect(sender, ContentType::application_data, 0, payload, rng);
        EXPECT_EQ(frag.size(), CbcHmacProtector::protected_size(payload.size()));
        Bytes plain;
        auto n = receiver.unprotect_into(ContentType::application_data, 0, frag, plain);
        ASSERT_TRUE(n.ok()) << n.error().message;
        EXPECT_EQ(n.value(), payload.size());
        EXPECT_EQ(plain, payload);
    }
}

TEST(CbcHmacProtector, SequenceNumberMismatchFails)
{
    TestRng rng(51);
    Bytes enc_key = rng.bytes(16), mac_key = rng.bytes(32);
    CbcHmacProtector sender(enc_key, mac_key);
    CbcHmacProtector receiver(enc_key, mac_key);
    Bytes frag1 = protect(sender, ContentType::application_data, 0, str_to_bytes("one"), rng);
    Bytes frag2 = protect(sender, ContentType::application_data, 0, str_to_bytes("two"), rng);
    // Receiver skips frag1: replay/deletion must be detected via seq MAC.
    EXPECT_FALSE(unprotects(receiver, ContentType::application_data, 0, frag2));
}

TEST(CbcHmacProtector, ReplayFails)
{
    TestRng rng(52);
    Bytes enc_key = rng.bytes(16), mac_key = rng.bytes(32);
    CbcHmacProtector sender(enc_key, mac_key);
    CbcHmacProtector receiver(enc_key, mac_key);
    Bytes frag = protect(sender, ContentType::application_data, 0, str_to_bytes("x"), rng);
    EXPECT_TRUE(unprotects(receiver, ContentType::application_data, 0, frag));
    EXPECT_FALSE(unprotects(receiver, ContentType::application_data, 0, frag));
}

TEST(CbcHmacProtector, TamperedCiphertextFails)
{
    TestRng rng(53);
    Bytes enc_key = rng.bytes(16), mac_key = rng.bytes(32);
    CbcHmacProtector sender(enc_key, mac_key);
    CbcHmacProtector receiver(enc_key, mac_key);
    Bytes frag = protect(sender, ContentType::application_data, 0, Bytes(64, 'a'), rng);
    frag[20] ^= 1;
    EXPECT_FALSE(unprotects(receiver, ContentType::application_data, 0, frag));
}

TEST(CbcHmacProtector, ContentTypeBound)
{
    TestRng rng(54);
    Bytes enc_key = rng.bytes(16), mac_key = rng.bytes(32);
    CbcHmacProtector sender(enc_key, mac_key);
    CbcHmacProtector receiver(enc_key, mac_key);
    Bytes frag = protect(sender, ContentType::application_data, 0, str_to_bytes("x"), rng);
    EXPECT_FALSE(unprotects(receiver, ContentType::handshake, 0, frag));
}

TEST(CbcHmacProtector, ContextIdBound)
{
    TestRng rng(55);
    Bytes enc_key = rng.bytes(16), mac_key = rng.bytes(32);
    CbcHmacProtector sender(enc_key, mac_key);
    CbcHmacProtector receiver(enc_key, mac_key);
    Bytes frag = protect(sender, ContentType::application_data, 2, str_to_bytes("x"), rng);
    EXPECT_FALSE(unprotects(receiver, ContentType::application_data, 3, frag));
}

}  // namespace
}  // namespace mct::tls
