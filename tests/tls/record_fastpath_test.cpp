// Fast-path behavior of the record codec and protector: zero-copy views,
// feed-chunking invariance (the offset/compaction rewrite must not change
// parsing), the shared symmetric length bound, and the uniform
// bad_record_mac error channel.
#include "tls/record.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "util/rng.h"

namespace mct::tls {
namespace {

struct Parsed {
    ContentType type;
    uint8_t context_id;
    Bytes payload;
    bool native;

    bool operator==(const Parsed& o) const
    {
        return std::tie(type, context_id, payload, native) ==
               std::tie(o.type, o.context_id, o.payload, o.native);
    }
};

// Drain every complete record currently buffered.
void drain(RecordCodec& codec, std::vector<Parsed>& out)
{
    for (;;) {
        auto view = codec.next_view();
        ASSERT_TRUE(view.ok()) << view.error().message;
        if (!view.value()) return;
        out.push_back({view.value()->type, view.value()->context_id,
                       to_bytes(view.value()->payload), view.value()->native_framing});
    }
}

// A mixed stream in context-id framing, with one TLS-framed (5-byte header)
// alert spliced in to exercise the cross-framing retry. Large enough that a
// byte-at-a-time feed crosses the codec's compaction threshold.
Bytes build_stream(std::vector<Parsed>& expect)
{
    RecordCodec enc(true);
    TestRng rng(17);
    Bytes wire;
    auto add = [&](ContentType type, uint8_t ctx, Bytes payload) {
        enc.encode_into({type, ctx, payload}, wire);
        expect.push_back({type, ctx, std::move(payload), true});
    };
    add(ContentType::handshake, 0, rng.bytes(500));
    add(ContentType::application_data, 1, rng.bytes(1460));
    add(ContentType::application_data, 2, {});
    // TLS-framed alert (no context-id byte) crossing into our framing.
    append(wire, RecordCodec(false).encode({ContentType::alert, 0, Bytes{1, 90}}));
    expect.push_back({ContentType::alert, 0, Bytes{1, 90}, false});
    add(ContentType::rekey, 0, rng.bytes(48));
    for (int i = 0; i < 6; ++i) add(ContentType::application_data, uint8_t(i % 3), rng.bytes(1500));
    add(ContentType::alert, 0, Bytes{2, 40});  // native alert stays native
    return wire;
}

TEST(RecordCodecProperty, FeedChunkingDoesNotChangeParsing)
{
    std::vector<Parsed> expect;
    Bytes wire = build_stream(expect);
    ASSERT_GT(wire.size(), 8192u);  // crosses the compaction threshold

    // Whole buffer at once.
    {
        RecordCodec codec(true);
        std::vector<Parsed> got;
        codec.feed(wire);
        drain(codec, got);
        EXPECT_EQ(got, expect);
    }
    // One byte at a time, draining after every feed.
    {
        RecordCodec codec(true);
        std::vector<Parsed> got;
        for (size_t i = 0; i < wire.size(); ++i) {
            codec.feed(ConstBytes{wire}.subspan(i, 1));
            drain(codec, got);
        }
        EXPECT_EQ(got, expect);
        EXPECT_EQ(codec.buffered(), 0u);
    }
    // Random split sizes, several seeds.
    for (uint64_t seed : {1u, 2u, 3u, 4u}) {
        RecordCodec codec(true);
        TestRng rng(seed);
        std::vector<Parsed> got;
        size_t pos = 0;
        while (pos < wire.size()) {
            size_t n = 1 + rng.bytes(2)[0] % 97;
            n = std::min(n, wire.size() - pos);
            codec.feed(ConstBytes{wire}.subspan(pos, n));
            pos += n;
            drain(codec, got);
        }
        EXPECT_EQ(got, expect) << "seed=" << seed;
    }
}

TEST(RecordCodecView, WireSpanCoversWholeFrame)
{
    RecordCodec codec(true);
    Bytes frame = codec.encode({ContentType::application_data, 7, str_to_bytes("hi")});
    codec.feed(frame);
    auto view = codec.next_view();
    ASSERT_TRUE(view.ok());
    ASSERT_TRUE(view.value());
    EXPECT_EQ(to_bytes(view.value()->wire), frame);
    EXPECT_TRUE(view.value()->native_framing);
}

TEST(RecordCodecView, CrossFramedAlertIsNotNative)
{
    // mcTLS-framed alert (6-byte header) arriving at a plain-TLS codec.
    RecordCodec codec(false);
    Bytes frame = RecordCodec(true).encode({ContentType::alert, 5, Bytes{2, 40}});
    codec.feed(frame);
    auto view = codec.next_view();
    ASSERT_TRUE(view.ok());
    ASSERT_TRUE(view.value());
    EXPECT_EQ(view.value()->type, ContentType::alert);
    EXPECT_EQ(view.value()->context_id, 5);
    EXPECT_FALSE(view.value()->native_framing);
    EXPECT_EQ(to_bytes(view.value()->payload), (Bytes{2, 40}));
    EXPECT_EQ(to_bytes(view.value()->wire), frame);
}

TEST(RecordCodecBounds, SymmetricLimitOnBothSides)
{
    // The bound is shared: everything encode() accepts, next_view() accepts.
    RecordCodec codec(false);
    Bytes max_frame = codec.encode({ContentType::application_data, 0, Bytes(kMaxWireFragment, 1)});
    RecordCodec decoder(false);
    decoder.feed(max_frame);
    auto out = decoder.next_view();
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out.value());
    EXPECT_EQ(out.value()->payload.size(), kMaxWireFragment);

    // One past the bound: rejected by the encoder...
    EXPECT_THROW(codec.encode({ContentType::handshake, 0, Bytes(kMaxWireFragment + 1, 0)}),
                 std::length_error);
    // ...and by the decoder when crafted on the wire.
    uint16_t too_big = kMaxWireFragment + 1;
    Bytes crafted{23, 0x03, 0x03, uint8_t(too_big >> 8), uint8_t(too_big)};
    RecordCodec strict(false);
    strict.feed(crafted);
    auto bad = strict.next_view();
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().message, "record: oversized fragment");
}

TEST(RecordCodecBounds, ContentTypeCheckedBeforeCrossFramingRetry)
{
    // Garbage that happens to have alert-like length bytes at the alternate
    // offset must still be rejected as an unknown content type, never
    // "recovered" by the alert retry.
    RecordCodec codec(false);
    Bytes crafted{99, 0x03, 0x03, 0x00, 0x00, 0x02, 1, 90};
    codec.feed(crafted);
    auto out = codec.next_view();
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.error().message, "record: unknown content type");
}

Bytes protect(CbcHmacProtector& sender, ConstBytes payload, Rng& rng)
{
    Bytes frag;
    sender.protect_into(ContentType::application_data, 0, payload, rng, frag);
    return frag;
}

TEST(CbcHmacProtector, PaddingAndMacFailuresIndistinguishable)
{
    TestRng rng(60);
    Bytes enc_key = rng.bytes(16), mac_key = rng.bytes(32);
    CbcHmacProtector sender(enc_key, mac_key);
    Bytes frag = protect(sender, Bytes(48, 'p'), rng);
    Bytes plain;

    // Corrupt the CBC padding: flipping the last byte of the next-to-last
    // ciphertext block flips the decrypted padding-length byte.
    Bytes pad_tampered = frag;
    pad_tampered[frag.size() - 17] ^= 0x80;
    CbcHmacProtector r1(enc_key, mac_key);
    auto pad_err = r1.unprotect_into(ContentType::application_data, 0, pad_tampered, plain);
    ASSERT_FALSE(pad_err.ok());

    // Valid padding, wrong MAC: same fragment, wrong pseudo-header.
    CbcHmacProtector r2(enc_key, mac_key);
    auto mac_err = r2.unprotect_into(ContentType::handshake, 0, frag, plain);
    ASSERT_FALSE(mac_err.ok());

    EXPECT_EQ(pad_err.error().message, "record: bad_record_mac");
    EXPECT_EQ(pad_err.error().message, mac_err.error().message);

    // Distinct, non-secret-dependent error for a structurally bad length.
    CbcHmacProtector r3(enc_key, mac_key);
    auto len_err = r3.unprotect_into(ContentType::application_data, 0,
                                     ConstBytes(frag).subspan(0, frag.size() - 1), plain);
    ASSERT_FALSE(len_err.ok());
    EXPECT_EQ(len_err.error().message, "record: bad ciphertext length");
    EXPECT_TRUE(plain.empty());
}

TEST(CbcHmacProtector, FailedUnprotectLeavesStateUntouched)
{
    TestRng rng(61);
    Bytes enc_key = rng.bytes(16), mac_key = rng.bytes(32);
    CbcHmacProtector sender(enc_key, mac_key);
    CbcHmacProtector receiver(enc_key, mac_key);
    Bytes f0 = protect(sender, str_to_bytes("first"), rng);
    Bytes f1 = protect(sender, str_to_bytes("second"), rng);

    Bytes tampered = f0;
    tampered[8] ^= 1;
    Bytes plain = str_to_bytes("keep");
    EXPECT_FALSE(receiver.unprotect_into(ContentType::application_data, 0, tampered, plain).ok());
    EXPECT_EQ(plain, str_to_bytes("keep"));  // scratch restored on failure
    EXPECT_EQ(receiver.seq(), 0u);           // seq does not advance on failure

    // The untampered stream still decrypts in order afterwards.
    plain.clear();
    ASSERT_TRUE(receiver.unprotect_into(ContentType::application_data, 0, f0, plain).ok());
    EXPECT_EQ(plain, str_to_bytes("first"));
    plain.clear();
    ASSERT_TRUE(receiver.unprotect_into(ContentType::application_data, 0, f1, plain).ok());
    EXPECT_EQ(plain, str_to_bytes("second"));
}

TEST(CbcHmacProtector, UnprotectIntoAppendsAtOffset)
{
    TestRng rng(62);
    Bytes enc_key = rng.bytes(16), mac_key = rng.bytes(32);
    CbcHmacProtector sender(enc_key, mac_key);
    CbcHmacProtector receiver(enc_key, mac_key);
    Bytes frag = protect(sender, str_to_bytes("tail"), rng);
    Bytes plain = str_to_bytes("head ");
    auto n = receiver.unprotect_into(ContentType::application_data, 0, frag, plain);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 4u);
    EXPECT_EQ(plain, str_to_bytes("head tail"));
}

}  // namespace
}  // namespace mct::tls
