// Golden wire-byte pins for the record layer. The hex strings were captured
// from the implementation BEFORE the zero-copy fast path landed; these tests
// guarantee the refactor (offset codec, streaming CBC, *_into APIs) kept the
// wire format byte-identical.
#include "tls/record.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace mct::tls {
namespace {

TEST(RecordGolden, CodecFraming)
{
    RecordCodec plain(false), ctx(true);
    EXPECT_EQ(to_hex(plain.encode({ContentType::handshake, 0, str_to_bytes("hello")})),
              "160303000568656c6c6f");
    EXPECT_EQ(to_hex(plain.encode({ContentType::application_data, 0, Bytes{0xde, 0xad, 0xbe, 0xef}})),
              "1703030004deadbeef");
    EXPECT_EQ(to_hex(ctx.encode({ContentType::application_data, 3, str_to_bytes("ctx!")})),
              "17030303000463747821");
    EXPECT_EQ(to_hex(ctx.encode({ContentType::alert, 0, Bytes{2, 40}})), "1503030000020228");
    EXPECT_EQ(to_hex(ctx.encode({ContentType::rekey, 0, {}})), "180303000000");
}

TEST(RecordGolden, EncodeIntoMatchesEncode)
{
    RecordCodec ctx(true);
    Record rec{ContentType::application_data, 3, str_to_bytes("ctx!")};
    Bytes out = str_to_bytes("prefix");  // must append, not overwrite
    ctx.encode_into(rec, out);
    EXPECT_EQ(out, concat(str_to_bytes("prefix"), ctx.encode(rec)));

    Bytes hdr;
    ctx.encode_header_into(ContentType::application_data, 3, 4, hdr);
    append(hdr, rec.payload);
    EXPECT_EQ(hdr, ctx.encode(rec));
}

TEST(RecordGolden, ProtectorWireBytes)
{
    TestRng keyrng(7);
    Bytes enc_key = keyrng.bytes(16), mac_key = keyrng.bytes(32);
    CbcHmacProtector prot(enc_key, mac_key);
    TestRng ivrng(99);
    // protect_into appends: each fragment lands after what the buffer holds.
    auto protect = [&](ContentType type, uint8_t context_id, ConstBytes payload) {
        Bytes out = str_to_bytes("hdr");
        prot.protect_into(type, context_id, payload, ivrng, out);
        EXPECT_EQ(to_bytes(ConstBytes(out).subspan(0, 3)), str_to_bytes("hdr"));
        EXPECT_EQ(out.size() - 3, CbcHmacProtector::protected_size(payload.size()));
        return to_hex(ConstBytes(out).subspan(3));
    };
    EXPECT_EQ(protect(ContentType::application_data, 0, str_to_bytes("attack at dawn")),
              "42f3a9364c476be3081ab918879d69a47c7ff7c68041751566cc6b01ea115072"
              "c038d62d112b5217a924c8e68ced465d5530695a32e9920ff56ae1cb5a66faa3");
    EXPECT_EQ(protect(ContentType::handshake, 2, Bytes(33, 0xab)),
              "d5b2d034f041d2fb1a319a9cb9672cd7148f70a57c21f39ea92df4070841ae75"
              "9fe3390cf21a9b6e29d6d4a1914b4f32faefc37eb9fb70e5ea77f5d586900b4e"
              "576386a415ded56d1fbde43f9cbd6bc248d0f444edeccc61cb9ce4fee87b0ad5");
    EXPECT_EQ(protect(ContentType::application_data, 1, {}),
              "2b88fba386c0f8f43c12faf53d0fe67333b875b2e1a14c395e744a0169085f16"
              "cfec457c92640bc279fc775930a363255d88ef34ba097a84eadf83ae87fe0ba6");
}

TEST(RecordGolden, MacPseudoHeaderBytes)
{
    EXPECT_EQ(to_hex(mac_pseudo_header(0x0102030405060708, ContentType::application_data, 3,
                                       0x1234)),
              "0102030405060708" "17" "0303" "03" "1234");
    EXPECT_EQ(to_hex(mac_pseudo_header(0, ContentType::handshake, 0, 0)),
              "0000000000000000" "16" "0303" "00" "0000");
}

}  // namespace
}  // namespace mct::tls
