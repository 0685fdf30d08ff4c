// Network-byte-order serialization, TLS wire-format style.
//
// Writer appends big-endian integers and length-prefixed vectors; Reader is
// the bounds-checked inverse returning Result so malformed peer input is a
// recoverable error, never UB.
#pragma once

#include <cstdint>
#include <string>

#include "util/bytes.h"
#include "util/result.h"

namespace mct {

class Writer {
public:
    void u8(uint8_t v);
    void u16(uint16_t v);
    void u24(uint32_t v);  // low 24 bits
    void u32(uint32_t v);
    void u64(uint64_t v);
    void raw(ConstBytes b);

    // Length-prefixed opaque vectors (prefix width in bits, TLS style).
    void vec8(ConstBytes b);
    void vec16(ConstBytes b);
    void vec24(ConstBytes b);

    void str8(std::string_view s);
    void str16(std::string_view s);

    void reserve(size_t n) { out_.reserve(n); }

    const Bytes& bytes() const { return out_; }
    Bytes take() { return std::move(out_); }
    size_t size() const { return out_.size(); }

private:
    Bytes out_;
};

class Reader {
public:
    explicit Reader(ConstBytes data) : data_(data) {}

    Result<uint8_t> u8();
    Result<uint16_t> u16();
    Result<uint32_t> u24();
    Result<uint32_t> u32();
    Result<uint64_t> u64();
    Result<Bytes> raw(size_t n);
    Result<Bytes> vec8();
    Result<Bytes> vec16();
    Result<Bytes> vec24();
    // A vec8's body as a view into the input, without a copy.
    Result<ConstBytes> view8();
    Result<std::string> str8();
    Result<std::string> str16();

    size_t remaining() const { return data_.size() - pos_; }
    bool done() const { return remaining() == 0; }
    // Fails unless every byte has been consumed (trailing garbage check).
    Status expect_done() const;

private:
    Status need(size_t n) const;

    ConstBytes data_;
    size_t pos_ = 0;
};

}  // namespace mct
