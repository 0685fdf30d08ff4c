#include "util/serde.h"

namespace mct {

void Writer::u8(uint8_t v)
{
    out_.push_back(v);
}

void Writer::u16(uint16_t v)
{
    out_.push_back(static_cast<uint8_t>(v >> 8));
    out_.push_back(static_cast<uint8_t>(v));
}

void Writer::u24(uint32_t v)
{
    out_.push_back(static_cast<uint8_t>(v >> 16));
    out_.push_back(static_cast<uint8_t>(v >> 8));
    out_.push_back(static_cast<uint8_t>(v));
}

void Writer::u32(uint32_t v)
{
    out_.push_back(static_cast<uint8_t>(v >> 24));
    out_.push_back(static_cast<uint8_t>(v >> 16));
    out_.push_back(static_cast<uint8_t>(v >> 8));
    out_.push_back(static_cast<uint8_t>(v));
}

void Writer::u64(uint64_t v)
{
    for (int shift = 56; shift >= 0; shift -= 8)
        out_.push_back(static_cast<uint8_t>(v >> shift));
}

void Writer::raw(ConstBytes b)
{
    append(out_, b);
}

void Writer::vec8(ConstBytes b)
{
    if (b.size() > 0xff) throw std::length_error("vec8 overflow");
    u8(static_cast<uint8_t>(b.size()));
    raw(b);
}

void Writer::vec16(ConstBytes b)
{
    if (b.size() > 0xffff) throw std::length_error("vec16 overflow");
    u16(static_cast<uint16_t>(b.size()));
    raw(b);
}

void Writer::vec24(ConstBytes b)
{
    if (b.size() > 0xffffff) throw std::length_error("vec24 overflow");
    u24(static_cast<uint32_t>(b.size()));
    raw(b);
}

void Writer::str8(std::string_view s)
{
    vec8(str_to_bytes(s));
}

void Writer::str16(std::string_view s)
{
    vec16(str_to_bytes(s));
}

Status Reader::need(size_t n) const
{
    if (remaining() < n) return err("serde: truncated input");
    return {};
}

Result<uint8_t> Reader::u8()
{
    if (auto s = need(1); !s) return s.error();
    return data_[pos_++];
}

Result<uint16_t> Reader::u16()
{
    if (auto s = need(2); !s) return s.error();
    uint16_t v = static_cast<uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
    pos_ += 2;
    return v;
}

Result<uint32_t> Reader::u24()
{
    if (auto s = need(3); !s) return s.error();
    uint32_t v = static_cast<uint32_t>(data_[pos_]) << 16 |
                 static_cast<uint32_t>(data_[pos_ + 1]) << 8 |
                 static_cast<uint32_t>(data_[pos_ + 2]);
    pos_ += 3;
    return v;
}

Result<uint32_t> Reader::u32()
{
    if (auto s = need(4); !s) return s.error();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = v << 8 | data_[pos_ + i];
    pos_ += 4;
    return v;
}

Result<uint64_t> Reader::u64()
{
    if (auto s = need(8); !s) return s.error();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = v << 8 | data_[pos_ + i];
    pos_ += 8;
    return v;
}

Result<Bytes> Reader::raw(size_t n)
{
    if (auto s = need(n); !s) return s.error();
    Bytes out(data_.begin() + pos_, data_.begin() + pos_ + n);
    pos_ += n;
    return out;
}

Result<Bytes> Reader::vec8()
{
    auto n = u8();
    if (!n) return n.error();
    return raw(n.value());
}

Result<ConstBytes> Reader::view8()
{
    auto n = u8();
    if (!n) return n.error();
    if (auto s = need(n.value()); !s) return s.error();
    ConstBytes out = data_.subspan(pos_, n.value());
    pos_ += n.value();
    return out;
}

Result<Bytes> Reader::vec16()
{
    auto n = u16();
    if (!n) return n.error();
    return raw(n.value());
}

Result<Bytes> Reader::vec24()
{
    auto n = u24();
    if (!n) return n.error();
    return raw(n.value());
}

Result<std::string> Reader::str8()
{
    auto b = vec8();
    if (!b) return b.error();
    return bytes_to_str(b.value());
}

Result<std::string> Reader::str16()
{
    auto b = vec16();
    if (!b) return b.error();
    return bytes_to_str(b.value());
}

Status Reader::expect_done() const
{
    if (!done()) return err("serde: trailing bytes");
    return {};
}

}  // namespace mct
