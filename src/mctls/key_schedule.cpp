#include "mctls/key_schedule.h"

#include <algorithm>
#include <array>
#include <initializer_list>
#include <stdexcept>
#include <utility>

#include "crypto/prf.h"
#include "util/serde.h"

namespace mct::mctls {

namespace {

constexpr size_t kEncKeySize = crypto::Aes128::kKeySize;
constexpr size_t kMacKeySize = 32;
constexpr size_t kHalfSize = kKeyHalfSize;

// The concatenation of a few short inputs on the stack: two joined halves
// or two hello randoms (64 bytes), or both randoms and a context id.
class Joined {
public:
    Joined(std::initializer_list<ConstBytes> parts)
    {
        for (ConstBytes p : parts) {
            if (p.size() > buf_.size() - size_)
                throw std::invalid_argument("mctls: key schedule input too long");
            std::copy(p.begin(), p.end(), buf_.begin() + size_);
            size_ += p.size();
        }
    }
    operator ConstBytes() const { return {buf_.data(), size_}; }

private:
    std::array<uint8_t, 2 * kHalfSize + 32> buf_{};
    size_t size_ = 0;
};

// N bytes of PRF output on the stack, cut into keys by the callers.
template <size_t N>
std::array<uint8_t, N> key_block(const crypto::HmacKey& secret, std::string_view label,
                                 ConstBytes seed)
{
    std::array<uint8_t, N> block{};
    crypto::prf(secret, label, seed, block);
    return block;
}

template <size_t N>
std::array<uint8_t, N> key_block(ConstBytes secret, std::string_view label, ConstBytes seed)
{
    return key_block<N>(crypto::HmacKey(secret), label, seed);
}

void expand_reader_keys(ContextKeys& keys, ConstBytes reader_secret, ConstBytes seed)
{
    auto block = key_block<2 * kEncKeySize + 2 * kMacKeySize>(reader_secret, "reader keys", seed);
    ConstBytes view{block};
    keys.reader_enc[0] = view.subspan(0, kEncKeySize);
    keys.reader_enc[1] = view.subspan(kEncKeySize, kEncKeySize);
    keys.reader_mac[0] = view.subspan(2 * kEncKeySize, kMacKeySize);
    keys.reader_mac[1] = view.subspan(2 * kEncKeySize + kMacKeySize, kMacKeySize);
}

void expand_writer_keys(ContextKeys& keys, ConstBytes writer_secret, ConstBytes seed)
{
    auto block = key_block<2 * kMacKeySize>(writer_secret, "writer keys", seed);
    ConstBytes view{block};
    keys.writer_mac[0] = view.subspan(0, kMacKeySize);
    keys.writer_mac[1] = view.subspan(kMacKeySize, kMacKeySize);
}

// K_readers, and K_writers where the secrets hold a writer secret, under
// `seed` = randC || randS: the one derivation of contributory context keys.
ContextKeys derive_context_keys(const ContextSecrets& secrets, ConstBytes seed)
{
    ContextKeys keys;
    expand_reader_keys(keys, secrets.reader, seed);
    if (secrets.writer) expand_writer_keys(keys, *secrets.writer, seed);
    return keys;
}

ContextSecrets::Joined joined_halves(const KeyHalf& client_half, const KeyHalf& server_half)
{
    ContextSecrets::Joined joined;
    std::copy(client_half.begin(), client_half.end(), joined.begin());
    std::copy(server_half.begin(), server_half.end(), joined.begin() + kHalfSize);
    return joined;
}

}  // namespace

Bytes ContextKeys::serialize(bool writer) const
{
    Writer w;
    w.u8(writer ? 1 : 0);
    w.vec8(reader_enc[0].bytes());
    w.vec8(reader_enc[1].bytes());
    w.vec8(reader_mac[0].bytes());
    w.vec8(reader_mac[1].bytes());
    if (writer) {
        w.vec8(writer_mac[0].bytes());
        w.vec8(writer_mac[1].bytes());
    }
    return w.take();
}

Result<ContextKeys> ContextKeys::parse(ConstBytes wire)
{
    Reader r(wire);
    auto writer_flag = r.u8();
    if (!writer_flag) return writer_flag.error();
    // Each key is checked before it is installed: an AES key needs exactly
    // 16 bytes, and a key longer than an InstalledKey holds would throw.
    auto install = [&r](auto& key, size_t size) -> Status {
        auto k = r.view8();
        if (!k) return k.error();
        if (k.value().size() != size) return err("mctls: bad context key size");
        key = k.value();
        return {};
    };
    ContextKeys keys;
    for (int d = 0; d < 2; ++d)
        if (auto s = install(keys.reader_enc[d], kEncKeySize); !s) return s.error();
    for (int d = 0; d < 2; ++d)
        if (auto s = install(keys.reader_mac[d], kMacKeySize); !s) return s.error();
    if (writer_flag.value()) {
        for (int d = 0; d < 2; ++d)
            if (auto s = install(keys.writer_mac[d], kMacKeySize); !s) return s.error();
    }
    if (auto s = r.expect_done(); !s) return s.error();
    return keys;
}

Bytes derive_shared_secret(ConstBytes pre_secret, ConstBytes rand_a, ConstBytes rand_b)
{
    return crypto::prf(pre_secret, "ms", Joined{rand_a, rand_b}, 48);
}

AuthEncKey derive_pairwise_key(ConstBytes shared_secret, ConstBytes rand_a, ConstBytes rand_b)
{
    auto block = key_block<kEncKeySize + kMacKeySize>(shared_secret, "k", Joined{rand_a, rand_b});
    ConstBytes view{block};
    return AuthEncKey(view.subspan(0, kEncKeySize), view.subspan(kEncKeySize, kMacKeySize));
}

EndpointKeys derive_endpoint_keys(ConstBytes s_cs, ConstBytes rand_c, ConstBytes rand_s)
{
    auto block = key_block<2 * kMacKeySize + 2 * kEncKeySize + kEncKeySize + kMacKeySize>(
        s_cs, "k", Joined{rand_c, rand_s});
    ConstBytes view{block};
    size_t off = 0;
    EndpointKeys keys;
    for (int d = 0; d < 2; ++d) {
        keys.record_mac[d] = view.subspan(off, kMacKeySize);
        off += kMacKeySize;
    }
    for (int d = 0; d < 2; ++d) {
        keys.control_enc[d] = view.subspan(off, kEncKeySize);
        off += kEncKeySize;
    }
    keys.key_material.enc_key = view.subspan(off, kEncKeySize);
    off += kEncKeySize;
    keys.key_material.mac_key = view.subspan(off, kMacKeySize);
    return keys;
}

PartialContextKeys derive_partial_keys(const crypto::HmacKey& endpoint_secret, ConstBytes rand_e,
                                       uint8_t context_id)
{
    auto block = key_block<2 * kHalfSize>(endpoint_secret, "ck",
                                          Joined{rand_e, ConstBytes{&context_id, 1}});
    PartialContextKeys halves;
    std::copy_n(block.begin(), kHalfSize, halves.reader_half.begin());
    std::copy_n(block.begin() + kHalfSize, kHalfSize, halves.writer_half.begin());
    return halves;
}

PartialContextKeys derive_partial_keys(ConstBytes endpoint_secret, ConstBytes rand_e,
                                       uint8_t context_id)
{
    return derive_partial_keys(crypto::HmacKey(endpoint_secret), rand_e, context_id);
}

ContextSecrets ContextSecrets::join(const KeyHalf& client_reader_half,
                                    const KeyHalf& server_reader_half)
{
    return {joined_halves(client_reader_half, server_reader_half), std::nullopt};
}

ContextSecrets ContextSecrets::join(const PartialContextKeys& client_half,
                                    const PartialContextKeys& server_half)
{
    return {joined_halves(client_half.reader_half, server_half.reader_half),
            joined_halves(client_half.writer_half, server_half.writer_half)};
}

ContextKeys combine_reader_keys(const KeyHalf& client_reader_half,
                                const KeyHalf& server_reader_half, ConstBytes rand_c,
                                ConstBytes rand_s)
{
    return derive_context_keys(ContextSecrets::join(client_reader_half, server_reader_half),
                               Joined{rand_c, rand_s});
}

ContextKeys combine_context_keys(const PartialContextKeys& client_half,
                                 const PartialContextKeys& server_half, ConstBytes rand_c,
                                 ConstBytes rand_s)
{
    return derive_context_keys(ContextSecrets::join(client_half, server_half),
                               Joined{rand_c, rand_s});
}

ContextKeys derive_context_keys_ckd(ConstBytes s_cs, ConstBytes rand_c, ConstBytes rand_s,
                                    uint8_t context_id)
{
    Joined seed{rand_c, rand_s, ConstBytes{&context_id, 1}};
    crypto::HmacKey master(s_cs);
    ContextKeys keys;
    expand_reader_keys(keys, key_block<kHalfSize>(master, "ckd reader secret", seed), seed);
    expand_writer_keys(keys, key_block<kHalfSize>(master, "ckd writer secret", seed), seed);
    return keys;
}

void ContextTable::assign(std::vector<ContextDescription> negotiated)
{
    entries_.clear();
    entries_.reserve(negotiated.size());
    slot_.fill(0);
    for (ContextDescription& desc : negotiated) {
        ContextEntry& e = entries_.emplace_back();
        e.desc = std::move(desc);
        e.stats.id = e.desc.id;
        e.stats.name = e.desc.purpose.empty() ? "ctx" + std::to_string(e.desc.id) : e.desc.purpose;
        slot_[e.desc.id] = static_cast<uint8_t>(entries_.size());
    }
}

void ContextTable::set_seed(ConstBytes rand_c, ConstBytes rand_s)
{
    if (rand_c.size() + rand_s.size() != seed_.size())
        throw std::invalid_argument("mctls: hello randoms must be 32 bytes each");
    std::copy(rand_c.begin(), rand_c.end(), seed_.begin());
    std::copy(rand_s.begin(), rand_s.end(), seed_.begin() + rand_c.size());
}

void ContextTable::combine(ContextEntry& e, const ContextSecrets& secrets, bool pending)
{
    if (pending) {
        e.next = std::make_unique<ContextKeys>(derive_context_keys(secrets, seed_));
        return;
    }
    e.keys_ = ContextKeys{};
    e.secrets_ = secrets;
}

void ContextTable::install(ContextEntry& e, ContextKeys keys)
{
    e.keys_ = std::move(keys);
    e.secrets_.reset();
}

const ContextKeys& ContextTable::keys(const ContextEntry& e) const
{
    if (e.secrets_) {
        e.keys_ = derive_context_keys(*e.secrets_, seed_);
        e.secrets_.reset();
    }
    return e.keys_;
}

void ContextTable::begin_rekey(uint32_t next_epoch)
{
    pending_epoch_ = next_epoch;
    switched_[0] = switched_[1] = false;
    for (ContextEntry& e : entries_) e.next.reset();
}

void ContextTable::switch_direction(Direction dir)
{
    static const ContextKeys kNone;
    size_t d = static_cast<size_t>(dir);
    for (ContextEntry& e : entries_) {
        (void)keys(e);
        const ContextKeys& next = e.next ? *e.next : kNone;
        e.keys_.reader_enc[d] = next.reader_enc[d];
        e.keys_.reader_mac[d] = next.reader_mac[d];
        e.keys_.writer_mac[d] = next.writer_mac[d];
    }
    switched_[d] = true;
}

bool ContextTable::complete_rekey(uint32_t& current_epoch)
{
    if (!pending_epoch_ || !switched_[0] || !switched_[1]) return false;
    current_epoch = *std::exchange(pending_epoch_, std::nullopt);
    for (ContextEntry& e : entries_) e.next.reset();
    return true;
}

}  // namespace mct::mctls
