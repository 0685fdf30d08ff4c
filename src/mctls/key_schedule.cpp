#include "mctls/key_schedule.h"

#include "crypto/prf.h"
#include "util/serde.h"

namespace mct::mctls {

namespace {

constexpr size_t kEncKeySize = 16;
constexpr size_t kMacKeySize = 32;
constexpr size_t kHalfSize = 32;

}  // namespace

Bytes ContextKeys::serialize(bool writer) const
{
    Writer w;
    w.u8(writer ? 1 : 0);
    w.vec8(reader_enc[0]);
    w.vec8(reader_enc[1]);
    w.vec8(reader_mac[0]);
    w.vec8(reader_mac[1]);
    if (writer) {
        w.vec8(writer_mac[0]);
        w.vec8(writer_mac[1]);
    }
    return w.take();
}

Result<ContextKeys> ContextKeys::parse(ConstBytes wire)
{
    Reader r(wire);
    auto writer_flag = r.u8();
    if (!writer_flag) return writer_flag.error();
    ContextKeys keys;
    for (int d = 0; d < 2; ++d) {
        auto k = r.vec8();
        if (!k) return k.error();
        keys.reader_enc[d] = k.take();
    }
    for (int d = 0; d < 2; ++d) {
        auto k = r.vec8();
        if (!k) return k.error();
        keys.reader_mac[d] = k.take();
    }
    if (writer_flag.value()) {
        for (int d = 0; d < 2; ++d) {
            auto k = r.vec8();
            if (!k) return k.error();
            keys.writer_mac[d] = k.take();
        }
    }
    if (auto s = r.expect_done(); !s) return s.error();
    return keys;
}

Bytes derive_shared_secret(ConstBytes pre_secret, ConstBytes rand_a, ConstBytes rand_b)
{
    return crypto::prf(pre_secret, "ms", concat(rand_a, rand_b), 48);
}

AuthEncKey derive_pairwise_key(ConstBytes shared_secret, ConstBytes rand_a, ConstBytes rand_b)
{
    Bytes block = crypto::prf(shared_secret, "k", concat(rand_a, rand_b),
                              kEncKeySize + kMacKeySize);
    ConstBytes view{block};
    return AuthEncKey{to_bytes(view.subspan(0, kEncKeySize)),
                      to_bytes(view.subspan(kEncKeySize, kMacKeySize))};
}

EndpointKeys derive_endpoint_keys(ConstBytes s_cs, ConstBytes rand_c, ConstBytes rand_s)
{
    Bytes block = crypto::prf(s_cs, "k", concat(rand_c, rand_s),
                              2 * kMacKeySize + 2 * kEncKeySize + kEncKeySize + kMacKeySize);
    ConstBytes view{block};
    size_t off = 0;
    EndpointKeys keys;
    for (int d = 0; d < 2; ++d) {
        keys.record_mac[d] = to_bytes(view.subspan(off, kMacKeySize));
        off += kMacKeySize;
    }
    for (int d = 0; d < 2; ++d) {
        keys.control_enc[d] = to_bytes(view.subspan(off, kEncKeySize));
        off += kEncKeySize;
    }
    keys.key_material.enc_key = to_bytes(view.subspan(off, kEncKeySize));
    off += kEncKeySize;
    keys.key_material.mac_key = to_bytes(view.subspan(off, kMacKeySize));
    return keys;
}

PartialContextKeys derive_partial_keys(ConstBytes endpoint_secret, ConstBytes rand_e,
                                       uint8_t context_id)
{
    Bytes seed = concat(rand_e, Bytes{context_id});
    Bytes block = crypto::prf(endpoint_secret, "ck", seed, 2 * kHalfSize);
    ConstBytes view{block};
    return PartialContextKeys{to_bytes(view.subspan(0, kHalfSize)),
                              to_bytes(view.subspan(kHalfSize, kHalfSize))};
}

namespace {

ContextKeys expand_context_keys(ConstBytes reader_secret, ConstBytes writer_secret,
                                ConstBytes seed)
{
    ContextKeys keys;
    Bytes reader_block = crypto::prf(reader_secret, "reader keys", seed,
                                     2 * kEncKeySize + 2 * kMacKeySize);
    ConstBytes rv{reader_block};
    keys.reader_enc[0] = to_bytes(rv.subspan(0, kEncKeySize));
    keys.reader_enc[1] = to_bytes(rv.subspan(kEncKeySize, kEncKeySize));
    keys.reader_mac[0] = to_bytes(rv.subspan(2 * kEncKeySize, kMacKeySize));
    keys.reader_mac[1] = to_bytes(rv.subspan(2 * kEncKeySize + kMacKeySize, kMacKeySize));

    Bytes writer_block = crypto::prf(writer_secret, "writer keys", seed, 2 * kMacKeySize);
    ConstBytes wv{writer_block};
    keys.writer_mac[0] = to_bytes(wv.subspan(0, kMacKeySize));
    keys.writer_mac[1] = to_bytes(wv.subspan(kMacKeySize, kMacKeySize));
    return keys;
}

}  // namespace

ContextKeys combine_context_keys(const PartialContextKeys& client_half,
                                 const PartialContextKeys& server_half, ConstBytes rand_c,
                                 ConstBytes rand_s)
{
    Bytes seed = concat(rand_c, rand_s);
    return expand_context_keys(concat(client_half.reader_half, server_half.reader_half),
                               concat(client_half.writer_half, server_half.writer_half),
                               seed);
}

ContextKeys derive_context_keys_ckd(ConstBytes s_cs, ConstBytes rand_c, ConstBytes rand_s,
                                    uint8_t context_id)
{
    Bytes seed = concat(rand_c, rand_s, Bytes{context_id});
    Bytes reader_secret = crypto::prf(s_cs, "ckd reader secret", seed, kHalfSize);
    Bytes writer_secret = crypto::prf(s_cs, "ckd writer secret", seed, kHalfSize);
    return expand_context_keys(reader_secret, writer_secret, seed);
}

void switch_direction_keys(std::map<uint8_t, ContextKeys>& current,
                           const std::map<uint8_t, ContextKeys>& pending, Direction dir,
                           bool (&switched)[2])
{
    size_t d = static_cast<size_t>(dir);
    for (const auto& [id, next] : pending) {
        ContextKeys& keys = current[id];
        keys.reader_enc[d] = next.reader_enc[d];
        keys.reader_mac[d] = next.reader_mac[d];
        keys.writer_mac[d] = next.writer_mac[d];
    }
    switched[d] = true;
}

}  // namespace mct::mctls
