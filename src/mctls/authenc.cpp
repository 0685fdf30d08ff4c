#include "mctls/authenc.h"

#include "crypto/ct.h"

namespace mct::mctls {

namespace {

crypto::HmacTag tag(const AuthEncKey& key, ConstBytes associated_data, ConstBytes ciphertext)
{
    return crypto::hmac_sha256(key.mac_key.expanded(), {associated_data, ciphertext});
}

}  // namespace

Bytes authenc_seal(const AuthEncKey& key, ConstBytes associated_data, ConstBytes plaintext,
                   Rng& rng)
{
    Bytes sealed;
    sealed.reserve(crypto::cbc_ciphertext_size(plaintext.size()) +
                   crypto::HmacSha256::kTagSize);
    crypto::aes128_cbc_encrypt_into(key.enc_key.expanded(), plaintext, rng, sealed);
    append(sealed, tag(key, associated_data, sealed));
    return sealed;
}

Result<Bytes> authenc_open(const AuthEncKey& key, ConstBytes associated_data,
                           ConstBytes sealed)
{
    constexpr size_t kTag = crypto::HmacSha256::kTagSize;
    if (sealed.size() < kTag) return err("authenc: too short");
    ConstBytes ciphertext = sealed.subspan(0, sealed.size() - kTag);
    ConstBytes wire_tag = sealed.subspan(sealed.size() - kTag);
    if (!crypto::ct_equal(tag(key, associated_data, ciphertext), wire_tag))
        return err("authenc: bad tag");
    Bytes plaintext;
    auto n = crypto::aes128_cbc_decrypt_into(key.enc_key.expanded(), ciphertext, plaintext);
    if (!n) return n.error();
    return plaintext;
}

}  // namespace mct::mctls
