// A symmetric key as installed in a session: its raw bytes, held inline,
// together with the state expanded from them (an AES key schedule, HMAC
// midstates), built the first time the key is used.
//
// Installing a key copies at most kCapacity bytes and does no crypto. The
// first expanded() call builds the expansion and keeps it, bound to the
// crypto dispatch table active at that moment (crypto/cpu.h). Assigning or
// clearing a key drops the kept expansion, so the two can never disagree:
// overwriting a key changes the key every later MAC or cipher call uses. A
// key no record ever uses costs no SHA-256 compression and no AES key
// expansion. expanded() writes the cache, so one key is not to be shared
// across threads (sessions are single-threaded).
//
// Raw bytes stay readable for the keylog and the client-key-distribution
// wire form; every symmetric call site uses expanded().
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "util/bytes.h"

namespace mct::crypto {

template <class Expanded>
class InstalledKey {
public:
    // Every mcTLS and TLS MAC key is 32 bytes and every AES key 16.
    static constexpr size_t kCapacity = 32;

    InstalledKey() = default;
    // Implicit, so `key = bytes` installs a key. Throws std::invalid_argument
    // on more than kCapacity bytes (a key is never truncated) and, for an AES
    // key, on any size but 16 bytes, so a bad key fails where it is
    // installed, not where it is first used. Empty is "no key".
    InstalledKey(ConstBytes raw)
    {
        if (raw.size() > kCapacity)
            throw std::invalid_argument("InstalledKey: key larger than its capacity");
        if constexpr (std::is_same_v<Expanded, Aes128>) {
            if (!raw.empty() && raw.size() != Aes128::kKeySize)
                throw std::invalid_argument("InstalledKey: AES-128 key must be 16 bytes");
        }
        std::copy(raw.begin(), raw.end(), raw_.begin());
        size_ = static_cast<uint8_t>(raw.size());
    }
    InstalledKey(const Bytes& raw) : InstalledKey(ConstBytes{raw}) {}

    void clear()
    {
        size_ = 0;
        expanded_.reset();
    }

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    ConstBytes bytes() const { return {raw_.data(), size_}; }

    // The expansion of the raw bytes, built on the first call. An empty
    // key's is not stored: it is the shared expansion of zero bytes, i.e.
    // HMAC under the empty key (tags no holder of a real key accepts) or,
    // for AES, which needs 16 bytes, a thrown std::invalid_argument.
    const Expanded& expanded() const
    {
        if (size_ == 0) return empty_key();
        if (!expanded_) expanded_.emplace(bytes());
        return *expanded_;
    }

    friend bool operator==(const InstalledKey& a, const InstalledKey& b)
    {
        return std::ranges::equal(a.bytes(), b.bytes());
    }
    friend bool operator==(const InstalledKey& a, const Bytes& b)
    {
        return std::ranges::equal(a.bytes(), b);
    }

private:
    static const Expanded& empty_key()
    {
        static const Expanded kEmpty{ConstBytes{}};
        return kEmpty;
    }

    std::array<uint8_t, kCapacity> raw_{};
    uint8_t size_ = 0;
    mutable std::optional<Expanded> expanded_;
};

using MacKey = InstalledKey<HmacKey>;
using CipherKey = InstalledKey<Aes128>;

}  // namespace mct::crypto
