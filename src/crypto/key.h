// A symmetric key as installed in a session: its raw bytes together with the
// state expanded from them (an AES key schedule, HMAC midstates).
//
// The expanded state is built when the key is assigned and dropped when it
// is cleared, so the two can never disagree: overwriting a key changes the
// key every later MAC or cipher call uses. Raw bytes stay readable for the
// keylog and the client-key-distribution wire form; every symmetric call
// site uses expanded().
#pragma once

#include <optional>
#include <utility>

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "util/bytes.h"

namespace mct::crypto {

template <class Expanded>
class InstalledKey {
public:
    InstalledKey() = default;
    // Implicit, so `key = bytes` installs (and re-expands) a key.
    InstalledKey(Bytes raw) : raw_(std::move(raw))
    {
        if (!raw_.empty()) expanded_.emplace(raw_);
    }
    InstalledKey(ConstBytes raw) : InstalledKey(to_bytes(raw)) {}

    void clear()
    {
        raw_.clear();
        expanded_.reset();
    }

    bool empty() const { return raw_.empty(); }
    size_t size() const { return raw_.size(); }
    const Bytes& bytes() const { return raw_; }

    // The expansion of the raw bytes. An empty key's is not stored: it is
    // the shared expansion of zero bytes, i.e. HMAC under the empty key
    // (tags no holder of a real key accepts) or, for AES, which needs 16
    // bytes, a thrown std::invalid_argument.
    const Expanded& expanded() const { return expanded_ ? *expanded_ : empty_key(); }

    friend bool operator==(const InstalledKey& a, const InstalledKey& b)
    {
        return a.raw_ == b.raw_;
    }
    friend bool operator==(const InstalledKey& a, const Bytes& b) { return a.raw_ == b; }

private:
    static const Expanded& empty_key()
    {
        static const Expanded kEmpty{ConstBytes{}};
        return kEmpty;
    }

    Bytes raw_;
    std::optional<Expanded> expanded_;
};

using MacKey = InstalledKey<HmacKey>;
// Precondition: 16 raw bytes (Aes128's); callers parsing keys from outside
// check the size first.
using CipherKey = InstalledKey<Aes128>;

}  // namespace mct::crypto
