// TLS 1.2 pseudorandom function (RFC 5246 §5): P_SHA256-based PRF.
//
// PRF(secret, label, seed) = P_SHA256(secret, label || seed), where
// P_hash(secret, seed) = HMAC(secret, A(1) || seed) || HMAC(secret, A(2) || seed) || ...
// and A(0) = seed, A(i) = HMAC(secret, A(i-1)).
//
// Both the TLS baseline and mcTLS key schedules (master secret, key blocks,
// Finished verify_data, partial context keys) are built on this function,
// matching Figure 1 of the paper.
#pragma once

#include <string_view>

#include "util/bytes.h"

namespace mct::crypto {

class HmacKey;

// Fills `out` with PRF(secret, label, seed) under an already expanded
// secret. Allocation-free: every HMAC starts from the key's midstates.
void prf(const HmacKey& secret, std::string_view label, ConstBytes seed, MutableBytes out);

// One-shot form: expands `secret` and returns `out_len` bytes.
Bytes prf(ConstBytes secret, std::string_view label, ConstBytes seed, size_t out_len);

}  // namespace mct::crypto
