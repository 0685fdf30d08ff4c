// Direct calls into the crypto and mctls layers, timed one batch per span,
// so the traced run can say how much of the chain's busy time each layer
// explains.
#pragma once

#include <cstddef>
#include <cstdint>

#include "measure.h"

namespace chainbench {

// Median cost of one call, over batches of calls.
struct MicroCosts {
    double x25519_us = 0;          // DHCombine (x25519_shared)
    double ed25519_sign_us = 0;    // 128 B message
    double ed25519_verify_us = 0;  // 128 B message
    double prf_us = 0;             // 96 B output: context reader-key expansion
    double hmac_sha256_64b_ns = 0;
    double aes128_cbc_encrypt_MBps = 0;  // 15000 B, cached key schedule
    double sha256_MBps = 0;              // 15000 B
    // context_crypto at the workload's payload size.
    double seal_ns = 0;           // endpoint seal, all three MACs
    double open_endpoint_ns = 0;  // receiving endpoint open
    double open_reader_ns = 0;    // reader middlebox open
    double reseal_ns = 0;         // writer middlebox open + reseal
};

// Spends about `seconds_per_call` on each call. Spans are recorded into
// `rec` as roots named after the layer and call.
MicroCosts measure_micro(SpanRecorder& rec, size_t payload, uint64_t seed,
                         double seconds_per_call);

}  // namespace chainbench
