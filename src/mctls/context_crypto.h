// The mcTLS record protection scheme (§3.4): per-context encryption plus the
// endpoint-writer-reader MAC stack.
//
// Wire fragment layout (inside the record body, after the context-id header
// byte handled by tls::RecordCodec):
//
//   CBC( payload || MAC_endpoints || MAC_writers || MAC_readers )
//
// encrypted under the context's reader encryption key for the direction of
// travel. All three MACs cover seq || type || version || ctx || len ||
// payload (tls::mac_pseudo_header, then the payload). Sequence numbers are
// global across contexts per direction and implicit (never on the wire), so
// deleting or reordering a record breaks every subsequent MAC — the property
// §3.4 calls out.
//
//   - Endpoints generate all three MACs.
//   - A writer verifies MAC_writers, may replace the payload, regenerates
//     MAC_writers and MAC_readers, and forwards the original MAC_endpoints.
//   - A reader verifies MAC_readers and forwards the fragment unmodified.
//   - Receiving endpoints verify MAC_writers (no illegal modification) and
//     report whether MAC_endpoints still matches (was the data modified by
//     a legal writer?).
//
// One API per role: the seal and reseal *_into forms append straight into a
// caller-owned wire buffer, and the opens decrypt into a reusable
// RecordScratch and return borrowed views, so the steady-state triple-MAC
// pipeline performs zero per-record heap allocations. seal_record is the
// one owning wrapper, kept for the record micro-benchmarks.
#pragma once

#include <cstdint>

#include "crypto/aes.h"
#include "mctls/key_schedule.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/rng.h"

namespace mct::mctls {

constexpr size_t kMacSize = 32;

// Exact fragment size seal_record produces for `payload_len` payload bytes.
constexpr size_t sealed_record_size(size_t payload_len)
{
    return crypto::cbc_ciphertext_size(payload_len + 3 * kMacSize);
}

// Caller-owned decrypt scratch threaded through the open fast path. One
// scratch per session/direction; `plain` keeps its high-water capacity so
// repeated opens stop allocating. The counters feed the
// records-per-allocation metric surfaced by the benches and tests.
struct RecordScratch {
    Bytes plain;
    uint64_t records = 0;           // scratch-based opens served
    uint64_t heap_allocations = 0;  // times `plain` had to grow
};

// The bytes all three MACs (and a mode-(b) signature) cover: the
// tls::mac_pseudo_header of an application_data record, then the payload.
Bytes record_mac_input(uint64_t seq, uint8_t context_id, ConstBytes payload);

// Optional per-stage CPU cost breakdown for the latency attribution plane
// (obs spans): steady-clock nanoseconds spent in MAC computation/verification
// and in the CBC cipher, plus the number of MAC operations. Timed only when
// a caller passes a non-null pointer — the default path reads no clock.
struct StageNanos {
    uint64_t mac_ns = 0;
    uint64_t cipher_ns = 0;
    uint64_t macs = 0;
};

// Endpoint-side seal: all three MACs fresh.
Bytes seal_record(const ContextKeys& ctx, const EndpointKeys& endpoint, Direction dir,
                  uint64_t seq, uint8_t context_id, ConstBytes payload, Rng& rng);
// Appends the sealed fragment to `out` (exactly sealed_record_size bytes).
void seal_record_into(const ContextKeys& ctx, const EndpointKeys& endpoint, Direction dir,
                      uint64_t seq, uint8_t context_id, ConstBytes payload, Rng& rng,
                      Bytes& out, StageNanos* timing = nullptr);

// Borrowed-view results of the opens; views point into the scratch and stay
// valid until its next use.
struct EndpointOpenView {
    ConstBytes payload;
    // False when a writer (legally) modified the record in flight: the
    // writer MAC verified but the endpoint MAC no longer matches.
    bool from_endpoint = true;
};

struct WriterOpenView {
    ConstBytes payload;
    ConstBytes endpoint_mac;  // forwarded verbatim on reseal
};

// Receiving-endpoint open: decrypt, require a valid writer MAC, report
// endpoint-MAC status.
Result<EndpointOpenView> open_record_endpoint(const ContextKeys& ctx,
                                              const EndpointKeys& endpoint, Direction dir,
                                              uint64_t seq, uint8_t context_id,
                                              ConstBytes fragment, RecordScratch& scratch,
                                              StageNanos* timing = nullptr);

// Writer-side open: decrypt and require a valid writer MAC.
Result<WriterOpenView> open_record_writer(const ContextKeys& ctx, Direction dir, uint64_t seq,
                                          uint8_t context_id, ConstBytes fragment,
                                          RecordScratch& scratch, StageNanos* timing = nullptr);

// Writer-side reseal with a (possibly modified) payload; regenerates writer
// and reader MACs and forwards `endpoint_mac` untouched.
void reseal_record_writer_into(const ContextKeys& ctx, Direction dir, uint64_t seq,
                               uint8_t context_id, ConstBytes payload, ConstBytes endpoint_mac,
                               Rng& rng, Bytes& out, StageNanos* timing = nullptr);

// Reader-side open: decrypt and require a valid reader MAC. The caller
// forwards the original fragment bytes.
Result<ConstBytes> open_record_reader(const ContextKeys& ctx, Direction dir, uint64_t seq,
                                      uint8_t context_id, ConstBytes fragment,
                                      RecordScratch& scratch, StageNanos* timing = nullptr);

// ---- Optional mode (b) of §3.4: signed records -------------------------
//
// With plain MACs, readers cannot detect illegal modifications by *other
// readers* (they all share K_readers). The paper sketches two fixes and
// deems them optional; this implements fix (b): endpoints and writers
// append an Ed25519 signature over the record in place of trusting the
// writer MAC alone — readers can verify signatures without being able to
// forge them. The fragment layout gains a 64-byte signature after the
// reader MAC. The ablation bench quantifies the paper's "additional
// overhead" remark.

Bytes seal_record_signed(const ContextKeys& ctx, const EndpointKeys& endpoint, Direction dir,
                         uint64_t seq, uint8_t context_id, ConstBytes payload,
                         ConstBytes signer_seed, Rng& rng);

struct SignedOpen {
    Bytes payload;
    bool from_endpoint = true;
};

// Reader-side open in signed mode: verifies the reader MAC *and* the
// sender's signature, so even another reader's forgery is detected.
Result<SignedOpen> open_record_reader_signed(const ContextKeys& ctx, Direction dir,
                                             uint64_t seq, uint8_t context_id,
                                             ConstBytes fragment,
                                             ConstBytes signer_public);

}  // namespace mct::mctls
