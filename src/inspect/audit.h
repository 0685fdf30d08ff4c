// Least-privilege access audit over a dissected session (the paper's R2/R4
// visibility properties, checked offline): who *could* touch each context,
// who *did*, and whether every observed modification was covered by a
// grant.
//
// The matrix rows are chain entities (client, each middlebox, server); the
// columns are the negotiated contexts. Permissions come from the hello
// exchange (min of requested and granted); observations come from diffing
// each application record's wire bytes and decrypted payload across
// adjacent hops — a write-granted hop always re-seals (fresh IV, fresh
// reader/writer MACs), so `records_resealed` counts forwarding work while
// `records_modified` counts actual plaintext changes.
//
// Anomalies are MAC-verified violations: a reader or writer MAC that fails
// anywhere, an endpoint MAC that fails with no write-granted middlebox
// upstream (tampering), or an undecryptable record despite keys.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inspect/dissect.h"
#include "mctls/types.h"

namespace mct::inspect {

struct AuditCell {
    mctls::Permission permission = mctls::Permission::none;
    uint64_t records_resealed = 0;  // wire bytes rewritten by this entity
    uint64_t records_modified = 0;  // decrypted payload changed by this entity
};

struct AuditAnomaly {
    size_t hop = 0;
    uint8_t dir = 0;
    uint64_t app_seq = 0;
    uint8_t context_id = 0;
    std::string kind;  // reader_mac_mismatch | writer_mac_mismatch |
                       // endpoint_mac_unexplained | decrypt_failure
    std::string detail;
};

struct AuditReport {
    bool is_mctls = false;
    bool keys_available = false;
    bool resumed = false;
    bool ckd = false;
    uint32_t rekeys_observed = 0;

    std::vector<std::string> entities;  // client, middleboxes..., server
    std::vector<uint8_t> context_ids;
    std::vector<std::string> context_purposes;
    // matrix[entity][context index]; endpoints hold write by construction.
    std::vector<std::vector<AuditCell>> matrix;
    std::vector<AuditAnomaly> anomalies;

    uint64_t app_records = 0;            // distinct (direction, sequence) records
    uint64_t app_records_decrypted = 0;  // decrypted on every hop observed
    uint64_t app_records_verified = 0;   // every applicable MAC ok on every hop

    const AuditCell* cell(size_t entity, uint8_t context_id) const;

    // Serialize via obs::JsonWriter (`mctool dump --audit` output).
    void to_json(std::string* out) const;
};

AuditReport build_audit(const SessionDissection& session);

}  // namespace mct::inspect
