// mcTLS core types: encryption contexts, middlebox permissions, and the
// MiddleboxListExtension carried in the ClientHello (§3.3, §3.5).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tls/alert.h"
#include "util/bytes.h"
#include "util/result.h"

namespace mct::mctls {

// Typed session failure reporting. mcTLS shares the TLS alert taxonomy
// (tls/alert.h) plus two extensions — handshake_timeout and
// middlebox_failure — so that every fail() path in mctls::Session and
// MiddleboxSession records which AlertDescription was sent or received and
// callers can branch on the cause (retry, fall back to TLS, abort) instead
// of string-matching the error message.
using AlertDescription = tls::AlertDescription;
using AlertLevel = tls::AlertLevel;
using SessionError = tls::SessionError;

// Access a middlebox holds for one encryption context (§3.4): writers get
// K_readers + K_writers, readers K_readers only, none neither.
enum class Permission : uint8_t {
    none = 0,
    read = 1,
    write = 2,
};

const char* to_string(Permission p);

// Application-data contexts are 1-based; context id 0 is reserved for the
// endpoint-only control stream (Finished, post-handshake control data).
constexpr uint8_t kControlContext = 0;
constexpr size_t kMaxContexts = 255;

struct ContextDescription {
    uint8_t id = 1;
    std::string purpose;  // opaque to mcTLS itself, e.g. "request-headers"
    // permissions[i] = access requested for middlebox i.
    std::vector<Permission> permissions;

    bool operator==(const ContextDescription&) const = default;
};

struct MiddleboxInfo {
    std::string name;     // stable identity; must match its certificate subject
    std::string address;  // network locator (host name in the simulator)

    bool operator==(const MiddleboxInfo&) const = default;
};

// ClientHello extension: the middleboxes to include in the session and the
// contexts with per-middlebox permissions (§3.5 step 2).
struct MiddleboxListExtension {
    std::vector<MiddleboxInfo> middleboxes;
    std::vector<ContextDescription> contexts;

    Bytes serialize() const;
    static Result<MiddleboxListExtension> parse(ConstBytes wire);
};

// ServerHello extension: the handshake mode the server chose (§3.6) and the
// permissions it granted (possibly downgraded from the client's request —
// the "online banking" policy of §4.2). Grants are informational for
// visibility (R4); enforcement happens through the server withholding its
// key halves.
struct ServerModeExtension {
    bool client_key_distribution = false;
    // granted[c][m] = permission for middlebox m in context c (same order as
    // the MiddleboxListExtension).
    std::vector<std::vector<Permission>> granted;

    Bytes serialize() const;
    static Result<ServerModeExtension> parse(ConstBytes wire);
};

}  // namespace mct::mctls
