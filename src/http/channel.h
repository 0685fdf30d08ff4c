// SecureChannel: one interface over the four transport-security modes the
// paper evaluates (§5, "four modes of operation"):
//
//   mcTLS     - mctls::Session (contexts, three MACs, middlebox key material)
//   SplitTLS  - tls::Session per hop, terminated at middleboxes
//   E2E-TLS   - tls::Session end-to-end, middleboxes forward blindly
//   NoEncrypt - plaintext byte stream
//
// HTTP apps talk to this interface only, so the same client/server code runs
// over every mode. send_part's context id is meaningful only for mcTLS.
#pragma once

#include <memory>

#include "mctls/session.h"
#include "tls/session.h"
#include "util/bytes.h"
#include "util/result.h"

namespace mct::http {

class SecureChannel {
public:
    virtual ~SecureChannel() = default;

    // Client side: begin the handshake (may queue outgoing bytes).
    virtual void start() {}
    virtual Status on_bytes(ConstBytes wire) = 0;
    // Write units: send each element with exactly one transport send().
    virtual std::vector<Bytes> take_outgoing() = 0;
    virtual bool ready() const = 0;
    virtual bool failed() const = 0;
    virtual std::string error() const { return {}; }

    virtual Status send_part(uint8_t context_id, ConstBytes data) = 0;
    // Ordered application byte stream received so far.
    virtual Bytes take_received() = 0;

    // --- Failure semantics (no-ops for modes without a session) ---

    // Drive the session's handshake deadline (see Session::tick).
    virtual Status tick(uint64_t) { return {}; }
    // Graceful shutdown / transport EOF, forwarded to the session.
    virtual void close() {}
    virtual void transport_closed() {}
    virtual bool closed() const { return false; }
    // Typed failure, or nullptr when the mode has no session.
    virtual const tls::SessionError* failure() const { return nullptr; }

    virtual uint64_t handshake_wire_bytes() const { return 0; }
    virtual uint64_t app_overhead_bytes() const { return 0; }
    virtual uint64_t app_records_sent() const { return 0; }

    // Telemetry snapshot of the underlying session (empty default for modes
    // without one, e.g. NoEncrypt).
    virtual obs::SessionStats session_stats() const { return {}; }

    // Session continuity: did the handshake complete via resumption?
    virtual bool resumed() const { return false; }

    // --- Latency attribution (no-ops for modes without spans) ---

    // Span contexts aligned with the units returned by the most recent
    // take_outgoing(); the driver pairs each valid context with its unit's
    // Connection::send_traced call.
    virtual std::vector<obs::SpanContext> take_outgoing_spans() { return {}; }
    // Incoming transport contexts (Connection::take_rx_spans), pushed in
    // order BEFORE the bytes they annotate are fed to on_bytes.
    virtual void queue_rx_span(obs::SpanContext) {}
};

class PlainChannel final : public SecureChannel {
public:
    Status on_bytes(ConstBytes wire) override
    {
        append(received_, wire);
        return {};
    }
    std::vector<Bytes> take_outgoing() override { return std::exchange(out_, {}); }
    bool ready() const override { return true; }
    bool failed() const override { return false; }
    Status send_part(uint8_t, ConstBytes data) override
    {
        out_.push_back(to_bytes(data));
        return {};
    }
    Bytes take_received() override { return std::exchange(received_, {}); }

private:
    std::vector<Bytes> out_;
    Bytes received_;
};

// Everything a session-backed channel forwards to its session. tls::Session
// and mctls::Session share these calls (both hold a tls::SessionCore); the
// two subclasses add only send_part and take_received, whose signatures
// differ between the protocols.
template <typename S>
class SessionChannel : public SecureChannel {
public:
    template <typename Config>
    explicit SessionChannel(Config cfg) : session_(std::move(cfg)) {}

    void start() override { session_.start(); }
    Status on_bytes(ConstBytes wire) override { return session_.feed(wire); }
    std::vector<Bytes> take_outgoing() override { return session_.take_write_units(); }
    bool ready() const override { return session_.handshake_complete(); }
    bool failed() const override { return session_.failed(); }
    std::string error() const override { return session_.error(); }
    Status tick(uint64_t now) override { return session_.tick(now); }
    void close() override { session_.close(); }
    void transport_closed() override { session_.transport_closed(); }
    bool closed() const override { return session_.closed(); }
    const tls::SessionError* failure() const override { return &session_.failure(); }
    uint64_t handshake_wire_bytes() const override { return session_.handshake_wire_bytes(); }
    uint64_t app_overhead_bytes() const override { return session_.app_overhead_bytes(); }
    uint64_t app_records_sent() const override { return session_.app_records_sent(); }
    obs::SessionStats session_stats() const override { return session_.session_stats(); }
    bool resumed() const override { return session_.resumed(); }
    std::vector<obs::SpanContext> take_outgoing_spans() override
    {
        return session_.take_unit_spans();
    }
    void queue_rx_span(obs::SpanContext ctx) override { session_.queue_rx_span(ctx); }

    S& session() { return session_; }

protected:
    S session_;
};

class TlsChannel final : public SessionChannel<tls::Session> {
public:
    using SessionChannel::SessionChannel;

    Status send_part(uint8_t, ConstBytes data) override { return session_.send_app_data(data); }
    Bytes take_received() override { return session_.take_app_data(); }
};

class McTlsChannel final : public SessionChannel<mctls::Session> {
public:
    using SessionChannel::SessionChannel;

    Status send_part(uint8_t context_id, ConstBytes data) override
    {
        return session_.send_app_data(context_id, data);
    }
    Bytes take_received() override
    {
        Bytes out;
        for (auto& chunk : session_.take_app_data()) {
            if (!chunk.from_endpoint) ++writer_modified_chunks_;
            append(out, chunk.data);
        }
        return out;
    }

    uint64_t writer_modified_chunks() const { return writer_modified_chunks_; }

private:
    uint64_t writer_modified_chunks_ = 0;
};

}  // namespace mct::http
