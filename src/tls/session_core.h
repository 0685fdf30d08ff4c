// Lifecycle core shared by every secure session (sans-IO).
//
// tls::Session, mctls::Session and mctls::MiddleboxSession each hold one
// SessionCore by composition. It owns the rules all three must apply
// identically (DESIGN.md "Failure model"), so a fix to any of them lands
// here once:
//   - identity: the actor name interned into the journal, plus the journal
//     and lane handles;
//   - the failure record: error string, first typed failure, last alert
//     sent and received, truncation flag;
//   - alert bookkeeping and the send rules (at most one fatal alert, at most
//     one close_notify);
//   - the endpoint lifecycle: fail, close, peer alerts, transport EOF, the
//     duplicate-CCS check and the arm-then-fire handshake deadline;
//   - the write-unit queue with its aligned span contexts;
//   - the counters every session_stats() reports;
//   - the IV source every CBC IV the session seals with comes from;
//   - the handshake record layer: the session's only record codec, the
//     handshake reader, the two handshake protectors, the flight writer
//     (fragmentation, CCS, protected Finished) and the inbound dispatch of
//     alert, CCS and handshake records.
// A middlebox uses the identity, failure record, bookkeeping and deadline
// parts and keeps its own two-sided teardown policy (one UnitQueue per
// direction, alerts toward one or both endpoints) and its own forwarding
// record handling.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "crypto/aes.h"
#include "crypto/ops.h"
#include "obs/obs.h"
#include "tls/alert.h"
#include "tls/messages.h"
#include "tls/record.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/rng.h"

namespace mct::tls {

// Outbound write units of one hop (one transport send() each), the span
// contexts aligned index-for-index with them, and the FIFO of inbound
// transport span contexts for the same hop. Only traced app-record units
// carry a context, and pushes and pops ride the same in-order record
// stream, so the two sides can never skew.
class UnitQueue {
public:
    explicit UnitQueue(bool traced) : traced_(traced) {}

    bool empty() const { return units_.empty(); }
    Bytes& back() { return units_.back(); }
    void push(Bytes unit) { units_.push_back(std::move(unit)); }
    // Append `wire` to the open unit, or start a new one when `own_unit` is
    // set or no unit is open.
    void append(ConstBytes wire, bool own_unit)
    {
        if (own_unit || units_.empty())
            units_.push_back(to_bytes(wire));
        else
            mct::append(units_.back(), wire);
    }
    // Attach `ctx` to the most recently pushed unit; earlier untraced units
    // are padded with invalid contexts.
    void tag_last(obs::SpanContext ctx)
    {
        if (units_.empty()) return;
        spans_.resize(units_.size() - 1);
        spans_.push_back(ctx);
    }

    std::vector<Bytes> take()
    {
        if (traced_) {
            spans_.resize(units_.size());  // pad trailing untraced units
            taken_spans_ = std::move(spans_);
            spans_.clear();
        }
        return std::exchange(units_, {});
    }
    // Contexts aligned with the units of the most recent take().
    std::vector<obs::SpanContext> take_spans() { return std::exchange(taken_spans_, {}); }

    void queue_rx_span(obs::SpanContext ctx)
    {
        if (traced_ && ctx.valid()) rx_spans_.push_back(ctx);
    }
    // Next inbound context, or an invalid one when none is queued.
    obs::SpanContext pop_rx_span()
    {
        if (rx_head_ == rx_spans_.size()) return {};
        obs::SpanContext ctx = rx_spans_[rx_head_++];
        if (rx_head_ == rx_spans_.size()) {
            rx_spans_.clear();
            rx_head_ = 0;
        }
        return ctx;
    }

private:
    bool traced_;
    std::vector<Bytes> units_;
    std::vector<obs::SpanContext> spans_;
    std::vector<obs::SpanContext> taken_spans_;
    std::vector<obs::SpanContext> rx_spans_;
    size_t rx_head_ = 0;
};

// Returns *rng; throws std::invalid_argument ("<owner>: rng is required")
// when it is null.
Rng& require_rng(Rng* rng, const char* owner);

class SessionCore {
public:
    struct Config {
        const char* prefix = "tls";  // error-message prefix ("tls: ...")
        std::string actor;           // journal actor name
        bool with_context_id = false;  // record framing of emitted alerts
        obs::Journal* journal = nullptr;
        obs::Lane* lane = nullptr;   // this session's lane in `journal`
        uint64_t handshake_timeout = 0;  // 0 disables the deadline
        crypto::OpCounters* ops = nullptr;  // the session's Table 3 counters
    };

    // Counters every session_stats() reports; the owning session bumps them
    // in place on its record paths.
    struct Counters {
        uint64_t handshake_wire_bytes = 0;
        uint64_t app_overhead_bytes = 0;
        uint64_t app_records_sent = 0;
        uint64_t app_records_received = 0;
        uint64_t macs_generated = 0;
        uint64_t macs_verified = 0;
        uint64_t mac_failures = 0;
    };

    // Draws the IV source's key from `rng` (the session's cfg.rng) first,
    // before any other draw the session makes.
    SessionCore(Config cfg, Rng& rng);

    // --- Observability handles ---
    // The journal when it collects spans, else null.
    obs::Journal* spans() const { return obs::span_on(journal_) ? journal_ : nullptr; }
    void trace(obs::EventType type, uint16_t ctx = 0, uint64_t a = 0, uint64_t b = 0,
               uint64_t trace_id = 0) const
    {
        obs::emit(journal_, lane_, actor_id_, type, ctx, a, b, trace_id);
    }
    // Latency attribution (spans() must be set). Sim time does not advance
    // inside a session, so every span is an instant on the sim clock and CPU
    // costs ride in cpu_ns. begin_record_trace emits the root span of a new
    // record trace; emit_span adds a span under `parent` in its trace and
    // returns the new span id.
    obs::SpanContext begin_record_trace(uint16_t ctx, uint64_t bytes);
    uint64_t emit_span(obs::SpanContext parent, obs::Stage stage, uint16_t ctx, uint64_t cpu_ns,
                       uint64_t a);

    // --- Failure record ---
    const std::string& error() const { return error_; }
    const SessionError& failure() const { return failure_; }
    const std::optional<Alert>& alert_sent() const { return alert_sent_; }
    const std::optional<Alert>& peer_alert() const { return peer_alert_; }
    bool truncated() const { return truncated_; }
    // First failure wins: later reports leave the typed failure alone.
    void note_failure(SessionError::Origin origin, AlertDescription description,
                      const std::string& message);
    // Transport EOF without close_notify (truncation-attack detection).
    void note_truncation(AlertDescription description, const std::string& message);
    // Enter the failed phase with `message`; hs_failed is traced when the
    // failure interrupts a handshake.
    void record_failure(SessionError::Origin origin, AlertDescription description,
                        std::string message, bool in_handshake);

    // --- Alert bookkeeping ---
    // Records an alert about to be sent. False (nothing recorded) when the
    // send rules suppress it: a fatal alert already went out, or this is a
    // second close_notify.
    bool note_alert_sent(const Alert& alert);
    void note_alert_received(const Alert& alert);
    void note_mac_failure(uint16_t ctx, uint64_t wire_size)
    {
        ++counters.mac_failures;
        trace(obs::EventType::mac_verify_fail, ctx, wire_size);
    }

    // --- Handshake deadline ---
    // Arm-then-fire: the first call arms the deadline at now + timeout;
    // true once `now` reaches it. Always false with the deadline disabled.
    bool deadline_due(uint64_t now);

    // --- Endpoint lifecycle ---
    bool in_handshake() const { return phase_ == Phase::handshake; }
    bool established() const { return phase_ == Phase::established; }
    bool closed() const { return phase_ == Phase::closed; }
    bool failed() const { return phase_ == Phase::failed; }
    bool close_sent() const { return close_sent_; }
    void establish() { phase_ = Phase::established; }

    // Local failure: a fatal alert (handshake_failure by default) goes out.
    Status fail(std::string message);
    Status fail(AlertDescription description, std::string message);
    Status tick(uint64_t now);
    void close();
    void transport_closed();
    bool ccs_received() const { return ccs_received_; }

    // Every CBC IV the session seals with: application records, the writer
    // reseal, Finished and control records, key-material seals. Hello
    // randoms, secrets and keys stay on cfg.rng.
    Rng& iv_source() { return iv_source_; }

    // --- Handshake record layer ---
    // Installs the handshake protectors once the key schedule has run (TLS:
    // the session's record keys; mcTLS: the control-context keys).
    void set_protectors(CbcHmacProtector send, CbcHmacProtector recv)
    {
        send_protector_ = std::make_unique<CbcHmacProtector>(std::move(send));
        recv_protector_ = std::make_unique<CbcHmacProtector>(std::move(recv));
    }
    CbcHmacProtector& send_protector() { return *send_protector_; }
    CbcHmacProtector& recv_protector() { return *recv_protector_; }

    // Queues one write unit: `flight` as handshake records of at most
    // kMaxFragment bytes, then, when `verify_data` is given, CCS and a
    // Finished carrying it, protected under the send protector. All of it
    // counts as handshake bytes. Returns the plaintext Finished message for
    // the caller's transcript (empty without one).
    Bytes queue_flight(ConstBytes flight, ConstBytes verify_data = {});

    // Applies, in order: the alert, the after-close rule, CCS, and handshake
    // records, which are opened under the receive protector once CCS has
    // arrived and fed message by message to `on_message`. nullopt for rekey
    // and application-data records, which the session handles itself.
    std::optional<Status> handle_control_record(
        const RecordView& view, const std::function<Status(const HandshakeMessage&)>& on_message);

    // The session's only record codec: it parses what feed() receives and
    // frames everything the session sends.
    RecordCodec codec;
    // The endpoint's outbound write units (a middlebox keeps one UnitQueue
    // per direction of its own instead).
    UnitQueue units;
    Counters counters;

    // Fills the fields every session reports: actor, failure, counters,
    // alert totals and breakdowns, trace drops.
    void fill_stats(obs::SessionStats& s) const;

private:
    enum class Phase { handshake, established, closed, failed };

    Status fail_with(SessionError::Origin origin, AlertDescription description,
                     std::string message, bool emit_alert);
    void send_alert(const Alert& alert);
    Status handle_alert(const Alert& alert);
    // A ChangeCipherSpec arrived; the second one in a session is fatal.
    Status receive_ccs();
    void emit_span_event(uint64_t trace_id, uint64_t span_id, uint64_t parent_id,
                         obs::Stage stage, uint16_t ctx, uint64_t cpu_ns, uint64_t a);
    std::string prefixed(const char* text) const { return std::string(prefix_) + ": " + text; }

    const char* prefix_;
    std::string actor_;
    obs::Journal* journal_;
    obs::Lane* lane_;
    uint16_t actor_id_ = 0;
    uint64_t handshake_timeout_;
    uint64_t handshake_deadline_ = 0;  // 0 = not armed
    crypto::OpCounters* ops_;
    crypto::IvSource iv_source_;
    HandshakeReader handshake_reader_;
    std::unique_ptr<CbcHmacProtector> send_protector_;
    std::unique_ptr<CbcHmacProtector> recv_protector_;

    Phase phase_ = Phase::handshake;
    std::string error_;
    SessionError failure_;
    std::optional<Alert> alert_sent_;
    std::optional<Alert> peer_alert_;
    bool truncated_ = false;
    bool close_sent_ = false;
    bool close_notify_emitted_ = false;  // emission-layer dedup (idempotent shutdown)
    bool peer_close_received_ = false;
    bool ccs_received_ = false;

    uint64_t alerts_sent_ = 0;
    uint64_t alerts_received_ = 0;
    // Keyed by to_string(AlertDescription); alerts are rare and terminal, so
    // the map insert stays off the record fast path.
    std::map<std::string, uint64_t> alerts_sent_by_type_;
    std::map<std::string, uint64_t> alerts_received_by_type_;
};

}  // namespace mct::tls
