#include "tls/session_core.h"

#include <algorithm>
#include <stdexcept>

namespace mct::tls {

Rng& require_rng(Rng* rng, const char* owner)
{
    if (!rng) throw std::invalid_argument(std::string(owner) + ": rng is required");
    return *rng;
}

SessionCore::SessionCore(Config cfg, Rng& rng)
    : codec(cfg.with_context_id),
      units(obs::span_on(cfg.journal)),
      prefix_(cfg.prefix),
      actor_(std::move(cfg.actor)),
      journal_(cfg.journal),
      lane_(cfg.lane),
      handshake_timeout_(cfg.handshake_timeout),
      ops_(cfg.ops),
      iv_source_(rng)
{
    if (journal_) actor_id_ = journal_->intern(actor_);
}

obs::SpanContext SessionCore::begin_record_trace(uint16_t ctx, uint64_t bytes)
{
    obs::SpanContext rec = journal_->begin_trace();
    emit_span_event(rec.trace_id, rec.span_id, 0, obs::Stage::record, ctx, 0, bytes);
    return rec;
}

uint64_t SessionCore::emit_span(obs::SpanContext parent, obs::Stage stage, uint16_t ctx,
                                uint64_t cpu_ns, uint64_t a)
{
    uint64_t id = journal_->next_span_id();
    emit_span_event(parent.trace_id, id, parent.span_id, stage, ctx, cpu_ns, a);
    return id;
}

void SessionCore::emit_span_event(uint64_t trace_id, uint64_t span_id, uint64_t parent_id,
                                  obs::Stage stage, uint16_t ctx, uint64_t cpu_ns, uint64_t a)
{
    obs::Event e;
    e.type = obs::EventType::span;
    e.ts = e.end_ts = journal_->now();
    e.trace_id = trace_id;
    e.span_id = span_id;
    e.parent_id = parent_id;
    e.stage = stage;
    e.actor = actor_id_;
    e.ctx = ctx;
    e.cpu_ns = cpu_ns;
    e.a = a;
    journal_->record(e);
}

void SessionCore::note_failure(SessionError::Origin origin, AlertDescription description,
                               const std::string& message)
{
    if (!failure_.failed()) failure_ = {origin, description, message};
}

void SessionCore::note_truncation(AlertDescription description, const std::string& message)
{
    truncated_ = true;
    note_failure(SessionError::Origin::truncated, description, message);
}

void SessionCore::record_failure(SessionError::Origin origin, AlertDescription description,
                                 std::string message, bool in_handshake)
{
    phase_ = Phase::failed;
    error_ = std::move(message);
    note_failure(origin, description, error_);
    if (in_handshake) trace(obs::EventType::hs_failed, 0, static_cast<uint64_t>(description));
}

bool SessionCore::note_alert_sent(const Alert& alert)
{
    if (alert_sent_ && alert_sent_->is_fatal()) return false;  // at most one fatal
    if (alert.is_close_notify()) {
        // Idempotent shutdown: close() racing an incoming close_notify (or
        // repeated close() calls) must not put a second close_notify on the
        // wire. Deduped here at the emission layer so every caller is safe.
        if (close_notify_emitted_) return false;
        close_notify_emitted_ = true;
    }
    alert_sent_ = alert;
    ++alerts_sent_;
    ++alerts_sent_by_type_[to_string(alert.description)];
    trace(obs::EventType::alert_sent, 0, static_cast<uint64_t>(alert.description));
    return true;
}

void SessionCore::note_alert_received(const Alert& alert)
{
    peer_alert_ = alert;
    ++alerts_received_;
    ++alerts_received_by_type_[to_string(alert.description)];
    trace(obs::EventType::alert_received, 0, static_cast<uint64_t>(alert.description));
}

bool SessionCore::deadline_due(uint64_t now)
{
    if (handshake_timeout_ == 0) return false;
    if (handshake_deadline_ == 0) {
        handshake_deadline_ = now + handshake_timeout_;
        return false;
    }
    return now >= handshake_deadline_;
}

Status SessionCore::fail(std::string message)
{
    return fail(AlertDescription::handshake_failure, std::move(message));
}

Status SessionCore::fail(AlertDescription description, std::string message)
{
    return fail_with(SessionError::Origin::local, description, std::move(message),
                     /*emit_alert=*/true);
}

Status SessionCore::fail_with(SessionError::Origin origin, AlertDescription description,
                              std::string message, bool emit_alert)
{
    record_failure(origin, description, std::move(message),
                   phase_ != Phase::established && phase_ != Phase::closed);
    // Fatal alert to the peer, best effort (never in response to the peer's
    // own fatal alert, which would just echo noise at a dead session).
    if (emit_alert) send_alert(fatal_alert(description));
    return err(error_);
}

void SessionCore::send_alert(const Alert& alert)
{
    // Alerts are plaintext control records and never count as handshake
    // bytes, in either direction.
    if (note_alert_sent(alert))
        units.push(codec.encode({ContentType::alert, 0, alert.serialize()}));
}

Status SessionCore::handle_alert(const Alert& alert)
{
    note_alert_received(alert);
    if (alert.is_close_notify()) {
        peer_close_received_ = true;
        if (phase_ == Phase::closed) return {};
        if (phase_ != Phase::established)
            return fail_with(SessionError::Origin::peer, AlertDescription::close_notify,
                             prefixed("close_notify during handshake"), /*emit_alert=*/false);
        if (!close_sent_) {
            close_sent_ = true;
            send_alert(close_notify_alert());
        }
        phase_ = Phase::closed;
        return {};
    }
    if (!alert.is_fatal()) return {};  // unknown warnings are ignorable
    return fail_with(SessionError::Origin::peer, alert.description,
                     prefixed("peer alert: ") + to_string(alert.description),
                     /*emit_alert=*/false);
}

Status SessionCore::tick(uint64_t now)
{
    if (phase_ == Phase::failed) return err(error_);
    if (phase_ != Phase::handshake || !deadline_due(now)) return {};
    return fail_with(SessionError::Origin::timeout, AlertDescription::handshake_timeout,
                     prefixed("handshake deadline exceeded"), /*emit_alert=*/true);
}

void SessionCore::close()
{
    if (phase_ == Phase::failed || close_sent_) return;
    close_sent_ = true;
    trace(obs::EventType::session_close);
    send_alert(close_notify_alert());
    // Mid-handshake close abandons the session; an established session keeps
    // receiving until the peer's close_notify arrives.
    if (phase_ != Phase::established || peer_close_received_) phase_ = Phase::closed;
}

void SessionCore::transport_closed()
{
    if (phase_ == Phase::failed || phase_ == Phase::closed) return;
    std::string text = prefixed("transport closed without close_notify (truncated)");
    note_truncation(AlertDescription::close_notify, text);
    (void)fail_with(SessionError::Origin::truncated, AlertDescription::close_notify,
                    std::move(text), /*emit_alert=*/false);
}

Status SessionCore::receive_ccs()
{
    if (ccs_received_)
        return fail(AlertDescription::unexpected_message, prefixed("duplicate CCS"));
    ccs_received_ = true;
    return {};
}

Bytes SessionCore::queue_flight(ConstBytes flight, ConstBytes verify_data)
{
    Bytes unit;
    // A flight may exceed the maximum record size; fragment as TLS does.
    for (size_t off = 0; off < flight.size(); off += kMaxFragment) {
        size_t take = std::min(kMaxFragment, flight.size() - off);
        codec.encode_header_into(ContentType::handshake, 0, take, unit);
        append(unit, flight.subspan(off, take));
    }
    Bytes fin_wire;
    if (!verify_data.empty()) {
        codec.encode_header_into(ContentType::change_cipher_spec, 0, 1, unit);
        unit.push_back(1);
        fin_wire = Finished{to_bytes(verify_data)}.to_message().serialize();
        crypto::count_hash(ops_);
        codec.encode_header_into(ContentType::handshake, 0,
                                 CbcHmacProtector::protected_size(fin_wire.size()), unit);
        send_protector_->protect_into(ContentType::handshake, 0, fin_wire, iv_source_, unit);
        crypto::count_enc(ops_);
        trace(obs::EventType::hs_finished_sent);
    }
    counters.handshake_wire_bytes += unit.size();
    if (!unit.empty()) units.push(std::move(unit));
    return fin_wire;
}

std::optional<Status> SessionCore::handle_control_record(
    const RecordView& view, const std::function<Status(const HandshakeMessage&)>& on_message)
{
    if (view.type != ContentType::alert && phase_ == Phase::closed)
        return fail(AlertDescription::unexpected_message, prefixed("record after close_notify"));
    switch (view.type) {
    case ContentType::alert: {
        auto alert = Alert::parse(view.payload);
        if (!alert) return fail(AlertDescription::decode_error, prefixed("malformed alert"));
        return handle_alert(alert.value());
    }
    case ContentType::change_cipher_spec:
        counters.handshake_wire_bytes += view.payload.size() + codec.header_size();
        return receive_ccs();
    case ContentType::handshake: {
        counters.handshake_wire_bytes += view.payload.size() + codec.header_size();
        ConstBytes payload = view.payload;
        Bytes plain;
        if (ccs_received_ && recv_protector_) {
            auto n = recv_protector_->unprotect_into(view.type, view.context_id, view.payload,
                                                     plain);
            if (!n)
                return fail(AlertDescription::bad_record_mac, prefixed(n.error().message.c_str()));
            crypto::count_dec(ops_);
            payload = plain;
        }
        handshake_reader_.feed(payload);
        while (true) {
            auto msg = handshake_reader_.next();
            if (!msg) return fail(AlertDescription::decode_error, msg.error().message);
            if (!msg.value().has_value()) return Status{};
            if (auto s = on_message(*msg.value()); !s) return s;
        }
    }
    case ContentType::rekey:
    case ContentType::application_data:
        return std::nullopt;
    }
    return fail(AlertDescription::decode_error, prefixed("unknown record type"));
}

void SessionCore::fill_stats(obs::SessionStats& s) const
{
    s.actor = actor_;
    if (failure_.failed()) s.failure = failure_.message;
    s.handshake_wire_bytes = counters.handshake_wire_bytes;
    s.app_overhead_bytes = counters.app_overhead_bytes;
    s.app_records_sent = counters.app_records_sent;
    s.app_records_received = counters.app_records_received;
    s.macs_generated = counters.macs_generated;
    s.macs_verified = counters.macs_verified;
    s.mac_failures = counters.mac_failures;
    s.alerts_sent = alerts_sent_;
    s.alerts_received = alerts_received_;
    s.alerts_sent_by_type = alerts_sent_by_type_;
    s.alerts_received_by_type = alerts_received_by_type_;
    if (journal_) s.trace_events_dropped = journal_->dropped();
}

}  // namespace mct::tls
