#include "net/sim_net.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace mct::net {

void Link::transmit(size_t wire_bytes, std::function<void()> on_arrival)
{
    if (down_) return;
    SimTime start = std::max(loop_.now(), busy_until_);
    SimTime serialization = 0;
    if (cfg_.bandwidth_bps > 0) {
        serialization =
            static_cast<SimTime>(std::ceil(static_cast<double>(wire_bytes) * 8e6 /
                                           cfg_.bandwidth_bps));
    }
    busy_until_ = start + serialization;
    // A lost packet consumed link time but never arrives.
    if (cfg_.loss_rate > 0 && rng_ && rng_->unit() < cfg_.loss_rate) return;
    auto latency = static_cast<SimTime>(
        std::ceil(static_cast<double>(cfg_.latency) * latency_factor_));
    // A spike factor must always delay: truncating `latency * factor` to
    // ticks silently turned chaos latency spikes into no-ops on zero- and
    // one-tick links, so round up and enforce at least one extra tick.
    if (latency_factor_ > 1.0 && latency <= cfg_.latency) latency = cfg_.latency + 1;
    loop_.schedule_at(busy_until_ + latency, std::move(on_arrival));
}

void Connection::send(ConstBytes data)
{
    if (fin_queued_) throw std::logic_error("Connection: send after close");
    app_bytes_sent_ += data.size();
    append(window_, data);
    if (established_) pump();
}

void Connection::annotate(uint64_t start_seq, uint64_t end_seq, obs::SpanContext ctx)
{
    if (!obs::span_on(journal_) || !ctx.valid() || start_seq == end_seq) return;
    SpanAnnotation a;
    a.start_seq = start_seq;
    a.end_seq = end_seq;
    a.ctx = ctx;
    a.enqueue_ts = loop_->now();
    tx_spans_.push_back(a);
}

void Connection::send_traced(ConstBytes data, obs::SpanContext ctx)
{
    annotate(app_bytes_sent_, app_bytes_sent_ + data.size(), ctx);
    send(data);
}

std::vector<obs::SpanContext> Connection::take_rx_spans()
{
    std::vector<obs::SpanContext> out;
    for (const RxSpan& s : rx_spans_) out.push_back(s.ctx);
    rx_spans_.clear();
    return out;
}

void Connection::forward_to(Connection& next, ConstBytes data)
{
    // `data` is the newest in-order tail of this stream, so a range ending
    // inside it ends at the same offset of `data` once resent on `next`.
    uint64_t base = app_bytes_received_ - data.size();
    uint64_t start = next.app_bytes_sent_;
    for (const RxSpan& s : rx_spans_) {
        if (s.end_seq <= base) continue;  // ended in bytes relayed earlier
        uint64_t end = next.app_bytes_sent_ + (s.end_seq - base);
        next.annotate(start, end, s.ctx);
        start = end;
    }
    rx_spans_.clear();
    next.send(data);
}

// Runs on the receiving endpoint: the sender (peer_) owns the annotations,
// and our recv_expected_ is the cumulative in-order position in the sender's
// stream coordinates, so every annotation ending at or before it has been
// fully delivered.
void Connection::complete_delivered_spans()
{
    Connection* sender = peer_;
    if (!sender || !obs::span_on(sender->journal_)) return;
    obs::Journal* journal = sender->journal_;
    while (!sender->tx_spans_.empty() && sender->tx_spans_.front().end_seq <= recv_expected_) {
        SpanAnnotation a = sender->tx_spans_.front();
        sender->tx_spans_.pop_front();
        uint64_t first_tx = a.transmitted ? a.first_tx_ts : a.enqueue_ts;
        obs::Event q;
        q.type = obs::EventType::span;
        q.trace_id = a.ctx.trace_id;
        q.span_id = journal->next_span_id();
        q.parent_id = a.ctx.span_id;
        q.ts = a.enqueue_ts;
        q.end_ts = first_tx;
        q.actor = sender->span_actor_;
        q.a = a.end_seq - a.start_seq;
        q.stage = obs::Stage::queue_wait;
        journal->record(q);
        obs::Event t = q;
        t.span_id = journal->next_span_id();
        t.ts = first_tx;
        t.end_ts = loop_->now();
        t.stage = obs::Stage::transmit;
        journal->record(t);
        // The next hop parents under the transmit span, chaining the tree
        // across middleboxes.
        rx_spans_.push_back({{a.ctx.trace_id, t.span_id}, a.end_seq});
    }
}

void Connection::close()
{
    if (fin_queued_) return;
    fin_queued_ = true;
    if (established_) pump();
}

void Connection::abort()
{
    if (fin_queued_) return;
    obs::emit_at(journal_, loop_->now(), nullptr, trace_actor_, obs::EventType::net_conn_abort,
                 0, window_.size() - next_offset_);
    window_.resize(next_offset_);  // discard bytes never handed to the wire
    fin_queued_ = true;
    if (established_) pump();
}

void Connection::establish()
{
    established_ = true;
    obs::emit_at(journal_, loop_->now(), nullptr, trace_actor_,
                 obs::EventType::net_conn_established);
    if (on_connect_) on_connect_();
    pump();
}

void Connection::pump()
{
    while (true) {
        size_t unsent = window_.size() - next_offset_;
        if (unsent == 0) break;
        if (next_offset_ + kMss > cwnd_ && next_offset_ > 0) break;  // window full
        if (unsent >= kMss) {
            send_segment_at(next_offset_, kMss);
        } else if (!nagle_ || next_offset_ == 0 || fin_queued_) {
            // Nagle: a sub-MSS residue may only go out when nothing is in
            // flight (or Nagle is off, or we are flushing for close).
            send_segment_at(next_offset_, unsent);
        } else {
            break;
        }
    }
    if (fin_queued_ && !fin_sent_ && next_offset_ == window_.size()) {
        fin_sent_ = true;
        wire_bytes_sent_ += kHeaderBytes;
        Connection* peer = peer_;
        uint64_t fin_seq = acked_ + window_.size();
        capture_frame(CaptureFrameKind::fin, fin_seq, {});
        tx_link_->transmit(kHeaderBytes, [peer, fin_seq] {
            peer->on_segment_arrival(fin_seq, {}, /*fin=*/true);
        });
        arm_rto();
    }
}

void Connection::send_segment_at(size_t offset, size_t payload_len)
{
    Bytes payload(window_.begin() + offset, window_.begin() + offset + payload_len);
    uint64_t seq = acked_ + offset;
    if (obs::span_on(journal_)) {
        // First transmission of an annotated range's first byte ends its
        // queue_wait. Annotations are ordered by start_seq; retransmissions
        // (go-back-N) re-cover old bytes but the flag keeps the first stamp.
        for (auto& a : tx_spans_) {
            if (a.start_seq >= seq + payload_len) break;
            if (!a.transmitted && a.start_seq >= seq) {
                a.transmitted = true;
                a.first_tx_ts = loop_->now();
            }
        }
    }
    capture_frame(CaptureFrameKind::data, seq, payload);
    next_offset_ = std::max(next_offset_, offset + payload_len);
    wire_bytes_sent_ += payload_len + kHeaderBytes;
    ++segments_sent_;
    Connection* peer = peer_;
    tx_link_->transmit(payload_len + kHeaderBytes,
                       [peer, seq, payload = std::move(payload)]() mutable {
                           peer->on_segment_arrival(seq, std::move(payload), /*fin=*/false);
                       });
    arm_rto();
}

void Connection::on_segment_arrival(uint64_t seq, Bytes payload, bool fin)
{
    Bytes deliver;
    if (fin) {
        if (seq == recv_expected_ && !fin_delivered_) {
            fin_delivered_ = true;
            recv_expected_ = seq + 1;  // FIN occupies one sequence slot
        }
    } else if (seq == recv_expected_) {
        recv_expected_ += payload.size();
        deliver = std::move(payload);
    } else if (seq < recv_expected_ && seq + payload.size() > recv_expected_) {
        // Retransmission partially beyond what we already have.
        size_t skip = static_cast<size_t>(recv_expected_ - seq);
        deliver.assign(payload.begin() + skip, payload.end());
        recv_expected_ += deliver.size();
    }
    // Pure duplicates and out-of-order gaps (go-back-N) fall through: we
    // just re-ACK the cumulative position.

    app_bytes_received_ += deliver.size();
    complete_delivered_spans();  // before on_data_: contexts precede bytes
    Connection* self = this;
    uint64_t cumulative = recv_expected_;
    wire_bytes_sent_ += kHeaderBytes;
    tx_link_->transmit(kHeaderBytes,
                       [self, cumulative] { self->peer_->on_ack_arrival(cumulative); });
    if (!deliver.empty() && on_data_) on_data_(deliver);
    if (fin && fin_delivered_ && seq + 1 == recv_expected_ && on_close_) {
        VoidCallback cb = std::exchange(on_close_, nullptr);  // deliver once
        cb();
    }
}

void Connection::on_ack_arrival(uint64_t cumulative_ack)
{
    uint64_t stream_end = acked_ + window_.size();
    if (cumulative_ack > acked_) {
        size_t stream_adv =
            static_cast<size_t>(std::min<uint64_t>(cumulative_ack, stream_end) - acked_);
        window_.erase(window_.begin(), window_.begin() + stream_adv);
        next_offset_ = next_offset_ > stream_adv ? next_offset_ - stream_adv : 0;
        acked_ += stream_adv;
        if (fin_sent_ && cumulative_ack == acked_ + 1 && window_.empty())
            fin_acked_ = true;
        cwnd_ = std::min(cwnd_ + kMss, max_cwnd_);  // slow start
    }
    pump();
}

void Connection::arm_rto()
{
    if (!rto_enabled_ || rto_armed_) return;
    rto_armed_ = true;
    rto_acked_snapshot_ = acked_;
    loop_->schedule(rto_, [this] { on_rto(); });
}

void Connection::on_rto()
{
    rto_armed_ = false;
    bool outstanding = next_offset_ > 0 || (fin_sent_ && !fin_acked_);
    if (!outstanding) return;
    if (acked_ == rto_acked_snapshot_) {
        if (++rto_failures_ >= kMaxRtoFailures) {
            // Reset: the peer is unreachable. Surface EOF so the
            // application fails typed instead of retrying forever.
            obs::emit_at(journal_, loop_->now(), nullptr, trace_actor_,
                         obs::EventType::net_rto_giveup, 0,
                         static_cast<uint64_t>(rto_failures_));
            if (on_close_) {
                VoidCallback cb = std::exchange(on_close_, nullptr);
                cb();
            }
            return;
        }
        // No progress since arming: go-back-N from the last cumulative ACK.
        next_offset_ = 0;
        if (fin_sent_ && !fin_acked_) fin_sent_ = false;
        cwnd_ = 10 * kMss;
        pump();
    } else {
        rto_failures_ = 0;
    }
    arm_rto();
}

void SimNet::add_host(const std::string& name)
{
    if (std::find(hosts_.begin(), hosts_.end(), name) != hosts_.end())
        throw std::logic_error("SimNet: duplicate host " + name);
    hosts_.push_back(name);
}

void SimNet::add_link(const std::string& a, const std::string& b, LinkConfig cfg)
{
    links_[{a, b}] = std::make_unique<Link>(loop_, cfg, &loss_rng_);
    links_[{b, a}] = std::make_unique<Link>(loop_, cfg, &loss_rng_);
}

Link* SimNet::link_between(const std::string& from, const std::string& to)
{
    auto it = links_.find({from, to});
    if (it == links_.end())
        throw std::logic_error("SimNet: no link between " + from + " and " + to);
    return it->second.get();
}

void SimNet::listen(const std::string& host, uint16_t port, AcceptCallback on_accept)
{
    listeners_[{host, port}] = std::move(on_accept);
}

void SimNet::set_journal(obs::Journal* journal)
{
    journal_ = journal;
    if (journal_) trace_actor_ = journal_->intern("net");
}

void SimNet::set_link_latency_factor(const std::string& a, const std::string& b, double factor)
{
    link_between(a, b)->set_latency_factor(factor);
    link_between(b, a)->set_latency_factor(factor);
}

void SimNet::set_link_down(const std::string& a, const std::string& b, bool down)
{
    link_between(a, b)->set_down(down);
    link_between(b, a)->set_down(down);
    // Fault events carry the monotonic sim clock so a recovery trace is
    // orderable against session/handshake events.
    if (journal_) {
        uint16_t actor = journal_->intern("link:" + a + "-" + b);
        obs::emit_at(journal_, loop_.now(), nullptr, actor,
                     down ? obs::EventType::net_link_down : obs::EventType::net_link_up);
    }
}

ConnectionPtr SimNet::connect(const std::string& from, const std::string& to, uint16_t port)
{
    Link* forward = link_between(from, to);
    Link* reverse = link_between(to, from);

    auto client = std::make_shared<Connection>();
    auto server = std::make_shared<Connection>();
    client->loop_ = &loop_;
    server->loop_ = &loop_;
    client->tx_link_ = forward;
    server->tx_link_ = reverse;
    client->peer_ = server.get();
    server->peer_ = client.get();
    bool lossy = forward->lossy() || reverse->lossy();
    client->rto_enabled_ = lossy;
    server->rto_enabled_ = lossy;
    client->journal_ = journal_;
    client->trace_actor_ = trace_actor_;
    server->journal_ = journal_;
    server->trace_actor_ = trace_actor_;
    if (obs::span_on(journal_)) {
        client->span_actor_ = journal_->intern("tcp:" + from + "->" + to);
        server->span_actor_ = journal_->intern("tcp:" + to + "->" + from);
    }
    if (capture_) {
        CaptureFlow flow;
        flow.id = next_flow_id_++;
        flow.initiator = from;
        flow.responder = to;
        flow.port = port;
        flow.opened_at = loop_.now();
        capture_->on_flow(flow);
        client->capture_ = capture_;
        client->capture_flow_ = flow.id;
        client->capture_dir_ = 0;
        server->capture_ = capture_;
        server->capture_flow_ = flow.id;
        server->capture_dir_ = 1;
    }
    connections_.push_back(client);
    connections_.push_back(server);

    auto listener = listeners_.find({to, port});
    if (listener == listeners_.end())
        throw std::logic_error("SimNet: nothing listening on " + to);
    AcceptCallback on_accept = listener->second;

    // SYN -> accept at server; SYN-ACK -> established at client. On lossy
    // paths the client retries the SYN until the handshake completes.
    Connection* client_raw = client.get();
    auto send_syn = std::make_shared<std::function<void()>>();
    auto syn_attempts = std::make_shared<int>(0);
    std::weak_ptr<std::function<void()>> weak_syn = send_syn;
    *send_syn = [this, forward, reverse, server, client_raw, on_accept, weak_syn, lossy,
                 syn_attempts] {
        if (client_raw->established_) return;
        if (*syn_attempts > 0)
            obs::emit_at(client_raw->journal_, loop_.now(), nullptr, client_raw->trace_actor_,
                         obs::EventType::net_syn_retry, 0,
                         static_cast<uint64_t>(*syn_attempts));
        if (++*syn_attempts > 8) {
            // Connection timed out (e.g. the far host is partitioned away):
            // report EOF instead of retrying the SYN forever.
            obs::emit_at(client_raw->journal_, loop_.now(), nullptr, client_raw->trace_actor_,
                         obs::EventType::net_rto_giveup, 0,
                         static_cast<uint64_t>(*syn_attempts));
            if (client_raw->on_close_) {
                VoidCallback cb = std::exchange(client_raw->on_close_, nullptr);
                cb();
            }
            return;
        }
        client_raw->wire_bytes_sent_ += kHeaderBytes;
        client_raw->capture_frame(CaptureFrameKind::syn, 0, {});
        forward->transmit(kHeaderBytes, [reverse, server, on_accept, client_raw] {
            if (!server->established_) {
                server->established_ = true;
                on_accept(server);
                server->pump();
            }
            server->wire_bytes_sent_ += kHeaderBytes;
            reverse->transmit(kHeaderBytes, [client_raw] {
                if (!client_raw->established_) client_raw->establish();
            });
        });
        if (lossy) {
            loop_.schedule(client_raw->rto_, [weak_syn, client_raw] {
                auto retry = weak_syn.lock();
                if (retry && !client_raw->established_) (*retry)();
            });
        }
    };
    (*send_syn)();
    if (lossy) syn_closures_.push_back(send_syn);  // keep retries alive
    return client;
}

}  // namespace mct::net
