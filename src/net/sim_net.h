// Simulated network: hosts, duplex links (latency + bandwidth), and a TCP
// model with the mechanisms the paper's evaluation depends on:
//
//  - 3-way connection handshake (connect costs one RTT before data flows)
//  - MSS segmentation (1460-byte payloads, 40-byte TCP/IP headers)
//  - Nagle's algorithm (sub-MSS residue is held while data is in flight),
//    switchable per connection like TCP_NODELAY
//  - slow-start congestion window (IW 10, +1 MSS per ACK)
//  - per-link FIFO serialization at the configured bandwidth
//  - optional per-link Bernoulli loss with go-back-N retransmission (RTO),
//    cumulative ACKs, and SYN retry — enabled only when a link has a
//    nonzero loss_rate, so loss-free simulations are byte-for-byte
//    identical to the plain model
//
// Middleboxes are application-level relays exactly as in the paper: each hop
// is its own TCP connection, so "adding a middlebox" adds both a link and a
// connection handshake.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/capture.h"
#include "net/event_loop.h"
#include "obs/journal.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace mct::net {

constexpr size_t kMss = 1460;         // TCP payload bytes per segment
constexpr size_t kHeaderBytes = 40;   // TCP/IP header overhead per packet

struct LinkConfig {
    SimTime latency = 0;          // one-way propagation delay
    double bandwidth_bps = 0;     // 0 = infinite (no serialization delay)
    double loss_rate = 0;         // probability a packet is dropped [0,1)
    // Fault injection: connections over a faultable link arm retransmission
    // (RTO + SYN retry) even when loss-free, so a link flap heals once the
    // link is back up instead of deadlocking the transfer.
    bool faultable = false;
};

// One direction of a link: FIFO serialization then fixed latency, with an
// optional Bernoulli loss process (deterministic via the SimNet's seeded
// RNG).
class Link {
public:
    Link(EventLoop& loop, LinkConfig cfg, Rng* rng) : loop_(loop), cfg_(cfg), rng_(rng) {}

    void transmit(size_t wire_bytes, std::function<void()> on_arrival);

    // Partition: a down link drops every packet until brought back up.
    void set_down(bool down) { down_ = down; }
    bool down() const { return down_; }

    // Degradation: scale propagation delay at runtime (congestion / delay
    // fault). Applies to packets transmitted after the call; factor 1
    // restores nominal latency. In-flight packets keep their old arrival
    // time, exactly like a real route change.
    void set_latency_factor(double factor) { latency_factor_ = factor < 0 ? 0 : factor; }

    bool lossy() const { return cfg_.loss_rate > 0 || cfg_.faultable; }

private:
    EventLoop& loop_;
    LinkConfig cfg_;
    Rng* rng_;
    SimTime busy_until_ = 0;
    bool down_ = false;
    double latency_factor_ = 1.0;
};

class Connection;
using ConnectionPtr = std::shared_ptr<Connection>;
using DataCallback = std::function<void(ConstBytes)>;
using VoidCallback = std::function<void()>;
using AcceptCallback = std::function<void(ConnectionPtr)>;

class SimNet;

// One endpoint's view of a TCP connection.
class Connection {
public:
    // Queue application data; the TCP model segments and paces it.
    void send(ConstBytes data);
    // Traced send: same as send(), but annotates the byte range with a span
    // context. When the peer delivers the range's last byte in order, the
    // connection emits queue_wait (enqueue → first byte handed to the link)
    // and transmit (link serialization + propagation → in-order delivery)
    // spans parented under ctx.span_id, and queues a continuation context
    // for the peer (trace id + the transmit span as parent) retrievable via
    // take_rx_spans(). Falls back to plain send() when no span-keeping
    // journal is attached or ctx is invalid.
    void send_traced(ConstBytes data, obs::SpanContext ctx);
    // Span contexts for traced ranges fully delivered to this endpoint, in
    // stream order. The caller (a session pulling from on_data) matches them
    // FIFO against the records it decodes.
    std::vector<obs::SpanContext> take_rx_spans();
    // Byte-level relaying: sends `data`, which on_data just delivered here,
    // on `next`, and re-annotates every traced range that ended inside it as
    // a traced range ending at the same byte of `next`'s stream. A blind
    // relay built on this keeps each record's trace chained to the far end
    // without parsing records.
    void forward_to(Connection& next, ConstBytes data);
    // Half-close after all queued data: peer sees on_close.
    void close();
    // Crash-style close: unsent queued data is discarded (a dead process
    // flushes nothing), then the peer sees on_close.
    void abort();

    void set_on_connect(VoidCallback cb) { on_connect_ = std::move(cb); }
    void set_on_data(DataCallback cb) { on_data_ = std::move(cb); }
    void set_on_close(VoidCallback cb) { on_close_ = std::move(cb); }
    // false disables Nagle (TCP_NODELAY).
    void set_nagle(bool enabled) { nagle_ = enabled; }

    bool connected() const { return established_; }
    // True once close()/abort() queued the FIN: further send() throws.
    bool close_queued() const { return fin_queued_; }
    uint64_t app_bytes_sent() const { return app_bytes_sent_; }
    uint64_t app_bytes_received() const { return app_bytes_received_; }
    uint64_t wire_bytes_sent() const { return wire_bytes_sent_; }
    uint64_t segments_sent() const { return segments_sent_; }

private:
    friend class SimNet;

    void pump();
    void send_segment_at(size_t offset, size_t payload_len);
    void on_segment_arrival(uint64_t seq, Bytes payload, bool fin);
    void on_ack_arrival(uint64_t cumulative_ack);
    void establish();
    void arm_rto();
    void on_rto();

    EventLoop* loop_ = nullptr;
    Link* tx_link_ = nullptr;   // carries our segments toward the peer
    Connection* peer_ = nullptr;

    // Send side: window_ holds every byte from acked_ onward (unacked +
    // unsent); next_offset_ indexes the first unsent byte within it.
    Bytes window_;
    size_t next_offset_ = 0;
    uint64_t acked_ = 0;        // cumulative bytes acknowledged by the peer
    size_t cwnd_ = 10 * kMss;
    size_t max_cwnd_ = 4 * 1024 * 1024;
    bool nagle_ = true;
    bool established_ = false;
    bool fin_queued_ = false;
    bool fin_sent_ = false;
    bool fin_acked_ = false;

    // Receive side: cumulative in-order delivery (go-back-N discards gaps).
    uint64_t recv_expected_ = 0;
    bool fin_delivered_ = false;

    // Retransmission (armed only on lossy/faultable paths). A connection
    // that makes no progress across kMaxRtoFailures consecutive RTOs gives
    // up and reports on_close, like a kernel resetting after max retries —
    // this bounds simulations where a partition never heals.
    static constexpr int kMaxRtoFailures = 20;
    bool rto_enabled_ = false;
    SimTime rto_ = 200 * 1000;  // 200 ms
    bool rto_armed_ = false;
    uint64_t rto_acked_snapshot_ = 0;
    int rto_failures_ = 0;

    VoidCallback on_connect_;
    DataCallback on_data_;
    VoidCallback on_close_;

    // Telemetry: fault/lifecycle events are stamped with the loop clock
    // (loop_->now()) so recovery traces are orderable on the sim timeline —
    // never a wall clock.
    obs::Journal* journal_ = nullptr;
    uint16_t trace_actor_ = 0;  // interned "net"
    uint16_t span_actor_ = 0;   // interned "tcp:<from>-><to>" (this tx side)

    // Wire capture (see net/capture.h): segments are recorded at transmit
    // time under the flow id assigned at connect(). Null when capture is
    // off — the same zero-overhead idiom as the journal.
    CaptureSink* capture_ = nullptr;
    uint32_t capture_flow_ = 0;
    uint8_t capture_dir_ = 0;

    void capture_frame(CaptureFrameKind kind, uint64_t seq, ConstBytes payload) const
    {
        if (!capture_) return;
        CaptureFrame frame;
        frame.ts = loop_->now();
        frame.flow = capture_flow_;
        frame.dir = capture_dir_;
        frame.kind = kind;
        frame.seq = seq;
        frame.payload.assign(payload.begin(), payload.end());
        capture_->on_frame(frame);
    }

    uint64_t app_bytes_sent_ = 0;
    uint64_t app_bytes_received_ = 0;
    uint64_t wire_bytes_sent_ = 0;
    uint64_t segments_sent_ = 0;

    // Latency attribution (see obs/journal.h). Annotations track traced byte
    // ranges in absolute stream coordinates (cumulative app bytes), which
    // survive window_ compaction on ACK; the receiver's recv_expected_ is in
    // the same coordinate space, so completion is a plain comparison.
    struct SpanAnnotation {
        uint64_t start_seq = 0;  // absolute stream seq of the first byte
        uint64_t end_seq = 0;    // one past the last byte
        obs::SpanContext ctx;
        uint64_t enqueue_ts = 0;
        uint64_t first_tx_ts = 0;
        bool transmitted = false;
    };
    struct RxSpan {
        obs::SpanContext ctx;
        uint64_t end_seq = 0;  // where the delivered range ended
    };
    std::deque<SpanAnnotation> tx_spans_;  // oldest first; drained by the peer
    std::deque<RxSpan> rx_spans_;          // delivered to this endpoint

    void annotate(uint64_t start_seq, uint64_t end_seq, obs::SpanContext ctx);
    void complete_delivered_spans();
};

class SimNet {
public:
    explicit SimNet(EventLoop& loop) : loop_(loop) {}

    // Connection callbacks routinely capture shared_ptrs to relay/endpoint
    // state that itself holds ConnectionPtrs; clearing them here breaks
    // those reference cycles so a dead simulation actually frees its graph.
    ~SimNet()
    {
        for (auto& conn : connections_) {
            conn->set_on_connect({});
            conn->set_on_data({});
            conn->set_on_close({});
        }
    }

    void add_host(const std::string& name);
    // Duplex link with identical properties in both directions.
    void add_link(const std::string& a, const std::string& b, LinkConfig cfg);

    void listen(const std::string& host, uint16_t port, AcceptCallback on_accept);
    // Take the duplex link between a and b down (or back up).
    void set_link_down(const std::string& a, const std::string& b, bool down);
    // Scale the duplex link's propagation delay (both directions): the
    // chaos plane's "delay" fault. Factor 1 restores the nominal latency.
    void set_link_latency_factor(const std::string& a, const std::string& b, double factor);
    // Open a connection from `from` to `to`:`port`; hosts must share a link.
    // The returned connection fires on_connect once the handshake completes.
    ConnectionPtr connect(const std::string& from, const std::string& to, uint16_t port);

    // Attach a journal: link up/down, connection lifecycle, and loss-recovery
    // events are emitted with monotonic sim-time timestamps (loop_.now()).
    // When the journal keeps spans, traced sends also emit queue_wait and
    // transmit spans on a per-hop "tcp:<from>-><to>" actor. Applies to
    // connections opened after this call — attach before connect().
    void set_journal(obs::Journal* journal);

    // Attach a capture sink (see net/capture.h): every connection opened
    // AFTER this call gets a flow definition and per-segment frames.
    // Existing connections are unaffected — attach before connect(). Null
    // detaches (future connections only).
    void set_capture(CaptureSink* sink) { capture_ = sink; }

    EventLoop& loop() { return loop_; }

private:
    Link* link_between(const std::string& from, const std::string& to);

    EventLoop& loop_;
    TestRng loss_rng_{0x6c6f7373};  // deterministic Bernoulli loss draws
    std::vector<std::string> hosts_;
    std::map<std::pair<std::string, std::string>, std::unique_ptr<Link>> links_;
    std::map<std::pair<std::string, uint16_t>, AcceptCallback> listeners_;
    std::vector<ConnectionPtr> connections_;  // keep-alive for the sim's lifetime
    std::vector<std::shared_ptr<std::function<void()>>> syn_closures_;
    obs::Journal* journal_ = nullptr;
    uint16_t trace_actor_ = 0;
    CaptureSink* capture_ = nullptr;
    uint32_t next_flow_id_ = 1;
};

}  // namespace mct::net
