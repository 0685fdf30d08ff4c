// One event journal for protocol sessions, the simulated network and the
// testbed (DESIGN.md §8).
//
// Every observable fact — a handshake phase, an alert, a sealed record, a
// link flap, a cache eviction, a latency-attribution span — is one Event:
// a fixed-size POD stamped exactly once, with one journal-wide sequence
// number (total causal order, even when events share a sim timestamp or no
// clock is attached), one read of the journal's clock, and one interned
// actor id. A span is an Event of type EventType::span: a closed interval
// [ts, end_ts] on the sim clock attributed to one pipeline Stage of one
// traced record, linked into a tree by trace/span/parent ids.
//
// Retention decides where a stamped event is kept and for how long:
//   - the ring: the journal's newest `capacity` events of every actor, in
//     seq order (events()). A journal without a ring (capacity 0) keeps no
//     spans either, so emitters skip span work entirely (keeps_spans()).
//   - lanes: per-session black boxes (DESIGN.md §17). An emitter holding a
//     Lane also stores its events there, so one dying session's history
//     survives after the shared ring has moved on. Lanes never hold spans.
// Both live in storage preallocated at construction: stamping an event
// allocates nothing, makes no virtual call and hashes nothing.
//
// Protocol code emits through the null-checked helpers at the bottom (the
// same idiom as crypto::count_*): one pointer test per emission site, and
// nothing at all when the tree is configured with -DMCT_OBS=OFF.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mct::obs {

enum class EventType : uint8_t {
    // Handshake phases (a = wire bytes of the flight where meaningful).
    hs_start,             // ClientHello sent / awaited
    hs_client_hello,      // ClientHello processed by a server/middlebox
    hs_server_flight,     // ServerHello..Done flight sent or consumed
    hs_mbox_hello,        // middlebox hello/key-exchange bundle handled
    hs_key_distribution,  // context key material derived/installed (a = contexts)
    hs_finished_sent,
    hs_finished_verified,
    hs_complete,  // session established (a = handshake wire bytes)
    hs_failed,    // handshake or session failure

    // Session continuity (resumption / rekeying / excision).
    hs_resume_offer,   // abbreviated handshake offered (a = session id bytes)
    hs_resume_accept,  // offer accepted: abbreviated flow runs
    hs_resume_reject,  // cache miss: full handshake fallback
    rekey_init,        // epoch bump initiated (a = new epoch)
    rekey_complete,    // both directions switched (a = epoch)
    mbox_rejoin,       // middlebox rejoined from cached session state
    mbox_excised,      // middlebox spliced out of the session (a = entity)

    // Record layer (ctx = encryption context id, a = payload bytes,
    // b = MACs generated/verified for this record, trace_id = the record's
    // span trace when traced).
    record_seal,
    record_open,
    mac_verify_fail,

    // Middlebox per-record access decisions (ctx, a = payload bytes).
    mbox_forward_blind,
    mbox_read,
    mbox_write_pass,
    mbox_rewrite,

    // Alerts (a = alert code).
    alert_sent,
    alert_received,
    session_close,

    // Simulated network (ts is always the loop clock; a/b vary).
    net_link_down,
    net_link_up,
    net_conn_established,
    net_conn_abort,
    net_conn_closed,
    net_rto_giveup,
    net_syn_retry,

    // Testbed / fault-injection harness.
    fault_injected,  // a = fault kind ordinal, b = injection time (µs)
    attempt_start,   // a = attempt number
    attempt_failed,  // a = attempt number
    fetch_complete,  // a = body bytes
    tls_fallback,

    // State plane (appended: JSONL consumers key on these names, and the
    // ordinals above must stay stable). ctx = cache id (testbed: 0 = TLS
    // session cache, 1 = mcTLS server cache, 2+n = middlebox n's cache).
    cache_expired,   // stale entry purged at lookup or by sweep (a = bytes)
    cache_evicted,   // LRU entry dropped to make room (a = bytes freed)
    cache_declined,  // insert refused under the decline policy (a = bytes)
    cache_shed,      // batch of coldest entries dropped (a = bytes freed)
    state_sweep,     // background expiry sweep ran (a = entries reclaimed)
    state_rekey_due, // epoch rekey deadline fired (a = deadline ordinal)
    state_excise_due,// dead middlebox passed its grace (a = relay index)

    // A latency-attribution span (stage, trace/span/parent ids, end_ts and
    // cpu_ns are meaningful).
    span,
};
constexpr EventType kLastEventType = EventType::span;

// Stable names; an out-of-range value maps to "unknown".
const char* to_string(EventType t);
// Inverse of to_string(EventType); false for an unknown name.
bool event_type_from_string(std::string_view name, EventType* out);

enum class Stage : uint8_t {
    // Per-record pipeline stages (append-only: exporters key on ordinals).
    record,          // root span: one traced application record end-to-end
    encode,          // record header framing on the sending endpoint
    mac,             // MAC computation (a = number of MACs: 3 for mcTLS)
    encrypt,         // CBC encryption of payload + MAC block
    queue_wait,      // send() enqueue → first byte serialized onto the link
    transmit,        // first byte on the wire → last byte delivered in order
    reseal,          // middlebox writer-path re-MAC + re-encrypt
    forward,         // middlebox blind/read forward (original wire bytes)
    decrypt_verify,  // receiving hop decrypt + MAC verification
    deliver,         // plaintext handed to the application
    handshake,       // one handshake phase (a = EventType ordinal)
};
constexpr Stage kLastStage = Stage::handshake;

// Stable names; an out-of-range value maps to "?".
const char* to_string(Stage s);
// Inverse of to_string(Stage); false for an unknown name.
bool stage_from_string(std::string_view name, Stage* out);

// Propagated in-band alongside a record: identifies the trace and the span
// the next hop should parent its own spans under. trace_id 0 = untraced.
struct SpanContext {
    uint64_t trace_id = 0;
    uint64_t span_id = 0;

    bool valid() const { return trace_id != 0; }
};

// The one event POD. Spans use every field; other events leave the span
// fields (end_ts, cpu_ns, span_id, parent_id, stage) at zero.
//
// Span timestamps are sim-loop microseconds. Crypto executes in zero sim
// time, so per-record sim spans (queue_wait + transmit per hop) telescope
// exactly to the observed end-to-end latency, while cpu_ns carries the
// measured wall cost (steady_clock) of the crypto stages.
struct Event {
    uint64_t seq = 0;        // journal-wide emission order
    uint64_t ts = 0;         // sim clock (µs); a span's start; 0 without a clock
    uint64_t end_ts = 0;     // span end (>= ts)
    uint64_t cpu_ns = 0;     // span: measured CPU cost; 0 = not a CPU stage
    uint64_t a = 0;          // type- or stage-dependent payload
    uint64_t b = 0;
    uint64_t trace_id = 0;   // record trace this event belongs to; 0 = none
    uint64_t span_id = 0;    // span: own id
    uint64_t parent_id = 0;  // span: parent span id; 0 = root of its trace
    uint16_t actor = 0;      // interned actor name
    uint16_t ctx = 0;        // encryption context / cache id where applicable
    EventType type = EventType::hs_start;
    Stage stage = Stage::record;  // span: pipeline stage

    bool is_span() const { return type == EventType::span; }
};

class Journal;

// One session's black box: a fixed slice of the journal's lane slab holding
// that session's newest events.
class Lane {
public:
    uint64_t sid() const { return sid_; }
    const std::string& label() const { return label_; }
    uint64_t total() const { return next_; }
    uint64_t dropped() const { return next_ > capacity_ ? next_ - capacity_ : 0; }

    // Retained events, oldest first.
    std::vector<Event> events() const;

private:
    friend class Journal;
    Event* slab_ = nullptr;  // capacity_ entries inside the journal's lane slab
    size_t capacity_ = 0;
    uint64_t next_ = 0;
    uint64_t sid_ = 0;
    std::string label_;
    bool open_ = false;
    uint64_t closed_at_ = 0;  // recycle order among closed slots
};

class Journal {
public:
    struct Config {
        size_t capacity = 4096;      // ring: newest events kept; 0 = no ring, no spans
        size_t lane_capacity = 128;  // events per lane (0 clamps to 1)
        size_t max_lanes = 0;        // lane slots preallocated; 0 = no lanes
    };

    Journal() : Journal(Config{}) {}
    explicit Journal(Config cfg);
    Journal(const Journal&) = delete;
    Journal& operator=(const Journal&) = delete;

    // --- Identity ---
    // Intern an actor name; returns a stable id (0 is reserved for "?").
    uint16_t intern(std::string_view name);
    const std::string& actor_name(uint16_t id) const;

    // --- Clock ---
    // Optional monotonic clock; the sim wires the event loop's now() here.
    // Never a wall clock.
    void set_clock(std::function<uint64_t()> clock) { clock_ = std::move(clock); }
    uint64_t now() const { return clock_ ? clock_() : 0; }

    // --- Span ids ---
    // Trace ids and span ids draw from independent counters, so a span id
    // never collides with a trace id in exporter maps.
    SpanContext begin_trace() { return {++next_trace_id_, ++next_span_id_}; }
    uint64_t next_span_id() { return ++next_span_id_; }

    // Spans live only in the ring, so only a journal with one collects them.
    bool keeps_spans() const { return capacity_ > 0; }

    // --- Emission ---
    // The one stamping point: assigns e.seq, stores e in the ring and, when
    // given, in `lane` (span emitters pass none). Allocation-free.
    void record(Event e, Lane* lane = nullptr)
    {
        e.seq = next_seq_++;
        if (capacity_) ring_[ring_next_++ % capacity_] = e;
        if (lane) {
            lane->slab_[lane->next_++ % lane->capacity_] = e;
            ++lane_events_;
        }
    }
    // An instant event at `ts`, or at the journal clock.
    void emit_at(uint64_t ts, Lane* lane, uint16_t actor, EventType type, uint16_t ctx = 0,
                 uint64_t a = 0, uint64_t b = 0, uint64_t trace_id = 0)
    {
        Event e;
        e.ts = ts;
        e.actor = actor;
        e.type = type;
        e.ctx = ctx;
        e.a = a;
        e.b = b;
        e.trace_id = trace_id;
        record(e, lane);
    }
    void emit(Lane* lane, uint16_t actor, EventType type, uint16_t ctx = 0, uint64_t a = 0,
              uint64_t b = 0, uint64_t trace_id = 0)
    {
        emit_at(now(), lane, actor, type, ctx, a, b, trace_id);
    }

    // --- The ring ---
    uint64_t emitted() const { return next_seq_; }
    // Ring overwrites: nonzero means events() is missing its oldest events.
    uint64_t dropped() const { return ring_next_ > capacity_ ? ring_next_ - capacity_ : 0; }
    // Retained events in seq order (oldest first).
    std::vector<Event> events() const;

    // --- Lanes ---
    // Get-or-create the lane for (sid, label). Returns the open lane for the
    // pair if there is one; otherwise takes a fresh slot, then the oldest
    // *closed* slot (its history is gone — counted in lanes_recycled()).
    // Returns nullptr when the journal has no lanes, or when every slot holds
    // a live session (counted in lanes_denied()).
    Lane* open_lane(uint64_t sid, std::string_view label);
    // Retire a lane: open_lane() stops returning it for its pair, but its
    // contents stay snapshotable until the slot is recycled. Null-safe.
    void close_lane(Lane* lane);

    size_t max_lanes() const { return lanes_.size(); }
    uint64_t lane_events() const { return lane_events_; }
    // Overwritten lane events, including those of recycled lanes.
    uint64_t lane_dropped() const;
    uint64_t lanes_opened() const { return lanes_opened_; }
    uint64_t lanes_denied() const { return lanes_denied_; }
    uint64_t lanes_recycled() const { return lanes_recycled_; }

    // Retained lanes (open and closed-but-not-recycled), sorted by
    // (sid, label). `sids` filters; empty = every retained lane.
    struct LaneSnapshot {
        uint64_t sid = 0;
        std::string label;
        uint64_t total = 0;
        uint64_t dropped = 0;
        std::vector<Event> events;
    };
    std::vector<LaneSnapshot> snapshot(const std::vector<uint64_t>& sids = {}) const;

private:
    std::vector<std::string> actors_{"?"};
    std::function<uint64_t()> clock_;
    uint64_t next_seq_ = 0;
    uint64_t next_trace_id_ = 0;
    uint64_t next_span_id_ = 0;

    size_t capacity_;
    std::vector<Event> ring_;
    uint64_t ring_next_ = 0;

    size_t lane_capacity_;
    std::vector<Event> lane_slab_;  // max_lanes * lane_capacity, fixed
    std::vector<Lane> lanes_;       // slot metadata, fixed size
    std::map<std::pair<uint64_t, std::string>, size_t> live_;  // open lanes
    std::vector<size_t> fresh_;     // never-used slot indices
    uint64_t close_counter_ = 0;
    uint64_t lane_events_ = 0;
    uint64_t lanes_opened_ = 0;
    uint64_t lanes_denied_ = 0;
    uint64_t lanes_recycled_ = 0;
    uint64_t lane_dropped_recycled_ = 0;
};

// Serialize one non-span event as a single-line JSON object (no trailing
// newline): {"seq":..,"ts":..,"actor":"client","type":"record_seal",
// "ctx":1,"a":512,"b":3}.
void event_to_json(const Event& e, const Journal& journal, std::string* out);
// Write the ring's non-span events to `path`, one JSON object per line.
// False when the file cannot be written.
bool write_jsonl(const Journal& journal, const std::string& path);

// Null-checked emission helpers for instrumented code. Compiled out
// entirely when the tree is configured with -DMCT_OBS=OFF.
#if defined(MCT_OBS_ENABLED)
inline void emit(Journal* j, Lane* lane, uint16_t actor, EventType type, uint16_t ctx = 0,
                 uint64_t a = 0, uint64_t b = 0, uint64_t trace_id = 0)
{
    if (j) j->emit(lane, actor, type, ctx, a, b, trace_id);
}
inline void emit_at(Journal* j, uint64_t ts, Lane* lane, uint16_t actor, EventType type,
                    uint16_t ctx = 0, uint64_t a = 0, uint64_t b = 0, uint64_t trace_id = 0)
{
    if (j) j->emit_at(ts, lane, actor, type, ctx, a, b, trace_id);
}
inline bool span_on(const Journal* j) { return j && j->keeps_spans(); }
#else
inline void emit(Journal*, Lane*, uint16_t, EventType, uint16_t = 0, uint64_t = 0,
                 uint64_t = 0, uint64_t = 0)
{
}
inline void emit_at(Journal*, uint64_t, Lane*, uint16_t, EventType, uint16_t = 0,
                    uint64_t = 0, uint64_t = 0, uint64_t = 0)
{
}
inline bool span_on(const Journal*) { return false; }
#endif

}  // namespace mct::obs
