#include "obs/journal.h"

#include <algorithm>
#include <fstream>

#include "obs/json.h"

namespace mct::obs {

const char* to_string(EventType t)
{
    switch (t) {
    case EventType::hs_start: return "hs_start";
    case EventType::hs_client_hello: return "hs_client_hello";
    case EventType::hs_server_flight: return "hs_server_flight";
    case EventType::hs_mbox_hello: return "hs_mbox_hello";
    case EventType::hs_key_distribution: return "hs_key_distribution";
    case EventType::hs_finished_sent: return "hs_finished_sent";
    case EventType::hs_finished_verified: return "hs_finished_verified";
    case EventType::hs_complete: return "hs_complete";
    case EventType::hs_failed: return "hs_failed";
    case EventType::hs_resume_offer: return "hs_resume_offer";
    case EventType::hs_resume_accept: return "hs_resume_accept";
    case EventType::hs_resume_reject: return "hs_resume_reject";
    case EventType::rekey_init: return "rekey_init";
    case EventType::rekey_complete: return "rekey_complete";
    case EventType::mbox_rejoin: return "mbox_rejoin";
    case EventType::mbox_excised: return "mbox_excised";
    case EventType::record_seal: return "record_seal";
    case EventType::record_open: return "record_open";
    case EventType::mac_verify_fail: return "mac_verify_fail";
    case EventType::mbox_forward_blind: return "mbox_forward_blind";
    case EventType::mbox_read: return "mbox_read";
    case EventType::mbox_write_pass: return "mbox_write_pass";
    case EventType::mbox_rewrite: return "mbox_rewrite";
    case EventType::alert_sent: return "alert_sent";
    case EventType::alert_received: return "alert_received";
    case EventType::session_close: return "session_close";
    case EventType::net_link_down: return "net_link_down";
    case EventType::net_link_up: return "net_link_up";
    case EventType::net_conn_established: return "net_conn_established";
    case EventType::net_conn_abort: return "net_conn_abort";
    case EventType::net_conn_closed: return "net_conn_closed";
    case EventType::net_rto_giveup: return "net_rto_giveup";
    case EventType::net_syn_retry: return "net_syn_retry";
    case EventType::fault_injected: return "fault_injected";
    case EventType::attempt_start: return "attempt_start";
    case EventType::attempt_failed: return "attempt_failed";
    case EventType::fetch_complete: return "fetch_complete";
    case EventType::tls_fallback: return "tls_fallback";
    case EventType::cache_expired: return "cache_expired";
    case EventType::cache_evicted: return "cache_evicted";
    case EventType::cache_declined: return "cache_declined";
    case EventType::cache_shed: return "cache_shed";
    case EventType::state_sweep: return "state_sweep";
    case EventType::state_rekey_due: return "state_rekey_due";
    case EventType::state_excise_due: return "state_excise_due";
    case EventType::span: return "span";
    }
    return "unknown";
}

const char* to_string(Stage s)
{
    switch (s) {
    case Stage::record: return "record";
    case Stage::encode: return "encode";
    case Stage::mac: return "mac";
    case Stage::encrypt: return "encrypt";
    case Stage::queue_wait: return "queue_wait";
    case Stage::transmit: return "transmit";
    case Stage::reseal: return "reseal";
    case Stage::forward: return "forward";
    case Stage::decrypt_verify: return "decrypt_verify";
    case Stage::deliver: return "deliver";
    case Stage::handshake: return "handshake";
    }
    return "?";
}

namespace {

template <typename Enum>
bool enum_from_string(std::string_view name, Enum last, Enum* out)
{
    for (int i = 0; i <= static_cast<int>(last); ++i) {
        if (name == to_string(static_cast<Enum>(i))) {
            *out = static_cast<Enum>(i);
            return true;
        }
    }
    return false;
}

// Retained entries of a ring of `capacity` slots after `next` writes,
// oldest first.
std::vector<Event> ring_in_order(const Event* slots, size_t capacity, uint64_t next)
{
    uint64_t n = std::min<uint64_t>(next, capacity);
    std::vector<Event> out;
    out.reserve(n);
    for (uint64_t i = next - n; i < next; ++i) out.push_back(slots[i % capacity]);
    return out;
}

}  // namespace

bool event_type_from_string(std::string_view name, EventType* out)
{
    return enum_from_string(name, kLastEventType, out);
}

bool stage_from_string(std::string_view name, Stage* out)
{
    return enum_from_string(name, kLastStage, out);
}

std::vector<Event> Lane::events() const { return ring_in_order(slab_, capacity_, next_); }

Journal::Journal(Config cfg)
    : capacity_(cfg.capacity),
      lane_capacity_(cfg.lane_capacity ? cfg.lane_capacity : 1)
{
    ring_.resize(capacity_);
    lane_slab_.resize(lane_capacity_ * cfg.max_lanes);
    lanes_.resize(cfg.max_lanes);
    fresh_.reserve(cfg.max_lanes);
    // Pop order front-to-back: slot 0 first.
    for (size_t i = cfg.max_lanes; i-- > 0;) fresh_.push_back(i);
}

uint16_t Journal::intern(std::string_view name)
{
    for (size_t i = 0; i < actors_.size(); ++i)
        if (actors_[i] == name) return static_cast<uint16_t>(i);
    actors_.emplace_back(name);
    return static_cast<uint16_t>(actors_.size() - 1);
}

const std::string& Journal::actor_name(uint16_t id) const
{
    return id < actors_.size() ? actors_[id] : actors_[0];
}

std::vector<Event> Journal::events() const
{
    return ring_in_order(ring_.data(), capacity_, ring_next_);
}

Lane* Journal::open_lane(uint64_t sid, std::string_view label)
{
    if (lanes_.empty()) return nullptr;
    auto key = std::make_pair(sid, std::string(label));
    auto it = live_.find(key);
    if (it != live_.end()) return &lanes_[it->second];

    size_t slot = lanes_.size();
    if (!fresh_.empty()) {
        slot = fresh_.back();
        fresh_.pop_back();
    } else {
        // Recycle the closed slot that was retired earliest; never a live one.
        bool found = false;
        for (size_t i = 0; i < lanes_.size(); ++i) {
            if (lanes_[i].open_) continue;
            if (!found || lanes_[i].closed_at_ < lanes_[slot].closed_at_) {
                slot = i;
                found = true;
            }
        }
        if (!found) {
            ++lanes_denied_;
            return nullptr;
        }
        // The slot's entire history — retained events included — stops being
        // snapshotable, so all of it counts as dropped from here on.
        lane_dropped_recycled_ += lanes_[slot].total();
        ++lanes_recycled_;
    }

    Lane& lane = lanes_[slot];
    lane.slab_ = lane_slab_.data() + slot * lane_capacity_;
    lane.capacity_ = lane_capacity_;
    lane.next_ = 0;
    lane.sid_ = sid;
    lane.label_ = key.second;
    lane.open_ = true;
    lane.closed_at_ = 0;
    live_[std::move(key)] = slot;
    ++lanes_opened_;
    return &lane;
}

void Journal::close_lane(Lane* lane)
{
    if (!lane || !lane->open_) return;
    lane->open_ = false;
    lane->closed_at_ = ++close_counter_;
    live_.erase(std::make_pair(lane->sid_, lane->label_));
}

uint64_t Journal::lane_dropped() const
{
    uint64_t total = lane_dropped_recycled_;
    for (const auto& l : lanes_) total += l.dropped();
    return total;
}

std::vector<Journal::LaneSnapshot> Journal::snapshot(const std::vector<uint64_t>& sids) const
{
    std::vector<LaneSnapshot> out;
    for (const auto& l : lanes_) {
        if (!l.slab_) continue;  // slot never used
        if (!sids.empty() && std::find(sids.begin(), sids.end(), l.sid()) == sids.end())
            continue;
        out.push_back({l.sid(), l.label(), l.total(), l.dropped(), l.events()});
    }
    std::sort(out.begin(), out.end(), [](const LaneSnapshot& a, const LaneSnapshot& b) {
        if (a.sid != b.sid) return a.sid < b.sid;
        return a.label < b.label;
    });
    return out;
}

void event_to_json(const Event& e, const Journal& journal, std::string* out)
{
    JsonWriter w(out);
    w.begin_object();
    w.key("seq");
    w.value(e.seq);
    w.key("ts");
    w.value(e.ts);
    w.key("actor");
    w.value(journal.actor_name(e.actor));
    w.key("type");
    w.value(to_string(e.type));
    w.key("ctx");
    w.value(static_cast<uint64_t>(e.ctx));
    w.key("a");
    w.value(e.a);
    w.key("b");
    w.value(e.b);
    w.end_object();
}

bool write_jsonl(const Journal& journal, const std::string& path)
{
    std::ofstream out(path, std::ios::trunc);
    std::string line;
    for (const Event& e : journal.events()) {
        if (e.is_span()) continue;
        line.clear();
        event_to_json(e, journal, &line);
        line.push_back('\n');
        out << line;
    }
    return out.good();
}

}  // namespace mct::obs
