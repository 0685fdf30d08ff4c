// Chrome-trace / Perfetto JSON export for spans and trace events.
//
// Emits the legacy Chrome trace "traceEvents" JSON array, which both
// chrome://tracing and ui.perfetto.dev load directly. Mapping:
//   - one Perfetto "process" per actor (client, rbox, server, tcp:a->b, …),
//   - one "thread" (track) per pipeline stage within that actor, so a
//     record's journey reads top-to-bottom as a waterfall,
//   - spans become "X" (complete) events with ts/dur in sim microseconds;
//     trace/cpu payloads ride in "args",
//   - other events become "i" (instant) markers on an "events" track.
//
// Also provides the handshake-waterfall synthesis used by `mctool flame`:
// consecutive hs_* trace events per actor are folded
// into [start,end) phases, without the sessions needing extra state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/journal.h"

namespace mct::obs {

struct ChromeTraceInput {
    const std::vector<Event>* events = nullptr;  // spans and instant events, any mix
    const Journal* journal = nullptr;            // names the events' actor ids
};

// Serialize to a complete JSON document: {"traceEvents":[...],...}.
std::string to_chrome_trace(const ChromeTraceInput& in);

// One handshake phase on one actor, reconstructed from the hs_* event
// stream: the interval from the actor's previous handshake event (or the
// trace-wide handshake start) to the event that names the phase.
struct HandshakePhase {
    std::string actor;
    std::string phase;    // trace EventType name of the completing event
    uint64_t start_ts = 0;
    uint64_t end_ts = 0;  // sim µs
    uint64_t bytes = 0;   // flight wire bytes where the event carried them
};

std::vector<HandshakePhase> handshake_phases(const std::vector<Event>& events,
                                             const Journal& journal);

}  // namespace mct::obs
