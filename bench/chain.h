// The in-memory chain driver shared by the tests, the benches and the
// teaching examples: a client, N >= 0 middleboxes and a server hand each
// other their write units directly, with no network in between. The library
// never calls it. See DESIGN.md "In-memory chain driver".
//
// Order. A round feeds the next hop every unit the client emits, then every
// unit each middlebox emits toward the server (mbox 0 first), then the
// server's units, then each middlebox's units toward the client (mbox N-1
// first). A party that emits while the round is under way is taken later in
// that round if it comes later in this order. Rounds repeat until one moves
// no unit.
//
// Hop ids. Hops 0..N carry units toward the server: hop 0 from the client,
// hop h from mbox h-1. Hops N+1..2N+1 carry units toward the client: hop
// N+1 from the server, hop h from mbox 2N+1-h.
//
// Hooks. The probe wraps each delivery: probe(party, call) runs call()
// exactly once, where `party` is the side that receives and call() returns
// the status of its feed. The tap sees each unit by reference, with its hop
// id, before the unit is delivered, and may change it.
//
// Span contexts travel with their units: each take is followed by the
// matching take_*spans(), and a unit's context is queued at the receiver
// before its bytes. Untraced parties return no contexts.
#pragma once

#include <cstddef>
#include <iterator>
#include <type_traits>

namespace mct::chain {

// A correct chain goes quiet in a handful of rounds; one that has not after
// this many is bouncing units forever.
inline constexpr int kMaxRounds = 10000;

enum class Party { client, middlebox, server };

// The middlebox list of a two-party chain (N = 0) whose parties have no
// middlebox type, e.g. a TLS pair.
struct NoMiddleboxes {
    static constexpr size_t size() { return 0; }
};
inline constexpr NoMiddleboxes none{};

struct NoProbe {
    template <typename Call>
    void operator()(Party, Call&& call) const
    {
        (void)call();
    }
};

struct NoTap {
    template <typename Unit>
    void operator()(size_t, Unit&) const
    {
    }
};

// Deliver units until the chain goes quiet. `mboxes` is anything indexable
// with std::size() whose elements point at middleboxes (raw or owning
// pointers), or chain::none. Returns false if the chain was still busy after
// kMaxRounds rounds.
template <typename Client, typename Mboxes, typename Server, typename Probe = NoProbe,
          typename Tap = NoTap>
bool pump(Client& client, Mboxes& mboxes, Server& server, Probe&& probe = {}, Tap&& tap = {})
{
    constexpr bool kHasMboxes = !std::is_same_v<std::remove_const_t<Mboxes>, NoMiddleboxes>;
    const size_t n = std::size(mboxes);

    auto deliver = [&](size_t hop, auto& units, const auto& spans) {
        for (size_t i = 0; i < units.size(); ++i) {
            auto& unit = units[i];
            tap(hop, unit);
            if (hop == n) {
                if (i < spans.size()) server.queue_rx_span(spans[i]);
                probe(Party::server, [&] { return server.feed(unit); });
            } else if (hop == 2 * n + 1) {
                if (i < spans.size()) client.queue_rx_span(spans[i]);
                probe(Party::client, [&] { return client.feed(unit); });
            } else if constexpr (kHasMboxes) {
                bool from_client = hop < n;
                auto& mbox = *mboxes[from_client ? hop : 2 * n - hop];
                if (i < spans.size()) mbox.queue_rx_span(from_client, spans[i]);
                probe(Party::middlebox, [&] {
                    return from_client ? mbox.feed_from_client(unit) : mbox.feed_from_server(unit);
                });
            }
        }
        return !units.empty();
    };

    for (int round = 0; round < kMaxRounds; ++round) {
        bool moved = false;
        // Each take_*spans() must follow its take, so the takes are
        // sequenced by statement, not left to argument evaluation order.
        auto units = client.take_write_units();
        moved |= deliver(0, units, client.take_unit_spans());
        if constexpr (kHasMboxes) {
            for (size_t i = 0; i < n; ++i) {
                units = mboxes[i]->take_to_server();
                moved |= deliver(i + 1, units, mboxes[i]->take_to_server_spans());
            }
        }
        units = server.take_write_units();
        moved |= deliver(n + 1, units, server.take_unit_spans());
        if constexpr (kHasMboxes) {
            for (size_t i = n; i-- > 0;) {
                units = mboxes[i]->take_to_client();
                moved |= deliver(2 * n + 1 - i, units, mboxes[i]->take_to_client_spans());
            }
        }
        if (!moved) return true;
    }
    return false;
}

}  // namespace mct::chain
