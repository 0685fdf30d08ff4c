// Shared by the teaching examples: deliver pending write units along
// client <-> middlebox <-> server until everything goes quiet.
#pragma once

#include "mctls/middlebox.h"
#include "mctls/session.h"

namespace mct::examples {

inline void pump(mctls::Session& client, mctls::MiddleboxSession& mbox,
                 mctls::Session& server)
{
    bool progress = true;
    while (progress) {
        progress = false;
        for (auto& unit : client.take_write_units()) {
            progress = true;
            (void)mbox.feed_from_client(unit);
        }
        for (auto& unit : mbox.take_to_server()) {
            progress = true;
            (void)server.feed(unit);
        }
        for (auto& unit : server.take_write_units()) {
            progress = true;
            (void)mbox.feed_from_server(unit);
        }
        for (auto& unit : mbox.take_to_client()) {
            progress = true;
            (void)client.feed(unit);
        }
    }
}

}  // namespace mct::examples
