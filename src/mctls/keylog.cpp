#include "mctls/keylog.h"

#include <string>

namespace mct::mctls {

namespace {

std::string hex_or_dash(ConstBytes b)
{
    return b.empty() ? std::string("-") : to_hex(b);
}

}  // namespace

void keylog_endpoint_keys(tls::KeyLog* log, ConstBytes client_random, const EndpointKeys& keys)
{
    if (!log) return;
    std::string line = "MCTLS_ENDPOINT " + to_hex(client_random);
    line += " " + to_hex(keys.record_mac[0].bytes());
    line += " " + to_hex(keys.record_mac[1].bytes());
    line += " " + to_hex(keys.control_enc[0].bytes());
    line += " " + to_hex(keys.control_enc[1].bytes());
    log->line(line);
}

void keylog_context_keys(tls::KeyLog* log, ConstBytes client_random, uint32_t epoch,
                         uint8_t context_id, const ContextKeys& keys)
{
    if (!log) return;
    std::string line = "MCTLS_CONTEXT " + to_hex(client_random);
    line += " " + std::to_string(epoch);
    line += " " + std::to_string(context_id);
    line += " " + hex_or_dash(keys.reader_enc[0].bytes());
    line += " " + hex_or_dash(keys.reader_enc[1].bytes());
    line += " " + hex_or_dash(keys.reader_mac[0].bytes());
    line += " " + hex_or_dash(keys.reader_mac[1].bytes());
    line += " " + hex_or_dash(keys.writer_mac[0].bytes());
    line += " " + hex_or_dash(keys.writer_mac[1].bytes());
    log->line(line);
}

}  // namespace mct::mctls
