#include "inspect/keyring.h"

#include <fstream>
#include <sstream>
#include <vector>

#include "crypto/aes.h"

namespace mct::inspect {

namespace {

bool is_hex(std::string_view s)
{
    if (s.empty() || s.size() % 2 != 0) return false;
    for (char c : s) {
        bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
        if (!ok) return false;
    }
    return true;
}

// "-" marks an absent key (a field the exporter never held).
Result<Bytes> parse_key_field(std::string_view token)
{
    if (token == "-") return Bytes{};
    if (!is_hex(token)) return err("keylog: bad hex field '" + std::string(token) + "'");
    return from_hex(token);
}

// An AES key field: absent, or exactly one AES-128 key (installing a key
// expands its schedule, which needs 16 bytes).
Result<Bytes> parse_cipher_key_field(std::string_view token)
{
    auto key = parse_key_field(token);
    if (key && !key.value().empty() && key.value().size() != crypto::Aes128::kKeySize)
        return err("keylog: bad AES key size in '" + std::string(token) + "'");
    return key;
}

std::vector<std::string_view> split_ws(std::string_view line)
{
    std::vector<std::string_view> out;
    size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
        size_t start = i;
        while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
        if (i > start) out.push_back(line.substr(start, i - start));
    }
    return out;
}

std::string lower(std::string_view s)
{
    std::string out(s);
    for (char& c : out)
        if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    return out;
}

}  // namespace

const Bytes* KeyRing::master_secret(ConstBytes client_random) const
{
    auto it = master_.find(to_hex(client_random));
    return it == master_.end() ? nullptr : &it->second;
}

const mctls::EndpointKeys* KeyRing::endpoint_keys(ConstBytes client_random) const
{
    auto it = endpoint_.find(to_hex(client_random));
    return it == endpoint_.end() ? nullptr : &it->second;
}

const mctls::ContextKeys* KeyRing::context_keys(ConstBytes client_random, uint32_t epoch,
                                                uint8_t context_id) const
{
    auto it = context_.find(to_hex(client_random));
    if (it == context_.end()) return nullptr;
    auto kt = it->second.find({epoch, context_id});
    return kt == it->second.end() ? nullptr : &kt->second;
}

uint32_t KeyRing::max_epoch(ConstBytes client_random) const
{
    auto it = context_.find(to_hex(client_random));
    if (it == context_.end() || it->second.empty()) return 0;
    return it->second.rbegin()->first.first;
}

size_t KeyRing::sessions() const
{
    // Distinct client randoms across all three tables.
    std::map<std::string, char> seen;
    for (const auto& [cr, v] : master_) seen[cr] = 1, (void)v;
    for (const auto& [cr, v] : endpoint_) seen[cr] = 1, (void)v;
    for (const auto& [cr, v] : context_) seen[cr] = 1, (void)v;
    return seen.size();
}

Status KeyRing::add_line(std::string_view line)
{
    // Strip a trailing '\r' so CRLF keylogs parse.
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    auto tokens = split_ws(line);
    if (tokens.empty() || tokens[0][0] == '#') return {};

    std::string_view label = tokens[0];
    if (label == "CLIENT_RANDOM") {
        if (tokens.size() != 3) return err("keylog: CLIENT_RANDOM wants 2 fields");
        if (!is_hex(tokens[1]) || !is_hex(tokens[2]))
            return err("keylog: CLIENT_RANDOM bad hex");
        master_[lower(tokens[1])] = from_hex(tokens[2]);
        return {};
    }
    if (label == "MCTLS_ENDPOINT") {
        if (tokens.size() != 6) return err("keylog: MCTLS_ENDPOINT wants 5 fields");
        if (!is_hex(tokens[1])) return err("keylog: MCTLS_ENDPOINT bad client random");
        mctls::EndpointKeys keys;
        for (int i = 0; i < 2; ++i) {
            auto mac = parse_key_field(tokens[2 + static_cast<size_t>(i)]);
            if (!mac) return mac.error();
            keys.record_mac[i] = mac.take();
            auto ctl = parse_cipher_key_field(tokens[4 + static_cast<size_t>(i)]);
            if (!ctl) return ctl.error();
            keys.control_enc[i] = ctl.take();
        }
        endpoint_[lower(tokens[1])] = std::move(keys);
        return {};
    }
    if (label == "MCTLS_CONTEXT") {
        if (tokens.size() != 10) return err("keylog: MCTLS_CONTEXT wants 9 fields");
        if (!is_hex(tokens[1])) return err("keylog: MCTLS_CONTEXT bad client random");
        uint64_t epoch = 0, ctx = 0;
        try {
            epoch = std::stoull(std::string(tokens[2]));
            ctx = std::stoull(std::string(tokens[3]));
        } catch (const std::exception&) {
            return err("keylog: MCTLS_CONTEXT bad epoch/context");
        }
        if (ctx > 0xff) return err("keylog: MCTLS_CONTEXT context id out of range");
        mctls::ContextKeys keys;
        for (int i = 0; i < 2; ++i) {
            size_t d = static_cast<size_t>(i);
            auto renc = parse_cipher_key_field(tokens[4 + d]);
            if (!renc) return renc.error();
            keys.reader_enc[i] = renc.take();
            auto rmac = parse_key_field(tokens[6 + d]);
            if (!rmac) return rmac.error();
            keys.reader_mac[i] = rmac.take();
            auto wmac = parse_key_field(tokens[8 + d]);
            if (!wmac) return wmac.error();
            keys.writer_mac[i] = wmac.take();
        }
        context_[lower(tokens[1])][{static_cast<uint32_t>(epoch),
                                    static_cast<uint8_t>(ctx)}] = std::move(keys);
        return {};
    }
    // Unknown label: skip, so future exporters don't break old tools.
    return {};
}

Result<KeyRing> parse_keylog(std::string_view text)
{
    KeyRing ring;
    size_t line_no = 0;
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t end = text.find('\n', pos);
        std::string_view line = end == std::string_view::npos
                                    ? text.substr(pos)
                                    : text.substr(pos, end - pos);
        ++line_no;
        if (auto st = ring.add_line(line); !st)
            return err(st.error().message + " (line " + std::to_string(line_no) + ")");
        if (end == std::string_view::npos) break;
        pos = end + 1;
    }
    return ring;
}

Result<KeyRing> read_keylog_file(const std::string& path)
{
    std::ifstream in(path);
    if (!in.good()) return err("keylog: cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse_keylog(buf.str());
}

}  // namespace mct::inspect
