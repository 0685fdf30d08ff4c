// Minimal JSON support for the observability layer: a streaming writer used
// by the metric/trace sinks (no intermediate DOM, no allocation beyond the
// caller's output string) and a small recursive-descent parser used by
// offline consumers (`mctool trace`, the bench-smoke schema check).
// Not a general-purpose JSON library: numbers are parsed as doubles, no
// \uXXXX escapes beyond pass-through, inputs are trusted tool output.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace mct::obs {

// ---- Writer -------------------------------------------------------------

// Appends JSON tokens to a caller-owned string. The caller is responsible
// for structural validity (the writer inserts commas between siblings).
class JsonWriter {
public:
    explicit JsonWriter(std::string* out) : out_(out) {}

    void begin_object() { open('{'); }
    void end_object() { close('}'); }
    void begin_array() { open('['); }
    void end_array() { close(']'); }

    void key(std::string_view k)
    {
        comma();
        write_string(k);
        out_->push_back(':');
        just_keyed_ = true;
    }

    void value(std::string_view v)
    {
        comma();
        write_string(v);
    }
    void value(const char* v) { value(std::string_view(v)); }
    void value(uint64_t v)
    {
        comma();
        out_->append(std::to_string(v));
    }
    void value(int64_t v)
    {
        comma();
        out_->append(std::to_string(v));
    }
    void value(double v);
    void value(bool v)
    {
        comma();
        out_->append(v ? "true" : "false");
    }

private:
    void open(char c)
    {
        comma();
        out_->push_back(c);
        fresh_ = true;
    }
    void close(char c)
    {
        out_->push_back(c);
        fresh_ = false;
        just_keyed_ = false;
    }
    void comma()
    {
        if (!fresh_ && !just_keyed_ && !out_->empty()) {
            char last = out_->back();
            if (last != '{' && last != '[' && last != ':') out_->push_back(',');
        }
        fresh_ = false;
        just_keyed_ = false;
    }
    void write_string(std::string_view s);

    std::string* out_;
    bool fresh_ = true;
    bool just_keyed_ = false;
};

// ---- Parser -------------------------------------------------------------

struct JsonValue {
    enum class Kind { null, boolean, number, string, array, object };
    Kind kind = Kind::null;
    bool b = false;
    double num = 0;
    std::string str;
    std::vector<JsonValue> items;                 // array
    std::map<std::string, JsonValue> fields;      // object

    bool is_object() const { return kind == Kind::object; }
    bool is_array() const { return kind == Kind::array; }
    bool is_number() const { return kind == Kind::number; }
    bool is_string() const { return kind == Kind::string; }

    // Object field access; returns nullptr when absent or not an object.
    const JsonValue* get(const std::string& k) const
    {
        if (kind != Kind::object) return nullptr;
        auto it = fields.find(k);
        return it == fields.end() ? nullptr : &it->second;
    }
};

// Parse one JSON document (trailing whitespace allowed, trailing garbage is
// an error).
Result<JsonValue> json_parse(std::string_view text);

}  // namespace mct::obs
