#include "net/capture.h"

#include <iterator>
#include <utility>

#include "util/serde.h"

namespace mct::net {

namespace {

constexpr char kMagic[] = {'M', 'C', 'C', 'A', 'P'};
constexpr size_t kMagicSize = sizeof(kMagic);

constexpr uint8_t kRecordFlow = 1;
constexpr uint8_t kRecordFrame = 2;

Bytes serialize_flow(const CaptureFlow& flow)
{
    Writer w;
    w.u32(flow.id);
    w.u64(flow.opened_at);
    w.u16(flow.port);
    w.str8(flow.initiator);
    w.str8(flow.responder);
    return w.take();
}

Bytes serialize_frame(const CaptureFrame& frame)
{
    Writer w;
    w.u32(frame.flow);
    w.u64(frame.ts);
    w.u8(frame.dir);
    w.u8(static_cast<uint8_t>(frame.kind));
    w.u64(frame.seq);
    w.vec24(frame.payload);
    return w.take();
}

Result<CaptureFlow> parse_flow(ConstBytes body)
{
    Reader r(body);
    CaptureFlow flow;
    auto id = r.u32();
    if (!id) return id.error();
    flow.id = id.value();
    auto opened = r.u64();
    if (!opened) return opened.error();
    flow.opened_at = opened.value();
    auto port = r.u16();
    if (!port) return port.error();
    flow.port = port.value();
    auto initiator = r.str8();
    if (!initiator) return initiator.error();
    flow.initiator = initiator.take();
    auto responder = r.str8();
    if (!responder) return responder.error();
    flow.responder = responder.take();
    if (auto done = r.expect_done(); !done) return done.error();
    return flow;
}

Result<CaptureFrame> parse_frame(ConstBytes body)
{
    Reader r(body);
    CaptureFrame frame;
    auto flow = r.u32();
    if (!flow) return flow.error();
    frame.flow = flow.value();
    auto ts = r.u64();
    if (!ts) return ts.error();
    frame.ts = ts.value();
    auto dir = r.u8();
    if (!dir) return dir.error();
    if (dir.value() > 1) return err("capture: bad frame direction");
    frame.dir = dir.value();
    auto kind = r.u8();
    if (!kind) return kind.error();
    if (kind.value() > static_cast<uint8_t>(CaptureFrameKind::fin))
        return err("capture: bad frame kind");
    frame.kind = static_cast<CaptureFrameKind>(kind.value());
    auto seq = r.u64();
    if (!seq) return seq.error();
    frame.seq = seq.value();
    auto payload = r.vec24();
    if (!payload) return payload.error();
    frame.payload = payload.take();
    if (auto done = r.expect_done(); !done) return done.error();
    return frame;
}

void append_record(Bytes& out, uint8_t record_type, ConstBytes body)
{
    Writer w;
    w.u8(record_type);
    w.u32(static_cast<uint32_t>(body.size()));
    append(out, w.bytes());
    append(out, body);
}

}  // namespace

const CaptureFlow* Capture::flow(uint32_t id) const
{
    for (const auto& f : flows)
        if (f.id == id) return &f;
    return nullptr;
}

CaptureFileWriter::CaptureFileWriter(const std::string& path)
    : out_(path, std::ios::binary | std::ios::trunc)
{
    if (!out_.good()) return;
    out_.write(kMagic, kMagicSize);
    char version = static_cast<char>(kCaptureVersion);
    out_.write(&version, 1);
}

void CaptureFileWriter::write_record(uint8_t record_type, ConstBytes body)
{
    Bytes rec;
    append_record(rec, record_type, body);
    out_.write(reinterpret_cast<const char*>(rec.data()),
               static_cast<std::streamsize>(rec.size()));
}

void CaptureFileWriter::on_flow(const CaptureFlow& flow)
{
    write_record(kRecordFlow, serialize_flow(flow));
}

void CaptureFileWriter::on_frame(const CaptureFrame& frame)
{
    write_record(kRecordFrame, serialize_frame(frame));
}

Bytes capture_serialize(const Capture& capture)
{
    Bytes out(kMagic, kMagic + kMagicSize);
    out.push_back(kCaptureVersion);
    for (const auto& flow : capture.flows) append_record(out, kRecordFlow, serialize_flow(flow));
    for (const auto& frame : capture.frames)
        append_record(out, kRecordFrame, serialize_frame(frame));
    return out;
}

Result<Capture> capture_parse(ConstBytes wire)
{
    if (wire.size() < kMagicSize + 1) return err("capture: truncated header");
    for (size_t i = 0; i < kMagicSize; ++i)
        if (wire[i] != static_cast<uint8_t>(kMagic[i])) return err("capture: bad magic");
    if (wire[kMagicSize] != kCaptureVersion)
        return err("capture: unsupported version " + std::to_string(wire[kMagicSize]));

    Capture capture;
    Reader r(wire.subspan(kMagicSize + 1));
    while (!r.done()) {
        auto record_type = r.u8();
        if (!record_type) return record_type.error();
        auto len = r.u32();
        if (!len) return len.error();
        auto body = r.raw(len.value());
        if (!body) return err("capture: truncated record");
        if (record_type.value() == kRecordFlow) {
            auto flow = parse_flow(body.value());
            if (!flow) return flow.error();
            capture.flows.push_back(flow.take());
        } else if (record_type.value() == kRecordFrame) {
            auto frame = parse_frame(body.value());
            if (!frame) return frame.error();
            capture.frames.push_back(frame.take());
        }
        // Unknown record types are skipped: the length prefix exists so old
        // readers survive new kinds.
    }
    return capture;
}

Status capture_write_file(const Capture& capture, const std::string& path)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out.good()) return err("capture: cannot open " + path);
    Bytes wire = capture_serialize(capture);
    out.write(reinterpret_cast<const char*>(wire.data()),
              static_cast<std::streamsize>(wire.size()));
    if (!out.good()) return err("capture: write failed for " + path);
    return {};
}

Result<Capture> capture_read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) return err("capture: cannot open " + path);
    Bytes wire((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    return capture_parse(wire);
}

}  // namespace mct::net
