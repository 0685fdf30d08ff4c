// Wire capture for the simulated network (docs/PROTOCOL.md "Capture file
// format").
//
// A CaptureSink attached via SimNet::set_capture() observes every
// connection the net opens afterwards: one flow-definition per connection
// (who connected to whom, on which port, at what sim time) and one frame
// per transmitted segment (SYN / data / FIN), stamped with the transmit
// time and the TCP stream offset. Frames are recorded at *transmit* time —
// before loss — so a capture of a lossy path shows retransmissions exactly
// as the wire would; readers dedup via cumulative reassembly
// (inspect::reassemble_flow) just like the receiving TCP.
//
// ACK-only packets carry no stream bytes and are not captured.
//
// The on-disk format (CaptureFileWriter / capture_read_file) is a
// length-prefixed record stream behind a versioned "MCCAP" magic, so future
// record kinds can be added without breaking old readers. The in-memory
// Capture struct is the parsed form and what the offline dissector
// consumes; tests can also build one directly with CaptureCollector.
//
// The disabled path costs one null-pointer test per segment (same idiom as
// the connection's journal): no copies, no allocation.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"

namespace mct::net {

constexpr uint8_t kCaptureVersion = 1;

enum class CaptureFrameKind : uint8_t {
    syn = 0,
    data = 1,
    fin = 2,
};

// One TCP connection as seen by the capture. `initiator` is the connecting
// host (direction 0 = initiator -> responder).
struct CaptureFlow {
    uint32_t id = 0;
    std::string initiator;
    std::string responder;
    uint16_t port = 0;
    uint64_t opened_at = 0;  // sim time (µs) the SYN was first sent
};

// One captured segment. `seq` is the TCP stream offset of payload[0] (SYN
// and FIN frames carry an empty payload; FIN's seq marks end-of-stream).
struct CaptureFrame {
    uint64_t ts = 0;  // sim time (µs) at transmit
    uint32_t flow = 0;
    uint8_t dir = 0;  // 0 = initiator -> responder, 1 = responder -> initiator
    CaptureFrameKind kind = CaptureFrameKind::data;
    uint64_t seq = 0;
    Bytes payload;
};

class CaptureSink {
public:
    virtual ~CaptureSink() = default;
    virtual void on_flow(const CaptureFlow& flow) = 0;
    virtual void on_frame(const CaptureFrame& frame) = 0;
    virtual void flush() {}
};

// Parsed capture: what a file deserializes to and what the dissector takes.
struct Capture {
    std::vector<CaptureFlow> flows;
    std::vector<CaptureFrame> frames;  // in capture (transmit) order

    const CaptureFlow* flow(uint32_t id) const;
};

// In-memory sink for tests and single-process pipelines.
class CaptureCollector : public CaptureSink {
public:
    void on_flow(const CaptureFlow& flow) override { capture.flows.push_back(flow); }
    void on_frame(const CaptureFrame& frame) override { capture.frames.push_back(frame); }

    Capture capture;
};

// Streaming writer of the MCCAP format; writes the header up front and one
// length-prefixed record per flow/frame as they arrive.
class CaptureFileWriter : public CaptureSink {
public:
    explicit CaptureFileWriter(const std::string& path);

    bool ok() const { return out_.good(); }
    void on_flow(const CaptureFlow& flow) override;
    void on_frame(const CaptureFrame& frame) override;
    void flush() override { out_.flush(); }

private:
    void write_record(uint8_t record_type, ConstBytes body);

    std::ofstream out_;
};

// Serialize a whole capture to MCCAP bytes (flows first, then frames in
// order) — the tamper tests round-trip edited captures through this.
Bytes capture_serialize(const Capture& capture);
Result<Capture> capture_parse(ConstBytes wire);

Status capture_write_file(const Capture& capture, const std::string& path);
Result<Capture> capture_read_file(const std::string& path);

}  // namespace mct::net
