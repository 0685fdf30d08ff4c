// Tap helper for the chain tests: rewrite the plaintext handshake messages
// inside one write unit, as an on-path party can.
#pragma once

#include "tls/messages.h"
#include "tls/record.h"

namespace mct::tls::test {

// `unit` with every handshake message ahead of its ChangeCipherSpec passed
// through edit(HandshakeMessage&) and framed again; every other record is
// copied as it was. with_context_id selects the mcTLS record header.
template <class Edit>
Bytes edit_handshake(const Bytes& unit, bool with_context_id, Edit&& edit)
{
    RecordCodec codec{with_context_id};
    codec.feed(unit);
    Bytes out;
    bool ccs = false;
    while (true) {
        auto view = codec.next_view();
        if (!view.ok() || !view.value()) break;
        const RecordView& rec = *view.value();
        ccs |= rec.type == ContentType::change_cipher_spec;
        if (rec.type != ContentType::handshake || ccs) {
            append(out, rec.wire);
            continue;
        }
        HandshakeReader reader;
        reader.feed(rec.payload);
        Bytes body;
        for (auto msg = reader.next(); msg.ok() && msg.value(); msg = reader.next()) {
            HandshakeMessage m = *msg.value();
            edit(m);
            append(body, m.serialize());
        }
        append(out, codec.encode({ContentType::handshake, rec.context_id, body}));
    }
    return out;
}

}  // namespace mct::tls::test
