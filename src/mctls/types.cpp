#include "mctls/types.h"

#include <utility>

#include "util/serde.h"

namespace mct::mctls {

const char* to_string(Permission p)
{
    switch (p) {
    case Permission::none:
        return "none";
    case Permission::read:
        return "read";
    case Permission::write:
        return "write";
    }
    return "?";
}

Bytes MiddleboxListExtension::serialize() const
{
    Writer w;
    w.u8(static_cast<uint8_t>(middleboxes.size()));
    for (const auto& mbox : middleboxes) {
        w.str8(mbox.name);
        w.str8(mbox.address);
    }
    w.u8(static_cast<uint8_t>(contexts.size()));
    for (const auto& ctx : contexts) {
        w.u8(ctx.id);
        w.str8(ctx.purpose);
        Bytes perms;
        for (Permission p : ctx.permissions) perms.push_back(static_cast<uint8_t>(p));
        w.vec8(perms);
    }
    return w.take();
}

Result<MiddleboxListExtension> MiddleboxListExtension::parse(ConstBytes wire)
{
    Reader r(wire);
    MiddleboxListExtension ext;
    auto mbox_count = r.u8();
    if (!mbox_count) return mbox_count.error();
    ext.middleboxes.reserve(mbox_count.value());
    for (unsigned i = 0; i < mbox_count.value(); ++i) {
        MiddleboxInfo info;
        auto name = r.str8();
        if (!name) return name.error();
        info.name = name.take();
        auto address = r.str8();
        if (!address) return address.error();
        info.address = address.take();
        ext.middleboxes.push_back(std::move(info));
    }
    auto ctx_count = r.u8();
    if (!ctx_count) return ctx_count.error();
    ext.contexts.reserve(ctx_count.value());
    bool seen[kMaxContexts + 1] = {};
    for (unsigned i = 0; i < ctx_count.value(); ++i) {
        ContextDescription ctx;
        auto id = r.u8();
        if (!id) return id.error();
        ctx.id = id.value();
        if (ctx.id == kControlContext) return err("mctls: context id 0 is reserved");
        if (std::exchange(seen[ctx.id], true)) return err("mctls: duplicate context id");
        auto purpose = r.str8();
        if (!purpose) return purpose.error();
        ctx.purpose = purpose.take();
        auto perms = r.view8();
        if (!perms) return perms.error();
        if (perms.value().size() != ext.middleboxes.size())
            return err("mctls: permission list size mismatch");
        ctx.permissions.reserve(perms.value().size());
        for (uint8_t p : perms.value()) {
            if (p > 2) return err("mctls: bad permission value");
            ctx.permissions.push_back(static_cast<Permission>(p));
        }
        ext.contexts.push_back(std::move(ctx));
    }
    if (auto s = r.expect_done(); !s) return s.error();
    return ext;
}

Bytes ServerModeExtension::serialize() const
{
    Writer w;
    w.u8(client_key_distribution ? 1 : 0);
    w.u8(static_cast<uint8_t>(granted.size()));
    for (const auto& row : granted) {
        Bytes perms;
        for (Permission p : row) perms.push_back(static_cast<uint8_t>(p));
        w.vec8(perms);
    }
    return w.take();
}

Result<ServerModeExtension> ServerModeExtension::parse(ConstBytes wire)
{
    Reader r(wire);
    auto flag = r.u8();
    if (!flag) return flag.error();
    ServerModeExtension ext;
    ext.client_key_distribution = flag.value() != 0;
    auto rows = r.u8();
    if (!rows) return rows.error();
    ext.granted.reserve(rows.value());
    for (unsigned i = 0; i < rows.value(); ++i) {
        auto perms = r.view8();
        if (!perms) return perms.error();
        std::vector<Permission> row;
        row.reserve(perms.value().size());
        for (uint8_t p : perms.value()) {
            if (p > 2) return err("mctls: bad permission value");
            row.push_back(static_cast<Permission>(p));
        }
        ext.granted.push_back(std::move(row));
    }
    if (auto s = r.expect_done(); !s) return s.error();
    return ext;
}

}  // namespace mct::mctls
