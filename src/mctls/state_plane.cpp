#include "mctls/state_plane.h"

namespace mct::mctls {

StatePlane::StatePlane(StatePlaneConfig cfg, size_t n_middleboxes)
    : cfg_(cfg), tls_(cfg.tls), server_(cfg.server)
{
    mbox_.reserve(n_middleboxes);
    for (size_t i = 0; i < n_middleboxes; ++i)
        mbox_.emplace_back(cfg.middlebox);
    excise_timer_.assign(n_middleboxes, 0);

    if (cfg_.sweep_interval != 0) {
        sched_.every(cfg_.sweep_interval, cfg_.sweep_interval, [this](uint64_t now) {
            size_t reclaimed = tls_.sweep_expired(now, cfg_.sweep_batch);
            reclaimed += server_.sweep_expired(now, cfg_.sweep_batch);
            for (auto& cache : mbox_)
                reclaimed += cache.sweep_expired(now, cfg_.sweep_batch);
            ++sweeps_;
            swept_entries_ += reclaimed;
            if (on_sweep) on_sweep(reclaimed, now);
        });
    }
    if (cfg_.rekey_interval != 0) {
        sched_.every(cfg_.rekey_interval, cfg_.rekey_interval, [this](uint64_t now) {
            ++rekeys_signalled_;
            if (on_rekey_due) on_rekey_due(now);
        });
    }
}

void StatePlane::set_clock(std::function<uint64_t()> clock)
{
    tls_.set_clock(clock);
    server_.set_clock(clock);
    for (auto& cache : mbox_) cache.set_clock(clock);
}

void StatePlane::middlebox_down(size_t index, uint64_t now)
{
    if (index >= mbox_.size() || cfg_.excise_grace == 0) return;
    if (excise_timer_[index] != 0) return;  // grace timer already running
    excise_timer_[index] =
        sched_.at(now + cfg_.excise_grace, [this, index](uint64_t at) {
            // Still down: the timer only reaches here uncancelled.
            excise_timer_[index] = 0;
            ++excisions_signalled_;
            if (on_excise_due) on_excise_due(index, at);
        });
}

void StatePlane::middlebox_up(size_t index)
{
    if (index >= excise_timer_.size() || excise_timer_[index] == 0) return;
    sched_.cancel(excise_timer_[index]);
    excise_timer_[index] = 0;
}

void StatePlane::excise_middlebox(size_t index)
{
    if (index >= mbox_.size()) return;
    mbox_[index].clear();
    ++excisions_applied_;
}

void StatePlane::scale_budgets(double factor)
{
    if (factor < 0) factor = 0;
    budget_factor_ = factor;
    auto scaled = [factor](uint64_t v) -> uint64_t {
        if (v == 0) return 0;  // unbounded stays unbounded
        double s = static_cast<double>(v) * factor;
        return s < 1.0 ? 1 : static_cast<uint64_t>(s);
    };
    auto apply = [&](auto& cache, const util::CacheConfig& base) {
        cache.set_capacity(static_cast<size_t>(scaled(base.capacity)));
        cache.set_memory_budget(scaled(base.memory_budget));
    };
    apply(tls_, cfg_.tls);
    apply(server_, cfg_.server);
    for (auto& cache : mbox_) apply(cache, cfg_.middlebox);
}

StatePlane::Snapshot StatePlane::snapshot() const
{
    Snapshot snap;
    snap.tls = tls_.stats();
    snap.server = server_.stats();
    for (const auto& cache : mbox_) {
        const util::CacheStats one = cache.stats();
        util::CacheStats::walk([](const char*, auto& sum, const auto& v) { sum += v; },
                               snap.middlebox, one);
    }
    snap.sweeps = sweeps_;
    snap.swept_entries = swept_entries_;
    snap.rekeys_signalled = rekeys_signalled_;
    snap.excisions_signalled = excisions_signalled_;
    snap.excisions_applied = excisions_applied_;
    return snap;
}

}  // namespace mct::mctls
