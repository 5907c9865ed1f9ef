#include "metrics/instruments.hpp"

#include <mutex>
#include <vector>

#include "metrics/alloc_ledger.hpp"

namespace altis::metrics {

namespace {

/// Reset hooks, registered once per subsystem on a cold path.
struct hook_list {
    std::mutex mutex;
    std::vector<std::function<void()>> fns;
};

hook_list& hooks() {
    static hook_list h;
    return h;
}

instrument_info describe(const char* name, const char* help, counter& c) {
    instrument_info i{name, help, instrument_kind::counter};
    i.ctr = &c;
    return i;
}

instrument_info describe(const char* name, const char* help, gauge& g) {
    instrument_info i{name, help, instrument_kind::gauge};
    i.gge = &g;
    return i;
}

instrument_info describe(const char* name, const char* help, watermark& w) {
    instrument_info i{name, help, instrument_kind::watermark};
    i.wmk = &w;
    return i;
}

instrument_info describe(const char* name, const char* help, histogram& h) {
    instrument_info i{name, help, instrument_kind::histogram};
    i.hst = &h;
    return i;
}

}  // namespace

const char* to_string(instrument_kind k) {
    switch (k) {
        case instrument_kind::counter: return "counter";
        case instrument_kind::gauge: return "gauge";
        case instrument_kind::watermark: return "watermark";
        case instrument_kind::histogram: return "histogram";
    }
    return "?";
}

std::span<const instrument_info> catalog() {
    static const instrument_info table[] = {
#define ALTIS_METRICS_INFO(type, fn, name, help) \
    describe(name, help, detail::g_instruments.fn),
        ALTIS_METRICS_CATALOG(ALTIS_METRICS_INFO)
#undef ALTIS_METRICS_INFO
    };
    return table;
}

void reset_all() {
    for (const instrument_info& info : catalog()) {
        if (info.ctr != nullptr) info.ctr->reset();
        if (info.gge != nullptr) info.gge->reset();
        if (info.wmk != nullptr) info.wmk->reset();
        if (info.hst != nullptr) info.hst->reset();
    }
    alloc_ledger::instance().clear();
    detail::g_epoch.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::function<void()>> fns;
    {
        std::lock_guard lock(hooks().mutex);
        fns = hooks().fns;
    }
    for (const auto& fn : fns) fn();
}

void add_reset_hook(std::function<void()> fn) {
    std::lock_guard lock(hooks().mutex);
    hooks().fns.push_back(std::move(fn));
}

}  // namespace altis::metrics
