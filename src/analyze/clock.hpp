// Vector clocks over syclite ordering events -- the happens-before algebra
// behind the ALS-R* race rules (docs/SANITIZER.md, "The happens-before
// model"). One component per actor (host, each kernel submission); clocks
// grow on demand, and a component an actor has never ticked reads as 0.
//
// The usual FastTrack-style query: an access by actor A at A-local time t
// happens-before an access stamped with clock C iff C[A] >= t -- i.e. the
// second access's actor had already synchronized with A's t-th step through
// some chain of submit/wait/pipe edges.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace altis::analyze {

class vector_clock {
public:
    /// Component for `actor`; 0 when the clock has never seen it.
    [[nodiscard]] std::uint64_t get(std::size_t actor) const {
        return actor < c_.size() ? c_[actor] : 0;
    }

    /// Advances `actor`'s own component (one local step).
    void tick(std::size_t actor) {
        grow(actor);
        ++c_[actor];
    }

    /// Pointwise maximum: after join(o) this clock has seen everything both
    /// clocks had seen.
    void join(const vector_clock& o) {
        if (o.c_.size() > c_.size()) c_.resize(o.c_.size(), 0);
        for (std::size_t i = 0; i < o.c_.size(); ++i)
            c_[i] = std::max(c_[i], o.c_[i]);
    }

    [[nodiscard]] std::size_t size() const { return c_.size(); }

private:
    void grow(std::size_t actor) {
        if (actor >= c_.size()) c_.resize(actor + 1, 0);
    }

    std::vector<std::uint64_t> c_;
};

}  // namespace altis::analyze
