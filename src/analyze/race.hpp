// HB-precise sanitize passes over the observed-access shadow store:
//
//   ALS-R1  two overlapping accesses, >= 1 write, by different actors, with
//           no happens-before path in either direction -- a pipe edge or a
//           wait() that really orders the pair exonerates it. This covers
//           both unpiped dataflow kernels and host copies racing un-waited
//           kernel work, on the bytes actually touched: kernels reach
//           buffer memory only through operator[] and accessor::span, both
//           recorded.
//   ALS-R2  pipe-ordered but round-skewed: a receive straddles a multiple
//           of the declared items_per_round, so the consumer mixes two
//           steady-state rounds in one read.
//   ALS-D1  declaration drift: a kernel's observed accesses leave the union
//           of everything its command group declared (accessors, uses_usm)
//           -- the lie that blinds every declaration-based pass.
//
// The store must be finalized before calling (open per-thread runs flushed).
#pragma once

#include "analyze/findings.hpp"
#include "analyze/graph.hpp"
#include "analyze/shadow.hpp"

namespace altis::analyze {

void lint_races(const shadow::store& s, const command_graph& g, report& r);

}  // namespace altis::analyze
