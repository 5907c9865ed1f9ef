// Declaration-level hazard passes over a recorded command graph: the rules
// that need no observed accesses. Conflicting accesses -- concurrent kernels
// of a dataflow group, a host copy racing un-waited kernel work -- are
// ALS-R1's job (race.hpp): with every kernel access recorded, the
// happens-before engine checks what the kernels actually touch, so no
// declared-range heuristic is kept beside it.
//
//   ALS-H4  a kernel declares a USM range (handler::uses_usm) that is not
//           live: freed (use-after-free) or never allocated; also double and
//           invalid usm_free calls.
//   ALS-L5  queue::wait() with no commands since the previous wait -- the
//           redundant-synchronization smell behind the paper's Sec. 3.3
//           timing pitfalls.
//
// ALS-H3 (an accessor used after its command group) is checked at run time
// by the accessor probe (probe.hpp), not here. The ids H1/H2 are retired and
// not reused: baseline fingerprints contain rule ids.
#pragma once

#include "analyze/findings.hpp"
#include "analyze/graph.hpp"

namespace altis::analyze {

void lint_hazards(const command_graph& g, report& out);

}  // namespace altis::analyze
