// Chrome trace-event exporter: serializes a session as the JSON object
// format understood by Perfetto / chrome://tracing / speedscope. Spans
// become complete ("ph":"X") duration events; timestamps are microseconds
// in the shortest form that parses back to the same double, so nanosecond
// precision survives as fractions at any session length. Dataflow kernels
// land on their own tracks (tid = lane + 1) so the Fig. 3 overlap is visible
// as parallel bars; everything sequential shares the main track.
#pragma once

#include <iosfwd>

#include "trace/session.hpp"

namespace altis::metrics {
class session;
}

namespace altis::trace {

/// When `metrics` is non-null (a stopped metrics::session), its sampled
/// gauge/watermark series are spliced into the same traceEvents array as
/// "ph":"C" counter tracks under pid 2, so the simulated timeline and the
/// wall-clock telemetry render in one Perfetto view.
void write_chrome_json(const session& s, std::ostream& out,
                       const altis::metrics::session* metrics = nullptr);

}  // namespace altis::trace
