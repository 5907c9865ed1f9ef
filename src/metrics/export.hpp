// Exporters for a finished (or running) metrics session. Three formats:
//
//   * Prometheus text exposition (write_prometheus): one # HELP/# TYPE block
//     per metric family, log-bucketed histograms as cumulative _bucket
//     series with `le` labels (the only label: no instrument carries any).
//   * Structured JSON (write_json): the snapshot plus the sampler's time
//     series, following the suite's hand-rolled-emitter conventions
//     (ResultDatabase, chrome_export) so tests/support/mini_json.hpp can
//     parse it back.
//   * Chrome trace-event counter tracks (write_chrome_counter_events):
//     "ph":"C" events that trace::write_chrome_json splices into its
//     traceEvents array, so simulated spans and wall-clock counters render
//     on one Perfetto timeline.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "metrics/session.hpp"

namespace altis::metrics {

void write_prometheus(const snapshot& snap, std::ostream& out);

void write_json(const snapshot& snap,
                const std::vector<sampled_series>& series, std::ostream& out);

/// Appends counter events to an already-open Chrome trace-event array.
/// `first` follows the chrome_export comma protocol: false when events were
/// already written (a comma is emitted before each event), updated in place.
void write_chrome_counter_events(const std::vector<sampled_series>& series,
                                 std::ostream& out, bool& first);

}  // namespace altis::metrics
