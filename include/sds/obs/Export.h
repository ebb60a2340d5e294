//===- Export.h - Chrome trace exporter -------------------------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Turns the span buffer (Trace.h) into Chrome trace-event JSON: load the
// file in chrome://tracing or https://ui.perfetto.dev to see the pipeline
// stages, inspectors, and wavefront waves on a timeline. The document
// also carries a "counters" object and re-parses with sds::json
// (round-trip tested). Counters, gauges and histograms in aggregate are
// the metrics snapshot's job (Metrics.h).
//
//===----------------------------------------------------------------------===//

#ifndef SDS_OBS_EXPORT_H
#define SDS_OBS_EXPORT_H

#include "sds/support/JSON.h"

#include <string>

namespace sds {
namespace obs {

/// The full event buffer in Chrome trace-event format:
/// { "traceEvents": [ {name, cat, ph:"X", ts, dur, pid, tid, args}, ... ],
///   "displayTimeUnit": "ms", "counters": {...} }
/// Timestamps/durations are microseconds (doubles, sub-us preserved).
json::Value chromeTrace();

/// chromeTrace() serialized to text.
std::string chromeTraceJSON();

/// Write chromeTraceJSON() to `Path`. Returns false on I/O failure.
bool writeChromeTrace(const std::string &Path);

} // namespace obs
} // namespace sds

#endif // SDS_OBS_EXPORT_H
