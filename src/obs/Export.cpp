//===- Export.cpp - Chrome trace exporter ---------------------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/obs/Export.h"

#include "sds/obs/Trace.h"

#include <fstream>

namespace sds {
namespace obs {

namespace {

json::Value countersObject() {
  json::Object Counters;
  for (const auto &[Name, Val] : snapshotCounters())
    Counters.emplace(Name, json::Value(static_cast<int64_t>(Val)));
  return json::Value(std::move(Counters));
}

} // namespace

json::Value chromeTrace() {
  json::Array Events;
  for (const TraceEvent &E : snapshotEvents()) {
    json::Object Ev;
    Ev.emplace("name", json::Value(E.Name));
    Ev.emplace("cat", json::Value(E.Category));
    Ev.emplace("ph", json::Value(std::string("X")));
    Ev.emplace("ts", json::Value(static_cast<double>(E.StartNs) / 1000.0));
    Ev.emplace("dur", json::Value(static_cast<double>(E.DurNs) / 1000.0));
    Ev.emplace("pid", json::Value(static_cast<int64_t>(1)));
    Ev.emplace("tid", json::Value(static_cast<int64_t>(E.ThreadId)));
    if (!E.Tags.empty()) {
      json::Object Args;
      for (const auto &[K, V] : E.Tags)
        Args.emplace(K, json::Value(V));
      Ev.emplace("args", json::Value(std::move(Args)));
    }
    Events.push_back(json::Value(std::move(Ev)));
  }
  json::Object Root;
  Root.emplace("traceEvents", json::Value(std::move(Events)));
  Root.emplace("displayTimeUnit", json::Value(std::string("ms")));
  Root.emplace("counters", countersObject());
  if (uint64_t N = droppedEvents())
    Root.emplace("dropped_events", json::Value(static_cast<int64_t>(N)));
  return json::Value(std::move(Root));
}

std::string chromeTraceJSON() { return chromeTrace().str(); }

bool writeChromeTrace(const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << chromeTraceJSON() << "\n";
  return static_cast<bool>(Out);
}

} // namespace obs
} // namespace sds
