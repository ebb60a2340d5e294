//===- Schedule.cpp - Compiled wavefront schedules ------------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/runtime/Schedule.h"

#include "sds/obs/Metrics.h"
#include "sds/obs/Trace.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <functional>
#include <limits>

namespace sds {
namespace rt {

//===----------------------------------------------------------------------===//
// Kinds and configuration
//===----------------------------------------------------------------------===//

const char *scheduleKindName(ScheduleKind K) {
  switch (K) {
  case ScheduleKind::Levels:
    return "levels";
  case ScheduleKind::LBC:
    return "lbc";
  case ScheduleKind::Coalesced:
    return "coalesced";
  }
  return "?";
}

std::optional<ScheduleKind> parseScheduleKind(std::string_view Name) {
  if (Name == "levels")
    return ScheduleKind::Levels;
  if (Name == "lbc")
    return ScheduleKind::LBC;
  if (Name == "coalesced")
    return ScheduleKind::Coalesced;
  return std::nullopt;
}

std::string ScheduleConfig::key() const {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%s/w%g/c%g/t%d", scheduleKindName(Kind),
                MinWorkPerThread, CoalesceFactor, NumThreads);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Coalescing
//===----------------------------------------------------------------------===//

namespace {

double costOf(int Node, const std::vector<double> &NodeCost) {
  return NodeCost.empty() ? 1.0 : NodeCost[static_cast<size_t>(Node)];
}

/// How far the dominant dependence component may exceed a thread's fair
/// share before a wave merge is rejected; matches LBC's 1.25x split
/// tolerance.
constexpr double kImbalanceTolerance = 1.25;

/// A dependence-connected component of an induced subgraph, keyed by its
/// minimal node id.
struct Component {
  int MinNode = std::numeric_limits<int>::max();
  double Cost = 0;
  std::vector<int> Nodes;
};

/// Connected components of the dependence subgraph induced on `Nodes`
/// (must be sorted ascending), in ascending MinNode order.
std::vector<Component>
connectedComponents(const DependenceGraph &G, const std::vector<int> &Nodes,
                    const std::vector<double> &NodeCost) {
  auto IndexOf = [&](int Node) {
    return static_cast<size_t>(
        std::lower_bound(Nodes.begin(), Nodes.end(), Node) - Nodes.begin());
  };
  auto InSet = [&](int Node) {
    auto It = std::lower_bound(Nodes.begin(), Nodes.end(), Node);
    return It != Nodes.end() && *It == Node;
  };

  std::vector<int> Parent(Nodes.size());
  for (size_t I = 0; I < Nodes.size(); ++I)
    Parent[I] = static_cast<int>(I);
  std::function<int(int)> Find = [&](int X) {
    while (Parent[static_cast<size_t>(X)] != X)
      X = Parent[static_cast<size_t>(X)] =
          Parent[static_cast<size_t>(Parent[static_cast<size_t>(X)])];
    return X;
  };
  for (int U : Nodes)
    for (int V : G.successors(U))
      if (InSet(V)) {
        int A = Find(static_cast<int>(IndexOf(U)));
        int B = Find(static_cast<int>(IndexOf(V)));
        if (A != B)
          Parent[static_cast<size_t>(B)] = A;
      }

  std::vector<Component> Comps(Nodes.size());
  for (int Node : Nodes) {
    Component &C =
        Comps[static_cast<size_t>(Find(static_cast<int>(IndexOf(Node))))];
    C.MinNode = std::min(C.MinNode, Node);
    C.Cost += costOf(Node, NodeCost);
    C.Nodes.push_back(Node);
  }
  Comps.erase(std::remove_if(Comps.begin(), Comps.end(),
                             [](const Component &C) {
                               return C.Nodes.empty();
                             }),
              Comps.end());
  std::sort(Comps.begin(), Comps.end(),
            [](const Component &A, const Component &B) {
              return A.MinNode < B.MinNode;
            });
  return Comps;
}

/// Partition a merged node set into per-thread chunks: connected
/// components of the induced dependence subgraph (so every intra-wave
/// edge stays inside one chunk), ordered by their minimal node id and
/// assigned to threads as contiguous cost-balanced groups — consecutive
/// iteration ids land on the same thread, which is what makes the
/// row-footprint locality work downstream. Each chunk is sorted
/// ascending: dependence edges always point to larger iterations, so
/// ascending order preserves intra-chunk dependence order.
std::vector<std::vector<int>>
packComponents(const DependenceGraph &G, std::vector<int> Nodes,
               int NumThreads, const std::vector<double> &NodeCost) {
  std::sort(Nodes.begin(), Nodes.end());
  double Total = 0;
  for (int Node : Nodes)
    Total += costOf(Node, NodeCost);
  std::vector<Component> Comps = connectedComponents(G, Nodes, NodeCost);

  // Contiguous balanced assignment: fill thread t until it holds its fair
  // share, then move on. Whole components never split.
  std::vector<std::vector<int>> Bins(static_cast<size_t>(NumThreads));
  double Fair = Total / NumThreads;
  size_t T = 0;
  double BinCost = 0;
  for (Component &C : Comps) {
    if (T + 1 < Bins.size() && BinCost >= Fair) {
      ++T;
      BinCost = 0;
    }
    Bins[T].insert(Bins[T].end(), C.Nodes.begin(), C.Nodes.end());
    BinCost += C.Cost;
  }
  for (auto &Bin : Bins)
    std::sort(Bin.begin(), Bin.end());
  return Bins;
}

/// Merge consecutive short waves into one wave whose chunks are the
/// dependence-connected components of the merged node set (see
/// packComponents).
void coalesceWaves(const DependenceGraph &G,
                   const std::vector<double> &NodeCost,
                   CompiledSchedule &S) {
  const ScheduleConfig &C = S.Config;
  double Target =
      std::max(1.0, C.CoalesceFactor * C.MinWorkPerThread * C.NumThreads);
  std::vector<std::vector<std::vector<int>>> Out;
  std::vector<int> Pending;
  double PendingCost = 0;
  auto Flush = [&] {
    if (Pending.empty())
      return;
    Out.push_back(
        packComponents(G, std::move(Pending), C.NumThreads, NodeCost));
    Pending.clear();
    PendingCost = 0;
  };
  // Merging waves can fuse their dependence components; a component
  // larger than one thread's fair share would serialize the merged
  // wave (components never split across chunks). The probe rejects a
  // merge when the dominant merged component exceeds the imbalance
  // tolerance — same spirit as LBC's adaptive window split — but a
  // component below MinWorkPerThread is always acceptable: that is the
  // per-thread work granularity anyway, and for waves that small the
  // barrier being eliminated costs more than the imbalance.
  auto Balanced = [&](const std::vector<int> &Merged, double Cost) {
    if (C.NumThreads <= 1)
      return true;
    double MaxComp = 0;
    for (const Component &Comp : connectedComponents(G, Merged, NodeCost))
      MaxComp = std::max(MaxComp, Comp.Cost);
    return MaxComp <= std::max(kImbalanceTolerance * Cost / C.NumThreads,
                               static_cast<double>(C.MinWorkPerThread));
  };
  for (const auto &Wave : S.Waves.Waves) {
    double WaveCost = 0;
    size_t WaveNodes = 0;
    for (const auto &Part : Wave) {
      WaveNodes += Part.size();
      for (int Node : Part)
        WaveCost += costOf(Node, NodeCost);
    }
    if (!Pending.empty() && PendingCost + WaveCost > Target) {
      Flush();
    } else if (!Pending.empty()) {
      std::vector<int> Merged;
      Merged.reserve(Pending.size() + WaveNodes);
      Merged.insert(Merged.end(), Pending.begin(), Pending.end());
      for (const auto &Part : Wave)
        Merged.insert(Merged.end(), Part.begin(), Part.end());
      std::sort(Merged.begin(), Merged.end());
      if (!Balanced(Merged, PendingCost + WaveCost))
        Flush();
    }
    Pending.reserve(Pending.size() + WaveNodes);
    for (const auto &Part : Wave)
      Pending.insert(Pending.end(), Part.begin(), Part.end());
    PendingCost += WaveCost;
  }
  Flush();
  S.Waves.Waves = std::move(Out);
}

} // namespace

CompiledSchedule buildSchedule(const DependenceGraph &G,
                               const ScheduleConfig &C,
                               const std::vector<double> &NodeCost) {
  assert(C.NumThreads >= 1);
  obs::Span Sp("schedule.build", "rt");
  Sp.tag("kind", scheduleKindName(C.Kind));
  CompiledSchedule S;
  S.Config = C;
  if (C.Kind == ScheduleKind::Levels) {
    S.Waves = scheduleLevelSets(G, C.NumThreads, NodeCost);
  } else {
    LBCConfig LC;
    LC.NumThreads = C.NumThreads;
    LC.MinWorkPerThread = C.MinWorkPerThread;
    S.Waves = scheduleLBC(G, LC, NodeCost);
  }
  if (C.Kind == ScheduleKind::Coalesced) {
    obs::Span PassSp("schedule.pass", "rt");
    PassSp.tag("pass", "coalesce-waves");
    coalesceWaves(G, NodeCost, S);
  }
  CompiledScheduleStats St = describeSchedule(S);
  Sp.tag("waves", static_cast<int64_t>(St.Base.NumWaves));
  Sp.tag("chunks", static_cast<int64_t>(St.NumChunks));
  static obs::Counter &Built = obs::counter("schedule.built");
  Built.add();
  if (obs::metricsEnabled()) {
    obs::gauge("schedule.waves").set(St.Base.NumWaves);
    obs::gauge("schedule.chunks").set(static_cast<double>(St.NumChunks));
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Certification
//===----------------------------------------------------------------------===//

bool certifySchedule(const DependenceGraph &G, const CompiledSchedule &S) {
  return S.Waves.respects(G);
}

CompiledScheduleStats describeSchedule(const CompiledSchedule &S) {
  CompiledScheduleStats St;
  St.Base = describeSchedule(S.Waves);
  for (const auto &Wave : S.Waves.Waves)
    for (const auto &Chunk : Wave)
      if (!Chunk.empty())
        ++St.NumChunks;
  return St;
}

} // namespace rt
} // namespace sds
