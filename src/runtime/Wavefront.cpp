//===- Wavefront.cpp - Dependence DAGs, level sets, and LBC ---------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/runtime/Wavefront.h"

#include "sds/obs/Trace.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace sds {
namespace rt {

void DependenceGraph::addEdge(int64_t Src, int64_t Dst) {
  if (Src == Dst)
    return;
  assert(Src >= 0 && Src < N && Dst >= 0 && Dst < N && "edge out of range");
  Staged.emplace_back(static_cast<int>(Src), static_cast<int>(Dst));
}

void DependenceGraph::finalize() {
  // Idempotent: re-stage the current CSR content so late addEdge() calls
  // merge rather than replace.
  if (Edges != 0) {
    Staged.reserve(Staged.size() + static_cast<size_t>(Edges));
    for (int U = 0; U < N; ++U)
      for (int V : successors(U))
        Staged.emplace_back(U, V);
  }

  // Pass 1: count edges per source, exclusive prefix-sum into EdgePtr.
  std::fill(EdgePtr.begin(), EdgePtr.end(), 0);
  for (const auto &[Src, Dst] : Staged) {
    (void)Dst;
    ++EdgePtr[static_cast<size_t>(Src) + 1];
  }
  for (size_t I = 1; I < EdgePtr.size(); ++I)
    EdgePtr[I] += EdgePtr[I - 1];

  // Pass 2: fill row segments via per-row cursors, then dedup each row in
  // place (sort + unique) while compacting the arrays left. resize, not
  // assign: every slot below Staged.size() is overwritten by the cursor
  // fill, and a covering reserveEdges() call means no growth happens here.
  EdgeDst.resize(Staged.size());
  std::vector<size_t> Cursor(EdgePtr.begin(), EdgePtr.end() - 1);
  for (const auto &[Src, Dst] : Staged)
    EdgeDst[Cursor[static_cast<size_t>(Src)]++] = Dst;
  Staged.clear();
  Staged.shrink_to_fit();

  size_t Write = 0;
  for (int U = 0; U < N; ++U) {
    size_t B = EdgePtr[static_cast<size_t>(U)];
    size_t E = EdgePtr[static_cast<size_t>(U) + 1];
    std::sort(EdgeDst.begin() + static_cast<int64_t>(B),
              EdgeDst.begin() + static_cast<int64_t>(E));
    EdgePtr[static_cast<size_t>(U)] = Write;
    int Last = -1;
    for (size_t I = B; I < E; ++I)
      if (EdgeDst[I] != Last) {
        Last = EdgeDst[I];
        EdgeDst[Write++] = Last;
      }
  }
  EdgePtr[static_cast<size_t>(N)] = Write;
  EdgeDst.resize(Write);
  Edges = Write;
}

bool DependenceGraph::isForwardOnly() const {
  for (int U = 0; U < N; ++U)
    for (int V : successors(U))
      if (V <= U)
        return false;
  return true;
}

LevelSets computeLevelSets(const DependenceGraph &G) {
  obs::Span Sp("wavefront.level_sets", "rt");
  LevelSets LS;
  int N = G.numNodes();
  LS.LevelOf.assign(N, 0);
  // Outer-loop dependence edges always point forward (src iteration <
  // dst), so a single ascending sweep computes longest-path levels.
  assert(G.isForwardOnly() && "dependence graph must be forward-only");
  int MaxLevel = 0;
  for (int U = 0; U < N; ++U) {
    for (int V : G.successors(U))
      LS.LevelOf[V] = std::max(LS.LevelOf[V], LS.LevelOf[U] + 1);
    MaxLevel = std::max(MaxLevel, LS.LevelOf[U]);
  }
  LS.Levels.assign(static_cast<size_t>(MaxLevel) + 1, {});
  for (int U = 0; U < N; ++U)
    LS.Levels[static_cast<size_t>(LS.LevelOf[U])].push_back(U);
  Sp.tag("nodes", static_cast<int64_t>(N));
  Sp.tag("levels", static_cast<int64_t>(LS.Levels.size()));
  return LS;
}

bool WavefrontSchedule::respects(const DependenceGraph &G) const {
  // Position of each node: (wave, thread, index-in-partition).
  int N = G.numNodes();
  std::vector<int> WaveOf(N, -1), ThreadOf(N, -1), PosOf(N, -1);
  for (size_t W = 0; W < Waves.size(); ++W)
    for (size_t T = 0; T < Waves[W].size(); ++T)
      for (size_t P = 0; P < Waves[W][T].size(); ++P) {
        int Node = Waves[W][T][P];
        if (Node < 0 || Node >= N || WaveOf[Node] != -1)
          return false; // missing/duplicate node
        WaveOf[Node] = static_cast<int>(W);
        ThreadOf[Node] = static_cast<int>(T);
        PosOf[Node] = static_cast<int>(P);
      }
  for (int U = 0; U < N; ++U)
    if (WaveOf[U] == -1)
      return false; // node not scheduled
  for (int U = 0; U < N; ++U) {
    for (int V : G.successors(U)) {
      if (WaveOf[U] < WaveOf[V])
        continue;
      // Same wave is fine only when the same thread runs U before V.
      if (WaveOf[U] == WaveOf[V] && ThreadOf[U] == ThreadOf[V] &&
          PosOf[U] < PosOf[V])
        continue;
      return false;
    }
  }
  return true;
}

uint64_t WavefrontSchedule::criticalWork() const {
  uint64_t Total = 0;
  for (const auto &Wave : Waves) {
    uint64_t MaxThread = 0;
    for (const auto &Part : Wave)
      MaxThread = std::max(MaxThread, static_cast<uint64_t>(Part.size()));
    Total += MaxThread;
  }
  return Total;
}

namespace {

/// Greedy balanced partition of `Nodes` into `NumThreads` bins by cost.
/// Nodes stay in ascending order inside each bin (preserves intra-thread
/// dependence order for same-wave edges).
std::vector<std::vector<int>>
partitionByCost(const std::vector<int> &Nodes, int NumThreads,
                const std::vector<double> &NodeCost) {
  std::vector<std::vector<int>> Bins(static_cast<size_t>(NumThreads));
  std::vector<double> BinCost(static_cast<size_t>(NumThreads), 0.0);
  for (int Node : Nodes) {
    size_t Best = 0;
    for (size_t T = 1; T < Bins.size(); ++T)
      if (BinCost[T] < BinCost[Best])
        Best = T;
    Bins[Best].push_back(Node);
    BinCost[Best] +=
        NodeCost.empty() ? 1.0 : NodeCost[static_cast<size_t>(Node)];
  }
  return Bins;
}

} // namespace

namespace {

/// Record the shape of a finished schedule as counters + span tags.
void recordScheduleStats(obs::Span &Sp, const WavefrontSchedule &S) {
  static obs::Counter &Waves = obs::counter("wavefront.waves");
  static obs::Counter &Nodes = obs::counter("wavefront.scheduled_nodes");
  ScheduleStats St = describeSchedule(S);
  Waves.add(static_cast<uint64_t>(St.NumWaves));
  Nodes.add(St.TotalNodes);
  if (!obs::enabled())
    return;
  Sp.tag("waves", static_cast<int64_t>(St.NumWaves));
  Sp.tag("nodes", static_cast<int64_t>(St.TotalNodes));
  Sp.tag("max_wave", static_cast<int64_t>(St.MaxWaveSize));
  Sp.tag("parallelism",
         std::to_string(St.achievedParallelism()));
}

} // namespace

ScheduleStats describeSchedule(const WavefrontSchedule &S) {
  ScheduleStats St;
  St.NumWaves = S.numWaves();
  St.CriticalWork = S.criticalWork();
  St.WaveSizes.reserve(S.Waves.size());
  for (const auto &Wave : S.Waves) {
    uint64_t Size = 0;
    for (const auto &Part : Wave)
      Size += Part.size();
    St.WaveSizes.push_back(Size);
    St.TotalNodes += Size;
    St.MaxWaveSize = std::max(St.MaxWaveSize, Size);
  }
  return St;
}

WavefrontSchedule scheduleLevelSets(const DependenceGraph &G, int NumThreads,
                                    const std::vector<double> &NodeCost) {
  assert(NumThreads >= 1);
  obs::Span Sp("wavefront.schedule_levelsets", "rt");
  LevelSets LS = computeLevelSets(G);
  WavefrontSchedule S;
  S.Waves.reserve(LS.Levels.size());
  for (const std::vector<int> &Level : LS.Levels)
    S.Waves.push_back(partitionByCost(Level, NumThreads, NodeCost));
  recordScheduleStats(Sp, S);
  return S;
}

namespace {

/// LBC helper: the w-partitioning of one coarsened level window.
/// Connected components of the window-local dependence subgraph are
/// bin-packed over threads (whole chains stay on one thread, so the
/// barrier-free interior of a wave is safe). Returns false when the
/// window is too connected to balance — the caller then splits it, which
/// is LBC's adaptive window sizing.
class LBCPartitioner {
public:
  LBCPartitioner(const DependenceGraph &G, const LevelSets &LS,
                 const LBCConfig &C, const std::vector<double> &NodeCost)
      : G(G), LS(LS), C(C), NodeCost(NodeCost) {}

  double costOf(int Node) const {
    return NodeCost.empty() ? 1.0 : NodeCost[static_cast<size_t>(Node)];
  }

  double levelCost(int Lv) const {
    double W = 0;
    for (int Node : LS.Levels[static_cast<size_t>(Lv)])
      W += costOf(Node);
    return W;
  }

  /// Try to emit levels [First, Last] as one wave. Fails (returns false,
  /// emits nothing) when the largest dependence-connected component holds
  /// more than its fair share of the window's work.
  bool tryEmitWindow(int First, int Last,
                     std::vector<std::vector<std::vector<int>>> &Waves) {
    std::vector<int> Nodes;
    for (int Lv = First; Lv <= Last; ++Lv)
      Nodes.insert(Nodes.end(), LS.Levels[static_cast<size_t>(Lv)].begin(),
                   LS.Levels[static_cast<size_t>(Lv)].end());
    std::sort(Nodes.begin(), Nodes.end());
    auto IndexOf = [&](int Node) {
      return static_cast<size_t>(
          std::lower_bound(Nodes.begin(), Nodes.end(), Node) -
          Nodes.begin());
    };
    auto InWindow = [&](int Node) {
      int Lv = LS.LevelOf[static_cast<size_t>(Node)];
      return Lv >= First && Lv <= Last;
    };

    // Union-find over window-local edges.
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
        if (InWindow(V)) {
          int A = Find(static_cast<int>(IndexOf(U)));
          int B = Find(static_cast<int>(IndexOf(V)));
          if (A != B)
            Parent[static_cast<size_t>(B)] = A;
        }

    std::vector<std::vector<int>> Components(Nodes.size());
    double Total = 0;
    for (int Node : Nodes) {
      Components[static_cast<size_t>(Find(static_cast<int>(IndexOf(Node))))]
          .push_back(Node);
      Total += costOf(Node);
    }
    struct Comp {
      double Cost;
      std::vector<int> Nodes;
    };
    std::vector<Comp> Comps;
    double MaxComp = 0;
    for (auto &Comp0 : Components) {
      if (Comp0.empty())
        continue;
      double Cost = 0;
      for (int Node : Comp0)
        Cost += costOf(Node);
      MaxComp = std::max(MaxComp, Cost);
      Comps.push_back({Cost, std::move(Comp0)});
    }
    // Balance test: splitting the window into per-level waves achieves a
    // makespan of roughly sum over levels of max(levelWork / threads,
    // costliest node); the window (whose intra-wave makespan is bounded
    // below by its largest component) only helps when it does not lose to
    // that. Single-level windows always pass (components are single
    // nodes, so MaxComp is one node's cost).
    if (First != Last && C.NumThreads > 1) {
      double SplitMakespan = 0;
      for (int Lv = First; Lv <= Last; ++Lv) {
        double LvCost = 0, MaxNode = 0;
        for (int Node : LS.Levels[static_cast<size_t>(Lv)]) {
          LvCost += costOf(Node);
          MaxNode = std::max(MaxNode, costOf(Node));
        }
        SplitMakespan += std::max(LvCost / C.NumThreads, MaxNode);
      }
      if (MaxComp > 1.25 * SplitMakespan)
        return false;
    }

    std::sort(Comps.begin(), Comps.end(),
              [](const Comp &A, const Comp &B) { return A.Cost > B.Cost; });
    std::vector<std::vector<int>> Bins(static_cast<size_t>(C.NumThreads));
    std::vector<double> BinCost(static_cast<size_t>(C.NumThreads), 0.0);
    for (Comp &Cm : Comps) {
      size_t Best = 0;
      for (size_t T = 1; T < Bins.size(); ++T)
        if (BinCost[T] < BinCost[Best])
          Best = T;
      Bins[Best].insert(Bins[Best].end(), Cm.Nodes.begin(), Cm.Nodes.end());
      BinCost[Best] += Cm.Cost;
    }
    // Ascending order inside a bin preserves intra-component dependence
    // order (edges always point to larger iterations).
    for (auto &Bin : Bins)
      std::sort(Bin.begin(), Bin.end());
    Waves.push_back(std::move(Bins));
    return true;
  }

  /// Emit levels [First, Last], splitting whenever the window is too
  /// connected to balance.
  void emit(int First, int Last,
            std::vector<std::vector<std::vector<int>>> &Waves) {
    if (tryEmitWindow(First, Last, Waves))
      return;
    int Mid = First + (Last - First) / 2;
    emit(First, Mid, Waves);
    emit(Mid + 1, Last, Waves);
  }

private:
  const DependenceGraph &G;
  const LevelSets &LS;
  const LBCConfig &C;
  const std::vector<double> &NodeCost;
};

} // namespace

WavefrontSchedule scheduleLBC(const DependenceGraph &G, const LBCConfig &C,
                              const std::vector<double> &NodeCost) {
  assert(C.NumThreads >= 1);
  obs::Span Sp("wavefront.schedule_lbc", "rt");
  LevelSets LS = computeLevelSets(G);
  LBCPartitioner P(G, LS, C, NodeCost);

  // l-partitioning: grow windows of consecutive levels until each carries
  // enough aggregate work to feed every thread...
  double MinWave = C.MinWorkPerThread * C.NumThreads;
  WavefrontSchedule S;
  int L = 0, NumLevels = LS.numLevels();
  while (L < NumLevels) {
    double Work = 0;
    int End = L;
    while (End < NumLevels) {
      Work += P.levelCost(End);
      ++End;
      if (Work >= MinWave)
        break;
    }
    // ...then w-partition the window, splitting adaptively when its
    // dependence structure is too connected to balance.
    P.emit(L, End - 1, S.Waves);
    L = End;
  }
  recordScheduleStats(Sp, S);
  return S;
}

} // namespace rt
} // namespace sds
