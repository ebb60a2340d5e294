//===- Infer.cpp - Speculative property inference -------------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/infer/Infer.h"

#include "sds/obs/FlightRecorder.h"
#include "sds/obs/Metrics.h"
#include "sds/obs/Trace.h"
#include "sds/support/Hash.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

namespace sds {
namespace infer {

using ir::Expr;
using ir::IndexArrayProperty;
using ir::PropertyKind;
using ir::PropertyTier;

namespace {

/// A bound array as a sized span (mirrors the guard's view — the profiler
/// proposes exactly what the validators later re-check).
struct ArrayRef {
  const int *Data = nullptr;
  int64_t Size = 0;
  std::string Name;

  bool inRange(int64_t I) const { return I >= 0 && I < Size; }
  int64_t operator[](int64_t I) const { return Data[I]; }
};

/// Adjacent-scan facts about one array, computed in a single pass.
struct ArrayProfile {
  ArrayRef A;
  bool NonDec = true, StrictInc = true, NonInc = true, StrictDec = true;
  int64_t Min = 0, Max = 0;
};

ArrayProfile profileArray(ArrayRef A, uint64_t &Positions) {
  ArrayProfile P;
  P.A = A;
  if (A.Size == 0) {
    P.NonDec = P.StrictInc = P.NonInc = P.StrictDec = false;
    return P;
  }
  P.Min = P.Max = A[0];
  for (int64_t I = 0; I + 1 < A.Size; ++I) {
    ++Positions;
    int64_t X = A[I], Y = A[I + 1];
    P.NonDec &= X <= Y;
    P.StrictInc &= X < Y;
    P.NonInc &= X >= Y;
    P.StrictDec &= X > Y;
    P.Min = std::min(P.Min, Y);
    P.Max = std::max(P.Max, Y);
  }
  return P;
}

/// Snap a concrete value to a symbolic parameter expression: an exact
/// parameter match wins, then `param - 1`; otherwise the constant itself.
/// Parameters are visited in name order (std::map), so ties break
/// deterministically and "n" beats "nnz" only by value, never by luck.
Expr snapToParam(int64_t V, const codegen::UFEnvironment &Env) {
  for (const auto &[Name, Val] : Env.Params)
    if (Val == V)
      return Expr::var(Name);
  for (const auto &[Name, Val] : Env.Params)
    if (Val - 1 == V)
      return Expr::var(Name) - Expr(1);
  return Expr(V);
}

/// Snap an upper bound: the smallest candidate (param or param - 1) that
/// is >= V, preferring tighter candidates; the constant when none covers.
Expr snapUpperBound(int64_t V, const codegen::UFEnvironment &Env) {
  bool Have = false;
  int64_t BestVal = 0;
  Expr Best = Expr(V);
  auto Consider = [&](int64_t CandVal, Expr E) {
    if (CandVal < V)
      return;
    if (!Have || CandVal < BestVal) {
      Have = true;
      BestVal = CandVal;
      Best = std::move(E);
    }
  };
  for (const auto &[Name, Val] : Env.Params) {
    Consider(Val, Expr::var(Name));
    Consider(Val - 1, Expr::var(Name) - Expr(1));
  }
  return Best;
}

/// The candidate-accounting context of one inference pass.
class Session {
public:
  Session(const InferOptions &Opts, InferenceResult &R) : Opts(Opts), R(R) {}

  void confirm(IndexArrayProperty P) {
    ++R.Proposed;
    ++R.ConfirmedCount;
    P.Tier = PropertyTier::Inferred;
    R.Confirmed.add(std::move(P));
  }

  void refute(IndexArrayProperty P) {
    ++R.Proposed;
    ++R.RefutedCount;
    if (!Opts.KeepRefuted)
      return;
    P.Tier = PropertyTier::Refuted;
    R.Refuted.add(std::move(P));
  }

  void verdict(bool Holds, IndexArrayProperty P) {
    if (Holds)
      confirm(std::move(P));
    else
      refute(std::move(P));
  }

private:
  const InferOptions &Opts;
  InferenceResult &R;
};

IndexArrayProperty prop(PropertyKind K, const std::string &Fn,
                        const std::string &Other = "") {
  return {K, Fn, Other, {}, {}, PropertyTier::Inferred};
}

/// Is `F` injective? Strict monotonicity (either direction) answers for
/// free; otherwise a first-seen hash scan.
bool isInjective(const ArrayProfile &F, uint64_t &Positions) {
  if (F.StrictInc || F.StrictDec)
    return true;
  std::unordered_set<int64_t> Seen;
  Seen.reserve(static_cast<size_t>(F.A.Size));
  for (int64_t I = 0; I < F.A.Size; ++I) {
    ++Positions;
    if (!Seen.insert(F.A[I]).second)
      return false;
  }
  return true;
}

/// Single windowed pass over (F, Ptr): per-segment strict monotonicity and
/// the four entry/segment bound relations, all at once. Windows that leave
/// F's bounds disqualify every windowed property.
struct WindowedVerdicts {
  bool WindowsValid = true; ///< every non-empty window within F's bounds
  bool Periodic = true;
  bool LE = true, GE = true, LT = true, GT = true;
};

WindowedVerdicts scanWindows(const ArrayProfile &F, const ArrayProfile &Ptr,
                             uint64_t &Positions) {
  WindowedVerdicts V;
  for (int64_t X = 0; X + 1 < Ptr.A.Size; ++X) {
    ++Positions;
    int64_t Lo = Ptr.A[X], Hi = Ptr.A[X + 1];
    if (Lo >= Hi)
      continue;
    if (Lo < 0 || Hi > F.A.Size) {
      V.WindowsValid = false;
      V.Periodic = V.LE = V.GE = V.LT = V.GT = false;
      return V;
    }
    for (int64_t P = Lo; P < Hi; ++P) {
      ++Positions;
      int64_t E = F.A[P];
      V.LE &= E <= X;
      V.GE &= E >= X;
      V.LT &= E < X;
      V.GT &= E > X;
      if (P + 1 < Hi)
        V.Periodic &= E < F.A[P + 1];
    }
  }
  return V;
}

/// SegmentPointer: Ptr(x) <= F(x) < Ptr(x+1) for every x in F's domain.
bool scanSegmentPointer(const ArrayProfile &F, const ArrayProfile &Ptr,
                        uint64_t &Positions) {
  if (Ptr.A.Size < F.A.Size + 1)
    return false;
  for (int64_t X = 0; X < F.A.Size; ++X) {
    ++Positions;
    if (!(Ptr.A[X] <= F.A[X] && F.A[X] < Ptr.A[X + 1]))
      return false;
  }
  return true;
}

/// SegmentStartIdentity: the maximal contiguous range [Lo, Hi) of segment
/// indices where F(Ptr(x)) == x. Returns false when no segment satisfies
/// it at all.
bool scanSegmentStart(const ArrayProfile &F, const ArrayProfile &Ptr,
                      uint64_t &Positions, int64_t &BestLo, int64_t &BestHi) {
  int64_t Segs = Ptr.A.Size - 1;
  BestLo = BestHi = 0;
  int64_t RunLo = 0;
  bool InRun = false;
  for (int64_t X = 0; X < Segs; ++X) {
    ++Positions;
    int64_t P = Ptr.A[X];
    bool Holds = F.A.inRange(P) && F.A[P] == X;
    if (Holds && !InRun) {
      InRun = true;
      RunLo = X;
    }
    if ((!Holds || X + 1 == Segs) && InRun) {
      int64_t RunHi = Holds ? X + 1 : X;
      if (RunHi - RunLo > BestHi - BestLo) {
        BestLo = RunLo;
        BestHi = RunHi;
      }
      InRun = false;
    }
  }
  return BestHi > BestLo;
}

/// Table-1 Triangular: forall x0, x1: F(x0) < x1 => x0 < O(x1). Suffix-min
/// over F answers each x1 in O(1) (same algorithm as the guard checker).
bool scanTriangular(const ArrayProfile &F, const ArrayProfile &O,
                    uint64_t &Positions) {
  std::vector<int64_t> SuffMin(static_cast<size_t>(F.A.Size) + 1, INT64_MAX);
  for (int64_t I = F.A.Size - 1; I >= 0; --I) {
    ++Positions;
    SuffMin[static_cast<size_t>(I)] =
        std::min(SuffMin[static_cast<size_t>(I) + 1], F.A[I]);
  }
  for (int64_t X1 = 0; X1 < O.A.Size; ++X1) {
    ++Positions;
    int64_t Start = std::clamp<int64_t>(O.A[X1], 0, F.A.Size);
    if (SuffMin[static_cast<size_t>(Start)] < X1)
      return false;
  }
  return true;
}

/// CoMonotonic: F(x) <= O(x) for every x in F's domain.
bool scanCoMonotonic(const ArrayProfile &F, const ArrayProfile &O,
                     uint64_t &Positions) {
  if (O.A.Size < F.A.Size)
    return false;
  for (int64_t X = 0; X < F.A.Size; ++X) {
    ++Positions;
    if (!(F.A[X] <= O.A[X]))
      return false;
  }
  return true;
}

} // namespace

uint64_t InferenceResult::fingerprint() const {
  std::vector<std::string> Labels;
  for (const IndexArrayProperty &P : Confirmed.properties()) {
    std::string L = ir::propertyKindName(P.K) + "(" + P.Fn +
                    (P.Other.empty() ? "" : ", " + P.Other) + ")";
    if (P.GuardLo)
      L += " lo=" + P.GuardLo->str();
    if (P.GuardHi)
      L += " hi=" + P.GuardHi->str();
    Labels.push_back(std::move(L));
  }
  for (const ir::DomainRangeDecl &D : Confirmed.domainRanges()) {
    std::string L = "domain_range(" + D.Fn + ")";
    for (const std::optional<Expr> *B :
         {&D.DomLo, &D.DomHi, &D.RanLo, &D.RanHi})
      L += " " + (*B ? (*B)->str() : std::string("_"));
    Labels.push_back(std::move(L));
  }
  if (Labels.empty())
    return 0;
  std::sort(Labels.begin(), Labels.end());
  uint64_t H = support::kFnv1aOffset;
  for (const std::string &L : Labels)
    H = support::fnv1a64("\n", support::fnv1a64(L, H));
  return H;
}

std::string InferenceResult::summary() const {
  std::string Out = std::to_string(Proposed) + " proposed, " +
                    std::to_string(ConfirmedCount) + " confirmed, " +
                    std::to_string(RefutedCount) + " refuted";
  if (DomainsShrunk)
    Out += " (" + std::to_string(DomainsShrunk) + " domain-shrunk)";
  return Out;
}

InferenceResult inferProperties(const codegen::UFEnvironment &Env,
                                const InferOptions &Opts) {
  static obs::Counter &Passes = obs::counter("infer.passes");
  static obs::Counter &Proposed = obs::counter("infer.props_proposed");
  static obs::Counter &Confirmed = obs::counter("infer.props_confirmed");
  static obs::Counter &Refuted = obs::counter("infer.props_refuted");
  static obs::Counter &Shrunk = obs::counter("infer.domains_shrunk");
  static obs::Histogram &InferNs = obs::histogram("infer.pass_ns");
  Passes.add();
  obs::ScopedLatency Lat(InferNs);
  obs::Span Sp("infer.pass", "infer");
  auto T0 = std::chrono::steady_clock::now();

  InferenceResult R;
  Session S(Opts, R);

  // Profile every span-bound array once (std::map: name order, so the
  // result is deterministic for a given binding).
  std::vector<ArrayProfile> Profiles;
  for (const auto &[Name, Span] : Env.Spans) {
    if (!Span)
      continue;
    ArrayRef A{Span->data(), static_cast<int64_t>(Span->size()), Name};
    Profiles.push_back(profileArray(A, R.Positions));
  }

  for (const ArrayProfile &F : Profiles) {
    if (F.A.Size == 0)
      continue;
    const std::string &Fn = F.A.Name;

    // Monotonicity: propose only the strongest increasing and decreasing
    // forms that hold (strict subsumes weak via the [weak] expansion), and
    // record the weak form as refuted only when even it fails.
    if (F.StrictInc)
      S.confirm(prop(PropertyKind::StrictMonotonicIncreasing, Fn));
    else if (F.NonDec)
      S.confirm(prop(PropertyKind::MonotonicIncreasing, Fn));
    else
      S.refute(prop(PropertyKind::MonotonicIncreasing, Fn));
    if (F.StrictDec)
      S.confirm(prop(PropertyKind::StrictMonotonicDecreasing, Fn));
    else if (F.NonInc && F.A.Size > 1)
      S.confirm(prop(PropertyKind::MonotonicDecreasing, Fn));

    // Injectivity only when no strict monotonicity already implies a
    // unique-position story (keeps the speculated set lean).
    if (!F.StrictInc && !F.StrictDec)
      S.verdict(isInjective(F, R.Positions), prop(PropertyKind::Injective, Fn));

    for (const ArrayProfile &P : Profiles) {
      if (&P == &F)
        continue;

      // Ptr-like companions: strictly increasing, non-negative start, at
      // least one segment. Everything windowed hangs off such a P.
      bool PtrLike = P.StrictInc && P.A.Size >= 2 && P.Min >= 0;
      if (PtrLike) {
        WindowedVerdicts W = scanWindows(F, P, R.Positions);
        S.verdict(W.Periodic,
                  prop(PropertyKind::PeriodicMonotonic, Fn, P.A.Name));
        if (W.WindowsValid) {
          // The four bound relations: strict implies weak, so propose the
          // strongest per direction and refute the weak form only when
          // both fail.
          if (W.LT)
            S.confirm(prop(PropertyKind::TriangularEntriesLT, Fn, P.A.Name));
          else if (W.LE)
            S.confirm(prop(PropertyKind::TriangularEntriesLE, Fn, P.A.Name));
          else
            S.refute(prop(PropertyKind::TriangularEntriesLE, Fn, P.A.Name));
          if (W.GT)
            S.confirm(prop(PropertyKind::TriangularEntriesGT, Fn, P.A.Name));
          else if (W.GE)
            S.confirm(prop(PropertyKind::TriangularEntriesGE, Fn, P.A.Name));
          else
            S.refute(prop(PropertyKind::TriangularEntriesGE, Fn, P.A.Name));
        }

        if (P.A.Size >= F.A.Size + 1)
          S.verdict(scanSegmentPointer(F, P, R.Positions),
                    prop(PropertyKind::SegmentPointer, Fn, P.A.Name));

        int64_t Lo = 0, Hi = 0;
        int64_t Segs = P.A.Size - 1;
        if (scanSegmentStart(F, P, R.Positions, Lo, Hi)) {
          IndexArrayProperty SSI =
              prop(PropertyKind::SegmentStartIdentity, Fn, P.A.Name);
          if (Lo == 0 && Hi == Segs) {
            SSI.GuardLo = Expr(0);
            SSI.GuardHi = snapToParam(Hi, Env);
            S.confirm(std::move(SSI));
          } else if (Opts.ShrinkDomains && Hi - Lo >= 2) {
            // Maximal-range shrinking: the identity holds on a proper
            // subrange — speculate the guarded variant.
            SSI.GuardLo = snapToParam(Lo, Env);
            SSI.GuardHi = snapToParam(Hi, Env);
            ++R.DomainsShrunk;
            S.confirm(std::move(SSI));
          } else {
            S.refute(std::move(SSI));
          }
        } else if (Segs > 0) {
          S.refute(prop(PropertyKind::SegmentStartIdentity, Fn, P.A.Name));
        }
      }

      // Unwindowed pair relations. Restricted to plausible companions to
      // keep the candidate count constant per pair: co-monotonic needs O
      // to cover F's domain, triangular needs O's values to index F.
      if (P.A.Size >= F.A.Size && F.A.Size > 0)
        S.verdict(scanCoMonotonic(F, P, R.Positions),
                  prop(PropertyKind::CoMonotonic, Fn, P.A.Name));
      if (P.Min >= 0 && P.Max <= F.A.Size && P.A.Size > 0 && F.A.Size > 0)
        S.verdict(scanTriangular(F, P, R.Positions),
                  prop(PropertyKind::Triangular, Fn, P.A.Name));
    }

    // Domain/range declaration: domain [0, size-1] (inclusive), range
    // [min, max], all four bounds snapped to symbolic parameters where a
    // parameter (or parameter - 1) matches.
    if (Opts.InferDomainRanges) {
      ir::DomainRangeDecl D;
      D.Fn = Fn;
      D.Tier = PropertyTier::Inferred;
      D.DomLo = Expr(0);
      D.DomHi = snapToParam(F.A.Size - 1, Env);
      D.RanLo = F.Min >= 0 ? Expr(0) : Expr(F.Min);
      D.RanHi = snapUpperBound(F.Max, Env);
      ++R.Proposed;
      ++R.ConfirmedCount;
      R.Confirmed.addDomainRange(std::move(D));
    }
  }

  R.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  Proposed.add(R.Proposed);
  Confirmed.add(R.ConfirmedCount);
  Refuted.add(R.RefutedCount);
  Shrunk.add(R.DomainsShrunk);
  Sp.tag("proposed", static_cast<int64_t>(R.Proposed));
  Sp.tag("confirmed", static_cast<int64_t>(R.ConfirmedCount));
  Sp.tag("positions", static_cast<int64_t>(R.Positions));
  obs::flightRecord(obs::FlightSeverity::Info, "infer",
                    "speculative inference pass",
                    {{"summary", R.summary()},
                     {"fingerprint", std::to_string(R.fingerprint())}});
  return R;
}

} // namespace infer
} // namespace sds
