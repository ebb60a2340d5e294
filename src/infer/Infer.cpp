//===- Infer.cpp - Speculative property inference -------------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/infer/Infer.h"

#include "sds/guard/Validate.h"
#include "sds/obs/FlightRecorder.h"
#include "sds/obs/Metrics.h"
#include "sds/obs/Trace.h"
#include "sds/support/Hash.h"

#include <algorithm>
#include <chrono>

namespace sds {
namespace infer {

using ir::Expr;
using ir::IndexArrayProperty;
using ir::PropertyKind;
using ir::PropertyTier;

namespace {

/// One span-bound array: its extent, value range, and whether it is
/// strictly increasing (the guard's checker supplies that verdict).
struct ArrayProfile {
  std::string Name;
  const std::vector<int> *Data = nullptr;
  int64_t Size = 0;
  int64_t Min = 0, Max = 0;
  bool StrictInc = false;
};

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

/// The candidate-accounting context of one inference pass. Every
/// candidate is confirmed or refuted by guard::checkProperty, the same
/// evaluator the guard later runs; Skipped and Exhausted outcomes count as
/// refutations, so nothing unverified is confirmed.
class Session {
public:
  Session(const codegen::UFEnvironment &Env, InferenceResult &R)
      : Env(Env), R(R) {}

  template <typename Decl> bool holds(const Decl &D) {
    guard::PropertyCheck C = guard::checkProperty(D, Env);
    R.Positions += C.Positions;
    return C.Outcome == guard::CheckOutcome::Pass;
  }

  void confirm(IndexArrayProperty P) {
    ++R.Proposed;
    ++R.ConfirmedCount;
    P.Tier = PropertyTier::Inferred;
    R.Confirmed.add(std::move(P));
  }

  void refute(IndexArrayProperty P) {
    ++R.Proposed;
    ++R.RefutedCount;
    P.Tier = PropertyTier::Refuted;
    R.Refuted.add(std::move(P));
  }

  /// Check `P`, then confirm or refute it. Returns the verdict.
  bool propose(IndexArrayProperty P) {
    bool Holds = holds(P);
    if (Holds)
      confirm(std::move(P));
    else
      refute(std::move(P));
    return Holds;
  }

  /// Strict implies weak: confirm the strict form when it holds, otherwise
  /// propose the weak one (refuted when it fails too).
  void proposeStrongest(IndexArrayProperty Strict, IndexArrayProperty Weak) {
    if (holds(Strict))
      confirm(std::move(Strict));
    else
      propose(std::move(Weak));
  }

  void propose(ir::DomainRangeDecl D) {
    ++R.Proposed;
    if (holds(D)) {
      ++R.ConfirmedCount;
      D.Tier = PropertyTier::Inferred;
      R.Confirmed.addDomainRange(std::move(D));
    } else {
      ++R.RefutedCount;
      D.Tier = PropertyTier::Refuted;
      R.Refuted.addDomainRange(std::move(D));
    }
  }

private:
  const codegen::UFEnvironment &Env;
  InferenceResult &R;
};

IndexArrayProperty prop(PropertyKind K, const std::string &Fn,
                        const std::string &Other = "") {
  return {K, Fn, Other, {}, {}, PropertyTier::Inferred};
}

/// SegmentStartIdentity: the maximal contiguous range [Lo, Hi) of segment
/// indices where F(Ptr(x)) == x. Returns false when no segment satisfies
/// it at all.
bool scanSegmentStart(const ArrayProfile &F, const ArrayProfile &Ptr,
                      uint64_t &Positions, int64_t &BestLo, int64_t &BestHi) {
  const std::vector<int> &FA = *F.Data, &PA = *Ptr.Data;
  int64_t Segs = Ptr.Size - 1;
  BestLo = BestHi = 0;
  int64_t RunLo = 0;
  bool InRun = false;
  for (int64_t X = 0; X < Segs; ++X) {
    ++Positions;
    int64_t P = PA[X];
    bool Holds = P >= 0 && P < F.Size && FA[P] == X;
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

} // namespace

uint64_t InferenceResult::fingerprint() const {
  std::vector<std::string> Labels;
  for (const IndexArrayProperty &P : Confirmed.properties()) {
    std::string L = ir::labelBase(P);
    if (P.GuardLo)
      L += " lo=" + P.GuardLo->str();
    if (P.GuardHi)
      L += " hi=" + P.GuardHi->str();
    Labels.push_back(std::move(L));
  }
  for (const ir::DomainRangeDecl &D : Confirmed.domainRanges()) {
    std::string L = ir::labelBase(D);
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

InferenceResult inferProperties(const codegen::UFEnvironment &Env) {
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
  Session S(Env, R);

  // Profile every span-bound array (std::map: name order, so the result
  // is deterministic for a given binding).
  std::vector<ArrayProfile> Profiles;
  for (const auto &[Name, Span] : Env.Spans) {
    if (!Span)
      continue;
    ArrayProfile A{Name, Span.get(), static_cast<int64_t>(Span->size())};
    if (A.Size > 0) {
      auto [Lo, Hi] = std::minmax_element(Span->begin(), Span->end());
      A.Min = *Lo;
      A.Max = *Hi;
      R.Positions += static_cast<uint64_t>(A.Size);
      A.StrictInc =
          S.holds(prop(PropertyKind::StrictMonotonicIncreasing, Name));
    }
    Profiles.push_back(std::move(A));
  }

  for (const ArrayProfile &F : Profiles) {
    if (F.Size == 0)
      continue;
    const std::string &Fn = F.Name;

    // Monotonicity: propose only the strongest increasing and decreasing
    // forms that hold (strict subsumes weak via the [weak] expansion), and
    // record the weak increasing form as refuted only when even it fails.
    if (F.StrictInc)
      S.confirm(prop(PropertyKind::StrictMonotonicIncreasing, Fn));
    else
      S.propose(prop(PropertyKind::MonotonicIncreasing, Fn));
    bool StrictDec =
        S.holds(prop(PropertyKind::StrictMonotonicDecreasing, Fn));
    if (StrictDec)
      S.confirm(prop(PropertyKind::StrictMonotonicDecreasing, Fn));
    else if (F.Size > 1 &&
             S.holds(prop(PropertyKind::MonotonicDecreasing, Fn)))
      S.confirm(prop(PropertyKind::MonotonicDecreasing, Fn));

    // Injectivity only when no strict monotonicity already implies a
    // unique-position story (keeps the speculated set lean).
    if (!F.StrictInc && !StrictDec)
      S.propose(prop(PropertyKind::Injective, Fn));

    for (const ArrayProfile &P : Profiles) {
      if (&P == &F)
        continue;
      const std::string &Pn = P.Name;

      // Ptr-like companions: strictly increasing, non-negative start, at
      // least one segment. Everything windowed hangs off such a P.
      if (P.StrictInc && P.Size >= 2 && P.Min >= 0) {
        S.propose(prop(PropertyKind::PeriodicMonotonic, Fn, Pn));
        // The four entry-bound relations only when every window lies
        // inside F; strict implies weak, so propose the strongest per
        // direction.
        if (P.Max <= F.Size) {
          S.proposeStrongest(prop(PropertyKind::TriangularEntriesLT, Fn, Pn),
                             prop(PropertyKind::TriangularEntriesLE, Fn, Pn));
          S.proposeStrongest(prop(PropertyKind::TriangularEntriesGT, Fn, Pn),
                             prop(PropertyKind::TriangularEntriesGE, Fn, Pn));
        }
        if (P.Size >= F.Size + 1)
          S.propose(prop(PropertyKind::SegmentPointer, Fn, Pn));

        // SegmentStartIdentity over every segment, or — maximal-range
        // shrinking — guarded to the longest run where it holds when that
        // spans at least two segments. Otherwise the unguarded candidate
        // is proposed and refuted.
        int64_t Lo = 0, Hi = 0;
        bool Found = scanSegmentStart(F, P, R.Positions, Lo, Hi);
        bool Full = Found && Lo == 0 && Hi == P.Size - 1;
        bool ShrunkRange = Found && !Full && Hi - Lo >= 2;
        IndexArrayProperty SSI =
            prop(PropertyKind::SegmentStartIdentity, Fn, Pn);
        if (Full || ShrunkRange) {
          SSI.GuardLo = Full ? Expr(0) : snapToParam(Lo, Env);
          SSI.GuardHi = snapToParam(Hi, Env);
        }
        if (S.propose(std::move(SSI)) && ShrunkRange)
          ++R.DomainsShrunk;
      }

      // Unwindowed pair relations. Restricted to plausible companions to
      // keep the candidate count constant per pair: co-monotonic needs P
      // to cover F's domain, triangular needs P's values to index F.
      if (P.Size >= F.Size)
        S.propose(prop(PropertyKind::CoMonotonic, Fn, Pn));
      if (P.Min >= 0 && P.Max <= F.Size && P.Size > 0)
        S.propose(prop(PropertyKind::Triangular, Fn, Pn));
    }

    // Domain/range declaration: domain [0, size-1] (inclusive), range
    // [min, max], all four bounds snapped to symbolic parameters where a
    // parameter (or parameter - 1) matches.
    ir::DomainRangeDecl D;
    D.Fn = Fn;
    D.DomLo = Expr(0);
    D.DomHi = snapToParam(F.Size - 1, Env);
    D.RanLo = F.Min >= 0 ? Expr(0) : Expr(F.Min);
    D.RanHi = snapUpperBound(F.Max, Env);
    S.propose(std::move(D));
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
