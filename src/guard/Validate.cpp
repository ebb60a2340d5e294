//===- Validate.cpp - Runtime validation of index-array properties --------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/guard/Validate.h"

#include "sds/obs/FlightRecorder.h"
#include "sds/obs/Metrics.h"
#include "sds/obs/Trace.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

namespace sds {
namespace guard {

using ir::Expr;
using ir::PropertyKind;

const char *checkOutcomeName(CheckOutcome O) {
  switch (O) {
  case CheckOutcome::Pass:
    return "pass";
  case CheckOutcome::Fail:
    return "FAIL";
  case CheckOutcome::Skipped:
    return "skipped";
  case CheckOutcome::Exhausted:
    return "exhausted";
  }
  return "?";
}

std::string PropertyCheck::str() const {
  std::string Out = "[" + std::string(checkOutcomeName(Outcome)) + "] " +
                    Property;
  if (!Detail.empty())
    Out += ": " + Detail;
  return Out;
}

bool ValidationReport::trusted() const {
  for (const PropertyCheck &C : Checks)
    if (C.Outcome != CheckOutcome::Pass)
      return false;
  return true;
}

bool ValidationReport::violated() const { return failures() > 0; }

unsigned ValidationReport::failures() const {
  unsigned N = 0;
  for (const PropertyCheck &C : Checks)
    N += C.Outcome == CheckOutcome::Fail ? 1 : 0;
  return N;
}

const PropertyCheck *ValidationReport::firstViolation() const {
  for (const PropertyCheck &C : Checks)
    if (C.Outcome == CheckOutcome::Fail)
      return &C;
  return nullptr;
}

std::string ValidationReport::str() const {
  std::string Out;
  for (const PropertyCheck &C : Checks)
    Out += C.str() + "\n";
  return Out;
}

std::string ValidationReport::summary() const {
  unsigned Pass = 0, Fail = 0, Other = 0;
  for (const PropertyCheck &C : Checks) {
    if (C.Outcome == CheckOutcome::Pass)
      ++Pass;
    else if (C.Outcome == CheckOutcome::Fail)
      ++Fail;
    else
      ++Other;
  }
  std::string Out = std::to_string(Checks.size()) + " checks: " +
                    std::to_string(Pass) + " pass";
  if (Fail) {
    Out += ", " + std::to_string(Fail) + " fail";
    if (const PropertyCheck *V = firstViolation())
      Out += " (" + V->Property + ")";
  }
  if (Other)
    Out += ", " + std::to_string(Other) + " unchecked";
  return Out;
}

namespace {

/// Evaluate a parameter-only affine expression (guards, domain bounds:
/// things like `n`, `nnz - 1`, `0`). UF calls or unbound variables make
/// it unevaluable.
std::optional<int64_t> evalParamExpr(const Expr &E,
                                     const codegen::UFEnvironment &Env) {
  int64_t V = E.constant();
  for (const Expr::Term &T : E.terms()) {
    if (!T.A.isVar())
      return std::nullopt;
    auto It = Env.Params.find(T.A.name());
    if (It == Env.Params.end())
      return std::nullopt;
    V += T.Coeff * It->second;
  }
  return V;
}

/// One property check in progress: bounds-checked array access, work
/// accounting, and first-violation capture.
class Checker {
public:
  Checker(std::string Property, std::string Array, std::string Base,
          uint64_t WorkCap)
      : WorkCap(WorkCap) {
    C.Property = std::move(Property);
    C.Array = std::move(Array);
    C.Base = std::move(Base);
    C.Outcome = CheckOutcome::Pass;
    C.Severity = CheckSeverity::Info;
  }

  /// Count one examined position; false once the cap is hit.
  bool step() {
    ++C.Positions;
    if (C.Positions <= WorkCap)
      return true;
    if (C.Outcome == CheckOutcome::Pass) {
      C.Outcome = CheckOutcome::Exhausted;
      C.Severity = CheckSeverity::Warning;
      C.Detail = "work cap (" + std::to_string(WorkCap) +
                 " positions) hit before a verdict";
    }
    return false;
  }

  void fail(int64_t I, int64_t J, std::string Detail) {
    C.Outcome = CheckOutcome::Fail;
    C.Severity = CheckSeverity::Error;
    C.Index = I;
    C.Index2 = J;
    C.Detail = std::move(Detail);
  }

  void skip(std::string Why) {
    C.Outcome = CheckOutcome::Skipped;
    C.Severity = CheckSeverity::Warning;
    C.Detail = std::move(Why);
  }

  bool failed() const { return C.Outcome == CheckOutcome::Fail; }
  PropertyCheck take() { return std::move(C); }

private:
  PropertyCheck C;
  uint64_t WorkCap;
};

/// A bound array as a sized span; nullptr data when unbound.
struct ArrayRef {
  const int *Data = nullptr;
  int64_t Size = 0;

  bool bound() const { return Data != nullptr; }
  bool inRange(int64_t I) const { return I >= 0 && I < Size; }
  int64_t operator[](int64_t I) const { return Data[I]; }
};

ArrayRef lookup(const codegen::UFEnvironment &Env, const std::string &Name) {
  auto It = Env.Spans.find(Name);
  if (It == Env.Spans.end() || !It->second)
    return {};
  return {It->second->data(), static_cast<int64_t>(It->second->size())};
}

std::string at(const std::string &A, int64_t I, int64_t V) {
  return A + "[" + std::to_string(I) + "]=" + std::to_string(V);
}

/// Adjacent-pair comparison checks (the four monotonicity kinds).
void checkAdjacent(Checker &Ck, const std::string &Name, ArrayRef F,
                   PropertyKind K) {
  for (int64_t I = 0; I + 1 < F.Size; ++I) {
    if (!Ck.step())
      return;
    int64_t A = F[I], B = F[I + 1];
    bool Ok = true;
    const char *Rel = "";
    switch (K) {
    case PropertyKind::MonotonicIncreasing:
      Ok = A <= B;
      Rel = ">";
      break;
    case PropertyKind::StrictMonotonicIncreasing:
      Ok = A < B;
      Rel = ">=";
      break;
    case PropertyKind::MonotonicDecreasing:
      Ok = A >= B;
      Rel = "<";
      break;
    case PropertyKind::StrictMonotonicDecreasing:
      Ok = A > B;
      Rel = "<=";
      break;
    default:
      return;
    }
    if (!Ok) {
      Ck.fail(I, I + 1,
              at(Name, I, A) + " " + Rel + " " + at(Name, I + 1, B));
      return;
    }
  }
}

void checkInjective(Checker &Ck, const std::string &Name, ArrayRef F) {
  std::unordered_map<int64_t, int64_t> FirstAt;
  FirstAt.reserve(static_cast<size_t>(F.Size));
  for (int64_t I = 0; I < F.Size; ++I) {
    if (!Ck.step())
      return;
    auto [It, Inserted] = FirstAt.emplace(F[I], I);
    if (!Inserted) {
      Ck.fail(It->second, I,
              at(Name, It->second, F[I]) + " == " + at(Name, I, F[I]));
      return;
    }
  }
}

/// PeriodicMonotonic: strictly increasing within each segment window
/// [Seg(x), Seg(x+1)). A window that leaves the array is itself a
/// violation — the inspector would probe those positions.
void checkPeriodicMonotonic(Checker &Ck, const std::string &FName, ArrayRef F,
                            const std::string &SName, ArrayRef Seg) {
  for (int64_t X = 0; X + 1 < Seg.Size; ++X) {
    if (!Ck.step())
      return;
    int64_t Lo = Seg[X], Hi = Seg[X + 1];
    if (Lo >= Hi)
      continue; // empty (or inverted — monotonicity checks flag that)
    if (Lo < 0 || Hi > F.Size) {
      Ck.fail(X, -1,
              "segment " + std::to_string(X) + " spans [" +
                  std::to_string(Lo) + ", " + std::to_string(Hi) +
                  ") outside " + FName + "[0, " + std::to_string(F.Size) +
                  ") (" + SName + " corrupt?)");
      return;
    }
    for (int64_t K = Lo; K + 1 < Hi; ++K) {
      if (!Ck.step())
        return;
      if (!(F[K] < F[K + 1])) {
        Ck.fail(K, K + 1,
                "within segment " + std::to_string(X) + ": " +
                    at(FName, K, F[K]) + " >= " + at(FName, K + 1, F[K + 1]));
        return;
      }
    }
  }
}

void checkCoMonotonic(Checker &Ck, const std::string &FName, ArrayRef F,
                      const std::string &OName, ArrayRef O) {
  for (int64_t X = 0; X < F.Size; ++X) {
    if (!Ck.step())
      return;
    if (!O.inRange(X)) {
      Ck.fail(X, -1, OName + " has no position " + std::to_string(X));
      return;
    }
    if (!(F[X] <= O[X])) {
      Ck.fail(X, -1, at(FName, X, F[X]) + " > " + at(OName, X, O[X]));
      return;
    }
  }
}

/// Table-1 Triangular: forall x0, x1: f(x0) < x1 => x0 < Other(x1).
/// Violated at x1 iff some x0 >= Other(x1) has f(x0) < x1; a suffix-min
/// over f answers that in O(1) per x1.
void checkTriangular(Checker &Ck, const std::string &FName, ArrayRef F,
                     const std::string &OName, ArrayRef O) {
  std::vector<int64_t> SuffMin(static_cast<size_t>(F.Size) + 1, INT64_MAX);
  for (int64_t I = F.Size - 1; I >= 0; --I)
    SuffMin[static_cast<size_t>(I)] =
        std::min(SuffMin[static_cast<size_t>(I) + 1], F[I]);
  for (int64_t X1 = 0; X1 < O.Size; ++X1) {
    if (!Ck.step())
      return;
    int64_t Start = std::clamp<int64_t>(O[X1], 0, F.Size);
    if (SuffMin[static_cast<size_t>(Start)] < X1) {
      // Rescan for the witness index (only on the failure path).
      for (int64_t X0 = Start; X0 < F.Size; ++X0)
        if (F[X0] < X1) {
          Ck.fail(X0, X1,
                  at(FName, X0, F[X0]) + " < " + std::to_string(X1) +
                      " but " + std::to_string(X0) + " >= " +
                      at(OName, X1, O[X1]));
          return;
        }
    }
  }
}

/// The four TriangularEntries kinds: every entry of segment x0 relates to
/// x0 by Rel.
void checkTriangularEntries(Checker &Ck, const std::string &FName, ArrayRef F,
                            const std::string &PName, ArrayRef Ptr,
                            PropertyKind K) {
  for (int64_t X = 0; X + 1 < Ptr.Size; ++X) {
    if (!Ck.step())
      return;
    int64_t Lo = Ptr[X], Hi = Ptr[X + 1];
    for (int64_t P = Lo; P < Hi; ++P) {
      if (!Ck.step())
        return;
      if (!F.inRange(P)) {
        Ck.fail(X, P,
                "segment " + std::to_string(X) + " entry position " +
                    std::to_string(P) + " outside " + FName + " (" + PName +
                    " corrupt?)");
        return;
      }
      int64_t V = F[P];
      bool Ok = true;
      const char *Rel = "";
      switch (K) {
      case PropertyKind::TriangularEntriesLE:
        Ok = V <= X;
        Rel = "<=";
        break;
      case PropertyKind::TriangularEntriesGE:
        Ok = V >= X;
        Rel = ">=";
        break;
      case PropertyKind::TriangularEntriesLT:
        Ok = V < X;
        Rel = "<";
        break;
      case PropertyKind::TriangularEntriesGT:
        Ok = V > X;
        Rel = ">";
        break;
      default:
        return;
      }
      if (!Ok) {
        Ck.fail(X, P,
                at(FName, P, V) + " !" + Rel + " segment " +
                    std::to_string(X));
        return;
      }
    }
  }
}

/// SegmentPointer: Ptr(x) <= f(x) < Ptr(x+1) for every x in f's domain.
void checkSegmentPointer(Checker &Ck, const std::string &FName, ArrayRef F,
                         const std::string &PName, ArrayRef Ptr) {
  for (int64_t X = 0; X < F.Size; ++X) {
    if (!Ck.step())
      return;
    if (!Ptr.inRange(X) || !Ptr.inRange(X + 1)) {
      Ck.fail(X, -1,
              PName + " lacks positions " + std::to_string(X) + "/" +
                  std::to_string(X + 1));
      return;
    }
    if (!(Ptr[X] <= F[X] && F[X] < Ptr[X + 1])) {
      Ck.fail(X, -1,
              at(FName, X, F[X]) + " outside [" + at(PName, X, Ptr[X]) +
                  ", " + at(PName, X + 1, Ptr[X + 1]) + ")");
      return;
    }
  }
}

/// SegmentStartIdentity: f(Ptr(x)) == x for x in [lo, hi).
void checkSegmentStartIdentity(Checker &Ck, const std::string &FName,
                               ArrayRef F, const std::string &PName,
                               ArrayRef Ptr, int64_t Lo, int64_t Hi) {
  for (int64_t X = Lo; X < Hi; ++X) {
    if (!Ck.step())
      return;
    if (!Ptr.inRange(X)) {
      Ck.fail(X, -1, PName + " has no position " + std::to_string(X));
      return;
    }
    int64_t P = Ptr[X];
    if (!F.inRange(P)) {
      Ck.fail(X, P,
              at(PName, X, P) + " points outside " + FName + " (size " +
                  std::to_string(F.Size) + ")");
      return;
    }
    if (F[P] != X) {
      Ck.fail(X, P, at(FName, P, F[P]) + " != segment " + std::to_string(X));
      return;
    }
  }
}

} // namespace

PropertyCheck checkProperty(const ir::IndexArrayProperty &P,
                            const codegen::UFEnvironment &Env) {
  std::string Label = ir::propertyKindName(P.K) + "(" + P.Fn;
  if (!P.Other.empty())
    Label += "; " + P.Other;
  Label += ")";

  ArrayRef F = lookup(Env, P.Fn);
  ArrayRef O = P.Other.empty() ? ArrayRef{} : lookup(Env, P.Other);
  uint64_t Cap =
      8 * static_cast<uint64_t>(std::max<int64_t>(0, F.Size) +
                                std::max<int64_t>(0, O.Size)) +
      1024;
  Checker Ck(Label, P.Fn, ir::labelBase(P), Cap);

  if (!F.bound()) {
    Ck.skip("array '" + P.Fn + "' is not bound as a span");
    return Ck.take();
  }

  switch (P.K) {
  case PropertyKind::MonotonicIncreasing:
  case PropertyKind::StrictMonotonicIncreasing:
  case PropertyKind::MonotonicDecreasing:
  case PropertyKind::StrictMonotonicDecreasing:
    checkAdjacent(Ck, P.Fn, F, P.K);
    break;
  case PropertyKind::Injective:
    checkInjective(Ck, P.Fn, F);
    break;
  case PropertyKind::PeriodicMonotonic:
    if (!O.bound())
      Ck.skip("segment array '" + P.Other + "' is not bound");
    else
      checkPeriodicMonotonic(Ck, P.Fn, F, P.Other, O);
    break;
  case PropertyKind::CoMonotonic:
    if (!O.bound())
      Ck.skip("upper array '" + P.Other + "' is not bound");
    else
      checkCoMonotonic(Ck, P.Fn, F, P.Other, O);
    break;
  case PropertyKind::Triangular:
    if (!O.bound())
      Ck.skip("companion array '" + P.Other + "' is not bound");
    else
      checkTriangular(Ck, P.Fn, F, P.Other, O);
    break;
  case PropertyKind::TriangularEntriesLE:
  case PropertyKind::TriangularEntriesGE:
  case PropertyKind::TriangularEntriesLT:
  case PropertyKind::TriangularEntriesGT:
    if (!O.bound())
      Ck.skip("pointer array '" + P.Other + "' is not bound");
    else
      checkTriangularEntries(Ck, P.Fn, F, P.Other, O, P.K);
    break;
  case PropertyKind::SegmentPointer:
    if (!O.bound())
      Ck.skip("pointer array '" + P.Other + "' is not bound");
    else
      checkSegmentPointer(Ck, P.Fn, F, P.Other, O);
    break;
  case PropertyKind::SegmentStartIdentity: {
    if (!O.bound()) {
      Ck.skip("pointer array '" + P.Other + "' is not bound");
      break;
    }
    int64_t Lo = 0, Hi = O.Size > 0 ? O.Size - 1 : 0;
    if (P.GuardLo) {
      auto V = evalParamExpr(*P.GuardLo, Env);
      if (!V) {
        Ck.skip("domain guard is not evaluable from parameters");
        break;
      }
      Lo = *V;
    }
    if (P.GuardHi) {
      auto V = evalParamExpr(*P.GuardHi, Env);
      if (!V) {
        Ck.skip("domain guard is not evaluable from parameters");
        break;
      }
      Hi = *V;
    }
    checkSegmentStartIdentity(Ck, P.Fn, F, P.Other, O, Lo, Hi);
    break;
  }
  }
  return Ck.take();
}

PropertyCheck checkProperty(const ir::DomainRangeDecl &D,
                            const codegen::UFEnvironment &Env) {
  std::string Base = ir::labelBase(D);
  ArrayRef F = lookup(Env, D.Fn);
  uint64_t Cap = 8 * static_cast<uint64_t>(std::max<int64_t>(0, F.Size)) +
                 1024;
  Checker Ck(Base, D.Fn, Base, Cap);
  if (!F.bound()) {
    Ck.skip("array '" + D.Fn + "' is not bound as a span");
    return Ck.take();
  }
  auto Eval = [&](const std::optional<Expr> &E,
                  int64_t Default) -> std::optional<int64_t> {
    if (!E)
      return Default;
    return evalParamExpr(*E, Env);
  };
  auto DomLo = Eval(D.DomLo, 0);
  auto DomHi = Eval(D.DomHi, F.Size - 1); // domain bound is inclusive
  auto RanLo = Eval(D.RanLo, INT64_MIN);
  auto RanHi = Eval(D.RanHi, INT64_MAX);
  if (!DomLo || !DomHi || !RanLo || !RanHi) {
    Ck.skip("bounds are not evaluable from parameters");
    return Ck.take();
  }
  for (int64_t X = *DomLo; X <= *DomHi; ++X) {
    if (!Ck.step())
      return Ck.take();
    if (!F.inRange(X)) {
      Ck.fail(X, -1,
              "declared domain position " + std::to_string(X) +
                  " outside the bound array (size " +
                  std::to_string(F.Size) + ")");
      return Ck.take();
    }
    if (F[X] < *RanLo || F[X] > *RanHi) {
      Ck.fail(X, -1,
              at(D.Fn, X, F[X]) + " outside declared range [" +
                  std::to_string(*RanLo) + ", " + std::to_string(*RanHi) +
                  "]");
      return Ck.take();
    }
  }
  return Ck.take();
}

namespace {

/// Shared body of both validateProperties overloads. A null `CitedBases`
/// validates everything; otherwise declarations whose assertion-label
/// base is uncited are skipped (they influenced no verdict).
ValidationReport runValidation(const ir::PropertySet &PS,
                               const codegen::UFEnvironment &Env,
                               const std::set<std::string> *CitedBases) {
  static obs::Counter &Validations = obs::counter("guard.validations");
  static obs::Counter &Violations = obs::counter("guard.violations");
  static obs::Counter &PropsValidated =
      obs::counter("guard.props_validated");
  static obs::Counter &PropsSkipped = obs::counter("guard.props_skipped");
  static obs::Histogram &ValidateNs = obs::histogram("guard.validate_ns");
  Validations.add();
  obs::ScopedLatency Lat(ValidateNs);
  obs::Span Sp("guard.validate", "guard");
  auto T0 = std::chrono::steady_clock::now();

  uint64_t Uncited = 0;
  ValidationReport R;
  for (const ir::IndexArrayProperty &P : PS.properties()) {
    // Refuted candidates never expand into assertions (Properties.cpp), so
    // they cannot be cited and a Fail here would be meaningless noise.
    if (P.Tier == ir::PropertyTier::Refuted)
      continue;
    if (CitedBases && !CitedBases->count(ir::labelBase(P))) {
      ++Uncited;
      continue;
    }
    R.Checks.push_back(checkProperty(P, Env));
  }
  for (const ir::DomainRangeDecl &D : PS.domainRanges()) {
    if (D.Tier == ir::PropertyTier::Refuted)
      continue;
    if (CitedBases && !CitedBases->count(ir::labelBase(D))) {
      ++Uncited;
      continue;
    }
    R.Checks.push_back(checkProperty(D, Env));
  }
  R.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  PropsValidated.add(R.Checks.size());
  PropsSkipped.add(Uncited);
  Violations.add(R.failures());
  for (const PropertyCheck &C : R.Checks)
    if (C.Outcome == CheckOutcome::Fail)
      obs::flightRecord(obs::FlightSeverity::Error, "guard",
                        "property violated on this input",
                        {{"property", C.Property}, {"detail", C.Detail}});
  Sp.tag("checks", static_cast<int64_t>(R.Checks.size()));
  Sp.tag("failures", static_cast<int64_t>(R.failures()));
  Sp.tag("skipped_uncited", static_cast<int64_t>(Uncited));
  return R;
}

} // namespace

ValidationReport validateProperties(const ir::PropertySet &PS,
                                    const codegen::UFEnvironment &Env) {
  return runValidation(PS, Env, nullptr);
}

ValidationReport
validateProperties(const ir::PropertySet &PS,
                   const codegen::UFEnvironment &Env,
                   const std::set<std::string> &CitedBases) {
  return runValidation(PS, Env, &CitedBases);
}

} // namespace guard
} // namespace sds
