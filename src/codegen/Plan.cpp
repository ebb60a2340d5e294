//===- Plan.cpp - Inspector synthesis from relations ----------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Variable-ordering search: a subset DP (availability depends only on the
// *set* of already-scheduled variables) finds the order minimizing the
// product of symbolic trip counts. This mirrors what a careful use of
// Omega+ polyhedra scanning plus the paper's equality exploitation
// achieves: solved variables cost 1, segment loops cost nnz/n, row loops
// cost n.
//
//===----------------------------------------------------------------------===//

#include "sds/codegen/Inspector.h"

#include <algorithm>
#include <cassert>

namespace sds {
namespace codegen {

using ir::Atom;
using ir::Conjunction;
using ir::Constraint;
using ir::Expr;
using ir::SparseRelation;

namespace {

/// Scheduling context: variable indices, constraint table, availability.
class Scheduler {
public:
  Scheduler(const SparseRelation &R,
            const std::map<std::string, Complexity> &ParamClass)
      : ParamClass(ParamClass) {
    auto AddVars = [&](const std::vector<std::string> &L) {
      for (const std::string &V : L)
        if (VarIndex.find(V) == VarIndex.end()) {
          VarIndex.emplace(V, Vars.size());
          Vars.push_back(V);
        }
    };
    AddVars(R.InVars);
    AddVars(R.OutVars);
    AddVars(R.ExistVars);
    for (const Constraint &C : R.Conj.constraints())
      Cons.push_back(&C);
  }

  unsigned numVars() const { return static_cast<unsigned>(Vars.size()); }
  const std::string &varName(unsigned I) const { return Vars[I]; }

  /// All variables of `E` scheduled (params are always available)?
  bool exprAvailable(const Expr &E, unsigned Mask) const {
    std::vector<std::string> Names;
    E.collectVars(Names);
    for (const std::string &N : Names) {
      auto It = VarIndex.find(N);
      if (It != VarIndex.end() && !(Mask & (1u << It->second)))
        return false;
    }
    return true;
  }

  /// Top-level coefficient of variable `V` in `E` (0 when absent).
  static int64_t topLevelCoeff(const Expr &E, const std::string &V) {
    for (const Expr::Term &T : E.terms())
      if (T.A.isVar() && T.A.name() == V)
        return T.Coeff;
    return 0;
  }

  /// Does `E` mention `V` anywhere (including inside call arguments)?
  static bool mentions(const Expr &E, const std::string &V) {
    std::vector<std::string> Names;
    E.collectVars(Names);
    return std::find(Names.begin(), Names.end(), V) != Names.end();
  }

  /// Candidate production of variable `VI` given scheduled set `Mask`.
  /// Fills `Out` (without guards) and the indices of consumed constraints.
  bool candidate(unsigned VI, unsigned Mask, PlanVar &Out,
                 std::vector<size_t> &Consumed) const {
    const std::string &V = Vars[VI];
    Out = PlanVar();
    Out.Name = V;
    Consumed.clear();

    // Solve-by-equality first: cost 1 beats any loop.
    for (size_t CI = 0; CI < Cons.size(); ++CI) {
      const Constraint &C = *Cons[CI];
      if (!C.isEq())
        continue;
      int64_t A = topLevelCoeff(C.E, V);
      if (A != 1 && A != -1)
        continue;
      Expr Rest = C.E - Expr(A, Atom::var(V));
      if (mentions(Rest, V) || !exprAvailable(Rest, Mask))
        continue;
      Out.K = PlanVar::Kind::Solved;
      Out.Solved = Rest * -A;
      Out.Range = Complexity::one();
      Consumed.push_back(CI);
      return true;
    }

    // Loop: gather available unit-coefficient bounds.
    for (size_t CI = 0; CI < Cons.size(); ++CI) {
      const Constraint &C = *Cons[CI];
      if (C.isEq())
        continue;
      int64_t A = topLevelCoeff(C.E, V);
      if (A != 1 && A != -1)
        continue;
      Expr Rest = C.E - Expr(A, Atom::var(V));
      if (mentions(Rest, V) || !exprAvailable(Rest, Mask))
        continue;
      if (A == 1) {
        Out.Lowers.push_back(-Rest); // v + rest >= 0  =>  v >= -rest
      } else {
        Out.Uppers.push_back(Rest + Expr(1)); // rest - v >= 0 => v < rest+1
      }
      Consumed.push_back(CI);
    }
    if (Out.Lowers.empty() || Out.Uppers.empty())
      return false;
    Out.K = PlanVar::Kind::Loop;
    Out.Range = classifyRange(Out.Lowers, Out.Uppers);
    return true;
  }

  /// Classify the trip count of a loop with the given bounds.
  Complexity classifyRange(const std::vector<Expr> &Lowers,
                           const std::vector<Expr> &Uppers) const {
    Complexity Best = {1, 0}; // default: n-like
    bool Classified = false;
    auto Consider = [&](Complexity C) {
      if (!Classified || C < Best) {
        Best = C;
        Classified = true;
      }
    };
    for (const Expr &U : Uppers) {
      for (const Expr &L : Lowers) {
        Expr Diff = U - L;
        if (Diff.isConstant()) {
          Consider(Complexity::one()); // constant trip count
          continue;
        }
        // rowptr(i+1) - rowptr(i) style: only calls of one function left.
        bool AllSameFnCalls = true;
        std::string Fn;
        for (const Expr::Term &T : Diff.terms()) {
          if (!T.A.isCall()) {
            AllSameFnCalls = false;
            break;
          }
          if (Fn.empty())
            Fn = T.A.name();
          else if (Fn != T.A.name())
            AllSameFnCalls = false;
        }
        if (AllSameFnCalls && !Diff.terms().empty()) {
          Consider(Complexity::d());
          continue;
        }
      }
      // Upper bound is a segment-end pointer (single call): the loop stays
      // inside one segment, trip count <= nnz/n.
      if (U.terms().size() == 1 && U.terms()[0].A.isCall() &&
          U.terms()[0].Coeff == 1) {
        Consider(Complexity::d());
        continue;
      }
      // Upper bound is a bare parameter: classify by name (n vs nnz).
      if (U.terms().size() == 1 && U.terms()[0].A.isVar() &&
          U.terms()[0].Coeff == 1) {
        auto It = ParamClass.find(U.terms()[0].A.name());
        Consider(It != ParamClass.end() ? It->second : Complexity::n());
        continue;
      }
    }
    return Best;
  }

  const std::vector<const Constraint *> &constraints() const { return Cons; }

  /// Earliest schedule position at which `E` is evaluable.
  unsigned earliestPosition(const Expr &E,
                            const std::vector<unsigned> &Order) const {
    std::vector<std::string> Names;
    E.collectVars(Names);
    unsigned Pos = 0;
    for (const std::string &N : Names) {
      auto It = VarIndex.find(N);
      if (It == VarIndex.end())
        continue; // parameter
      for (unsigned P = 0; P < Order.size(); ++P)
        if (Order[P] == It->second) {
          Pos = std::max(Pos, P + 1);
          break;
        }
    }
    return Pos;
  }

private:
  std::map<std::string, unsigned> VarIndex;
  std::vector<std::string> Vars;
  std::vector<const Constraint *> Cons;
  const std::map<std::string, Complexity> &ParamClass;
};

} // namespace

InspectorPlan
buildInspectorPlan(const ir::SparseRelation &R,
                   const std::map<std::string, Complexity> &ParamClass) {
  InspectorPlan Plan;
  Scheduler S(R, ParamClass);
  unsigned N = S.numVars();
  if (N > 16) {
    Plan.WhyInvalid = "too many variables for the subset DP";
    return Plan;
  }

  // Subset DP: dp[mask] = cheapest complexity of scheduling `mask`.
  unsigned Full = (N == 0) ? 0 : ((1u << N) - 1);
  std::vector<Complexity> DP(Full + 1, Complexity{127, 127});
  std::vector<int> ChoiceVar(Full + 1, -1);
  std::vector<unsigned> ChoicePrev(Full + 1, 0);
  DP[0] = Complexity::one();
  for (unsigned Mask = 0; Mask <= Full; ++Mask) {
    if (DP[Mask].NExp == 127)
      continue;
    for (unsigned V = 0; V < N; ++V) {
      if (Mask & (1u << V))
        continue;
      PlanVar PV;
      std::vector<size_t> Consumed;
      if (!S.candidate(V, Mask, PV, Consumed))
        continue;
      unsigned Next = Mask | (1u << V);
      Complexity C = DP[Mask].times(PV.Range);
      if (C < DP[Next]) {
        DP[Next] = C;
        ChoiceVar[Next] = static_cast<int>(V);
        ChoicePrev[Next] = Mask;
      }
    }
    if (N == 0)
      break;
  }
  if (N > 0 && DP[Full].NExp == 127) {
    Plan.WhyInvalid = "no variable order makes every variable enumerable "
                      "(some variable lacks finite bounds)";
    return Plan;
  }

  // Reconstruct the order.
  std::vector<unsigned> Order(N);
  {
    unsigned Mask = Full;
    for (unsigned P = N; P-- > 0;) {
      Order[P] = static_cast<unsigned>(ChoiceVar[Mask]);
      Mask = ChoicePrev[Mask];
    }
  }

  // Materialize plan variables and track consumed constraints.
  std::vector<bool> Used(S.constraints().size(), false);
  unsigned Mask = 0;
  for (unsigned P = 0; P < N; ++P) {
    PlanVar PV;
    std::vector<size_t> Consumed;
    bool OK = S.candidate(Order[P], Mask, PV, Consumed);
    assert(OK && "DP-chosen variable must be schedulable");
    (void)OK;
    for (size_t CI : Consumed)
      Used[CI] = true;
    Plan.Vars.push_back(std::move(PV));
    Mask |= 1u << Order[P];
  }

  // Remaining constraints become guards at their earliest position.
  for (size_t CI = 0; CI < S.constraints().size(); ++CI) {
    if (Used[CI])
      continue;
    const Constraint &C = *S.constraints()[CI];
    unsigned Pos = S.earliestPosition(C.E, Order);
    if (N == 0) {
      Plan.WhyInvalid = "guard on a zero-variable relation";
      return Plan;
    }
    if (Pos == 0)
      Pos = 1; // evaluable immediately; attach to the first variable
    Plan.Vars[Pos - 1].Guards.push_back(C);
  }

  Plan.Cost = N > 0 ? DP[Full] : Complexity::one();
  Plan.SrcIter = R.InVars.empty() ? "" : R.InVars[0];
  Plan.DstIter = R.OutVars.empty() ? Plan.SrcIter : R.OutVars[0];
  Plan.Valid = true;
  return Plan;
}

Complexity
domainComplexity(const ir::Conjunction &Domain,
                 const std::vector<std::string> &IVs,
                 const std::map<std::string, Complexity> &ParamClass) {
  ir::SparseRelation R;
  R.InVars = IVs;
  R.Conj = Domain;
  InspectorPlan P = buildInspectorPlan(R, ParamClass);
  return P.Valid ? P.Cost : Complexity{127, 127};
}

} // namespace codegen
} // namespace sds
