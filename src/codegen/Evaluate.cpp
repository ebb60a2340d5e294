//===- Evaluate.cpp - In-process execution of inspector plans -------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Executes an InspectorPlan against concrete index arrays. The plan is
// first *compiled* (CompiledInspector): variable names become value slots,
// parameters are constant-folded, expressions become flat term lists over
// slots and array references, and arrays bound as vectors resolve to raw
// {data, size} spans — so the inner loops run without any string lookups
// or type-erased calls, matching the cost profile of the C code the
// pipeline would emit. Visit counts are therefore a faithful work measure
// for the Figure 10 bench.
//
// The compiled program is immutable; every run owns its slot state
// (Values vector), so one compiled inspector can be executed from many
// threads at once — the parallel runners compile once and clone only the
// per-run state. Edge emission is templated on the sink, so the buffer
// append of the hot drivers inlines into the loop nest.
//
// Out-of-range array probes are possible by construction: a guard may
// index one past a segment while a *sibling* guard of the same conjunction
// is false, and equality discovery composes functions past their declared
// domains (colptr(k) for an nnz-scale k, say). Span probes bounds-check
// inline and yield the OutOfRange sentinel, which the evaluator turns
// into "poison". Poison semantics are asymmetric by soundness direction:
// a poisoned *guard* PASSES — the constraint is unevaluable, and pruning
// on it would under-approximate the dependence graph (a missing edge is a
// wrong schedule, an extra edge is merely a slower one); the instance
// survives to be pruned by its evaluable sibling constraints. Poisoned
// *bounds* and *solved variables* skip the subtree — there is no value to
// iterate or substitute, and loop positions come from the relation's own
// range constraints, which in-domain data keeps evaluable.
//
//===----------------------------------------------------------------------===//

#include "sds/codegen/Inspector.h"

#include <cassert>
#include <limits>
#include <unordered_map>

#include "sds/support/OMP.h"

namespace sds {
namespace codegen {

namespace detail {

namespace {

/// One compiled linear term: Coeff * (slot value | array(arg expr)).
/// Array references carry either a raw span (fast path, bound vectors) or
/// a pointer to the environment's std::function (fallback, function-bound
/// arrays).
struct CTerm {
  int64_t Coeff;
  int Slot = -1;   ///< >= 0: variable slot
  int ArgIdx = -1; ///< >= 0: index of the compiled argument expression
  const int *Data = nullptr; ///< span fast path (with Size)
  int64_t Size = 0;
  const std::function<int64_t(int64_t)> *Fn = nullptr; ///< fallback
  // Affine-argument fast path: nearly every probe argument is
  // `ArgConst + ArgCoeff * slot` (rowptr[i], rowptr[i+1], col[k], ...);
  // evaluating it inline skips the recursive eval and its pool chase.
  int ArgSlot = -1;
  int64_t ArgCoeff = 0, ArgConst = 0;
};

/// A compiled expression: constant + terms (terms reference the pool).
struct CExpr {
  int64_t Const = 0;
  std::vector<CTerm> Terms;
};

struct CGuard {
  bool IsEq;
  int ExprIdx;
};

struct CVar {
  bool Solved;
  int SolvedIdx = -1;
  std::vector<int> Lowers, Uppers;
  std::vector<CGuard> Guards;
};

} // namespace

/// The immutable compiled form of one plan against one environment.
/// Shared between threads; all mutable run state lives in RunState.
class CompiledProgram {
public:
  CompiledProgram(const InspectorPlan &Plan, const UFEnvironment &Env)
      : Env(Env) {
    SlotOf.reserve(Plan.Vars.size());
    for (size_t I = 0; I < Plan.Vars.size(); ++I)
      SlotOf.emplace(Plan.Vars[I].Name, static_cast<int>(I));
    // Every variable contributes a handful of expressions; reserving the
    // pool keeps compilation allocation-lean (it used to reallocate a
    // dozen times per plan).
    Pool.reserve(Plan.Vars.size() * 6);
    Vars.reserve(Plan.Vars.size());
    for (const PlanVar &PV : Plan.Vars) {
      CVar V;
      V.Solved = PV.K == PlanVar::Kind::Solved;
      if (V.Solved) {
        V.SolvedIdx = compile(PV.Solved);
      } else {
        V.Lowers.reserve(PV.Lowers.size());
        for (const ir::Expr &L : PV.Lowers)
          V.Lowers.push_back(compile(L));
        V.Uppers.reserve(PV.Uppers.size());
        for (const ir::Expr &U : PV.Uppers)
          V.Uppers.push_back(compile(U));
      }
      V.Guards.reserve(PV.Guards.size());
      for (const ir::Constraint &G : PV.Guards)
        V.Guards.push_back({G.isEq(), compile(G.E)});
      Vars.push_back(std::move(V));
    }
    auto Slot = [&](const std::string &Name) {
      auto It = SlotOf.find(Name);
      return It == SlotOf.end() ? -1 : It->second;
    };
    SrcSlot = Plan.SrcIter.empty() ? -1 : Slot(Plan.SrcIter);
    DstSlot = Plan.DstIter.empty() ? SrcSlot : Slot(Plan.DstIter);
  }

  size_t numVars() const { return Vars.size(); }

  bool outerIsLoop() const { return !Vars.empty() && !Vars[0].Solved; }

  /// Per-run mutable state: one value slot per plan variable. Cloning
  /// this (not the program) is all a new thread needs.
  struct RunState {
    std::vector<int64_t> Values;
    uint64_t Visits = 0;
  };

  RunState makeState() const {
    RunState S;
    S.Values.assign(Vars.size(), 0);
    return S;
  }

  /// Bounds of the outermost loop variable (valid when no plan variable
  /// feeds them, which holds by construction for depth 0).
  bool outerRange(int64_t &Lo, int64_t &Hi) const {
    if (!outerIsLoop())
      return false;
    RunState S = makeState();
    bool Poison = false;
    Lo = std::numeric_limits<int64_t>::min();
    for (int L : Vars[0].Lowers)
      Lo = std::max(Lo, eval(S, L, Poison));
    Hi = std::numeric_limits<int64_t>::max();
    for (int U : Vars[0].Uppers)
      Hi = std::min(Hi, eval(S, U, Poison));
    return !Poison;
  }

  /// Run the full nest with the outermost loop clamped to [OuterLo,
  /// OuterHi), feeding every emitted edge to `Emit(Src, Dst)`. Returns
  /// iterations visited.
  template <typename Sink>
  uint64_t run(int64_t OuterLo, int64_t OuterHi, Sink &&Emit) const {
    RunState S = makeState();
    recurse(S, 0, OuterLo, OuterHi, Emit);
    return S.Visits;
  }

private:
  int compile(const ir::Expr &E) {
    CExpr C;
    C.Const = E.constant();
    for (const ir::Expr::Term &T : E.terms()) {
      CTerm CT;
      CT.Coeff = T.Coeff;
      if (T.A.isVar()) {
        auto It = SlotOf.find(T.A.name());
        if (It != SlotOf.end()) {
          CT.Slot = It->second;
        } else {
          // A parameter: constant-fold it.
          auto PIt = Env.Params.find(T.A.name());
          assert(PIt != Env.Params.end() && "unbound variable/parameter");
          C.Const += T.Coeff * PIt->second;
          continue;
        }
      } else {
        assert(T.A.args().size() == 1 && "only arity-1 index arrays occur");
        CT.ArgIdx = compile(T.A.args()[0]);
        const CExpr &Arg = Pool[static_cast<size_t>(CT.ArgIdx)];
        if (Arg.Terms.empty()) {
          CT.ArgSlot = -2; // pure constant argument
          CT.ArgConst = Arg.Const;
        } else if (Arg.Terms.size() == 1 && Arg.Terms[0].Slot >= 0) {
          CT.ArgSlot = Arg.Terms[0].Slot;
          CT.ArgCoeff = Arg.Terms[0].Coeff;
          CT.ArgConst = Arg.Const;
        }
        auto SIt = Env.Spans.find(T.A.name());
        if (SIt != Env.Spans.end()) {
          // Devirtualized: probe the raw array with an inline bounds
          // check. The shared_ptr keep-alive guards against rebinding of
          // the environment entry while this program lives.
          KeepAlive.push_back(SIt->second);
          CT.Data = SIt->second->data();
          CT.Size = static_cast<int64_t>(SIt->second->size());
        } else {
          auto FIt = Env.Arrays.find(T.A.name());
          assert(FIt != Env.Arrays.end() && "unbound index array");
          CT.Fn = &FIt->second;
        }
      }
      C.Terms.push_back(CT);
    }
    Pool.push_back(std::move(C));
    return static_cast<int>(Pool.size() - 1);
  }

  int64_t eval(RunState &S, int Idx, bool &Poison) const {
    const CExpr &C = Pool[static_cast<size_t>(Idx)];
    int64_t V = C.Const;
    for (const CTerm &T : C.Terms) {
      int64_t A;
      if (T.Slot >= 0) {
        A = S.Values[static_cast<size_t>(T.Slot)];
      } else {
        int64_t Arg;
        if (T.ArgSlot >= 0)
          Arg = T.ArgConst +
                T.ArgCoeff * S.Values[static_cast<size_t>(T.ArgSlot)];
        else if (T.ArgSlot == -2)
          Arg = T.ArgConst;
        else
          Arg = eval(S, T.ArgIdx, Poison);
        if (T.Data) {
          A = (Arg < 0 || Arg >= T.Size)
                  ? UFEnvironment::OutOfRange
                  : static_cast<int64_t>(T.Data[Arg]);
        } else {
          A = (*T.Fn)(Arg);
        }
        if (A == UFEnvironment::OutOfRange)
          Poison = true;
      }
      V += T.Coeff * A;
    }
    return V;
  }

  bool guardsHold(RunState &S, const CVar &V) const {
    for (const CGuard &G : V.Guards) {
      bool Poison = false;
      int64_t X = eval(S, G.ExprIdx, Poison);
      if (Poison)
        continue; // unevaluable guard: keep the instance (see file header)
      if (G.IsEq ? (X != 0) : (X < 0))
        return false;
    }
    return true;
  }

  template <typename Sink>
  void recurse(RunState &S, size_t Depth, int64_t OuterLo, int64_t OuterHi,
               Sink &&Emit) const {
    if (Depth == Vars.size()) {
      int64_t Src =
          SrcSlot < 0 ? 0 : S.Values[static_cast<size_t>(SrcSlot)];
      int64_t Dst =
          DstSlot < 0 ? Src : S.Values[static_cast<size_t>(DstSlot)];
      Emit(Src, Dst);
      return;
    }
    const CVar &V = Vars[Depth];
    if (V.Solved) {
      ++S.Visits;
      bool Poison = false;
      int64_t X = eval(S, V.SolvedIdx, Poison);
      if (Poison)
        return;
      S.Values[Depth] = X;
      if (guardsHold(S, V))
        recurse(S, Depth + 1, OuterLo, OuterHi, Emit);
      return;
    }
    bool Poison = false;
    int64_t LB = std::numeric_limits<int64_t>::min();
    for (int L : V.Lowers)
      LB = std::max(LB, eval(S, L, Poison));
    int64_t UB = std::numeric_limits<int64_t>::max();
    for (int U : V.Uppers)
      UB = std::min(UB, eval(S, U, Poison));
    if (Poison)
      return;
    if (Depth == 0) {
      LB = std::max(LB, OuterLo);
      UB = std::min(UB, OuterHi);
    }
    for (int64_t X = LB; X < UB; ++X) {
      ++S.Visits;
      S.Values[Depth] = X;
      if (guardsHold(S, V))
        recurse(S, Depth + 1, OuterLo, OuterHi, Emit);
    }
  }

  const UFEnvironment &Env;
  std::unordered_map<std::string, int> SlotOf;
  std::vector<CExpr> Pool;
  std::vector<CVar> Vars;
  std::vector<std::shared_ptr<const std::vector<int>>> KeepAlive;
  int SrcSlot = -1, DstSlot = -1;
};

} // namespace detail

//===----------------------------------------------------------------------===//
// CompiledInspector
//===----------------------------------------------------------------------===//

namespace {
constexpr int64_t FullLo = std::numeric_limits<int64_t>::min();
constexpr int64_t FullHi = std::numeric_limits<int64_t>::max();
} // namespace

CompiledInspector::CompiledInspector(const InspectorPlan &Plan,
                                     const UFEnvironment &Env)
    : Prog(std::make_shared<const detail::CompiledProgram>(Plan, Env)) {
  assert(Plan.Valid && "cannot compile an invalid plan");
}

bool CompiledInspector::outerIsLoop() const { return Prog->outerIsLoop(); }

bool CompiledInspector::outerRange(int64_t &Lo, int64_t &Hi) const {
  return Prog->outerRange(Lo, Hi);
}

uint64_t CompiledInspector::run(std::vector<InspectorEdge> &Out) const {
  return Prog->run(FullLo, FullHi, [&Out](int64_t S, int64_t D) {
    Out.emplace_back(S, D);
  });
}

uint64_t CompiledInspector::runRange(int64_t Lo, int64_t Hi,
                                     std::vector<InspectorEdge> &Out) const {
  return Prog->run(Lo, Hi, [&Out](int64_t S, int64_t D) {
    Out.emplace_back(S, D);
  });
}

uint64_t CompiledInspector::run(
    const std::function<void(int64_t, int64_t)> &EmitEdge) const {
  return Prog->run(FullLo, FullHi, [&EmitEdge](int64_t S, int64_t D) {
    EmitEdge(S, D);
  });
}

//===----------------------------------------------------------------------===//
// Free-function runners
//===----------------------------------------------------------------------===//

uint64_t runInspector(const InspectorPlan &Plan, const UFEnvironment &Env,
                      const std::function<void(int64_t, int64_t)> &EmitEdge) {
  assert(Plan.Valid && "cannot run an invalid plan");
  return CompiledInspector(Plan, Env).run(EmitEdge);
}

uint64_t runInspectorParallel(
    const InspectorPlan &Plan, const UFEnvironment &Env, int NumThreads,
    const std::function<void(int64_t, int64_t)> &EmitEdge) {
  assert(Plan.Valid && "cannot run an invalid plan");
  // One compilation, shared by every thread; only slot state is cloned
  // per thread (inside run/runRange).
  CompiledInspector C(Plan, Env);
  int64_t Lo, Hi;
  if (NumThreads <= 1 || !C.outerRange(Lo, Hi) || Hi <= Lo)
    return C.run(EmitEdge);

  // Each thread buffers its edges; EmitEdge runs serially afterwards, so
  // callers need no synchronization.
  uint64_t Total = 0;
  std::vector<std::vector<InspectorEdge>> Buffers(
      static_cast<size_t>(NumThreads));
#ifdef _OPENMP
#pragma omp parallel num_threads(NumThreads) reduction(+ : Total)
#endif
  {
    int T = omp_get_thread_num();
    int NT = omp_get_num_threads();
    int64_t Span = Hi - Lo;
    int64_t Begin = Lo + Span * T / NT;
    int64_t End = Lo + Span * (T + 1) / NT;
    Total += C.runRange(Begin, End, Buffers[static_cast<size_t>(T)]);
  }
  for (const auto &Buf : Buffers)
    for (const auto &[S2, D2] : Buf)
      EmitEdge(S2, D2);
  return Total;
}

} // namespace codegen
} // namespace sds
