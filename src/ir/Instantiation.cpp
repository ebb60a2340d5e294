//===- Instantiation.cpp - Assertion instantiation and unsat (§4.2) ------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/ir/Flatten.h"
#include "sds/ir/Simplify.h"
#include "sds/obs/Trace.h"
#include "sds/support/Hash.h"
#include "sds/support/MathExtras.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace sds {
namespace ir {

std::vector<Expr> argumentExpressionSet(const Conjunction &C) {
  std::vector<Expr> E;
  for (const Atom &Call : C.collectCalls())
    for (const Expr &Arg : Call.args())
      E.push_back(Arg);
  std::sort(E.begin(), E.end());
  E.erase(std::unique(E.begin(), E.end()), E.end());
  return E;
}

namespace {

/// Branch-and-bound node cap of each integer-emptiness query.
constexpr unsigned kEmptinessBudget = 64;
/// Fixpoint passes of phase-1 instantiation per round.
constexpr unsigned kPhase1Passes = 4;

/// Is the constraint trivially false (constant expression violating it)?
bool constantFalse(const Constraint &C) {
  if (!C.E.isConstant())
    return false;
  return C.isEq() ? (C.E.constant() != 0) : (C.E.constant() < 0);
}

/// Negate a Geq constraint: !(e >= 0) is -e - 1 >= 0. Equalities negate to
/// a disjunction and are handled by the caller.
Constraint negateGeq(const Constraint &C) {
  assert(!C.isEq() && "cannot negate an equality into one constraint");
  return Constraint::geq(-C.E - Expr(1));
}

/// Does constraint `A` alone imply constraint `B`? Syntactic and sound:
/// the linear parts must coincide (up to sign when `A` is an equality)
/// with a compatible constant.
bool constraintImplies(const Constraint &A, const Constraint &B) {
  if (B.isEq()) {
    if (!A.isEq())
      return false;
    Expr D = B.E - A.E;
    if (D.isConstant() && D.constant() == 0)
      return true;
    Expr S = B.E + A.E;
    return S.isConstant() && S.constant() == 0;
  }
  Expr D = B.E - A.E;
  if (D.isConstant() && D.constant() >= 0)
    return true;
  if (A.isEq()) {
    Expr S = B.E + A.E;
    if (S.isConstant() && S.constant() >= 0)
      return true;
  }
  return false;
}

/// Append the labels justifying constraint `C` to `Out`. Base-relation
/// constraints contribute nothing; a constraint the ledger has never seen
/// contributes the unattributed sentinel (forcing the coarse fallback).
void appendOrigin(const OriginMap &O, const Constraint &C,
                  std::vector<std::string> &Out) {
  if (O.Base.count(C))
    return;
  auto It = O.ConstraintOrigins.find(C);
  if (It == O.ConstraintOrigins.end()) {
    Out.push_back(OriginMap::unattributed());
    return;
  }
  Out.insert(Out.end(), It->second.begin(), It->second.end());
}

/// Labels supporting an antecedent constraint `P` that `Aug` entails
/// syntactically. `P` itself may be absent: impliesSyntactically also
/// accepts a strictly stronger bound or a forcing equality, so fall back
/// to scanning for a single implying constraint and charge its origin.
void appendSyntacticSupport(const OriginMap &O, const Conjunction &Aug,
                            const Constraint &P,
                            std::vector<std::string> &Out) {
  if (P.E.isConstant())
    return; // constant-true: no support needed
  if (O.Base.count(P))
    return;
  auto It = O.ConstraintOrigins.find(P);
  if (It != O.ConstraintOrigins.end()) {
    Out.insert(Out.end(), It->second.begin(), It->second.end());
    return;
  }
  const std::vector<std::string> *Best = nullptr;
  for (const Constraint &C2 : Aug.constraints()) {
    if (!constraintImplies(C2, P))
      continue;
    if (O.Base.count(C2))
      return; // implied outright by the base relation
    auto It2 = O.ConstraintOrigins.find(C2);
    if (It2 != O.ConstraintOrigins.end() &&
        (!Best || It2->second.size() < Best->size()))
      Best = &It2->second;
  }
  if (Best) {
    Out.insert(Out.end(), Best->begin(), Best->end());
    return;
  }
  Out.push_back(OriginMap::unattributed());
}

/// One semantic-probe verdict plus the labels its proof cited.
struct ProbeResult {
  bool Implied = false;
  std::vector<std::string> Support;
};

/// Citation accumulator threaded through the piece-emptiness checks.
struct CoreCollector {
  const OriginMap *Origins = nullptr;
  std::vector<std::string> Labels; ///< labels cited so far (with repeats)
  bool Fine = true;                ///< row-level attribution intact
};

/// Record the citations of one proven-empty piece: map the integer-level
/// core rows back through the flattener's row provenance onto the piece's
/// constraints, then onto assertion labels.
void notePieceEmpty(CoreCollector *CC, const Flattened &F,
                    const Conjunction &Piece,
                    const presburger::EmptinessCore &EC) {
  if (!CC)
    return;
  if (!EC.Valid) {
    CC->Fine = false;
    return;
  }
  const std::vector<Constraint> &Cs = Piece.constraints();
  size_t NEq = F.EqRowConstraint.size();
  for (uint32_t RI : EC.Rows) {
    unsigned CI = RI < NEq ? F.EqRowConstraint[RI]
                           : F.IneqRowConstraint[RI - NEq];
    appendOrigin(*CC->Origins, Cs[CI], CC->Labels);
  }
}

/// An instance as integers: for the antecedent, then the consequent, the
/// constraint count, then per constraint its kind, term count,
/// (coefficient, atom id) pairs and constant. Equal keys are equal
/// instances.
using InstanceKey = std::vector<int64_t>;

struct InstanceKeyHash {
  size_t operator()(const InstanceKey &K) const {
    return support::xxh64(K.data(), K.size() * sizeof(int64_t), 0);
  }
};

/// Instances met so far, across enumeration rounds. Only looked up.
class SeenInstances {
public:
  /// True the first time an instance equal to `Inst` is offered.
  bool firstSighting(const AssertionInstance &Inst) {
    Scratch.clear();
    append(Inst.Antecedent);
    append(Inst.Consequent);
    return Seen.insert(Scratch).second;
  }

private:
  void append(const Conjunction &C) {
    Scratch.push_back(static_cast<int64_t>(C.constraints().size()));
    for (const Constraint &Cons : C.constraints()) {
      Scratch.push_back(Cons.isEq());
      Scratch.push_back(static_cast<int64_t>(Cons.E.terms().size()));
      for (const Expr::Term &T : Cons.E.terms()) {
        Scratch.push_back(T.Coeff);
        Scratch.push_back(T.A.id());
      }
      Scratch.push_back(Cons.E.constant());
    }
  }

  std::unordered_set<InstanceKey, InstanceKeyHash> Seen;
  InstanceKey Scratch;
};

/// Enumerate all assertion instances over E^n, pruning vacuous ones.
/// `Seen` deduplicates across enumeration rounds.
void enumerateInstances(
                        const std::vector<UniversalAssertion> &Assertions,
                        const std::vector<Expr> &E,
                        const SimplifyOptions &Opts,
                        InstantiationStats &Stats,
                        SeenInstances &Seen,
                        std::vector<AssertionInstance> &Out) {
  std::map<std::string, Expr> Map; // reused across instances
  for (const UniversalAssertion &A : Assertions) {
    size_t N = A.QVars.size();
    // Odometer over E^N.
    std::vector<size_t> Idx(N, 0);
    if (E.empty() && N > 0)
      continue;
    while (true) {
      if (Stats.Generated >= Opts.MaxInstances)
        return;
      ++Stats.Generated;
      Map.clear();
      for (size_t I = 0; I < N; ++I)
        Map.emplace(A.QVars[I], E[Idx[I]]);
      AssertionInstance Inst;
      Inst.Antecedent = A.Antecedent.substitute(Map);
      Inst.Consequent = A.Consequent.substitute(Map);
      Inst.Label = A.Label;

      bool Vacuous = false;
      for (const Constraint &C2 : Inst.Antecedent.constraints())
        if (constantFalse(C2)) {
          Vacuous = true;
          break;
        }
      if (Vacuous) {
        ++Stats.Vacuous;
      } else {
        // Deduplicate structurally (many tuples yield the same instance).
        if (Seen.firstSighting(Inst))
          Out.push_back(std::move(Inst));
      }

      // Advance the odometer.
      size_t I = 0;
      for (; I < N; ++I) {
        if (++Idx[I] < E.size())
          break;
        Idx[I] = 0;
      }
      if (I == N || N == 0)
        break;
    }
  }
}

/// Ackermann-style functional-consistency guards: for every pair of calls
/// to the same function, `args1 == args2 => f(args1) == f(args2)`. These
/// carry no domain knowledge — they are what "Affine Consistency" needs in
/// Figure 7 — and they flow through the same two-phase machinery.
void collectFunctionalConsistencyInstances(
    const Conjunction &C, const SimplifyOptions &Opts,
    InstantiationStats &Stats, SeenInstances &Seen,
    std::vector<AssertionInstance> &Out) {
  std::vector<Atom> Calls = C.collectCalls();
  for (size_t I = 0; I < Calls.size(); ++I) {
    for (size_t J = I + 1; J < Calls.size(); ++J) {
      if (Stats.Generated >= Opts.MaxInstances)
        return;
      const Atom &A = Calls[I], &B = Calls[J];
      if (A.name() != B.name() || A.args().size() != B.args().size())
        continue;
      ++Stats.Generated;
      AssertionInstance Inst;
      Inst.Label = "functional_consistency(" + A.name() + ")";
      bool Vacuous = false;
      for (size_t K = 0; K < A.args().size(); ++K) {
        Constraint Eq = Constraint::equals(A.args()[K], B.args()[K]);
        if (constantFalse(Eq)) {
          Vacuous = true;
          break;
        }
        Inst.Antecedent.add(std::move(Eq));
      }
      if (Vacuous) {
        ++Stats.Vacuous;
        continue;
      }
      Inst.Consequent.add(
          Constraint::equals(Expr(1, A), Expr(1, B)));
      if (Seen.firstSighting(Inst))
        Out.push_back(std::move(Inst));
    }
  }
}

} // namespace

Conjunction
instantiatePhase1(const Conjunction &C,
                  const std::vector<UniversalAssertion> &Assertions,
                  const SimplifyOptions &Opts, InstantiationStats *Stats,
                  std::vector<AssertionInstance> *Phase2,
                  OriginMap *Origins) {
  InstantiationStats Local;
  InstantiationStats &S = Stats ? *Stats : Local;

  Conjunction Aug = C;
  if (Origins) {
    Origins->Base.clear();
    for (const Constraint &C0 : Aug.constraints())
      Origins->Base.insert(C0);
  }
  SeenInstances Seen;
  std::vector<AssertionInstance> Instances;
  std::vector<bool> Consumed;
  // The contrapositive rule's constraints per instance, built once when
  // the instance is appended: !q, which Aug must imply, and !p, which is
  // then added. Only single-inequality antecedents and consequents have
  // one.
  struct Contrapositive {
    Constraint NotQ, NotP;
  };
  std::vector<std::optional<Contrapositive>> Contra;
  unsigned ProbesLeft = Opts.SemanticPhase1 ? Opts.SemanticProbeCap : 0;

  // The flattened form of Aug, refreshed when consequents are appended, so
  // each probe only lowers one extra row instead of re-flattening the
  // whole conjunction. Its columns are Aug's atoms: an antecedent
  // mentioning a call that has no column can never be entailed, so we skip
  // the (much costlier) semantic probe. Every probe is AugFlat.Set plus one
  // row, so the points of non-empty probes answer later probes
  // (Witnesses); a re-flatten re-maps them by atom, keeping those that
  // still lie in the grown set.
  Flattened AugFlat;
  presburger::WitnessPool Witnesses;
  auto RefreshCalls = [&] {
    Flattened Old = std::move(AugFlat);
    AugFlat = flatten(Aug, {});
    std::vector<unsigned> OldColumn(AugFlat.Set.numVars(),
                                    presburger::WitnessPool::kNoColumn);
    for (unsigned Col = 0; Col < AugFlat.Cols.size(); ++Col) {
      unsigned OldCol = Old.columnOf(AugFlat.Cols[Col]);
      if (OldCol != Old.Set.numVars())
        OldColumn[Col] = OldCol;
    }
    Witnesses.remap(OldColumn, AugFlat.Set);
  };
  RefreshCalls();
  std::vector<Atom> CallScratch; // reused across probes
  auto CallsPresent = [&](const Constraint &P) {
    CallScratch.clear();
    P.E.collectCalls(CallScratch);
    for (Atom A : CallScratch)
      if (AugFlat.columnOf(A) == AugFlat.Set.numVars())
        return false;
    return true;
  };

  // Semantic entailment of one constraint by Aug, via integer emptiness of
  // Aug && !P. Budgeted: each probe is one (cheap) LP/branch-and-bound
  // run with a small node budget (rational infeasibility decides almost
  // every probe). Positive results are cached forever (Aug only grows);
  // negative results are cached per pass.
  std::unordered_map<Constraint, ProbeResult, ConstraintHash> ProbeCache;
  // Map a probe's integer-level emptiness core back onto Aug's constraints
  // (the probe set is AugFlat.Set plus one trailing inequality — the
  // negated goal, which is the proof's reductio and needs no label).
  auto ProbeSupport = [&](const presburger::EmptinessCore &EC,
                          std::vector<std::string> &Out) {
    if (!EC.Valid) {
      Out.push_back(OriginMap::unattributed());
      return;
    }
    size_t NEq = AugFlat.EqRowConstraint.size();
    const std::vector<Constraint> &Cs = Aug.constraints();
    for (uint32_t RI : EC.Rows) {
      if (RI < NEq) {
        appendOrigin(*Origins, Cs[AugFlat.EqRowConstraint[RI]], Out);
        continue;
      }
      size_t II = RI - NEq;
      if (II >= AugFlat.IneqRowConstraint.size())
        continue; // the appended negated goal
      appendOrigin(*Origins, Cs[AugFlat.IneqRowConstraint[II]], Out);
    }
  };
  auto ImpliedSemantically = [&](const Constraint &P) {
    if (ProbesLeft == 0 || !CallsPresent(P))
      return false;
    auto Cached = ProbeCache.find(P);
    if (Cached != ProbeCache.end())
      return Cached->second.Implied;
    unsigned Budget = std::min(kEmptinessBudget, 8u);
    ProbeResult PR;
    auto EmptyWith = [&](const Constraint &Neg) {
      // Lower !P onto Aug's column space; calls are present (checked),
      // an unseen variable means P cannot be entailed.
      std::vector<int64_t> Row;
      if (!AugFlat.lowerRow(Neg.E, Row))
        return false;
      presburger::EmptinessCore EC;
      if (Witnesses.probe(AugFlat.Set, std::move(Row), Budget,
                          Origins ? &EC : nullptr) !=
          presburger::Ternary::True)
        return false;
      if (Origins)
        ProbeSupport(EC, PR.Support);
      return true;
    };
    if (!P.isEq()) {
      --ProbesLeft;
      PR.Implied = EmptyWith(negateGeq(P));
    } else if (ProbesLeft >= 2) {
      ProbesLeft -= 2;
      PR.Implied = EmptyWith(Constraint::geq(P.E - Expr(1))) &&
                   EmptyWith(Constraint::geq(-P.E - Expr(1)));
    }
    if (!PR.Implied)
      PR.Support.clear();
    bool Result = PR.Implied;
    ProbeCache.emplace(P, std::move(PR));
    return Result;
  };

  // Instantiation rounds: phase-1 additions introduce new call terms
  // (e.g. rowptr(col(k)+1) from a segment-pointer consequent), which seed
  // new argument expressions for Definition 1's E on the next round.
  const unsigned MaxRounds = std::max(1u, Opts.InstantiationRounds);
  for (unsigned Round = 0; Round < MaxRounds; ++Round) {
  size_t SizeBefore = Instances.size();
  std::vector<Expr> E = argumentExpressionSet(Aug);
  // Property instances come first: they carry the domain knowledge and are
  // the profitable targets for the (budgeted) semantic probes. The
  // functional-consistency guards are numerous and mostly matter for
  // phase 2, so they queue behind.
  std::vector<AssertionInstance> NewInstances;
  enumerateInstances(Assertions, E, Opts, S, Seen, NewInstances);
  std::stable_sort(NewInstances.begin(), NewInstances.end(),
                   [](const AssertionInstance &A, const AssertionInstance &B) {
                     return A.Antecedent.constraints().size() <
                            B.Antecedent.constraints().size();
                   });
  collectFunctionalConsistencyInstances(Aug, Opts, S, Seen, NewInstances);
  for (AssertionInstance &Inst : NewInstances) {
    const std::vector<Constraint> &Qs = Inst.Consequent.constraints();
    const std::vector<Constraint> &Ps = Inst.Antecedent.constraints();
    if (Qs.size() == 1 && Ps.size() == 1 && !Qs[0].isEq() && !Ps[0].isEq())
      Contra.push_back(Contrapositive{negateGeq(Qs[0]), negateGeq(Ps[0])});
    else
      Contra.emplace_back();
    Instances.push_back(std::move(Inst));
  }
  Consumed.resize(Instances.size(), false);
  if (Round > 0 && Instances.size() == SizeBefore)
    break; // nothing new to try

  for (unsigned Pass = 0; Pass < kPhase1Passes; ++Pass) {
    bool Changed = false;
    // Aug grew last pass: negative probe answers may have flipped.
    for (auto It = ProbeCache.begin(); It != ProbeCache.end();) {
      if (!It->second.Implied)
        It = ProbeCache.erase(It);
      else
        ++It;
    }
    for (size_t I = 0; I < Instances.size(); ++I) {
      if (Consumed[I])
        continue;
      const AssertionInstance &Inst = Instances[I];

      // Useless if the consequent adds nothing.
      bool ConsImplied = true;
      for (const Constraint &Q : Inst.Consequent.constraints())
        if (!Aug.impliesSyntactically(Q)) {
          ConsImplied = false;
          break;
        }
      if (ConsImplied) {
        Consumed[I] = true;
        ++S.AlreadyImplied;
        continue;
      }

      // Forward rule: antecedent present => add consequent.
      bool AnteImplied = true;
      for (const Constraint &P : Inst.Antecedent.constraints())
        if (!Aug.impliesSyntactically(P) && !ImpliedSemantically(P)) {
          AnteImplied = false;
          break;
        }
      if (AnteImplied) {
        if (Origins) {
          // Origin of each consequent constraint: this instance plus the
          // (transitively flattened) supports of its antecedent.
          std::vector<std::string> Labels{Inst.Label};
          for (const Constraint &P : Inst.Antecedent.constraints()) {
            if (P.E.isConstant())
              continue;
            if (Aug.impliesSyntactically(P)) {
              appendSyntacticSupport(*Origins, Aug, P, Labels);
            } else {
              auto It = ProbeCache.find(P);
              if (It != ProbeCache.end() && It->second.Implied)
                Labels.insert(Labels.end(), It->second.Support.begin(),
                              It->second.Support.end());
              else
                Labels.push_back(OriginMap::unattributed());
            }
          }
          std::sort(Labels.begin(), Labels.end());
          Labels.erase(std::unique(Labels.begin(), Labels.end()),
                       Labels.end());
          for (const Constraint &Q : Inst.Consequent.constraints())
            if (!Origins->Base.count(Q))
              Origins->ConstraintOrigins.emplace(Q, Labels);
        }
        Aug.append(Inst.Consequent);
        RefreshCalls();
        Consumed[I] = true;
        ++S.Phase1Added;
        S.UsedLabels.push_back(Inst.Label);
        Changed = true;
        continue;
      }

      // Contrapositive rule (§6.2): single-constraint consequent q with
      // !q present lets us add !p for a single-constraint antecedent.
      if (Contra[I] && Aug.impliesSyntactically(Contra[I]->NotQ)) {
        if (Origins) {
          std::vector<std::string> Labels{Inst.Label + " [contrapositive]"};
          appendSyntacticSupport(*Origins, Aug, Contra[I]->NotQ, Labels);
          std::sort(Labels.begin(), Labels.end());
          Labels.erase(std::unique(Labels.begin(), Labels.end()),
                       Labels.end());
          if (!Origins->Base.count(Contra[I]->NotP))
            Origins->ConstraintOrigins.emplace(Contra[I]->NotP,
                                               std::move(Labels));
        }
        Aug.add(Contra[I]->NotP);
        Consumed[I] = true;
        ++S.Phase1Added;
        S.UsedLabels.push_back(Inst.Label + " [contrapositive]");
        Changed = true;
        continue;
      }
    }
    if (!Changed)
      break;
  }
  } // rounds

  if (Phase2) {
    for (size_t I = 0; I < Instances.size(); ++I)
      if (!Consumed[I])
        Phase2->push_back(Instances[I]);
  }
  return Aug;
}

namespace {

/// Most integer points one phase-2 piece keeps.
constexpr size_t kPiecePoints = 8;

/// An integer point over a piece's atoms: (atom id, value), sorted by id.
using NamedPoint = std::vector<std::pair<uint32_t, int64_t>>;

/// One DNF piece of phase 2: a conjunction plus up to kPiecePoints integer
/// points known to satisfy every one of its constraints. A piece holding a
/// point is non-empty, so no solve could ever prove it empty; it is kept
/// without a flatten or a solve.
struct Piece {
  Conjunction Conj;
  std::vector<NamedPoint> Points;
};

/// A constraint lowered once for evaluation at named points.
struct NamedRow {
  bool IsEq;
  int64_t Const;
  std::vector<std::pair<int64_t, Atom>> Terms; ///< coeff, atom
};

/// Does `P` satisfy every row? Checked 128-bit arithmetic; an overflow or
/// an atom without a value counts as not satisfied, so `true` is exact.
bool satisfiesAll(const NamedPoint &P, const std::vector<NamedRow> &Rows) {
  for (const NamedRow &Row : Rows) {
    Int128 V = Row.Const;
    for (const auto &[Coeff, A] : Row.Terms) {
      auto It = std::lower_bound(P.begin(), P.end(),
                                 std::pair<uint32_t, int64_t>{A.id(), 0},
                                 [](const auto &L, const auto &R) {
                                   return L.first < R.first;
                                 });
      if (It == P.end() || It->first != A.id() ||
          addOverflow128(V, Int128(Coeff) * It->second, V))
        return false;
    }
    if (Row.IsEq ? V != 0 : V < 0)
      return false;
  }
  return true;
}

void addPoint(Piece &P, const NamedPoint &Pt) {
  if (P.Points.size() < kPiecePoints)
    P.Points.push_back(Pt);
}

/// One emptiness solve of `P`. A `True` verdict's citations go to `CC`. A
/// `False` verdict's point, once checked against every row of the
/// flattened piece, joins `P` and, when given, `Parent`: a point of a
/// child lies in its parent too.
presburger::Ternary checkPiece(Piece &P, Piece *Parent,
                               const SparseRelation &R, unsigned Budget,
                               CoreCollector *CC) {
  static obs::Counter &Checks = obs::counter("ir.phase2_checks");
  Checks.add();
  SparseRelation Tmp = R;
  Tmp.Conj = P.Conj;
  Flattened F = flatten(Tmp);
  presburger::EmptinessCore EC;
  std::vector<int64_t> Witness;
  presburger::Ternary V =
      F.Set.isEmpty(Budget, CC ? &EC : nullptr, &Witness);
  if (V == presburger::Ternary::True) {
    notePieceEmpty(CC, F, P.Conj, EC);
  } else if (V == presburger::Ternary::False &&
             presburger::liesIn(F.Set, Witness)) {
    NamedPoint Pt;
    for (size_t J = 0; J < Witness.size(); ++J)
      Pt.emplace_back(F.Cols[J].id(), Witness[J]);
    std::sort(Pt.begin(), Pt.end());
    addPoint(P, Pt);
    if (Parent)
      addPoint(*Parent, Pt);
  }
  return V;
}

/// Conjoin a phase-2 instance (!A || C) onto a DNF piece list. When more
/// than `MaxPieces` children result, children with a point are kept as they
/// are and the rest are checked in order (cheap budget), dropping the
/// proven-empty ones; as soon as more than `MaxPieces` survive, the split
/// overflows. An overflowing split returns false and leaves `Pieces` in
/// place, apart from the points its solves gave them. Only an applied
/// split's pruned pieces are part of the proof, so their citations reach
/// `CC` only then.
bool applyDisjunctiveInstance(std::vector<Piece> &Pieces,
                              const AssertionInstance &Inst,
                              const SparseRelation &R,
                              const SimplifyOptions &Opts,
                              CoreCollector *CC) {
  static obs::Counter &WitnessSkips = obs::counter("ir.phase2_witness_skips");
  // Branch 1: the consequent holds. Branches 2..k: some antecedent
  // constraint fails.
  std::vector<std::vector<Constraint>> Branches{Inst.Consequent.constraints()};
  for (const Constraint &A : Inst.Antecedent.constraints()) {
    if (A.isEq()) {
      Branches.push_back({Constraint::geq(A.E - Expr(1))});
      Branches.push_back({Constraint::geq(-A.E - Expr(1))});
    } else {
      Branches.push_back({negateGeq(A)});
    }
  }
  std::vector<std::vector<NamedRow>> BranchRows(Branches.size());
  for (size_t B = 0; B < Branches.size(); ++B)
    for (const Constraint &C : Branches[B]) {
      NamedRow Row{C.isEq(), C.E.constant(), {}};
      for (const Expr::Term &T : C.E.terms())
        Row.Terms.emplace_back(T.Coeff, T.A);
      BranchRows[B].push_back(std::move(Row));
    }
  // A child takes each parent point that satisfies its branch.
  auto Inherit = [&](Piece &Child, const Piece &Parent, size_t B) {
    for (const NamedPoint &Pt : Parent.Points)
      if (satisfiesAll(Pt, BranchRows[B]))
        addPoint(Child, Pt);
  };

  struct Child {
    Piece P;
    size_t Parent, Branch;
  };
  std::vector<Child> Next;
  for (size_t I = 0; I < Pieces.size(); ++I)
    for (size_t B = 0; B < Branches.size(); ++B) {
      Child C{{Pieces[I].Conj, {}}, I, B};
      for (const Constraint &BC : Branches[B])
        C.P.Conj.add(BC);
      Inherit(C.P, Pieces[I], B);
      Next.push_back(std::move(C));
    }

  std::vector<bool> Keep(Next.size(), true);
  CoreCollector Split;
  if (Next.size() > Opts.MaxPieces) {
    size_t Survivors = 0;
    for (const Child &C : Next)
      Survivors += !C.P.Points.empty();
    WitnessSkips.add(Survivors);
    if (CC)
      Split.Origins = CC->Origins;
    for (size_t I = 0; I < Next.size() && Survivors <= Opts.MaxPieces; ++I) {
      Child &C = Next[I];
      if (!C.P.Points.empty())
        continue;
      // An earlier sibling's solve may have given the parent a point that
      // lies in this branch too.
      Inherit(C.P, Pieces[C.Parent], C.Branch);
      if (!C.P.Points.empty()) {
        WitnessSkips.add();
      } else if (checkPiece(C.P, &Pieces[C.Parent], R, /*Budget=*/8,
                            CC ? &Split : nullptr) ==
                 presburger::Ternary::True) {
        Keep[I] = false;
        continue;
      }
      ++Survivors;
    }
    if (Survivors > Opts.MaxPieces)
      return false;
  }
  if (CC) {
    CC->Labels.insert(CC->Labels.end(), Split.Labels.begin(),
                      Split.Labels.end());
    CC->Fine = CC->Fine && Split.Fine;
  }
  std::vector<Piece> Kept;
  for (size_t I = 0; I < Next.size(); ++I)
    if (Keep[I])
      Kept.push_back(std::move(Next[I].P));
  Pieces = std::move(Kept);
  return true;
}

bool allPiecesProvenEmpty(std::vector<Piece> &Pieces, const SparseRelation &R,
                          CoreCollector *CC) {
  for (const Piece &P : Pieces)
    if (!P.Points.empty())
      return false;
  for (Piece &P : Pieces)
    if (checkPiece(P, nullptr, R, kEmptinessBudget, CC) !=
        presburger::Ternary::True)
      return false;
  return true;
}

} // namespace

static bool provenUnsatWithAssertions(
    const SparseRelation &R, const std::vector<UniversalAssertion> &Assertions,
    const SimplifyOptions &Opts, InstantiationStats *Stats, UnsatCore *Core) {
  InstantiationStats Local;
  InstantiationStats &S = Stats ? *Stats : Local;
  size_t LabelsBefore = S.UsedLabels.size();

  OriginMap OriginsStorage;
  OriginMap *Origins = Core ? &OriginsStorage : nullptr;
  CoreCollector CCStorage;
  CCStorage.Origins = Origins;
  CoreCollector *CC = Core ? &CCStorage : nullptr;

  std::vector<AssertionInstance> Phase2;
  Conjunction Aug = instantiatePhase1(R.Conj, Assertions, Opts, &S, &Phase2,
                                      Origins);

  // Assemble the final core: the fine row-level citations when every piece
  // attributed cleanly, otherwise the coarse applied-instance trail (which
  // is always a sound superset — every derived row traces back to some
  // applied instance).
  auto Finish = [&](bool Proven) {
    if (!Core)
      return Proven;
    *Core = UnsatCore{};
    if (!Proven)
      return Proven;
    bool Fine = CC->Fine;
    for (const std::string &L : CC->Labels)
      if (L == OriginMap::unattributed())
        Fine = false;
    std::vector<std::string> Labels;
    if (Fine) {
      Labels = std::move(CC->Labels);
      Core->FromFarkas = true;
    } else {
      Labels.assign(S.UsedLabels.begin() + LabelsBefore, S.UsedLabels.end());
      Core->FromFarkas = false;
    }
    std::sort(Labels.begin(), Labels.end());
    Labels.erase(std::unique(Labels.begin(), Labels.end()), Labels.end());
    Core->Assertions = std::move(Labels);
    return Proven;
  };

  std::vector<Piece> Pieces{{Aug, {}}};
  if (allPiecesProvenEmpty(Pieces, R, CC))
    return Finish(true);

  // Phase 2: add disjunction-introducing instances under the caps.
  unsigned Used = 0;
  for (const AssertionInstance &Inst : Phase2) {
    if (Used >= Opts.MaxPhase2Instances)
      break;
    if (Origins) {
      // Branch literals are case assumptions: the split's own label pays
      // for their exhaustiveness, nothing else is needed.
      std::vector<std::string> L{Inst.Label + " [disjunctive]"};
      auto RegisterBranch = [&](const Constraint &BC) {
        if (!Origins->Base.count(BC))
          Origins->ConstraintOrigins.emplace(BC, L);
      };
      for (const Constraint &Q : Inst.Consequent.constraints())
        RegisterBranch(Q);
      for (const Constraint &A : Inst.Antecedent.constraints()) {
        if (A.isEq()) {
          RegisterBranch(Constraint::geq(A.E - Expr(1)));
          RegisterBranch(Constraint::geq(-A.E - Expr(1)));
        } else {
          RegisterBranch(negateGeq(A));
        }
      }
    }
    if (!applyDisjunctiveInstance(Pieces, Inst, R, Opts, CC)) {
      ++S.Dropped;
      continue;
    }
    ++Used;
    ++S.Phase2Used;
    S.UsedLabels.push_back(Inst.Label + " [disjunctive]");
    // Every applied split must be cited: the pieces only cover the whole
    // space because the split's instance (!A || C) holds.
    if (CC)
      CC->Labels.push_back(Inst.Label + " [disjunctive]");
    if (Pieces.empty())
      return Finish(true); // every disjunct pruned as empty
  }

  if (Used == 0)
    return Finish(false); // nothing new to try
  return Finish(allPiecesProvenEmpty(Pieces, R, CC));
}

namespace {

/// Greedy drop-and-recheck core minimization at property-base granularity:
/// re-prove without one base at a time (restricted to the bases still
/// believed necessary) and keep any smaller proof found. Each recheck
/// costs a full proof, so the loop is budget-capped.
void minimizeCore(const SparseRelation &R,
                  const std::vector<UniversalAssertion> &All,
                  const SimplifyOptions &Opts, UnsatCore &Core) {
  static obs::Counter &Trials = obs::counter("ir.core_trials");
  SimplifyOptions Sub = Opts;
  Sub.CoreMinimizeBudget = 0;
  std::set<std::string> AssertLabels;
  for (const UniversalAssertion &A : All)
    AssertLabels.insert(A.Label);
  std::set<std::string> Live;
  for (const std::string &L : Core.Assertions) {
    std::string B = labelBase(L);
    if (AssertLabels.count(B))
      Live.insert(B);
  }
  std::vector<std::string> Candidates(Live.begin(), Live.end());
  unsigned Budget = Opts.CoreMinimizeBudget;
  bool Complete = true;
  for (const std::string &B : Candidates) {
    if (!Live.count(B))
      continue; // already shed by an earlier successful recheck
    if (Budget == 0) {
      Complete = false;
      break;
    }
    --Budget;
    Trials.add();
    std::vector<UniversalAssertion> Subset;
    for (const UniversalAssertion &A : All)
      if (A.Label != B && Live.count(A.Label))
        Subset.push_back(A);
    UnsatCore Trial;
    if (!provenUnsatWithAssertions(R, Subset, Sub, nullptr, &Trial))
      continue;
    Core = std::move(Trial);
    Live.clear();
    for (const std::string &L : Core.Assertions) {
      std::string NB = labelBase(L);
      if (AssertLabels.count(NB))
        Live.insert(NB);
    }
  }
  Core.Minimized = Complete;
}

} // namespace

bool provenUnsat(const SparseRelation &R, const PropertySet &PS,
                 const SimplifyOptions &Opts, InstantiationStats *Stats,
                 UnsatCore *Core) {
  bool Proven = provenUnsatWithAssertions(R, PS.assertions(), Opts, Stats,
                                          Core);
  if (Proven && Core && Opts.CoreMinimizeBudget > 0)
    minimizeCore(R, PS.assertions(), Opts, *Core);
  return Proven;
}

bool provenUnsatAffineOnly(const SparseRelation &R,
                           const SimplifyOptions &Opts,
                           InstantiationStats *Stats, UnsatCore *Core) {
  // No property assertions: functional-consistency guards only (these are
  // always sound, independent of any domain knowledge), so any core here
  // needs no runtime validation at all.
  return provenUnsatWithAssertions(R, {}, Opts, Stats, Core);
}

} // namespace ir
} // namespace sds
