//===- Artifact.cpp - Versioned compile-once/run-many artifacts -----------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The CompiledKernel codec. Encoding is structural (expression trees, not
// re-parsed text) so a decoded artifact is field-for-field identical to
// the encoded one: conjunctions rebuild through Conjunction::add in
// serialized order, expressions rebuild through the canonicalizing Expr
// constructors, and nothing on the decode path touches the Presburger
// layer. Decoding validates every field and fails with a contextful
// Status; the caller-visible artifact is only assigned on full success.
//
//===----------------------------------------------------------------------===//

#include "sds/artifact/Artifact.h"

#include "sds/ir/Properties.h"
#include "sds/obs/FlightRecorder.h"
#include "sds/obs/Metrics.h"
#include "sds/support/Hash.h"
#include "sds/support/JSON.h"

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

namespace sds {
namespace artifact {

using json::Array;
using json::Object;
using json::Value;
using support::Status;

namespace {

constexpr const char *kMagic = "sds.compiled_kernel";

/// FNV-1a 64-bit over a byte string, rendered as 16 lowercase hex digits.
std::string fnv1aHex(std::string_view S) {
  uint64_t H = support::fnv1a64(S);
  char Buf[17];
  static const char *Hex = "0123456789abcdef";
  for (int I = 15; I >= 0; --I) {
    Buf[I] = Hex[H & 0xf];
    H >>= 4;
  }
  Buf[16] = '\0';
  return Buf;
}

//===----------------------------------------------------------------------===//
// Encoding
//===----------------------------------------------------------------------===//

Value exprJSON(const ir::Expr &E) {
  Object O;
  O.emplace("c", Value(E.constant()));
  if (!E.terms().empty()) {
    Array Terms;
    for (const ir::Expr::Term &T : E.terms()) {
      Array Pair;
      Pair.push_back(Value(T.Coeff));
      Object A;
      if (T.A.isVar()) {
        A.emplace("v", Value(T.A.name()));
      } else {
        A.emplace("f", Value(T.A.name()));
        if (!T.A.args().empty()) {
          Array Args;
          for (const ir::Expr &Arg : T.A.args())
            Args.push_back(exprJSON(Arg));
          A.emplace("a", Value(std::move(Args)));
        }
      }
      Pair.push_back(Value(std::move(A)));
      Terms.push_back(Value(std::move(Pair)));
    }
    O.emplace("t", Value(std::move(Terms)));
  }
  return Value(std::move(O));
}

Value constraintJSON(const ir::Constraint &C) {
  Array Pair;
  Pair.push_back(Value(std::string(C.isEq() ? "eq" : "ge")));
  Pair.push_back(exprJSON(C.E));
  return Value(std::move(Pair));
}

Value conjunctionJSON(const ir::Conjunction &Conj) {
  Array Out;
  for (const ir::Constraint &C : Conj.constraints())
    Out.push_back(constraintJSON(C));
  return Value(std::move(Out));
}

Value stringsJSON(const std::vector<std::string> &Ss) {
  Array Out;
  for (const std::string &S : Ss)
    Out.push_back(Value(S));
  return Value(std::move(Out));
}

Value relationJSON(const ir::SparseRelation &R) {
  Object O;
  if (!R.Name.empty())
    O.emplace("name", Value(R.Name));
  if (!R.InVars.empty())
    O.emplace("in", stringsJSON(R.InVars));
  if (!R.OutVars.empty())
    O.emplace("out", stringsJSON(R.OutVars));
  if (!R.ExistVars.empty())
    O.emplace("exist", stringsJSON(R.ExistVars));
  O.emplace("conj", conjunctionJSON(R.Conj));
  return Value(std::move(O));
}

bool isDefaultRelation(const ir::SparseRelation &R) {
  return R.Name.empty() && R.InVars.empty() && R.OutVars.empty() &&
         R.ExistVars.empty() && R.Conj.empty();
}

Value complexityJSON(const codegen::Complexity &C) {
  Array Pair;
  Pair.push_back(Value(static_cast<int64_t>(C.NExp)));
  Pair.push_back(Value(static_cast<int64_t>(C.DExp)));
  return Value(std::move(Pair));
}

Value planJSON(const codegen::InspectorPlan &P) {
  Object O;
  O.emplace("valid", Value(P.Valid));
  if (!P.WhyInvalid.empty())
    O.emplace("why", Value(P.WhyInvalid));
  if (!P.Valid)
    return Value(std::move(O));
  O.emplace("src", Value(P.SrcIter));
  O.emplace("dst", Value(P.DstIter));
  O.emplace("cost", complexityJSON(P.Cost));
  Array Vars;
  for (const codegen::PlanVar &V : P.Vars) {
    Object VO;
    VO.emplace("name", Value(V.Name));
    VO.emplace("kind", Value(std::string(
                           V.K == codegen::PlanVar::Kind::Loop ? "loop"
                                                               : "solved")));
    if (V.K == codegen::PlanVar::Kind::Solved)
      VO.emplace("solved", exprJSON(V.Solved));
    if (!V.Lowers.empty()) {
      Array Lo;
      for (const ir::Expr &E : V.Lowers)
        Lo.push_back(exprJSON(E));
      VO.emplace("lo", Value(std::move(Lo)));
    }
    if (!V.Uppers.empty()) {
      Array Up;
      for (const ir::Expr &E : V.Uppers)
        Up.push_back(exprJSON(E));
      VO.emplace("up", Value(std::move(Up)));
    }
    if (!V.Guards.empty()) {
      Array Gs;
      for (const ir::Constraint &C : V.Guards)
        Gs.push_back(constraintJSON(C));
      VO.emplace("guards", Value(std::move(Gs)));
    }
    VO.emplace("range", complexityJSON(V.Range));
    Vars.push_back(Value(std::move(VO)));
  }
  O.emplace("vars", Value(std::move(Vars)));
  return Value(std::move(O));
}

bool isDefaultPlan(const codegen::InspectorPlan &P) {
  return !P.Valid && P.WhyInvalid.empty() && P.Vars.empty();
}

Value provenanceJSON(const obs::Provenance &P) {
  Object O;
  O.emplace("stage", Value(P.Stage));
  if (!P.Evidence.empty())
    O.emplace("evidence", stringsJSON(P.Evidence));
  O.emplace("seconds", Value(P.Seconds));
  return Value(std::move(O));
}

Value analyzedDepJSON(const deps::AnalyzedDependence &D) {
  Object O;
  Object Dep;
  Dep.emplace("rel", relationJSON(D.Dep.Rel));
  Dep.emplace("array", Value(D.Dep.Array));
  Dep.emplace("src_stmt", Value(D.Dep.SrcStmt));
  Dep.emplace("dst_stmt", Value(D.Dep.DstStmt));
  Dep.emplace("src_access", Value(D.Dep.SrcAccess));
  Dep.emplace("dst_access", Value(D.Dep.DstAccess));
  Dep.emplace("src_write", Value(D.Dep.SrcIsWrite));
  Dep.emplace("dst_write", Value(D.Dep.DstIsWrite));
  O.emplace("dep", Value(std::move(Dep)));
  O.emplace("status", Value(deps::depStatusName(D.Status)));
  if (!isDefaultRelation(D.Simplified))
    O.emplace("simplified", relationJSON(D.Simplified));
  if (D.NewEqualities)
    O.emplace("new_equalities", Value(static_cast<int64_t>(D.NewEqualities)));
  O.emplace("cost_before", complexityJSON(D.CostBefore));
  O.emplace("cost_after", complexityJSON(D.CostAfter));
  if (!D.SubsumedBy.empty())
    O.emplace("subsumed_by", Value(D.SubsumedBy));
  if (!isDefaultPlan(D.Plan))
    O.emplace("plan", planJSON(D.Plan));
  if (D.Approximated)
    O.emplace("approximated", Value(true));
  if (!D.Prov.Stage.empty() || !D.Prov.Evidence.empty())
    O.emplace("prov", provenanceJSON(D.Prov));
  // The unsat core justifying this dependence's verdict: the guard's trust
  // base, so it is required on decode.
  Object Core;
  if (!D.Core.Assertions.empty())
    Core.emplace("assertions", stringsJSON(D.Core.Assertions));
  Core.emplace("minimized", Value(D.Core.Minimized));
  Core.emplace("farkas", Value(D.Core.FromFarkas));
  O.emplace("core", Value(std::move(Core)));
  if (D.Remediable) {
    // Additive speculation fields: which Inferred-tier assertion bases this
    // dependence's verdict leans on. Loaders that predate them ignore the
    // keys; older blobs decode with Remediable == false.
    O.emplace("remediable", Value(true));
    O.emplace("inferred_cited", stringsJSON(D.InferredCited));
  }
  return Value(std::move(O));
}

Value propertySetJSON(const ir::PropertySet &PS) {
  Object O;
  Array Props;
  for (const ir::IndexArrayProperty &P : PS.properties()) {
    Object PO;
    PO.emplace("kind", Value(ir::propertyKindName(P.K)));
    PO.emplace("fn", Value(P.Fn));
    if (!P.Other.empty())
      PO.emplace("other", Value(P.Other));
    if (P.GuardLo)
      PO.emplace("glo", exprJSON(*P.GuardLo));
    if (P.GuardHi)
      PO.emplace("ghi", exprJSON(*P.GuardHi));
    // Additive trust-tier field, omitted for Declared so pre-speculation
    // artifacts stay byte-identical; blobs without it decode as Declared.
    if (P.Tier != ir::PropertyTier::Declared)
      PO.emplace("tier", Value(ir::propertyTierName(P.Tier)));
    Props.push_back(Value(std::move(PO)));
  }
  O.emplace("props", Value(std::move(Props)));
  Array Ranges;
  for (const ir::DomainRangeDecl &D : PS.domainRanges()) {
    Object RO;
    RO.emplace("fn", Value(D.Fn));
    if (D.DomLo)
      RO.emplace("dlo", exprJSON(*D.DomLo));
    if (D.DomHi)
      RO.emplace("dhi", exprJSON(*D.DomHi));
    if (D.RanLo)
      RO.emplace("rlo", exprJSON(*D.RanLo));
    if (D.RanHi)
      RO.emplace("rhi", exprJSON(*D.RanHi));
    if (D.Tier != ir::PropertyTier::Declared)
      RO.emplace("tier", Value(ir::propertyTierName(D.Tier)));
    Ranges.push_back(Value(std::move(RO)));
  }
  O.emplace("ranges", Value(std::move(Ranges)));
  return Value(std::move(O));
}

Value payloadJSON(const CompiledKernel &CK) {
  Object Root;
  Object Kernel;
  Kernel.emplace("name", Value(CK.KernelName));
  Kernel.emplace("format", Value(CK.Format));
  if (!CK.Source.empty())
    Kernel.emplace("source", Value(CK.Source));
  Kernel.emplace("cost", complexityJSON(CK.KernelCost));
  Root.emplace("kernel", Value(std::move(Kernel)));
  Object Opts;
  Opts.emplace("properties", Value(CK.Options.UseProperties));
  Opts.emplace("equalities", Value(CK.Options.UseEqualities));
  Opts.emplace("subsets", Value(CK.Options.UseSubsets));
  Opts.emplace("approximate", Value(CK.Options.ApproximateExpensive));
  // Additive: emitted only when on so non-speculated artifacts keep their
  // pre-speculation byte layout; absent decodes to false.
  if (CK.Options.Speculate)
    Opts.emplace("infer", Value(true));
  Root.emplace("options", Value(std::move(Opts)));
  Root.emplace("properties", propertySetJSON(CK.Properties));
  Array Deps;
  for (const deps::AnalyzedDependence &D : CK.Deps)
    Deps.push_back(analyzedDepJSON(D));
  Root.emplace("deps", Value(std::move(Deps)));
  Object Stages;
  for (size_t I = 0; I < schema::kNumStageKeys; ++I) {
    auto It = CK.StageSeconds.find(schema::kStageKeys[I]);
    Stages.emplace(schema::kStageKeys[I],
                   Value(It == CK.StageSeconds.end() ? 0.0 : It->second));
  }
  // Preserve any non-standard keys too (forward compatibility).
  for (const auto &[Stage, Seconds] : CK.StageSeconds)
    Stages.emplace(Stage, Value(Seconds)); // no-op for existing keys
  Root.emplace("stage_seconds", Value(std::move(Stages)));
  Object Sched;
  Sched.emplace("kind",
                Value(std::string(rt::scheduleKindName(CK.Schedule.Kind))));
  Sched.emplace("min_work_per_thread", Value(CK.Schedule.MinWorkPerThread));
  Sched.emplace("coalesce_factor", Value(CK.Schedule.CoalesceFactor));
  Root.emplace("schedule", Value(std::move(Sched)));
  // Additive: the inference fingerprint a speculated analysis ran against,
  // as 16 hex digits (uint64 range exceeds JSON's signed-int lane). Absent
  // decodes to 0 — pre-speculation blobs load as Declared-only.
  if (CK.InferredFingerprint) {
    char Buf[17];
    std::snprintf(Buf, sizeof(Buf), "%016llx",
                  static_cast<unsigned long long>(CK.InferredFingerprint));
    Root.emplace("inferred_fingerprint", Value(std::string(Buf)));
  }
  return Value(std::move(Root));
}

//===----------------------------------------------------------------------===//
// Decoding
//===----------------------------------------------------------------------===//

const Value *find(const Object &O, const char *Key) {
  auto It = O.find(Key);
  return It == O.end() ? nullptr : &It->second;
}

Status fieldError(const char *Key, const char *Want) {
  return support::parseError(std::string("field '") + Key + "': expected " +
                             Want);
}
Status missing(const char *Key) {
  return support::parseError(std::string("missing field '") + Key + "'");
}

Status reqObj(const Object &O, const char *Key, const Object *&Out) {
  const Value *V = find(O, Key);
  if (!V)
    return missing(Key);
  if (!V->isObject())
    return fieldError(Key, "object");
  Out = &V->asObject();
  return {};
}

Status reqArr(const Object &O, const char *Key, const Array *&Out) {
  const Value *V = find(O, Key);
  if (!V)
    return missing(Key);
  if (!V->isArray())
    return fieldError(Key, "array");
  Out = &V->asArray();
  return {};
}

Status reqStr(const Object &O, const char *Key, std::string &Out) {
  const Value *V = find(O, Key);
  if (!V)
    return missing(Key);
  if (!V->isString())
    return fieldError(Key, "string");
  Out = V->asString();
  return {};
}

Status optStr(const Object &O, const char *Key, std::string &Out) {
  const Value *V = find(O, Key);
  if (!V)
    return {};
  if (!V->isString())
    return fieldError(Key, "string");
  Out = V->asString();
  return {};
}

Status reqBool(const Object &O, const char *Key, bool &Out) {
  const Value *V = find(O, Key);
  if (!V)
    return missing(Key);
  if (!V->isBool())
    return fieldError(Key, "bool");
  Out = V->asBool();
  return {};
}

Status optBool(const Object &O, const char *Key, bool &Out) {
  const Value *V = find(O, Key);
  if (!V)
    return {};
  if (!V->isBool())
    return fieldError(Key, "bool");
  Out = V->asBool();
  return {};
}

Status reqInt(const Object &O, const char *Key, int64_t &Out) {
  const Value *V = find(O, Key);
  if (!V)
    return missing(Key);
  if (!V->isInt())
    return fieldError(Key, "integer");
  Out = V->asInt();
  return {};
}

Status reqNum(const Object &O, const char *Key, double &Out) {
  const Value *V = find(O, Key);
  if (!V)
    return missing(Key);
  if (!V->isNumber())
    return fieldError(Key, "number");
  Out = V->asDouble();
  return {};
}

Status decodeExpr(const Value &V, ir::Expr &Out);

Status decodeExprList(const Value &V, const char *What,
                      std::vector<ir::Expr> &Out) {
  if (!V.isArray())
    return fieldError(What, "array");
  for (const Value &E : V.asArray()) {
    ir::Expr X;
    if (Status S = decodeExpr(E, X); !S.ok())
      return S.withContext(What);
    Out.push_back(std::move(X));
  }
  return {};
}

Status decodeExpr(const Value &V, ir::Expr &Out) {
  if (!V.isObject())
    return support::parseError("expression: expected object");
  const Object &O = V.asObject();
  int64_t C = 0;
  if (Status S = reqInt(O, "c", C); !S.ok())
    return S;
  ir::Expr E(C);
  if (const Value *T = find(O, "t")) {
    if (!T->isArray())
      return fieldError("t", "array");
    for (const Value &Term : T->asArray()) {
      if (!Term.isArray() || Term.asArray().size() != 2)
        return support::parseError("term: expected [coeff, atom] pair");
      const Value &CoeffV = Term.asArray()[0];
      const Value &AtomV = Term.asArray()[1];
      if (!CoeffV.isInt())
        return support::parseError("term coefficient: expected integer");
      if (!AtomV.isObject())
        return support::parseError("term atom: expected object");
      const Object &A = AtomV.asObject();
      if (const Value *Var = find(A, "v")) {
        if (!Var->isString())
          return fieldError("v", "string");
        E += ir::Expr(CoeffV.asInt(), ir::Atom::var(Var->asString()));
      } else if (const Value *Fn = find(A, "f")) {
        if (!Fn->isString())
          return fieldError("f", "string");
        std::vector<ir::Expr> Args;
        if (const Value *ArgsV = find(A, "a"))
          if (Status S = decodeExprList(*ArgsV, "a", Args); !S.ok())
            return S;
        E += ir::Expr(CoeffV.asInt(),
                      ir::Atom::call(Fn->asString(), std::move(Args)));
      } else {
        return support::parseError("term atom: needs 'v' or 'f'");
      }
    }
  }
  Out = std::move(E);
  return {};
}

Status decodeConstraint(const Value &V, ir::Constraint &Out) {
  if (!V.isArray() || V.asArray().size() != 2)
    return support::parseError("constraint: expected [kind, expr] pair");
  const Value &KindV = V.asArray()[0];
  if (!KindV.isString())
    return support::parseError("constraint kind: expected string");
  ir::Constraint::Kind K;
  if (KindV.asString() == "eq")
    K = ir::Constraint::Kind::Eq;
  else if (KindV.asString() == "ge")
    K = ir::Constraint::Kind::Geq;
  else
    return support::parseError("constraint kind: unknown '" +
                               KindV.asString() + "'");
  ir::Expr E;
  if (Status S = decodeExpr(V.asArray()[1], E); !S.ok())
    return S;
  Out = {K, std::move(E)};
  return {};
}

Status decodeConjunction(const Value &V, ir::Conjunction &Out) {
  if (!V.isArray())
    return support::parseError("conjunction: expected array");
  for (const Value &CV : V.asArray()) {
    ir::Constraint C{ir::Constraint::Kind::Eq, ir::Expr()};
    if (Status S = decodeConstraint(CV, C); !S.ok())
      return S;
    Out.add(std::move(C));
  }
  return {};
}

Status decodeStrings(const Object &O, const char *Key,
                     std::vector<std::string> &Out) {
  const Value *V = find(O, Key);
  if (!V)
    return {};
  if (!V->isArray())
    return fieldError(Key, "array");
  for (const Value &S : V->asArray()) {
    if (!S.isString())
      return fieldError(Key, "array of strings");
    Out.push_back(S.asString());
  }
  return {};
}

Status decodeRelation(const Value &V, ir::SparseRelation &Out) {
  if (!V.isObject())
    return support::parseError("relation: expected object");
  const Object &O = V.asObject();
  ir::SparseRelation R;
  if (Status S = optStr(O, "name", R.Name); !S.ok())
    return S;
  if (Status S = decodeStrings(O, "in", R.InVars); !S.ok())
    return S;
  if (Status S = decodeStrings(O, "out", R.OutVars); !S.ok())
    return S;
  if (Status S = decodeStrings(O, "exist", R.ExistVars); !S.ok())
    return S;
  const Value *Conj = find(O, "conj");
  if (!Conj)
    return missing("conj");
  if (Status S = decodeConjunction(*Conj, R.Conj); !S.ok())
    return S.withContext("conj");
  Out = std::move(R);
  return {};
}

Status decodeComplexity(const Value &V, codegen::Complexity &Out) {
  if (!V.isArray() || V.asArray().size() != 2 || !V.asArray()[0].isInt() ||
      !V.asArray()[1].isInt())
    return support::parseError("complexity: expected [n_exp, d_exp]");
  Out.NExp = static_cast<int>(V.asArray()[0].asInt());
  Out.DExp = static_cast<int>(V.asArray()[1].asInt());
  return {};
}

Status reqComplexity(const Object &O, const char *Key,
                     codegen::Complexity &Out) {
  const Value *V = find(O, Key);
  if (!V)
    return missing(Key);
  return decodeComplexity(*V, Out).withContext(Key);
}

Status decodePlan(const Value &V, codegen::InspectorPlan &Out) {
  if (!V.isObject())
    return support::parseError("plan: expected object");
  const Object &O = V.asObject();
  codegen::InspectorPlan P;
  if (Status S = reqBool(O, "valid", P.Valid); !S.ok())
    return S;
  if (Status S = optStr(O, "why", P.WhyInvalid); !S.ok())
    return S;
  if (!P.Valid) {
    Out = std::move(P);
    return {};
  }
  if (Status S = reqStr(O, "src", P.SrcIter); !S.ok())
    return S;
  if (Status S = reqStr(O, "dst", P.DstIter); !S.ok())
    return S;
  if (Status S = reqComplexity(O, "cost", P.Cost); !S.ok())
    return S;
  const Array *Vars = nullptr;
  if (Status S = reqArr(O, "vars", Vars); !S.ok())
    return S;
  for (size_t I = 0; I < Vars->size(); ++I) {
    const Value &VV = (*Vars)[I];
    std::string Ctx = "vars[" + std::to_string(I) + "]";
    if (!VV.isObject())
      return support::parseError(Ctx + ": expected object");
    const Object &VO = VV.asObject();
    codegen::PlanVar PV;
    if (Status S = reqStr(VO, "name", PV.Name); !S.ok())
      return S.withContext(Ctx);
    std::string Kind;
    if (Status S = reqStr(VO, "kind", Kind); !S.ok())
      return S.withContext(Ctx);
    if (Kind == "loop")
      PV.K = codegen::PlanVar::Kind::Loop;
    else if (Kind == "solved")
      PV.K = codegen::PlanVar::Kind::Solved;
    else
      return support::parseError(Ctx + ": unknown plan-var kind '" + Kind +
                                 "'");
    if (PV.K == codegen::PlanVar::Kind::Solved) {
      const Value *Solved = find(VO, "solved");
      if (!Solved)
        return support::parseError(Ctx + ": solved var needs 'solved'");
      if (Status S = decodeExpr(*Solved, PV.Solved); !S.ok())
        return S.withContext(Ctx);
    }
    if (const Value *Lo = find(VO, "lo"))
      if (Status S = decodeExprList(*Lo, "lo", PV.Lowers); !S.ok())
        return S.withContext(Ctx);
    if (const Value *Up = find(VO, "up"))
      if (Status S = decodeExprList(*Up, "up", PV.Uppers); !S.ok())
        return S.withContext(Ctx);
    if (const Value *Gs = find(VO, "guards")) {
      if (!Gs->isArray())
        return support::parseError(Ctx + ": 'guards' must be an array");
      for (const Value &GV : Gs->asArray()) {
        ir::Constraint C{ir::Constraint::Kind::Eq, ir::Expr()};
        if (Status S = decodeConstraint(GV, C); !S.ok())
          return S.withContext(Ctx);
        PV.Guards.push_back(std::move(C));
      }
    }
    if (Status S = reqComplexity(VO, "range", PV.Range); !S.ok())
      return S.withContext(Ctx);
    P.Vars.push_back(std::move(PV));
  }
  Out = std::move(P);
  return {};
}

Status decodeStatus(const std::string &Name, deps::DepStatus &Out) {
  if (Name == "affine-unsat")
    Out = deps::DepStatus::AffineUnsat;
  else if (Name == "property-unsat")
    Out = deps::DepStatus::PropertyUnsat;
  else if (Name == "subsumed")
    Out = deps::DepStatus::Subsumed;
  else if (Name == "runtime")
    Out = deps::DepStatus::Runtime;
  else
    return support::parseError("unknown dependence status '" + Name + "'");
  return {};
}

Status decodeAnalyzedDep(const Value &V, deps::AnalyzedDependence &Out) {
  if (!V.isObject())
    return support::parseError("expected object");
  const Object &O = V.asObject();
  deps::AnalyzedDependence D;
  const Object *Dep = nullptr;
  if (Status S = reqObj(O, "dep", Dep); !S.ok())
    return S;
  {
    const Value *Rel = find(*Dep, "rel");
    if (!Rel)
      return missing("dep.rel");
    if (Status S = decodeRelation(*Rel, D.Dep.Rel); !S.ok())
      return S.withContext("dep.rel");
    if (Status S = reqStr(*Dep, "array", D.Dep.Array); !S.ok())
      return S.withContext("dep");
    if (Status S = reqStr(*Dep, "src_stmt", D.Dep.SrcStmt); !S.ok())
      return S.withContext("dep");
    if (Status S = reqStr(*Dep, "dst_stmt", D.Dep.DstStmt); !S.ok())
      return S.withContext("dep");
    if (Status S = reqStr(*Dep, "src_access", D.Dep.SrcAccess); !S.ok())
      return S.withContext("dep");
    if (Status S = reqStr(*Dep, "dst_access", D.Dep.DstAccess); !S.ok())
      return S.withContext("dep");
    if (Status S = reqBool(*Dep, "src_write", D.Dep.SrcIsWrite); !S.ok())
      return S.withContext("dep");
    if (Status S = reqBool(*Dep, "dst_write", D.Dep.DstIsWrite); !S.ok())
      return S.withContext("dep");
  }
  std::string StatusName;
  if (Status S = reqStr(O, "status", StatusName); !S.ok())
    return S;
  if (Status S = decodeStatus(StatusName, D.Status); !S.ok())
    return S;
  if (const Value *Simp = find(O, "simplified"))
    if (Status S = decodeRelation(*Simp, D.Simplified); !S.ok())
      return S.withContext("simplified");
  if (const Value *NE = find(O, "new_equalities")) {
    if (!NE->isInt() || NE->asInt() < 0)
      return fieldError("new_equalities", "non-negative integer");
    D.NewEqualities = static_cast<unsigned>(NE->asInt());
  }
  if (Status S = reqComplexity(O, "cost_before", D.CostBefore); !S.ok())
    return S;
  if (Status S = reqComplexity(O, "cost_after", D.CostAfter); !S.ok())
    return S;
  if (Status S = optStr(O, "subsumed_by", D.SubsumedBy); !S.ok())
    return S;
  if (const Value *Plan = find(O, "plan"))
    if (Status S = decodePlan(*Plan, D.Plan); !S.ok())
      return S.withContext("plan");
  if (Status S = optBool(O, "approximated", D.Approximated); !S.ok())
    return S;
  if (const Value *Prov = find(O, "prov")) {
    if (!Prov->isObject())
      return fieldError("prov", "object");
    const Object &PO = Prov->asObject();
    if (Status S = reqStr(PO, "stage", D.Prov.Stage); !S.ok())
      return S.withContext("prov");
    if (Status S = decodeStrings(PO, "evidence", D.Prov.Evidence); !S.ok())
      return S.withContext("prov");
    if (Status S = reqNum(PO, "seconds", D.Prov.Seconds); !S.ok())
      return S.withContext("prov");
  }
  const Object *Core = nullptr;
  if (Status S = reqObj(O, "core", Core); !S.ok())
    return S;
  if (Status S = decodeStrings(*Core, "assertions", D.Core.Assertions);
      !S.ok())
    return S.withContext("core");
  // The analysis never lets its unattributed-constraint sentinel (the
  // '\x01'-prefixed ir::OriginMap::unattributed()) into a core; a label
  // carrying it would hide which property a proof leans on.
  for (const std::string &L : D.Core.Assertions)
    if (!L.empty() && L[0] == '\x01')
      return fieldError("assertions", "attributed labels")
          .withContext("core");
  if (Status S = reqBool(*Core, "minimized", D.Core.Minimized); !S.ok())
    return S.withContext("core");
  if (Status S = reqBool(*Core, "farkas", D.Core.FromFarkas); !S.ok())
    return S.withContext("core");
  if (Status S = optBool(O, "remediable", D.Remediable); !S.ok())
    return S;
  if (Status S = decodeStrings(O, "inferred_cited", D.InferredCited); !S.ok())
    return S;
  Out = std::move(D);
  return {};
}

Status optExprField(const Object &O, const char *Key,
                    std::optional<ir::Expr> &Out) {
  const Value *V = find(O, Key);
  if (!V)
    return {};
  ir::Expr E;
  if (Status S = decodeExpr(*V, E); !S.ok())
    return S.withContext(Key);
  Out = std::move(E);
  return {};
}

Status decodePropertySet(const Value &V, ir::PropertySet &Out) {
  if (!V.isObject())
    return support::parseError("properties: expected object");
  const Object &O = V.asObject();
  ir::PropertySet PS;
  const Array *Props = nullptr;
  if (Status S = reqArr(O, "props", Props); !S.ok())
    return S;
  for (size_t I = 0; I < Props->size(); ++I) {
    std::string Ctx = "props[" + std::to_string(I) + "]";
    const Value &PV = (*Props)[I];
    if (!PV.isObject())
      return support::parseError(Ctx + ": expected object");
    const Object &PO = PV.asObject();
    ir::IndexArrayProperty P{ir::PropertyKind::MonotonicIncreasing, "", "",
                             {}, {}};
    std::string Kind;
    if (Status S = reqStr(PO, "kind", Kind); !S.ok())
      return S.withContext(Ctx);
    std::optional<ir::PropertyKind> K = ir::parsePropertyKind(Kind);
    if (!K)
      return support::parseError(Ctx + ": unknown property kind '" + Kind +
                                 "'");
    P.K = *K;
    if (Status S = reqStr(PO, "fn", P.Fn); !S.ok())
      return S.withContext(Ctx);
    if (Status S = optStr(PO, "other", P.Other); !S.ok())
      return S.withContext(Ctx);
    if (Status S = optExprField(PO, "glo", P.GuardLo); !S.ok())
      return S.withContext(Ctx);
    if (Status S = optExprField(PO, "ghi", P.GuardHi); !S.ok())
      return S.withContext(Ctx);
    std::string TierName;
    if (Status S = optStr(PO, "tier", TierName); !S.ok())
      return S.withContext(Ctx);
    if (!TierName.empty()) {
      std::optional<ir::PropertyTier> T = ir::parsePropertyTier(TierName);
      if (!T)
        return support::parseError(Ctx + ": unknown property tier '" +
                                   TierName + "'");
      P.Tier = *T;
    }
    PS.add(std::move(P));
  }
  const Array *Ranges = nullptr;
  if (Status S = reqArr(O, "ranges", Ranges); !S.ok())
    return S;
  for (size_t I = 0; I < Ranges->size(); ++I) {
    std::string Ctx = "ranges[" + std::to_string(I) + "]";
    const Value &RV = (*Ranges)[I];
    if (!RV.isObject())
      return support::parseError(Ctx + ": expected object");
    const Object &RO = RV.asObject();
    ir::DomainRangeDecl D;
    if (Status S = reqStr(RO, "fn", D.Fn); !S.ok())
      return S.withContext(Ctx);
    if (Status S = optExprField(RO, "dlo", D.DomLo); !S.ok())
      return S.withContext(Ctx);
    if (Status S = optExprField(RO, "dhi", D.DomHi); !S.ok())
      return S.withContext(Ctx);
    if (Status S = optExprField(RO, "rlo", D.RanLo); !S.ok())
      return S.withContext(Ctx);
    if (Status S = optExprField(RO, "rhi", D.RanHi); !S.ok())
      return S.withContext(Ctx);
    std::string TierName;
    if (Status S = optStr(RO, "tier", TierName); !S.ok())
      return S.withContext(Ctx);
    if (!TierName.empty()) {
      std::optional<ir::PropertyTier> T = ir::parsePropertyTier(TierName);
      if (!T)
        return support::parseError(Ctx + ": unknown property tier '" +
                                   TierName + "'");
      D.Tier = *T;
    }
    PS.addDomainRange(std::move(D));
  }
  Out = std::move(PS);
  return {};
}

Status decodePayload(const Value &V, CompiledKernel &Out) {
  if (!V.isObject())
    return support::parseError("payload: expected object");
  const Object &O = V.asObject();
  CompiledKernel CK;
  const Object *Kernel = nullptr;
  if (Status S = reqObj(O, "kernel", Kernel); !S.ok())
    return S;
  if (Status S = reqStr(*Kernel, "name", CK.KernelName); !S.ok())
    return S.withContext("kernel");
  if (Status S = reqStr(*Kernel, "format", CK.Format); !S.ok())
    return S.withContext("kernel");
  if (Status S = optStr(*Kernel, "source", CK.Source); !S.ok())
    return S.withContext("kernel");
  if (Status S = reqComplexity(*Kernel, "cost", CK.KernelCost); !S.ok())
    return S.withContext("kernel");
  const Object *Opts = nullptr;
  if (Status S = reqObj(O, "options", Opts); !S.ok())
    return S;
  if (Status S = reqBool(*Opts, "properties", CK.Options.UseProperties);
      !S.ok())
    return S.withContext("options");
  if (Status S = reqBool(*Opts, "equalities", CK.Options.UseEqualities);
      !S.ok())
    return S.withContext("options");
  if (Status S = reqBool(*Opts, "subsets", CK.Options.UseSubsets); !S.ok())
    return S.withContext("options");
  if (Status S =
          reqBool(*Opts, "approximate", CK.Options.ApproximateExpensive);
      !S.ok())
    return S.withContext("options");
  if (Status S = optBool(*Opts, "infer", CK.Options.Speculate); !S.ok())
    return S.withContext("options");
  const Value *Props = find(O, "properties");
  if (!Props)
    return missing("properties");
  if (Status S = decodePropertySet(*Props, CK.Properties); !S.ok())
    return S.withContext("properties");
  const Array *Deps = nullptr;
  if (Status S = reqArr(O, "deps", Deps); !S.ok())
    return S;
  CK.Deps.reserve(Deps->size());
  for (size_t I = 0; I < Deps->size(); ++I) {
    deps::AnalyzedDependence D;
    if (Status S = decodeAnalyzedDep((*Deps)[I], D); !S.ok())
      return S.withContext("deps[" + std::to_string(I) + "]");
    CK.Deps.push_back(std::move(D));
  }
  const Object *Stages = nullptr;
  if (Status S = reqObj(O, "stage_seconds", Stages); !S.ok())
    return S;
  for (const auto &[Stage, Seconds] : *Stages) {
    if (!Seconds.isNumber())
      return support::parseError("stage_seconds['" + Stage +
                                 "']: expected number");
    CK.StageSeconds[Stage] = Seconds.asDouble();
  }
  // Optional (additive in-version): blobs predating the schedule plan
  // dimension decode to the default config.
  if (const Value *SchedV = find(O, "schedule")) {
    if (!SchedV->isObject())
      return fieldError("schedule", "object");
    const Object &Sched = SchedV->asObject();
    std::string Kind;
    if (Status S = reqStr(Sched, "kind", Kind); !S.ok())
      return S.withContext("schedule");
    std::optional<rt::ScheduleKind> K = rt::parseScheduleKind(Kind);
    if (!K)
      return support::parseError("schedule.kind: unknown kind '" + Kind +
                                 "'");
    CK.Schedule.Kind = *K;
    if (Status S = reqNum(Sched, "min_work_per_thread",
                          CK.Schedule.MinWorkPerThread);
        !S.ok())
      return S.withContext("schedule");
    if (Status S =
            reqNum(Sched, "coalesce_factor", CK.Schedule.CoalesceFactor);
        !S.ok())
      return S.withContext("schedule");
  }
  std::string FpHex;
  if (Status S = optStr(O, "inferred_fingerprint", FpHex); !S.ok())
    return S;
  if (!FpHex.empty()) {
    if (FpHex.size() != 16 ||
        FpHex.find_first_not_of("0123456789abcdef") != std::string::npos)
      return support::parseError(
          "inferred_fingerprint: expected 16 lowercase hex digits");
    uint64_t Fp = 0;
    for (char C : FpHex)
      Fp = (Fp << 4) | static_cast<uint64_t>(C <= '9' ? C - '0'
                                                      : C - 'a' + 10);
    CK.InferredFingerprint = Fp;
  }
  Out = std::move(CK);
  return {};
}

} // namespace

std::string AnalysisOptions::key() const {
  std::string K;
  K += UseProperties ? 'P' : '-';
  K += UseEqualities ? 'E' : '-';
  K += UseSubsets ? 'S' : '-';
  K += ApproximateExpensive ? 'A' : '-';
  K += Speculate ? 'I' : '-';
  return K;
}

std::string CompiledKernel::summary() const {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.3g", analysisSeconds());
  return KernelName + " [" + Options.key() + "]: " +
         std::to_string(Deps.size()) + " deps (" +
         std::to_string(count(deps::DepStatus::Runtime)) + " runtime, " +
         std::to_string(count(deps::DepStatus::AffineUnsat)) +
         " affine-unsat, " +
         std::to_string(count(deps::DepStatus::PropertyUnsat)) +
         " property-unsat, " + std::to_string(count(deps::DepStatus::Subsumed)) +
         " subsumed), analyzed in " + Buf + "s";
}

CompiledKernel fromAnalysis(deps::PipelineResult Analysis,
                            const deps::PipelineOptions &Opts) {
  CompiledKernel CK;
  CK.KernelName = std::move(Analysis.Kernel.Name);
  CK.Format = std::move(Analysis.Kernel.Format);
  CK.Source = std::move(Analysis.Kernel.Source);
  CK.KernelCost = Analysis.KernelCost;
  CK.Options = AnalysisOptions::of(Opts);
  CK.Properties = std::move(Analysis.Kernel.Properties);
  CK.Deps = std::move(Analysis.Deps);
  CK.StageSeconds = std::move(Analysis.StageSeconds);
  return CK;
}

CompiledKernel compile(const kernels::Kernel &K,
                       const deps::PipelineOptions &Opts) {
  return fromAnalysis(deps::analyzeKernel(K, Opts), Opts);
}

std::string abiFingerprint() {
  // Everything the payload encodes by *name or position*: a build whose
  // enums/tables differ decodes these blobs differently, so its
  // fingerprint must differ too.
  std::string Blob = "dep:";
  for (deps::DepStatus S :
       {deps::DepStatus::AffineUnsat, deps::DepStatus::PropertyUnsat,
        deps::DepStatus::Subsumed, deps::DepStatus::Runtime})
    Blob += deps::depStatusName(S) + ",";
  Blob += ";prop:";
  for (int K = 0; K <= static_cast<int>(ir::PropertyKind::SegmentStartIdentity);
       ++K)
    Blob += ir::propertyKindName(static_cast<ir::PropertyKind>(K)) + ",";
  Blob += ";stages:";
  for (size_t I = 0; I < schema::kNumStageKeys; ++I)
    Blob += std::string(schema::kStageKeys[I]) + ",";
  Blob += ";plan:loop,solved;constraint:eq,ge";
  Blob += ";sched:";
  for (rt::ScheduleKind K :
       {rt::ScheduleKind::Levels, rt::ScheduleKind::LBC,
        rt::ScheduleKind::Coalesced})
    Blob += std::string(rt::scheduleKindName(K)) + ",";
  return "v" + std::to_string(schema::kVersion) + "-" + fnv1aHex(Blob);
}

std::string serialize(const CompiledKernel &CK) {
  Value Payload = payloadJSON(CK);
  std::string PayloadText = Payload.str();
  Object Root;
  Root.emplace("magic", Value(std::string(kMagic)));
  Root.emplace("schema_version", Value(schema::kVersion));
  Root.emplace("abi", Value(abiFingerprint()));
  Root.emplace("checksum", Value(fnv1aHex(PayloadText)));
  Root.emplace("payload", std::move(Payload));
  return Value(std::move(Root)).str();
}

Status deserialize(std::string_view Text, CompiledKernel &Out) {
  json::ParseResult P = json::parse(Text);
  if (!P.Ok)
    return support::parseError("line " + std::to_string(P.Line) + ":" +
                               std::to_string(P.Col) + ": " + P.Error)
        .withContext("artifact");
  if (!P.Val.isObject())
    return support::parseError("artifact: expected a JSON object envelope");
  const Object &Root = P.Val.asObject();

  std::string Magic;
  if (Status S = reqStr(Root, "magic", Magic); !S.ok())
    return S.withContext("artifact");
  if (Magic != kMagic)
    return support::invalidArgument("artifact: not a compiled-kernel blob "
                                    "(magic '" +
                                    Magic + "')");
  int64_t Version = 0;
  if (Status S = reqInt(Root, "schema_version", Version); !S.ok())
    return S.withContext("artifact");
  if (Version != schema::kVersion)
    return support::invalidArgument(
        "artifact: schema version " + std::to_string(Version) +
        " incompatible with reader version " +
        std::to_string(schema::kVersion));
  std::string Abi;
  if (Status S = reqStr(Root, "abi", Abi); !S.ok())
    return S.withContext("artifact");
  if (Abi != abiFingerprint())
    return support::invalidArgument("artifact: ABI fingerprint '" + Abi +
                                    "' does not match this build's '" +
                                    abiFingerprint() + "'");
  std::string Checksum;
  if (Status S = reqStr(Root, "checksum", Checksum); !S.ok())
    return S.withContext("artifact");
  const Value *Payload = find(Root, "payload");
  if (!Payload)
    return support::parseError("artifact: missing field 'payload'");
  // The canonical text of the re-serialized payload reproduces the bytes
  // the producer hashed (sorted keys, deterministic number rendering), so
  // any content-altering corruption — even one that still parses — fails
  // here.
  if (fnv1aHex(Payload->str()) != Checksum)
    return support::invalidArgument(
        "artifact: payload checksum mismatch (corrupt blob)");

  CompiledKernel CK;
  if (Status S = decodePayload(*Payload, CK); !S.ok())
    return S.withContext("artifact payload");
  Out = std::move(CK);
  return {};
}

Status save(const CompiledKernel &CK, const std::string &Path) {
  static obs::Histogram &SaveNs = obs::histogram("artifact.save_ns");
  obs::ScopedLatency Lat(SaveNs);
  std::ofstream File(Path, std::ios::binary);
  if (!File)
    return support::ioError("cannot open for writing").withContext(
        "save '" + Path + "'");
  File << serialize(CK) << "\n";
  File.flush();
  if (!File)
    return support::ioError("write failed").withContext("save '" + Path +
                                                        "'");
  return {};
}

Status load(const std::string &Path, CompiledKernel &Out) {
  static obs::Histogram &LoadNs = obs::histogram("artifact.load_ns");
  obs::ScopedLatency Lat(LoadNs);
  auto Reject = [&](Status S) {
    obs::flightRecord(obs::FlightSeverity::Error, "artifact",
                      "artifact rejected",
                      {{"path", Path}, {"status", S.message()}});
    return S;
  };
  std::ifstream File(Path, std::ios::binary);
  if (!File)
    return Reject(
        support::ioError("cannot open").withContext("load '" + Path + "'"));
  std::stringstream SS;
  SS << File.rdbuf();
  if (File.bad())
    return Reject(
        support::ioError("read failed").withContext("load '" + Path + "'"));
  Status S = deserialize(SS.str(), Out).withContext("load '" + Path + "'");
  if (!S.ok())
    return Reject(std::move(S));
  return S;
}

} // namespace artifact
} // namespace sds
