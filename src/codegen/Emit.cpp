//===- Emit.cpp - C source rendering of inspector plans -------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/codegen/Inspector.h"

namespace sds {
namespace codegen {

namespace {

/// C identifiers cannot contain primes: i' becomes ip.
std::string sanitize(const std::string &Name) {
  std::string Out;
  for (char C : Name)
    Out += (C == '\'') ? 'p' : C;
  return Out;
}

/// Render an Expr as C, with UF calls as array subscripts (col(k) ->
/// col[k]), matching the style of Figure 5.
std::string exprToC(const ir::Expr &E) {
  if (E.terms().empty())
    return std::to_string(E.constant());
  std::string Out;
  bool First = true;
  for (const ir::Expr::Term &T : E.terms()) {
    int64_t C = T.Coeff;
    if (First) {
      if (C == -1)
        Out += "-";
      else if (C != 1)
        Out += std::to_string(C) + "*";
    } else {
      Out += C > 0 ? " + " : " - ";
      int64_t A = C < 0 ? -C : C;
      if (A != 1)
        Out += std::to_string(A) + "*";
    }
    if (T.A.isVar()) {
      Out += sanitize(T.A.name());
    } else {
      Out += T.A.name() + "[";
      for (size_t I = 0; I < T.A.args().size(); ++I) {
        if (I)
          Out += ", ";
        Out += exprToC(T.A.args()[I]);
      }
      Out += "]";
    }
    First = false;
  }
  if (E.constant() != 0) {
    Out += E.constant() > 0 ? " + " : " - ";
    int64_t A = E.constant() < 0 ? -E.constant() : E.constant();
    Out += std::to_string(A);
  }
  return Out;
}

std::string boundMax(const std::vector<ir::Expr> &Lowers) {
  std::string Out = exprToC(Lowers[0]);
  for (size_t I = 1; I < Lowers.size(); ++I)
    Out = "max(" + Out + ", " + exprToC(Lowers[I]) + ")";
  return Out;
}

std::string boundMin(const std::vector<ir::Expr> &Uppers) {
  std::string Out = exprToC(Uppers[0]);
  for (size_t I = 1; I < Uppers.size(); ++I)
    Out = "min(" + Out + ", " + exprToC(Uppers[I]) + ")";
  return Out;
}

std::string guardToC(const ir::Constraint &C) {
  return exprToC(C.E) + (C.isEq() ? " == 0" : " >= 0");
}

} // namespace

std::string InspectorPlan::emitC(const std::string &FnName) const {
  if (!Valid)
    return "/* invalid plan: " + WhyInvalid + " */\n";
  std::string Out;
  Out += "// Generated wavefront inspector. Complexity: " + Cost.str() +
         "\n";
  Out += "// The outermost loop carries no dependence and may be run with\n"
         "// '#pragma omp parallel for' (see paper §6.1).\n";
  Out += "void " + FnName + "(DependenceGraph &dag) {\n";
  std::string Indent = "  ";
  unsigned OpenBraces = 0;
  for (const PlanVar &PV : Vars) {
    std::string V = sanitize(PV.Name);
    if (PV.K == PlanVar::Kind::Solved) {
      Out += Indent + "long " + V + " = " + exprToC(PV.Solved) + ";\n";
    } else {
      Out += Indent + "for (long " + V + " = " + boundMax(PV.Lowers) +
             "; " + V + " < " + boundMin(PV.Uppers) + "; " + V + "++) {\n";
      Indent += "  ";
      ++OpenBraces;
    }
    for (const ir::Constraint &G : PV.Guards) {
      Out += Indent + "if (!(" + guardToC(G) + ")) " +
             (OpenBraces ? "continue;" : "return;") + "\n";
    }
  }
  Out += Indent + "dag.addEdge(" + sanitize(SrcIter) + ", " +
         sanitize(DstIter) + ");\n";
  while (OpenBraces--) {
    Indent.resize(Indent.size() - 2);
    Out += Indent + "}\n";
  }
  Out += "}\n";
  return Out;
}

} // namespace codegen
} // namespace sds
