//===- table3_complexity.cpp - Regenerate Table 3 --------------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// Table 3: per kernel, the total inspector complexity before simplification
// (every satisfiable dependence tested naively), the simplified inspector
// complexity (survivors only), and the kernel's own complexity.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "sds/deps/Pipeline.h"

#include <cstdio>
#include <map>

using namespace sds;
using namespace sds::deps;

namespace {

/// "2(nnz) + 1(n^2)" style sum-of-terms rendering.
std::string sumOfCosts(const std::map<std::string, unsigned> &Terms) {
  if (Terms.empty())
    return "0";
  std::string Out;
  for (const auto &[Cost, Count] : Terms) {
    if (!Out.empty())
      Out += " + ";
    Out += std::to_string(Count) + "(" + Cost + ")";
  }
  return Out;
}

} // namespace

int main() {
  bench::ObsSession Obs;
  bool Heavy = bench::envHeavy();
  std::printf("Table 3: impact of simplification on inspector complexity\n\n");
  for (const kernels::Kernel &K : kernels::allKernels()) {
    if (!Heavy && bench::heavyKernel(K))
      continue;
    PipelineResult R = analyzeKernel(K);
    std::map<std::string, unsigned> Before, After;
    for (const AnalyzedDependence &D : R.Deps) {
      if (D.Status == DepStatus::Runtime || D.Status == DepStatus::Subsumed)
        ++Before[D.CostBefore.str()];
      if (D.Status == DepStatus::Runtime)
        ++After[D.CostAfter.str()];
    }
    std::printf("%s\n", K.Name.c_str());
    std::printf("  inspector (all satisfiable checks): %s\n",
                sumOfCosts(Before).c_str());
    std::printf("  simplified inspector:               %s\n",
                sumOfCosts(After).c_str());
    std::printf("  kernel complexity:                  %s\n\n",
                R.KernelCost.str().c_str());
    std::fflush(stdout);
  }
  std::printf(
      "Paper reference (Table 3): e.g. Incomplete Cholesky simplifies to\n"
      "(nnz*(nnz/n)) + (nnz*(nnz/n)^2) against a kernel of "
      "K(nnz*(nnz/n)^2);\nILU keeps checks above its kernel complexity "
      "(handled by approximation\nin prior work).\n");
  return 0;
}
