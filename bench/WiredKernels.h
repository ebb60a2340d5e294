//===- WiredKernels.h - Kernel wiring for end-to-end benches ----*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The five kernels of §8.1 (SpMV is fully parallel, ILU0's inspector stays
// too expensive — both excluded, as in the paper), each wired to: its
// compile-time analysis, its index-array bindings on a concrete matrix,
// its serial body, and its executor over a CompiledSchedule.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_BENCH_WIREDKERNELS_H
#define SDS_BENCH_WIREDKERNELS_H

#include "BenchCommon.h"
#include "sds/runtime/Kernels.h"
#include "sds/runtime/Schedule.h"

#include <algorithm>
#include <functional>
#include <memory>

namespace bench {

struct WiredKernel {
  std::string Name;
  bool Heavy = false; ///< analysis takes minutes (IC0)
  /// Pull-based kernels (each value produced by exactly one node in serial
  /// accumulation order) are bit-identical under any schedule shape; the
  /// push-based ones use commutative atomic updates and match to 1e-9.
  bool PullBased = false;
  sds::deps::PipelineResult Analysis;
  /// Per matrix: (bindings, serial body, scheduled body).
  struct Instance {
    sds::codegen::UFEnvironment Env;
    int N = 0;
    std::function<void()> Serial;
    /// Executor over a schedule of any kind (buildSchedule()).
    std::function<void(const sds::rt::CompiledSchedule &)> Scheduled;
    /// Reset mutable state a run consumes (e.g. Gauss-Seidel's x); empty
    /// when runs are naturally idempotent.
    std::function<void()> Reset;
    /// Snapshot of the kernel's numeric result after a run, for
    /// bit-identity / tolerance comparisons across schedule shapes.
    std::function<std::vector<double>()> Output;
    /// Node costs for load balancing (work per outer iteration).
    std::vector<double> NodeCost;
  };
  std::function<Instance(const BenchMatrix &)> Wire;
};

/// Build the §8 kernel list. Each `Wire` call owns copies of whatever
/// state its closures need (shared_ptr-held), so instances outlive the
/// BenchMatrix reference scope. `IncludeHeavy` controls whether the
/// minutes-long Incomplete Cholesky analysis runs.
inline std::vector<WiredKernel> wiredKernels(bool IncludeHeavy = true) {
  using namespace sds;
  using namespace sds::rt;
  std::vector<WiredKernel> Out;

  {
    WiredKernel W;
    W.Name = "FS CSC";
    W.Analysis = deps::analyzeKernel(kernels::forwardSolveCSC());
    W.Wire = [](const BenchMatrix &M) {
      WiredKernel::Instance I;
      auto L = std::make_shared<CSCMatrix>(M.LowerC);
      auto B = std::make_shared<std::vector<double>>(
          static_cast<size_t>(L->N), 1.0);
      auto X = std::make_shared<std::vector<double>>();
      I.Env = driver::bindCSC(*L);
      I.N = L->N;
      I.Serial = [=] { forwardSolveCSCSerial(*L, *B, *X); };
      I.Scheduled = [=](const CompiledSchedule &S) {
        forwardSolveCSCScheduled(*L, *B, *X, S);
      };
      I.Output = [=] { return *X; };
      for (int J = 0; J < L->N; ++J)
        I.NodeCost.push_back(L->ColPtr[J + 1] - L->ColPtr[J]);
      return I;
    };
    Out.push_back(std::move(W));
  }
  {
    WiredKernel W;
    W.Name = "FS CSR";
    W.PullBased = true;
    W.Analysis = deps::analyzeKernel(kernels::forwardSolveCSR());
    W.Wire = [](const BenchMatrix &M) {
      WiredKernel::Instance I;
      auto L = std::make_shared<CSRMatrix>(M.Lower);
      auto B = std::make_shared<std::vector<double>>(
          static_cast<size_t>(L->N), 1.0);
      auto X = std::make_shared<std::vector<double>>();
      I.Env = driver::bindCSR(*L);
      I.N = L->N;
      I.Serial = [=] { forwardSolveCSRSerial(*L, *B, *X); };
      I.Scheduled = [=](const CompiledSchedule &S) {
        forwardSolveCSRScheduled(*L, *B, *X, S);
      };
      I.Output = [=] { return *X; };
      for (int J = 0; J < L->N; ++J)
        I.NodeCost.push_back(L->RowPtr[J + 1] - L->RowPtr[J]);
      return I;
    };
    Out.push_back(std::move(W));
  }
  {
    WiredKernel W;
    W.Name = "GS CSR";
    W.PullBased = true;
    W.Analysis = deps::analyzeKernel(kernels::gaussSeidelCSR());
    W.Wire = [](const BenchMatrix &M) {
      WiredKernel::Instance I;
      auto A = std::make_shared<CSRMatrix>(M.Full);
      auto B = std::make_shared<std::vector<double>>(
          static_cast<size_t>(A->N), 1.0);
      auto X = std::make_shared<std::vector<double>>(
          static_cast<size_t>(A->N), 0.0);
      I.Env = driver::bindCSR(*A, A->diagonalPositions());
      I.N = A->N;
      I.Serial = [=] { gaussSeidelCSRSerial(*A, *B, *X); };
      I.Scheduled = [=](const CompiledSchedule &S) {
        gaussSeidelCSRScheduled(*A, *B, *X, S);
      };
      I.Reset = [=] { std::fill(X->begin(), X->end(), 0.0); };
      I.Output = [=] { return *X; };
      for (int J = 0; J < A->N; ++J)
        I.NodeCost.push_back(A->RowPtr[J + 1] - A->RowPtr[J]);
      return I;
    };
    Out.push_back(std::move(W));
  }
  if (IncludeHeavy) {
    WiredKernel W;
    W.Name = "In. Chol.";
    W.Heavy = true;
    W.Analysis = deps::analyzeKernel(kernels::incompleteCholeskyCSC());
    W.Wire = [](const BenchMatrix &M) {
      WiredKernel::Instance I;
      auto L = std::make_shared<CSCMatrix>(M.LowerC);
      auto Original = std::make_shared<std::vector<double>>(L->Val);
      I.Env = driver::bindCSC(*L);
      I.N = L->N;
      I.Serial = [=] {
        L->Val = *Original;
        incompleteCholeskyCSCSerial(*L);
      };
      I.Scheduled = [=](const CompiledSchedule &S) {
        L->Val = *Original;
        incompleteCholeskyCSCScheduled(*L, S);
      };
      I.Output = [=] { return L->Val; };
      // Column cost ~ nnz of the column times its density window.
      for (int J = 0; J < L->N; ++J) {
        double C = L->ColPtr[J + 1] - L->ColPtr[J];
        I.NodeCost.push_back(C * C);
      }
      return I;
    };
    Out.push_back(std::move(W));
  }
  {
    WiredKernel W;
    W.Name = "L. Chol.";
    W.PullBased = true;
    W.Analysis = deps::analyzeKernel(kernels::leftCholeskyCSC());
    W.Wire = [](const BenchMatrix &M) {
      WiredKernel::Instance I;
      auto L = std::make_shared<CSCMatrix>(M.LowerC);
      auto Original = std::make_shared<std::vector<double>>(L->Val);
      auto Prune = std::make_shared<PruneSets>(buildPruneSets(*L));
      I.Env = driver::bindCSC(*L, Prune.get());
      I.N = L->N;
      I.Serial = [=] {
        L->Val = *Original;
        leftCholeskyCSCSerial(*L);
      };
      I.Scheduled = [=](const CompiledSchedule &S) {
        L->Val = *Original;
        leftCholeskyCSCScheduled(*L, S);
      };
      I.Output = [=] { return L->Val; };
      for (int J = 0; J < L->N; ++J) {
        double C = L->ColPtr[J + 1] - L->ColPtr[J];
        double U = Prune->Ptr[static_cast<size_t>(J) + 1] -
                   Prune->Ptr[static_cast<size_t>(J)];
        I.NodeCost.push_back(C + U * C);
      }
      return I;
    };
    Out.push_back(std::move(W));
  }
  return Out;
}

} // namespace bench

#endif // SDS_BENCH_WIREDKERNELS_H
