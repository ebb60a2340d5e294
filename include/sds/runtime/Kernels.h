//===- Kernels.h - Numeric kernels: serial and scheduled --------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Runnable counterparts of the Table-2 kernels: a serial reference
// implementation (the baseline of Table 5 / Figure 9) and an executor
// that runs a CompiledSchedule (Schedule.h) with OpenMP threads. The
// executors perform exactly the per-iteration work of the serial loops;
// reduction updates that may race within a wave use atomic updates (the
// dependence model in kernels/ excludes update-update ordering for this
// reason).
//
//===----------------------------------------------------------------------===//

#ifndef SDS_RUNTIME_KERNELS_H
#define SDS_RUNTIME_KERNELS_H

#include "sds/runtime/Matrix.h"
#include "sds/runtime/Schedule.h"
#include "sds/runtime/Wavefront.h"

#include <vector>

namespace sds {
namespace rt {

//===----------------------------------------------------------------------===//
// Serial references
//===----------------------------------------------------------------------===//

/// x := L^-1 b for lower-triangular CSR L (diagonal = last entry per row).
void forwardSolveCSRSerial(const CSRMatrix &L, const std::vector<double> &B,
                           std::vector<double> &X);

/// x := L^-1 b for lower-triangular CSC L (diagonal = first entry per col).
void forwardSolveCSCSerial(const CSCMatrix &L, const std::vector<double> &B,
                           std::vector<double> &X);

/// One Gauss-Seidel sweep on a general CSR matrix: x updated in place.
void gaussSeidelCSRSerial(const CSRMatrix &A, const std::vector<double> &B,
                          std::vector<double> &X);

/// y := A x.
void spmvCSRSerial(const CSRMatrix &A, const std::vector<double> &X,
                   std::vector<double> &Y);

/// In-place incomplete Cholesky (IC0) on the lower-triangular CSC pattern
/// (Figure 4's algorithm). Values of L overwrite `L.Val`.
void incompleteCholeskyCSCSerial(CSCMatrix &L);

/// In-place ILU0 on a general CSR matrix with full diagonal.
void incompleteLU0CSRSerial(CSRMatrix &A);

/// Left-looking Cholesky restricted to the static pattern of L (no fill):
/// numerically identical to IC0 but organized column-by-column with a
/// dense gather buffer, like Sympiler's static kernel.
void leftCholeskyCSCSerial(CSCMatrix &L);

//===----------------------------------------------------------------------===//
// Compiled-schedule executors
//===----------------------------------------------------------------------===//
//
// Run a CompiledSchedule of any kind (build one with buildSchedule())
// wave by wave, with a barrier between waves. All five produce the same
// results as their serial reference (bit-identical for the pull-based
// kernels; last-ulp for the two that use commutative atomic updates —
// DESIGN.md §14).

void forwardSolveCSRScheduled(const CSRMatrix &L, const std::vector<double> &B,
                              std::vector<double> &X,
                              const CompiledSchedule &S);
void forwardSolveCSCScheduled(const CSCMatrix &L, const std::vector<double> &B,
                              std::vector<double> &X,
                              const CompiledSchedule &S);
void gaussSeidelCSRScheduled(const CSRMatrix &A, const std::vector<double> &B,
                             std::vector<double> &X,
                             const CompiledSchedule &S);
void incompleteCholeskyCSCScheduled(CSCMatrix &L, const CompiledSchedule &S);
void leftCholeskyCSCScheduled(CSCMatrix &L, const CompiledSchedule &S);

//===----------------------------------------------------------------------===//
// Static structures
//===----------------------------------------------------------------------===//

/// Row-pattern index of a CSC lower factor ("prune sets"): for each row r,
/// the earlier columns k whose pattern contains r, and the position of r
/// inside column k. This is the pruneptr/pruneset structure the left-
/// looking Cholesky kernel and its inspectors consume.
struct PruneSets {
  std::vector<int> Ptr;   ///< size N+1
  std::vector<int> ColOf; ///< column k per entry
  std::vector<int> PosOf; ///< position of row r within column k
};

PruneSets buildPruneSets(const CSCMatrix &L);

//===----------------------------------------------------------------------===//
// Reference dependence graphs (for validating generated inspectors)
//===----------------------------------------------------------------------===//

/// Exact outer-iteration dependence graph of forward solve on L, computed
/// by brute force from the actual read/write sets (ground truth for
/// property tests).
DependenceGraph exactForwardSolveGraph(const CSCMatrix &L);

/// Ground-truth dependence graph for IC0/left-Cholesky on pattern L:
/// column j depends on every earlier column whose pattern reaches it.
DependenceGraph exactCholeskyGraph(const CSCMatrix &L);

} // namespace rt
} // namespace sds

#endif // SDS_RUNTIME_KERNELS_H
