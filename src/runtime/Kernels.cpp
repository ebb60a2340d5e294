//===- Kernels.cpp - Numeric kernels: serial and scheduled ----------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/runtime/Kernels.h"

#include "sds/obs/Metrics.h"
#include "sds/obs/Trace.h"

#include <cassert>
#include <cmath>
#include <optional>

#include "sds/support/OMP.h"

namespace sds {
namespace rt {

//===----------------------------------------------------------------------===//
// Serial references
//===----------------------------------------------------------------------===//

void forwardSolveCSRSerial(const CSRMatrix &L, const std::vector<double> &B,
                           std::vector<double> &X) {
  assert(static_cast<int>(B.size()) == L.N);
  X.assign(B.begin(), B.end());
  for (int I = 0; I < L.N; ++I) {
    double Tmp = B[static_cast<size_t>(I)];
    int End = L.RowPtr[I + 1] - 1; // diagonal last
    for (int K = L.RowPtr[I]; K < End; ++K)
      Tmp -= L.Val[static_cast<size_t>(K)] *
             X[static_cast<size_t>(L.Col[static_cast<size_t>(K)])];
    X[static_cast<size_t>(I)] = Tmp / L.Val[static_cast<size_t>(End)];
  }
}

void forwardSolveCSCSerial(const CSCMatrix &L, const std::vector<double> &B,
                           std::vector<double> &X) {
  assert(static_cast<int>(B.size()) == L.N);
  X.assign(B.begin(), B.end());
  for (int J = 0; J < L.N; ++J) {
    X[static_cast<size_t>(J)] /=
        L.Val[static_cast<size_t>(L.ColPtr[J])]; // diagonal first
    for (int P = L.ColPtr[J] + 1; P < L.ColPtr[J + 1]; ++P)
      X[static_cast<size_t>(L.RowIdx[static_cast<size_t>(P)])] -=
          L.Val[static_cast<size_t>(P)] * X[static_cast<size_t>(J)];
  }
}

void gaussSeidelCSRSerial(const CSRMatrix &A, const std::vector<double> &B,
                          std::vector<double> &X) {
  assert(static_cast<int>(B.size()) == A.N &&
         static_cast<int>(X.size()) == A.N);
  for (int I = 0; I < A.N; ++I) {
    double Sum = B[static_cast<size_t>(I)];
    double Diag = 0;
    for (int K = A.RowPtr[I]; K < A.RowPtr[I + 1]; ++K) {
      int C = A.Col[static_cast<size_t>(K)];
      if (C == I)
        Diag = A.Val[static_cast<size_t>(K)];
      else
        Sum -= A.Val[static_cast<size_t>(K)] * X[static_cast<size_t>(C)];
    }
    assert(Diag != 0 && "Gauss-Seidel needs a full diagonal");
    X[static_cast<size_t>(I)] = Sum / Diag;
  }
}

void spmvCSRSerial(const CSRMatrix &A, const std::vector<double> &X,
                   std::vector<double> &Y) {
  Y.assign(static_cast<size_t>(A.N), 0.0);
  for (int I = 0; I < A.N; ++I) {
    double Sum = 0;
    for (int K = A.RowPtr[I]; K < A.RowPtr[I + 1]; ++K)
      Sum += A.Val[static_cast<size_t>(K)] *
             X[static_cast<size_t>(A.Col[static_cast<size_t>(K)])];
    Y[static_cast<size_t>(I)] = Sum;
  }
}

namespace {

/// The body of one IC0 outer iteration (column I): scale column I, then
/// update every later column named by its off-diagonal rows. `Atomic`
/// selects atomic reduction updates (needed inside a wavefront).
template <bool Atomic>
void ic0Column(CSCMatrix &L, int I) {
  size_t DiagPos = static_cast<size_t>(L.ColPtr[I]);
  double D = std::sqrt(L.Val[DiagPos]);
  L.Val[DiagPos] = D;
  for (int M = L.ColPtr[I] + 1; M < L.ColPtr[I + 1]; ++M)
    L.Val[static_cast<size_t>(M)] /= D;
  for (int M = L.ColPtr[I] + 1; M < L.ColPtr[I + 1]; ++M) {
    int R = L.RowIdx[static_cast<size_t>(M)];
    double LMI = L.Val[static_cast<size_t>(M)];
    // A(:, R) -= L(R, I) * L(:, I) restricted to the static pattern.
    int K = L.ColPtr[R], LPos = M;
    while (K < L.ColPtr[R + 1] && LPos < L.ColPtr[I + 1]) {
      int RowK = L.RowIdx[static_cast<size_t>(K)];
      int RowL = L.RowIdx[static_cast<size_t>(LPos)];
      if (RowK == RowL) {
        double Delta = LMI * L.Val[static_cast<size_t>(LPos)];
        if (Atomic) {
#ifdef _OPENMP
#pragma omp atomic
#endif
          L.Val[static_cast<size_t>(K)] -= Delta;
        } else {
          L.Val[static_cast<size_t>(K)] -= Delta;
        }
        ++K;
        ++LPos;
      } else if (RowK < RowL) {
        ++K;
      } else {
        ++LPos;
      }
    }
  }
}

} // namespace

void incompleteCholeskyCSCSerial(CSCMatrix &L) {
  assert(L.isLowerTriangular() && "IC0 expects a lower-triangular pattern");
  for (int I = 0; I < L.N; ++I)
    ic0Column<false>(L, I);
}

void incompleteLU0CSRSerial(CSRMatrix &A) {
  std::vector<int> Diag = A.diagonalPositions();
  for (int I = 0; I < A.N; ++I)
    assert(Diag[static_cast<size_t>(I)] >= 0 && "ILU0 needs a full diagonal");
  for (int I = 1; I < A.N; ++I) {
    for (int K = A.RowPtr[I];
         K < A.RowPtr[I + 1] && A.Col[static_cast<size_t>(K)] < I; ++K) {
      int C = A.Col[static_cast<size_t>(K)];
      double Pivot =
          A.Val[static_cast<size_t>(Diag[static_cast<size_t>(C)])];
      double LIK = A.Val[static_cast<size_t>(K)] / Pivot;
      A.Val[static_cast<size_t>(K)] = LIK;
      // Row I (columns > C) -= LIK * row C (columns > C), no fill.
      int J = K + 1;
      int P = Diag[static_cast<size_t>(C)] + 1;
      while (J < A.RowPtr[I + 1] && P < A.RowPtr[C + 1]) {
        int ColJ = A.Col[static_cast<size_t>(J)];
        int ColP = A.Col[static_cast<size_t>(P)];
        if (ColJ == ColP) {
          A.Val[static_cast<size_t>(J)] -=
              LIK * A.Val[static_cast<size_t>(P)];
          ++J;
          ++P;
        } else if (ColJ < ColP) {
          ++J;
        } else {
          ++P;
        }
      }
    }
  }
}

PruneSets buildPruneSets(const CSCMatrix &L) {
  PruneSets R;
  R.Ptr.assign(static_cast<size_t>(L.N) + 1, 0);
  for (int J = 0; J < L.N; ++J)
    for (int P = L.ColPtr[J] + 1; P < L.ColPtr[J + 1]; ++P)
      ++R.Ptr[static_cast<size_t>(L.RowIdx[static_cast<size_t>(P)]) + 1];
  for (int I = 0; I < L.N; ++I)
    R.Ptr[static_cast<size_t>(I) + 1] += R.Ptr[static_cast<size_t>(I)];
  R.ColOf.resize(static_cast<size_t>(R.Ptr[static_cast<size_t>(L.N)]));
  R.PosOf.resize(R.ColOf.size());
  std::vector<int> Next(R.Ptr.begin(), R.Ptr.end() - 1);
  for (int J = 0; J < L.N; ++J)
    for (int P = L.ColPtr[J] + 1; P < L.ColPtr[J + 1]; ++P) {
      int Row = L.RowIdx[static_cast<size_t>(P)];
      int Slot = Next[static_cast<size_t>(Row)]++;
      R.ColOf[static_cast<size_t>(Slot)] = J;
      R.PosOf[static_cast<size_t>(Slot)] = P;
    }
  return R;
}

namespace {

/// One left-looking Cholesky column step using a dense gather buffer `W`
/// (caller provides a zeroed buffer; it is cleaned up before returning).
void leftCholColumn(CSCMatrix &L, const std::vector<double> &AVal,
                    const PruneSets &Rows, int J, std::vector<double> &W) {
  // Gather A(:, J) restricted to the pattern.
  for (int P = L.ColPtr[J]; P < L.ColPtr[J + 1]; ++P)
    W[static_cast<size_t>(L.RowIdx[static_cast<size_t>(P)])] =
        AVal[static_cast<size_t>(P)];
  // Updates from every earlier column K with L(J, K) != 0.
  for (int T = Rows.Ptr[static_cast<size_t>(J)];
       T < Rows.Ptr[static_cast<size_t>(J) + 1]; ++T) {
    int K = Rows.ColOf[static_cast<size_t>(T)];
    int PosJ = Rows.PosOf[static_cast<size_t>(T)];
    double LJK = L.Val[static_cast<size_t>(PosJ)];
    for (int P = PosJ; P < L.ColPtr[K + 1]; ++P)
      W[static_cast<size_t>(L.RowIdx[static_cast<size_t>(P)])] -=
          LJK * L.Val[static_cast<size_t>(P)];
  }
  // Scale.
  double D = std::sqrt(W[static_cast<size_t>(J)]);
  L.Val[static_cast<size_t>(L.ColPtr[J])] = D;
  for (int P = L.ColPtr[J] + 1; P < L.ColPtr[J + 1]; ++P) {
    int R = L.RowIdx[static_cast<size_t>(P)];
    L.Val[static_cast<size_t>(P)] = W[static_cast<size_t>(R)] / D;
  }
  // Scrub the buffer for reuse.
  for (int P = L.ColPtr[J]; P < L.ColPtr[J + 1]; ++P)
    W[static_cast<size_t>(L.RowIdx[static_cast<size_t>(P)])] = 0.0;
}

} // namespace

void leftCholeskyCSCSerial(CSCMatrix &L) {
  assert(L.isLowerTriangular());
  std::vector<double> AVal = L.Val; // original numerical values
  PruneSets Rows = buildPruneSets(L);
  std::vector<double> W(static_cast<size_t>(L.N), 0.0);
  for (int J = 0; J < L.N; ++J)
    leftCholColumn(L, AVal, Rows, J, W);
}

//===----------------------------------------------------------------------===//
// Compiled-schedule executors
//===----------------------------------------------------------------------===//

namespace {

/// The per-wave latency distribution (ns, barrier wait included), fed by
/// thread 0 of every barrier-mode executor run. One shared registry entry.
obs::Histogram &waveHistogram() {
  static obs::Histogram &H = obs::histogram("rt.wave_ns");
  return H;
}

/// Thread 0's per-wave span: opened before the wave's work, closed after
/// the barrier, so its duration includes the imbalance wait — exactly the
/// per-level execution time behind Figure 9. Inert (no clock reads, no
/// allocation) when tracing is off.
std::optional<obs::Span> waveSpan(int Thread, size_t Wave,
                                  const std::vector<std::vector<int>> &Parts) {
  if (Thread != 0 || !obs::enabled())
    return std::nullopt;
  std::optional<obs::Span> Sp;
  Sp.emplace("wavefront.wave", "rt");
  Sp->tag("wave", static_cast<int64_t>(Wave));
  uint64_t Nodes = 0;
  for (const auto &Part : Parts)
    Nodes += Part.size();
  Sp->tag("nodes", static_cast<int64_t>(Nodes));
  return Sp;
}

/// Barrier stall distribution (ns, per thread per wave), recorded only
/// when the metrics registry is on: the time each thread waits in the
/// per-wave barrier for the slowest partition (imbalance wait).
obs::Histogram &barrierStallHistogram() {
  static obs::Histogram &H = obs::histogram("rt.barrier_stall_ns");
  return H;
}

/// Run `Body(Node, Thread)` once per node of the schedule: one OpenMP
/// thread per partition, a barrier between waves. `Thread` is the
/// executing team member, always < the schedule's partition width.
template <typename BodyFn>
void runCompiledSchedule(const CompiledSchedule &CS, BodyFn &&Body) {
  const WavefrontSchedule &S = CS.Waves;
  int NumThreads = S.Waves.empty() ? 1 : static_cast<int>(S.Waves[0].size());
  obs::Span Total("wavefront.execute", "rt");
  Total.tag("waves", static_cast<int64_t>(S.Waves.size()));
  Total.tag("threads", static_cast<int64_t>(NumThreads));
  Total.tag("kind", scheduleKindName(CS.Config.Kind));
#ifdef _OPENMP
#pragma omp parallel num_threads(NumThreads)
#endif
  {
    int T = omp_get_thread_num();
    // Strided so a smaller team (notably the serial one-thread team of an
    // OpenMP-off build) still covers every partition of the wave.
    size_t Team = static_cast<size_t>(omp_get_num_threads());
    for (size_t W = 0; W < S.Waves.size(); ++W) {
      const auto &Wave = S.Waves[W];
      std::optional<obs::Span> Sp = waveSpan(T, W, Wave);
      uint64_t WT0 = (T == 0 && obs::metricsEnabled()) ? obs::nowNs() : 0;
      for (size_t P = static_cast<size_t>(T); P < Wave.size(); P += Team)
        for (int Node : Wave[P])
          Body(Node, T);
      uint64_t BT0 = obs::metricsEnabled() ? obs::nowNs() : 0;
#ifdef _OPENMP
#pragma omp barrier
#endif
      if (BT0)
        barrierStallHistogram().record(obs::nowNs() - BT0);
      if (WT0)
        waveHistogram().record(obs::nowNs() - WT0);
    }
  }
}

} // namespace

void forwardSolveCSRScheduled(const CSRMatrix &L, const std::vector<double> &B,
                              std::vector<double> &X,
                              const CompiledSchedule &S) {
  X.assign(B.begin(), B.end());
  double *XP = X.data();
  runCompiledSchedule(S, [&](int I, int) {
    double Tmp = B[static_cast<size_t>(I)];
    int End = L.RowPtr[I + 1] - 1;
    for (int K = L.RowPtr[I]; K < End; ++K)
      Tmp -= L.Val[static_cast<size_t>(K)] * XP[L.Col[static_cast<size_t>(K)]];
    XP[I] = Tmp / L.Val[static_cast<size_t>(End)];
  });
}

void forwardSolveCSCScheduled(const CSCMatrix &L, const std::vector<double> &B,
                              std::vector<double> &X,
                              const CompiledSchedule &S) {
  X.assign(B.begin(), B.end());
  double *XP = X.data();
  runCompiledSchedule(S, [&](int J, int) {
    XP[J] /= L.Val[static_cast<size_t>(L.ColPtr[J])];
    double XJ = XP[J];
    for (int P = L.ColPtr[J] + 1; P < L.ColPtr[J + 1]; ++P) {
      double Delta = L.Val[static_cast<size_t>(P)] * XJ;
      // Columns of one wave may update the same row; the updates
      // commute, so the atomic only has to make each one whole.
#ifdef _OPENMP
#pragma omp atomic
#endif
      XP[L.RowIdx[static_cast<size_t>(P)]] -= Delta;
    }
  });
}

void gaussSeidelCSRScheduled(const CSRMatrix &A, const std::vector<double> &B,
                             std::vector<double> &X,
                             const CompiledSchedule &S) {
  double *XP = X.data();
  runCompiledSchedule(S, [&](int I, int) {
    double Sum = B[static_cast<size_t>(I)];
    double Diag = 0;
    for (int K = A.RowPtr[I]; K < A.RowPtr[I + 1]; ++K) {
      int C = A.Col[static_cast<size_t>(K)];
      if (C == I)
        Diag = A.Val[static_cast<size_t>(K)];
      else
        Sum -= A.Val[static_cast<size_t>(K)] * XP[C];
    }
    XP[I] = Sum / Diag;
  });
}

void incompleteCholeskyCSCScheduled(CSCMatrix &L, const CompiledSchedule &S) {
  runCompiledSchedule(S, [&](int I, int) { ic0Column<true>(L, I); });
}

void leftCholeskyCSCScheduled(CSCMatrix &L, const CompiledSchedule &S) {
  std::vector<double> AVal = L.Val;
  PruneSets Rows = buildPruneSets(L);
  int NumThreads = S.Waves.Waves.empty()
                       ? 1
                       : static_cast<int>(S.Waves.Waves[0].size());
  // One dense gather buffer per executing thread (thread ids are always
  // < the schedule's partition width).
  std::vector<std::vector<double>> W(
      static_cast<size_t>(NumThreads),
      std::vector<double>(static_cast<size_t>(L.N), 0.0));
  runCompiledSchedule(S, [&](int J, int T) {
    leftCholColumn(L, AVal, Rows, J, W[static_cast<size_t>(T)]);
  });
}

//===----------------------------------------------------------------------===//
// Ground-truth dependence graphs
//===----------------------------------------------------------------------===//

DependenceGraph exactForwardSolveGraph(const CSCMatrix &L) {
  DependenceGraph G(L.N);
  // Iteration J updates X at every off-diagonal row of column J; iteration
  // R reads/writes X[R]. Update-update pairs commute.
  for (int J = 0; J < L.N; ++J)
    for (int P = L.ColPtr[J] + 1; P < L.ColPtr[J + 1]; ++P)
      G.addEdge(J, L.RowIdx[static_cast<size_t>(P)]);
  G.finalize();
  return G;
}

DependenceGraph exactCholeskyGraph(const CSCMatrix &L) {
  // Column R is updated using column J exactly when L(R, J) != 0, R > J
  // (static no-fill pattern).
  DependenceGraph G(L.N);
  for (int J = 0; J < L.N; ++J)
    for (int P = L.ColPtr[J] + 1; P < L.ColPtr[J + 1]; ++P)
      G.addEdge(J, L.RowIdx[static_cast<size_t>(P)]);
  G.finalize();
  return G;
}

} // namespace rt
} // namespace sds
