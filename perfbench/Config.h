//===- Config.h - Fixed parameters of the benchmark workloads ---*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Every rate, repetition count and limit is an absolute value fixed here,
// never calibrated per run, so two runs of the same code offer the same
// load. Changing any of them changes the benchmark: re-measure the
// baseline after such a change.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_PERFBENCH_CONFIG_H
#define SDS_PERFBENCH_CONFIG_H

namespace pb {

/// Table-4 matrix scale (columns x Scale, nnz per column kept).
inline constexpr double kScale = 0.02;
/// solve: scale of the Left Cholesky cells. Its guarded inspection falls
/// back to the baseline inspector on every generated matrix (the declared
/// strict monotonicity of pruneptr fails: column 0 has an empty prune
/// set), and that inspector takes about 140 s on one scale-0.02 cell.
inline constexpr double kLcholScale = 0.0025;
/// Threads in total for every workload, generator included.
inline constexpr int kThreads = 4;

inline constexpr const char *kCompileKernels[] = {"spmv_csr", "fs_csr",
                                                  "fs_csc", "gs_csr",
                                                  "lchol_csc"};
inline constexpr const char *kSolveKernels[] = {"fs_csc", "fs_csr", "gs_csr",
                                                "lchol_csc"};
/// Left Cholesky stays out of serve: its 120-380 ms inspections would set
/// the whole latency tail.
inline constexpr const char *kServeKernels[] = {"fs_csc", "fs_csr",
                                                "gs_csr"};

/// Dependence tallies of each kernel's analysis at the engine-default
/// options: the Figure 7/8 outcome per kernel. A compile whose tallies
/// differ counts as failed.
struct ExpectedTally {
  const char *Id;
  unsigned AffineUnsat, PropertyUnsat, Subsumed, Runtime;
};
inline constexpr ExpectedTally kExpectedTallies[] = {
    {"spmv_csr", 1, 0, 0, 0},  {"fs_csr", 1, 1, 0, 1},
    {"fs_csc", 3, 2, 1, 1},    {"gs_csr", 1, 0, 0, 2},
    {"lchol_csc", 0, 10, 0, 2},
};

/// Each kernel is cold-compiled again until its compiles add up to
/// kCompileBudgetS or it has been compiled kMaxCompiles times; its compile
/// time is the mean.
inline constexpr double kCompileBudgetS = 3.0;
inline constexpr int kMaxCompiles = 20;

/// compile: set-up (building the kernel specifications) is timed once
/// every kSetupPeriodS over the whole run; the timings are dealt into
/// kSetupGroups groups.
inline constexpr double kSetupPeriodS = 0.01;
inline constexpr int kSetupGroups = 5;

/// compile: warm starts per kernel at least, and the share of --seconds
/// the warm-start loop runs for after the cold compiles.
inline constexpr int kCompileWarmRounds = 40;
inline constexpr double kCompileWarmShare = 0.15;
/// solve / serve set-up: warm starts per kernel.
inline constexpr int kSetupWarmRounds = 20;

/// solve: R, the executor runs each cell's plan is amortized over.
/// Figure 10 puts the solvers' break-even at 40-60 runs, so R sits above.
inline constexpr int kSolveRuns = 100;
/// solve: atomic (push-based) executors must match serial to this.
inline constexpr double kAtomicTolerance = 1e-9;

/// serve: population = kServeKernels x 5 profiles x kServeMatrixSeeds,
/// Zipf-popular with exponent kZipfS, larger than the engine's matrix
/// tier so that misses fill the tier and evict from it.
inline constexpr int kServeMatrixSeeds = 8;
inline constexpr double kZipfS = 1.0;
inline constexpr int kServeMaxPlans = 64;
inline constexpr int kServeWorkers = kThreads - 1; // plus the generator
inline constexpr int kServeQueueDepth = 4096;      // never shed by design
/// serve: open-loop rates (requests/s), well below the knee (about
/// 250-300 requests/s with three workers), and the latency limit the
/// ladder's rungs must meet, at p99 and for draining the queue.
inline constexpr double kLowRps = 50;
inline constexpr double kHighRps = 150;
inline constexpr double kLadderRps[] = {150, 200, 250, 300};
inline constexpr double kP99LimitMs = 150;
/// serve: share of --seconds per phase. Warm-up fills the matrix tier and
/// is not recorded; the ladder gets the rest, split evenly over its rungs.
/// At 10 s the high phase sends 840 requests, so its p90 has 84 samples
/// beyond it.
inline constexpr double kWarmupShare = 0.08;
inline constexpr double kLowShare = 0.14;
inline constexpr double kHighShare = 0.56;

} // namespace pb

#endif // SDS_PERFBENCH_CONFIG_H
