//===- Layers.h - Timed calls into the program's layers ---------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The steps every workload shares: cold-compiling a kernel set, publishing
// the artifacts to a store and timing warm starts from it, and wiring a
// kernel to a generated matrix. Only APIs that survive the executor
// refactor are used: CompiledSchedule and the *Scheduled executors.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_PERFBENCH_LAYERS_H
#define SDS_PERFBENCH_LAYERS_H

#include "Bench.h"
#include "Config.h"

#include "sds/artifact/Artifact.h"
#include "sds/runtime/Matrix.h"
#include "sds/runtime/Schedule.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace pb {

sds::kernels::Kernel makeKernel(const std::string &Id);

/// A cold-compiled kernel set, in the order given.
struct CompiledSet {
  std::vector<std::string> Ids;
  std::vector<sds::artifact::CompiledKernel> Kernels;
  /// Per kernel, cold; the mean of its compiles (see kCompileBudgetS).
  std::vector<double> Seconds;

  double totalSeconds() const;
};

/// Cold-compile `Ids` one after another at the engine-default analysis
/// options, clearing the Presburger query cache before each compile.
/// Checks each kernel's dependence tallies against Config.h and records
/// the deps and presburger layer metrics. Then compiles the kernels again,
/// round-robin, until each one's compiles add up to kCompileBudgetS or
/// number kMaxCompiles; a kernel's compile time is the mean of its
/// compiles.
CompiledSet compileKernels(const std::vector<std::string> &Ids, Tracer &T,
                           Result &R);

/// Publish every artifact to a fresh store under `Root` (checking that a
/// fresh Store reads each back byte for byte), then time warm starts —
/// fresh Store -> get -> fresh Engine -> installArtifact — round-robin
/// over the kernels for at least `MinRounds` rounds and `BudgetSeconds`.
/// Returns the warm-start milliseconds per kernel and records the
/// artifact, store and engine layer metrics.
std::vector<std::vector<double>> warmStarts(const CompiledSet &Set,
                                            const std::string &Root,
                                            int MinRounds,
                                            double BudgetSeconds, Tracer &T,
                                            Result &R);

/// Geometric mean over kernels of each kernel's median warm start.
double loadMs(const std::vector<std::vector<double>> &PerKernel);

/// The three storage shapes of one generated Table-4 matrix.
struct Matrices {
  std::string Profile;
  sds::rt::CSRMatrix Full;   ///< symmetric SPD-like
  sds::rt::CSRMatrix Lower;  ///< lower triangle, CSR
  sds::rt::CSCMatrix LowerC; ///< lower triangle, CSC
};

/// `PerProfile` matrices of each profile at `Scale`, profile-major, each
/// from its own sub-seed of `Seed`; generated on kThreads threads.
std::vector<std::shared_ptr<const Matrices>>
makeMatrixSets(const std::vector<sds::rt::MatrixProfile> &Profiles,
               double Scale, int PerProfile, uint64_t Seed);

/// A kernel bound to one matrix: its index-array environment, a serial
/// reference and the compiled-schedule executor. Runs write their result
/// into the instance; Reset restores the inputs a run consumes.
struct Instance {
  sds::codegen::UFEnvironment Env;
  int N = 0;
  /// Pull-based kernels are bit-identical to serial under any schedule;
  /// push-based ones use atomic updates and match to a tolerance.
  bool PullBased = false;
  std::vector<double> NodeCost;
  std::function<void()> Reset;
  std::function<void()> Serial;
  std::function<void(const sds::rt::CompiledSchedule &)> Scheduled;
  std::function<std::vector<double>()> Output;
};

Instance wire(const std::string &Id, std::shared_ptr<const Matrices> M);

/// Order-sensitive digest of a plan: graph edges plus schedule shape.
uint64_t planDigest(const sds::rt::DependenceGraph &G,
                    const sds::rt::CompiledSchedule &S);

} // namespace pb

#endif // SDS_PERFBENCH_LAYERS_H
