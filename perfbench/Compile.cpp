//===- Compile.cpp - The compile workload ---------------------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Cold-compiles spmv_csr, fs_csr, fs_csc, gs_csr and lchol_csc one after
// another, then writes each artifact to a fresh store and times warm
// starts from it. It is the only workload where deps, presburger and
// codegen do most of the work while the runtime layers are idle; IC0 and
// ILU0 stay out because each takes minutes per run.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include <atomic>
#include <thread>

namespace pb {

namespace {

/// Set-up here is building the five kernel specifications, which takes
/// tens of microseconds, and the machine's speed flips between two levels
/// in spells of a fraction of a second to many seconds: a burst of
/// set-ups reads whichever level holds then. So a thread of its own builds
/// them once every kSetupPeriodS for the whole run — a negligible load
/// beside the compiles — and deals the timings round-robin into
/// kSetupGroups groups; each group's mean covers the whole run, and the
/// median group is the reported set-up time.
class SetupSampler {
public:
  explicit SetupSampler(const std::vector<std::string> &Ids)
      : Worker([this, Ids] {
          while (!Done.load()) {
            Clock::time_point T0 = Clock::now();
            for (const std::string &Id : Ids)
              (void)makeKernel(Id);
            Samples.push_back(secondsSince(T0));
            std::this_thread::sleep_for(
                std::chrono::duration<double>(kSetupPeriodS));
          }
        }) {}

  ~SetupSampler() { join(); }

  /// Stops sampling; returns the median of the group means, in seconds.
  double stop() {
    join();
    std::vector<double> Sum(kSetupGroups, 0), N(kSetupGroups, 0);
    for (size_t I = 0; I < Samples.size(); ++I) {
      Sum[I % kSetupGroups] += Samples[I];
      ++N[I % kSetupGroups];
    }
    std::vector<double> Means;
    for (int G = 0; G < kSetupGroups; ++G)
      if (N[G] > 0)
        Means.push_back(Sum[G] / N[G]);
    return median(Means);
  }

private:
  void join() {
    Done.store(true);
    if (Worker.joinable())
      Worker.join();
  }

  std::atomic<bool> Done{false};
  std::vector<double> Samples; // written by Worker only until it is joined
  std::thread Worker;
};

} // namespace

Result runCompile(const Options &O, Tracer &T) {
  Result R;
  std::vector<std::string> Ids(std::begin(kCompileKernels),
                               std::end(kCompileKernels));
  std::string Root = O.WorkDir + "/store";

  SetupSampler Setup(Ids);
  CompiledSet Set = compileKernels(Ids, T, R);
  std::vector<std::vector<double>> Warm =
      warmStarts(Set, Root, kCompileWarmRounds,
                 O.Seconds * kCompileWarmShare, T, R);
  double SetupSeconds = Setup.stop();

  std::vector<double> CompileMs, Ratio;
  for (size_t I = 0; I < Ids.size(); ++I) {
    R.row("compile_s." + Ids[I], Set.Seconds[I], "s");
    R.row("load_ms." + Ids[I], median(Warm[I]), "ms");
    CompileMs.push_back(Set.Seconds[I] * 1e3);
    Ratio.push_back(Set.Seconds[I] * 1e3 / median(Warm[I]));
  }
  R.e2e("setup_s", SetupSeconds, "s");
  R.e2e("compile_s", Set.totalSeconds(), "s");
  // The unit of work is one kernel's cold compile.
  R.e2e("op_p50_ms", quantile(CompileMs, 0.50), "ms");
  R.row("op_p90_ms", quantile(CompileMs, 0.90), "ms");
  R.row("compile_geomean_s", geomean(Set.Seconds), "s");
  R.row("load_ms", loadMs(Warm), "ms");
  R.row("warm_start_speedup", geomean(Ratio), "x");
  return R;
}

} // namespace pb
