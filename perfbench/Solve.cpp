//===- Solve.cpp - The solve workload -------------------------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The paper's §8 inspector-executor flow, closed loop on one client
// thread, over FS CSC, FS CSR, GS CSR and L. Chol. x the five Table-4
// profiles. Per cell: guarded inspection (Fallback mode), buildSchedule
// with the artifact's own schedule config at the workload thread count,
// then executor runs interleaved pair by pair with serial runs, each
// output checked against the serial reference. Analysis runs only in
// set-up; the serve queue and the engine cache are bypassed, so driver,
// guard and runtime do most of the work.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "sds/guard/Guarded.h"

#include <cmath>
#include <cstring>

using namespace sds;

namespace pb {

namespace {

struct Cell {
  std::string Kernel;
  std::string Profile;
  const artifact::CompiledKernel *CK = nullptr;
  Instance Inst;
  std::vector<double> Ref; ///< serial reference output
  std::unique_ptr<rt::CompiledSchedule> Schedule;
  double PlanSeconds = 0;
  std::vector<double> SerialMs, ExecMs;
};

bool sameBits(const std::vector<double> &A, const std::vector<double> &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0;
}

bool withinTolerance(const std::vector<double> &A,
                     const std::vector<double> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (!(std::fabs(A[I] - B[I]) <= kAtomicTolerance))
      return false;
  return true;
}

} // namespace

Result runSolve(const Options &O, Tracer &T) {
  Result R;
  Clock::time_point Start = Clock::now();
  std::vector<std::string> Ids(std::begin(kSolveKernels),
                               std::end(kSolveKernels));
  std::vector<rt::MatrixProfile> Profiles = rt::table4Profiles();
  std::map<double, std::vector<std::shared_ptr<const Matrices>>> Mats;
  for (double Scale : {kScale, kLcholScale})
    Mats[Scale] = makeMatrixSets(Profiles, Scale, 1, O.Seed);
  CompiledSet Set = compileKernels(Ids, T, R);
  std::vector<std::vector<double>> Warm =
      warmStarts(Set, O.WorkDir + "/store", kSetupWarmRounds, 0, T, R);
  std::vector<Cell> Cells;
  for (size_t K = 0; K < Ids.size(); ++K)
    for (const auto &M : Mats[Ids[K] == "lchol_csc" ? kLcholScale : kScale]) {
      Cell C;
      C.Kernel = Ids[K];
      C.Profile = M->Profile;
      C.CK = &Set.Kernels[K];
      C.Inst = wire(Ids[K], M);
      Cells.push_back(std::move(C));
    }
  double SetupSeconds = secondsSince(Start);

  // One-time cost per matrix: guarded inspection + schedule.
  Clock::time_point Measure = Clock::now();
  double ValidateMs = 0, InspectMs = 0, ScheduleMs = 0;
  double Visits = 0, Edges = 0, Waves = 0, Chunks = 0, PropsValidated = 0;
  int Fallbacks = 0;
  for (Cell &C : Cells) {
    guard::GuardedOptions GO;
    GO.Mode = guard::GuardMode::Fallback;
    GO.Inspect.NumThreads = kThreads;
    Timed Guard(T, "guard.run_guarded");
    guard::GuardedResult G =
        guard::runGuarded(*C.CK, C.Inst.Env, C.Inst.N, GO);
    double GuardS = Guard.stop();
    if (T.on()) {
      // The inspector fleet runs inside runGuarded; its wall time is
      // reported by the driver and recorded as the guard span's child.
      int64_t End = T.nowNs();
      T.record("driver.inspect",
               End - static_cast<int64_t>(G.Inspection.Seconds * 1e9), End,
               Guard.id());
    }
    // A fallback is a correct outcome (the baseline inspectors run), so it
    // is reported, not failed.
    Fallbacks += G.UsedFallback ? 1 : 0;
    rt::ScheduleConfig SC = C.CK->Schedule;
    SC.NumThreads = kThreads;
    Timed Sched(T, "runtime.build_schedule");
    C.Schedule = std::make_unique<rt::CompiledSchedule>(
        rt::buildSchedule(G.Inspection.Graph, SC, C.Inst.NodeCost));
    double SchedS = Sched.stop();
    R.check(rt::certifySchedule(G.Inspection.Graph, *C.Schedule),
            C.Kernel + "@" + C.Profile + ": schedule failed certification");
    C.PlanSeconds = GuardS + SchedS;
    ValidateMs += G.Report.Seconds * 1e3;
    InspectMs += G.Inspection.Seconds * 1e3;
    ScheduleMs += SchedS * 1e3;
    Visits += static_cast<double>(G.Inspection.InspectorVisits);
    Edges += static_cast<double>(G.Inspection.Graph.numEdges());
    PropsValidated += G.PropsValidated;
    rt::CompiledScheduleStats St = rt::describeSchedule(*C.Schedule);
    Waves += St.Base.NumWaves;
    Chunks += static_cast<double>(St.NumChunks);
  }

  // Executor runs interleaved with serial runs, pair by pair, so both see
  // the same machine state; round-robin over cells for kSolveRuns rounds.
  for (Cell &C : Cells) {
    C.Inst.Reset();
    C.Inst.Serial();
    C.Ref = C.Inst.Output();
  }
  // At least kSolveRuns rounds, and more until --seconds of measurement.
  for (int Round = 0; Round < kSolveRuns || secondsSince(Measure) < O.Seconds;
       ++Round)
    for (Cell &C : Cells) {
      C.Inst.Reset();
      Timed Ser(T, "runtime.serial");
      C.Inst.Serial();
      C.SerialMs.push_back(Ser.stop() * 1e3);
      R.check(sameBits(C.Inst.Output(), C.Ref),
              C.Kernel + "@" + C.Profile + ": serial run not reproducible");
      C.Inst.Reset();
      Timed Exe(T, "runtime.execute");
      C.Inst.Scheduled(*C.Schedule);
      C.ExecMs.push_back(Exe.stop() * 1e3);
      std::vector<double> Out = C.Inst.Output();
      R.check(C.Inst.PullBased ? sameBits(Out, C.Ref)
                               : withinTolerance(Out, C.Ref),
              C.Kernel + "@" + C.Profile + ": executor output differs");
    }

  double PlanS = 0, SerialTotal = 0, AmortizedTotal = 0;
  std::vector<double> Speedups, ExecAll;
  std::map<std::string, double> ExecByKernel, SerialByKernel;
  for (const Cell &C : Cells) {
    double Ser = median(C.SerialMs), Exe = median(C.ExecMs);
    PlanS += C.PlanSeconds;
    SerialTotal += kSolveRuns * Ser;
    AmortizedTotal += C.PlanSeconds * 1e3 + kSolveRuns * Exe;
    Speedups.push_back(Ser / Exe);
    ExecByKernel[C.Kernel] += Exe;
    SerialByKernel[C.Kernel] += Ser;
    ExecAll.insert(ExecAll.end(), C.ExecMs.begin(), C.ExecMs.end());
    R.row("exec_speedup." + C.Kernel + "@" + C.Profile, Ser / Exe, "x");
  }
  R.e2e("setup_s", SetupSeconds, "s");
  R.e2e("compile_s", Set.totalSeconds(), "s");
  // The unit of work is one executor run.
  R.e2e("op_p50_ms", quantile(ExecAll, 0.50), "ms");
  R.row("op_p90_ms", quantile(ExecAll, 0.90), "ms");
  R.row("op_p99_ms", quantile(ExecAll, 0.99), "ms");
  R.row("compile_geomean_s", geomean(Set.Seconds), "s");
  R.row("load_ms", loadMs(Warm), "ms");
  R.row("plan_s", PlanS, "s");
  R.row("guard_fallbacks", Fallbacks, "count");
  R.row("exec_speedup", geomean(Speedups), "x");
  R.row("solve_speedup", SerialTotal / AmortizedTotal, "x");
  R.row("op_samples", static_cast<double>(ExecAll.size()), "count");

  R.layer("guard.validate_ms", ValidateMs, "ms");
  R.layer("guard.props_validated", PropsValidated, "count");
  R.layer("driver.inspect_ms", InspectMs, "ms");
  R.layer("driver.visits", Visits, "count");
  R.layer("driver.edges", Edges, "count");
  R.layer("driver.visits_per_s", InspectMs > 0 ? Visits / (InspectMs * 1e-3) : 0,
          "1/s");
  R.layer("runtime.schedule_ms", ScheduleMs, "ms");
  R.layer("runtime.waves", Waves, "count");
  R.layer("runtime.chunks", Chunks, "count");
  for (const auto &[K, Ms] : ExecByKernel)
    R.layer("runtime.exec_ms." + K, Ms, "ms");
  for (const auto &[K, Ms] : SerialByKernel)
    R.layer("runtime.serial_ms." + K, Ms, "ms");
  return R;
}

} // namespace pb
