//===- fig10_breakeven.cpp - Regenerate Figure 10 --------------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// Figure 10: how many executor runs amortize the inspector —
// (inspector_t + executor_t) / (serial_t - executor_t). The paper reports
// 40-60 runs for the iterative solvers and < 1 for the factorizations
// (inspector cheaper than one serial run). When the executor does not beat
// serial on this machine (e.g. one core), the break-even is unreachable
// and printed as "-".
//
// Extended with the schedule post-pass comparison (DESIGN.md §14): every
// (kernel, matrix) cell is executed under the LBC and coalesced
// schedules; the LBC time also feeds the break-even column. The end-to-end executor times plus the machine-independent
// schedule shapes (waves/chunks at a fixed 8 threads) land in
// BENCH_schedule.json for the regression gate.
//
//===----------------------------------------------------------------------===//

#include "WiredKernels.h"
#include "sds/runtime/Schedule.h"

#include <cmath>
#include <cstdio>
#include <cstring>

using namespace sds;
using namespace sds::rt;

namespace {

bool bitIdentical(const std::vector<double> &A, const std::vector<double> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0);
}

double maxAbsDiff(const std::vector<double> &A, const std::vector<double> &B) {
  if (A.size() != B.size())
    return HUGE_VAL;
  double M = 0;
  for (size_t I = 0; I < A.size(); ++I)
    M = std::max(M, std::abs(A[I] - B[I]));
  return M;
}

} // namespace

int main(int argc, char **argv) {
  bench::ObsSession Obs;
  double Scale = bench::envScale();
  int Threads = bench::parseThreads(argc, argv);
  bool Heavy = bench::envHeavy();
  std::printf("Figure 10: executor runs needed to amortize the inspector "
              "(scale=%.3f, threads=%d)\n\n",
              Scale, Threads);

  std::fprintf(stderr, "[fig10] analyzing kernels...\n");
  std::vector<bench::WiredKernel> Kernels = bench::wiredKernels(Heavy);
  std::vector<bench::BenchMatrix> Matrices = bench::benchMatrices(Scale);

  std::printf("%-10s", "Kernel");
  for (const bench::BenchMatrix &M : Matrices)
    std::printf(" %11s", M.Name.c_str());
  std::printf("   inspector/serial\n");

  // The two executor shapes of the schedule comparison. LBC is the
  // barrier baseline the pass framework starts from.
  struct Shape {
    const char *Label;
    ScheduleKind Kind;
    double Seconds = 0;   ///< summed median executor time, all cells
    uint64_t Waves8 = 0;  ///< schedule waves at fixed 8 threads
    uint64_t Chunks8 = 0; ///< non-empty chunks at fixed 8 threads
  };
  Shape Shapes[] = {{"barrier", ScheduleKind::LBC},
                    {"coalesced", ScheduleKind::Coalesced}};
  int Cells = 0, HighWaveCells = 0, HighWaveWins = 0;
  bool AllCertified = true, PullBitIdentical = true, AtomicWithinTol = true;

  driver::InspectorOptions IOpts;
  IOpts.NumThreads = Threads;
  uint64_t TotalVisits = 0, TotalEdges = 0;
  double TotalInspT = 0;
  for (bench::WiredKernel &K : Kernels) {
    std::printf("%-10s", K.Name.c_str());
    double InspectorOverSerial = 0;
    int KernelCells = 0;
    for (const bench::BenchMatrix &M : Matrices) {
      bench::WiredKernel::Instance I = K.Wire(M);
      driver::InspectionResult Insp(1);
      double InspT = bench::timeOf([&] {
        Insp = driver::runInspectors(K.Analysis, I.Env, I.N, IOpts);
      });
      TotalVisits += Insp.InspectorVisits;
      TotalEdges += Insp.Graph.numEdges();
      TotalInspT += InspT;
      double SerialT = bench::medianTimeOf(I.Serial);
      InspectorOverSerial += InspT / SerialT;
      ++KernelCells;

      // -- Schedule post-pass comparison on this cell. ---------------------
      if (I.Reset)
        I.Reset();
      I.Serial();
      std::vector<double> SerialOut = I.Output ? I.Output()
                                               : std::vector<double>();
      ++Cells;
      double CellBarrier = 0, CellBest = HUGE_VAL;
      uint64_t BaseWaves8 = 0;
      for (Shape &Sh : Shapes) {
        ScheduleConfig SC;
        SC.Kind = Sh.Kind;
        SC.NumThreads = Threads;
        SC.MinWorkPerThread = 256;
        CompiledSchedule CS = buildSchedule(Insp.Graph, SC, I.NodeCost);
        AllCertified &= certifySchedule(Insp.Graph, CS);
        double T = bench::medianTimeOf([&] {
          if (I.Reset)
            I.Reset();
          I.Scheduled(CS);
        });
        Sh.Seconds += T;
        if (Sh.Kind == ScheduleKind::LBC)
          CellBarrier = T;
        else
          CellBest = std::min(CellBest, T); // the coalesced-vs-barrier win
        if (I.Output && !SerialOut.empty()) {
          std::vector<double> Out = I.Output();
          if (K.PullBased)
            PullBitIdentical &= bitIdentical(SerialOut, Out);
          else
            AtomicWithinTol &= maxAbsDiff(SerialOut, Out) < 1e-9;
        }

        // Machine-independent shape at a fixed 8 threads: CI runners have
        // varying core counts, the gate values must not.
        ScheduleConfig SC8 = SC;
        SC8.NumThreads = 8;
        CompiledSchedule CS8 = buildSchedule(Insp.Graph, SC8, I.NodeCost);
        AllCertified &= certifySchedule(Insp.Graph, CS8);
        CompiledScheduleStats St = describeSchedule(CS8);
        Sh.Waves8 += St.Base.NumWaves;
        Sh.Chunks8 += St.NumChunks;
        if (Sh.Kind == ScheduleKind::LBC)
          BaseWaves8 = St.Base.NumWaves;
      }
      // Break-even against the barrier (LBC) executor.
      if (SerialT > CellBarrier)
        std::printf(" %11.1f",
                    (InspT + CellBarrier) / (SerialT - CellBarrier));
      else
        std::printf(" %11s", "-");
      std::fflush(stdout);
      // "High wave count" is a property of the barrier schedule's shape
      // (deterministic), the win is a property of this machine's clock.
      if (BaseWaves8 > 64) {
        ++HighWaveCells;
        if (CellBest < CellBarrier)
          ++HighWaveWins;
      }
    }
    std::printf("   %10.1fx\n", InspectorOverSerial / KernelCells);
  }

  std::printf("\nExecutor time by schedule shape (sum of per-cell medians, "
              "%d cells):\n", Cells);
  double BarrierSec = Shapes[0].Seconds;
  for (const Shape &Sh : Shapes)
    std::printf("  %-10s %8.4fs  (%5.2fx vs barrier)   waves@8t=%llu "
                "chunks@8t=%llu\n",
                Sh.Label, Sh.Seconds,
                Sh.Seconds > 0 ? BarrierSec / Sh.Seconds : 0.0,
                static_cast<unsigned long long>(Sh.Waves8),
                static_cast<unsigned long long>(Sh.Chunks8));
  std::printf("  high-wave cells (>64 waves @8t): %d, barrier beaten in %d\n",
              HighWaveCells, HighWaveWins);

  bench::BenchReport Report("fig10");
  Report.set("scale", Scale);
  Report.set("threads", Threads);
  Report.set("visits", TotalVisits);
  Report.set("edges", TotalEdges);
  Report.set("inspector_seconds", TotalInspT);
  Report.set("visits_per_second",
             TotalInspT > 0 ? static_cast<double>(TotalVisits) / TotalInspT
                            : 0.0);
  Report.write();

  bench::BenchReport Sched("schedule");
  Sched.set("scale", Scale);
  Sched.set("threads", Threads);
  Sched.set("cells", static_cast<uint64_t>(Cells));
  for (const Shape &Sh : Shapes)
    Sched.set(std::string(Sh.Label) + "_seconds", Sh.Seconds);
  Sched.set("waves8_barrier", Shapes[0].Waves8);
  Sched.set("waves8_coalesced", Shapes[1].Waves8);
  Sched.set("chunks8_barrier", Shapes[0].Chunks8);
  Sched.set("chunks8_coalesced", Shapes[1].Chunks8);
  Sched.set("high_wave_cells", static_cast<uint64_t>(HighWaveCells));
  Sched.set("high_wave_wins", static_cast<uint64_t>(HighWaveWins));
  Sched.set("certified", static_cast<uint64_t>(AllCertified ? 1 : 0));
  Sched.set("bit_identical_pull",
            static_cast<uint64_t>(PullBitIdentical ? 1 : 0));
  Sched.set("atomic_within_tol",
            static_cast<uint64_t>(AtomicWithinTol ? 1 : 0));
  Sched.write();

  std::printf(
      "\nThe last column (inspector time / one serial run) is the machine-\n"
      "independent shape: the solvers' inspectors cost tens of serial runs\n"
      "(the paper's 40-60 break-even band). The factorizations' inspectors\n"
      "are asymptotically no larger than their kernels (Table 3); the\n"
      "residual constant factor here is the in-process expression\n"
      "interpreter, where the paper's emitted-and-compiled C achieves < 1.\n");
  return 0;
}
