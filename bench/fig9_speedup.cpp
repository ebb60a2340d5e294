//===- fig9_speedup.cpp - Regenerate Figure 9 ------------------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// Figure 9: wavefront executor speedup over the serial kernel, per
// (kernel, matrix), using the dependence graphs built by the *generated*
// inspectors and LBC scheduling. The paper reports 2x-8x on 8 physical
// cores; on fewer cores the attainable speedup shrinks accordingly, and
// with a single core the parallel executor can only tie or lose — the
// hardware note in EXPERIMENTS.md quantifies this machine.
//
//===----------------------------------------------------------------------===//

#include "WiredKernels.h"
#include "sds/runtime/Schedule.h"

#include <algorithm>
#include <cstdio>
#include <map>

using namespace sds;
using namespace sds::rt;

int main(int argc, char **argv) {
  bench::ObsSession Obs;
  double Scale = bench::envScale();
  int Threads = bench::parseThreads(argc, argv);
  bool Heavy = bench::envHeavy();
  std::printf("Figure 9: wavefront executor speedup over serial "
              "(scale=%.3f, threads=%d, hw cores=%d)\n\n",
              Scale, Threads, omp_get_num_procs());

  std::fprintf(stderr, "[fig9] analyzing kernels...\n");
  std::vector<bench::WiredKernel> Kernels = bench::wiredKernels(Heavy);
  std::vector<bench::BenchMatrix> Matrices = bench::benchMatrices(Scale);

  std::printf("%-10s", "Kernel");
  for (const bench::BenchMatrix &M : Matrices)
    std::printf(" %11s", M.Name.c_str());
  std::printf("\n");

  // Machine-independent companion: the parallelism the DAG + LBC schedule
  // actually expose at 8 threads (total work / critical-path work), i.e.
  // the speedup an ideal 8-core machine could realize — comparable to the
  // paper's Figure 9 even on this machine.
  std::vector<std::string> BoundRows;

  driver::InspectorOptions IOpts;
  IOpts.NumThreads = Threads;
  uint64_t TotalVisits = 0, TotalEdges = 0;
  double TotalInspSeconds = 0, SumSpeedup = 0;
  int Cells = 0;
  // Per-shape speedups from the schedule post-pass framework, printed as
  // a companion table and summarized per kind in BENCH_fig9.json.
  const std::pair<const char *, ScheduleKind> ShapeKinds[] = {
      {"coalesced", ScheduleKind::Coalesced}};
  std::map<std::string, double> ShapeSpeedupSum;
  std::vector<std::string> ShapeRows;
  for (bench::WiredKernel &K : Kernels) {
    std::printf("%-10s", K.Name.c_str());
    std::string Bound(K.Name);
    Bound.resize(10, ' ');
    for (const bench::BenchMatrix &M : Matrices) {
      bench::WiredKernel::Instance I = K.Wire(M);
      driver::InspectionResult Insp =
          driver::runInspectors(K.Analysis, I.Env, I.N, IOpts);
      TotalVisits += Insp.InspectorVisits;
      TotalEdges += Insp.Graph.numEdges();
      TotalInspSeconds += Insp.Seconds;
      // Median executor time under `Kind` at this run's thread count.
      auto TimeShape = [&](ScheduleKind Kind) {
        ScheduleConfig SC;
        SC.Kind = Kind;
        SC.NumThreads = Threads;
        SC.MinWorkPerThread = 256;
        CompiledSchedule CS = buildSchedule(Insp.Graph, SC, I.NodeCost);
        return bench::medianTimeOf([&] {
          if (I.Reset)
            I.Reset();
          I.Scheduled(CS);
        });
      };
      double SerialT = bench::medianTimeOf(I.Serial);
      double ExecT = TimeShape(ScheduleKind::LBC);
      SumSpeedup += SerialT / ExecT;
      ++Cells;
      std::printf(" %10.2fx", SerialT / ExecT);
      std::fflush(stdout);

      std::string ShapeRow = K.Name + " @ " + M.Name + ":";
      for (const auto &[Label, Kind] : ShapeKinds) {
        double ShapeT = TimeShape(Kind);
        ShapeSpeedupSum[Label] += SerialT / ShapeT;
        char Buf[48];
        std::snprintf(Buf, sizeof(Buf), "  %s %.2fx", Label,
                      SerialT / ShapeT);
        ShapeRow += Buf;
      }
      ShapeRows.push_back(std::move(ShapeRow));

      LBCConfig C8;
      C8.NumThreads = 8;
      C8.MinWorkPerThread = 256;
      WavefrontSchedule S8 = scheduleLBC(Insp.Graph, C8, I.NodeCost);
      double Total = 0, Critical = 0;
      for (const auto &Wave : S8.Waves) {
        double MaxPart = 0;
        for (const auto &Part : Wave) {
          double W = 0;
          for (int Node : Part)
            W += I.NodeCost.empty() ? 1.0 : I.NodeCost[Node];
          Total += W;
          MaxPart = std::max(MaxPart, W);
        }
        Critical += MaxPart;
      }
      char Buf[16];
      std::snprintf(Buf, sizeof(Buf), " %10.2fx",
                    Critical > 0 ? Total / Critical : 1.0);
      Bound += Buf;
    }
    std::printf("\n");
    BoundRows.push_back(std::move(Bound));
  }
  std::printf("\nAvailable parallelism at 8 threads (total work / "
              "critical-path work,\nthe ideal-machine Figure 9):\n");
  for (const std::string &Row : BoundRows)
    std::printf("%s\n", Row.c_str());
  std::printf("\nPost-pass executor speedup over serial (barrier column is "
              "the main table):\n");
  for (const std::string &Row : ShapeRows)
    std::printf("%s\n", Row.c_str());
  std::printf("\nPaper reference (Figure 9): 2x-8x on 8 cores; Left "
              "Cholesky superlinear\n(5x-625x) due to LBC locality "
              "effects on the large factors.\n");
  bench::BenchReport Report("fig9");
  Report.set("scale", Scale);
  Report.set("threads", Threads);
  Report.set("visits", TotalVisits);
  Report.set("edges", TotalEdges);
  Report.set("inspector_seconds", TotalInspSeconds);
  Report.set("mean_speedup", Cells ? SumSpeedup / Cells : 0.0);
  for (const auto &[Label, Sum] : ShapeSpeedupSum)
    Report.set("mean_speedup_" + Label, Cells ? Sum / Cells : 0.0);
  Report.write();
  return 0;
}
