//===- Bench.h - Shared infrastructure of the repository benchmark --------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Timing, statistics, the benchmark's own span tracer, and the result
// record every workload fills. The benchmark measures the library from the
// outside: it times calls into each layer's public functions and never
// instruments src/.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_PERFBENCH_BENCH_H
#define SDS_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> V);
/// Nearest-rank quantile, Q in [0, 1]; 0 when empty.
double quantile(std::vector<double> V, double Q);
/// Geometric mean of positive values; 0 when empty.
double geomean(const std::vector<double> &V);
/// Peak resident set size of this process, in MiB.
double peakRssMb();

/// splitmix64: derives independent, reproducible sub-seeds from the
/// workload seed, so the program only ever sees generated inputs.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream);

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir; ///< scratch space inside the checkout
};

/// The benchmark's own spans: name, start, end, parent and request id,
/// recorded around calls into the program's layers and kept in memory
/// until the run ends. A span's layer is its name up to the first '.'.
class Tracer {
public:
  struct Span {
    std::string Name;
    int64_t StartNs = 0;
    int64_t EndNs = 0;
    int Parent = -1;
    uint64_t Request = 0;
  };

  explicit Tracer(bool On) : Enabled(On), Epoch(Clock::now()) {}

  bool on() const { return Enabled; }
  int64_t nowNs() const;
  int64_t toNs(Clock::time_point T) const;

  /// Record a completed span; returns its id (-1 when tracing is off).
  int record(std::string Name, int64_t StartNs, int64_t EndNs,
             int Parent = -1, uint64_t Request = 0);

  /// Self time per layer in seconds: each span's duration minus the part
  /// of it its child spans cover, summed by layer.
  std::map<std::string, double> selfSecondsByLayer() const;
  /// Seconds spent inside record() itself (the tracer's own cost).
  double recordSeconds() const;
  bool write(const std::string &Path) const;

private:
  bool Enabled;
  Clock::time_point Epoch;
  mutable std::mutex Mu;
  std::vector<Span> Spans; // guarded by Mu
  int64_t RecordNs = 0;    // guarded by Mu
};

/// Times one call into a layer and, when tracing, records it as a span.
class Timed {
public:
  Timed(Tracer &T, const char *Name, int Parent = -1, uint64_t Request = 0)
      : T(T), Name(Name), Parent(Parent), Request(Request),
        Start(Clock::now()) {}
  /// Ends the span; returns its duration in seconds. Call once.
  double stop();
  /// Span id after stop() (-1 when tracing is off).
  int id() const { return Id; }

private:
  Tracer &T;
  const char *Name;
  int Parent;
  uint64_t Request;
  Clock::time_point Start;
  int Id = -1;
};

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// What one workload run produced. Every checked operation counts as
/// attempted; a wrong output, a shed or an errored request counts as
/// failed.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Problems; ///< first failures, for stderr
  std::map<std::string, Metric> EndToEnd;
  std::map<std::string, Metric> Layer;
  /// Human-readable rows: every metric the workload defines, with unit.
  std::vector<std::string> Table;

  void check(bool Ok, const std::string &What);
  void fail(const std::string &What);
  void row(const std::string &Name, double Value, const char *Unit);
  void e2e(const std::string &Name, double Value, const char *Unit);
  void layer(const std::string &Name, double Value, const char *Unit);
};

Result runCompile(const Options &O, Tracer &T);
Result runSolve(const Options &O, Tracer &T);
Result runServe(const Options &O, Tracer &T);

} // namespace pb

#endif // SDS_PERFBENCH_BENCH_H
