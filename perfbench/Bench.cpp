//===- Bench.cpp - Shared infrastructure of the repository benchmark ------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sys/resource.h>

namespace pb {

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  size_t M = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + static_cast<std::ptrdiff_t>(M),
                   V.end());
  double Hi = V[M];
  if (V.size() % 2)
    return Hi;
  double Lo = *std::max_element(V.begin(),
                                V.begin() + static_cast<std::ptrdiff_t>(M));
  return (Lo + Hi) / 2;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

uint64_t mixSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (Stream + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

int64_t Tracer::toNs(Clock::time_point T) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(T - Epoch)
      .count();
}

int64_t Tracer::nowNs() const { return toNs(Clock::now()); }

int Tracer::record(std::string Name, int64_t StartNs, int64_t EndNs,
                   int Parent, uint64_t Request) {
  if (!Enabled)
    return -1;
  Clock::time_point T0 = Clock::now();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back({std::move(Name), StartNs, EndNs, Parent, Request});
  RecordNs += std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - T0)
                  .count();
  return static_cast<int>(Spans.size()) - 1;
}

std::map<std::string, double> Tracer::selfSecondsByLayer() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::string Layer = S.Name.substr(0, S.Name.find('.'));
    int64_t Self = std::max<int64_t>(0, S.EndNs - S.StartNs - ChildNs[I]);
    Out[Layer] += static_cast<double>(Self) * 1e-9;
  }
  return Out;
}

double Tracer::recordSeconds() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return static_cast<double>(RecordNs) * 1e-9;
}

bool Tracer::write(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::ofstream F(Path);
  if (!F)
    return false;
  F << "{\"spans\":[";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    F << (I ? ",\n" : "\n") << "{\"id\":" << I << ",\"name\":\"" << S.Name
      << "\",\"start_ns\":" << S.StartNs << ",\"end_ns\":" << S.EndNs
      << ",\"parent\":" << S.Parent << ",\"request\":" << S.Request << "}";
  }
  F << "\n]}\n";
  return static_cast<bool>(F);
}

double Timed::stop() {
  Clock::time_point End = Clock::now();
  if (T.on())
    Id = T.record(Name, T.toNs(Start), T.toNs(End), Parent, Request);
  return std::chrono::duration<double>(End - Start).count();
}

void Result::fail(const std::string &What) {
  ++Failed;
  if (Problems.size() < 20)
    Problems.push_back(What);
}

void Result::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok)
    fail(What);
}

void Result::row(const std::string &Name, double Value, const char *Unit) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%-34s %14.6g %s", Name.c_str(), Value,
                Unit);
  Table.push_back(Buf);
}

void Result::e2e(const std::string &Name, double Value, const char *Unit) {
  EndToEnd[Name] = {Value, Unit};
  row(Name, Value, Unit);
}

void Result::layer(const std::string &Name, double Value, const char *Unit) {
  Layer[Name] = {Value, Unit};
}

} // namespace pb
