//===- FaultInjection.cpp - Index-array corruption harness ----------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/guard/FaultInjection.h"

#include "sds/infer/Infer.h"
#include "sds/obs/Trace.h"

#include <algorithm>
#include <chrono>

namespace sds {
namespace guard {

const char *faultKindName(FaultKind K) {
  switch (K) {
  case FaultKind::SwapAdjacent:
    return "swap_adjacent";
  case FaultKind::SwapDistant:
    return "swap_distant";
  case FaultKind::DuplicateEntry:
    return "duplicate_entry";
  case FaultKind::OffByOne:
    return "off_by_one";
  case FaultKind::OutOfRange:
    return "out_of_range";
  case FaultKind::Truncate:
    return "truncate";
  }
  return "?";
}

std::vector<FaultKind> allFaultKinds() {
  return {FaultKind::SwapAdjacent,   FaultKind::SwapDistant,
          FaultKind::DuplicateEntry, FaultKind::OffByOne,
          FaultKind::OutOfRange,     FaultKind::Truncate};
}

namespace {

/// SplitMix64 step — deterministic position picking without any global
/// RNG state.
uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

std::string at(const std::string &A, int64_t I) {
  return A + "[" + std::to_string(I) + "]";
}

} // namespace

bool injectFault(const codegen::UFEnvironment &Env, const FaultSpec &S,
                 codegen::UFEnvironment &Out, std::string &Desc) {
  auto It = Env.Spans.find(S.Array);
  if (It == Env.Spans.end() || !It->second)
    return false;
  std::vector<int> Data = *It->second;
  const int64_t Size = static_cast<int64_t>(Data.size());
  if (Size < 2)
    return false;

  uint64_t H = mix(S.Seed + 1);
  // Probe a few seed-derived positions so a fault that happens to be a
  // no-op at the first position (equal values to swap, etc.) still lands.
  auto Pick = [&](int64_t Span) {
    H = mix(H);
    return static_cast<int64_t>(H % static_cast<uint64_t>(Span));
  };

  switch (S.Kind) {
  case FaultKind::SwapAdjacent:
    for (int Try = 0; Try < 16; ++Try) {
      int64_t I = Pick(Size - 1);
      if (Data[I] != Data[I + 1]) {
        std::swap(Data[I], Data[I + 1]);
        Desc = "swap " + at(S.Array, I) + " <-> " + at(S.Array, I + 1);
        Out = Env;
        Out.bindArray(S.Array, std::move(Data));
        return true;
      }
    }
    return false;
  case FaultKind::SwapDistant:
    for (int Try = 0; Try < 16; ++Try) {
      int64_t I = Pick(Size), J = Pick(Size);
      if (I != J && Data[I] != Data[J]) {
        std::swap(Data[I], Data[J]);
        Desc = "swap " + at(S.Array, I) + " <-> " + at(S.Array, J);
        Out = Env;
        Out.bindArray(S.Array, std::move(Data));
        return true;
      }
    }
    return false;
  case FaultKind::DuplicateEntry:
    for (int Try = 0; Try < 16; ++Try) {
      int64_t I = Pick(Size - 1);
      if (Data[I] != Data[I + 1]) {
        Desc = at(S.Array, I) + " " + std::to_string(Data[I]) + " -> " +
               std::to_string(Data[I + 1]) + " (duplicate)";
        Data[I] = Data[I + 1];
        Out = Env;
        Out.bindArray(S.Array, std::move(Data));
        return true;
      }
    }
    return false;
  case FaultKind::OffByOne: {
    int64_t I = Pick(Size);
    Desc = at(S.Array, I) + " " + std::to_string(Data[I]) + " -> " +
           std::to_string(Data[I] + 1);
    Data[I] += 1;
    Out = Env;
    Out.bindArray(S.Array, std::move(Data));
    return true;
  }
  case FaultKind::OutOfRange: {
    // Positive and clearly past any plausible extent, but far from
    // INT_MAX so inspector arithmetic (v+1, ptr(v)-1) cannot overflow.
    int64_t I = Pick(Size);
    int Bad = static_cast<int>(
        std::min<int64_t>(2 * Size + 13, INT32_MAX / 4));
    if (Data[I] == Bad)
      return false;
    Desc = at(S.Array, I) + " " + std::to_string(Data[I]) + " -> " +
           std::to_string(Bad) + " (out of range)";
    Data[I] = Bad;
    Out = Env;
    Out.bindArray(S.Array, std::move(Data));
    return true;
  }
  case FaultKind::Truncate: {
    int64_t Drop = 1 + Pick(std::max<int64_t>(1, Size / 8));
    Desc = S.Array + ": drop last " + std::to_string(Drop) + " of " +
           std::to_string(Size) + " entries";
    Data.resize(static_cast<size_t>(Size - Drop));
    Out = Env;
    Out.bindArray(S.Array, std::move(Data));
    return true;
  }
  }
  return false;
}

std::string FaultTrial::str() const {
  std::string Out = std::string(faultKindName(Spec.Kind)) + "(" + Spec.Array +
                    ", seed=" + std::to_string(Spec.Seed) + "): ";
  if (!Injected)
    return Out + "no-op";
  Out += Description + " — ";
  if (Detected)
    Out += "detected";
  else if (StillCorrect)
    Out += "undetected, schedule still correct";
  else
    Out += "SILENT WRONG SCHEDULE";
  return Out;
}

FaultTrial runFaultTrial(const deps::PipelineResult &Analysis,
                         const ir::PropertySet &PS,
                         const codegen::UFEnvironment &Env, int N,
                         const FaultSpec &S, int Threads) {
  static obs::Counter &Trials = obs::counter("guard.fault_trials");
  static obs::Counter &Silent = obs::counter("guard.fault_silent_wrong");
  Trials.add();
  auto T0 = std::chrono::steady_clock::now();

  FaultTrial T;
  T.Spec = S;

  codegen::UFEnvironment Bad;
  T.Injected = injectFault(Env, S, Bad, T.Description);
  if (T.Injected) {
    // Validate-then-cross-check, exactly the guard's own decision path:
    // warn mode surfaces the validation verdict while still running the
    // simplified inspectors, and verify mode compares their schedule
    // against the baseline graph over the same corrupted arrays.
    GuardedOptions GO;
    GO.Mode = GuardMode::Warn;
    GO.Verify = true;
    GO.VerifyThreads = std::max(2, Threads);
    GO.Inspect.NumThreads = Threads;
    GuardedResult R = runGuarded(Analysis, PS, Bad, N, GO);
    T.Detected = !R.Trusted;
    T.StillCorrect = R.Verified && R.VerifyPassed;
    if (T.silentWrong())
      Silent.add();
  }
  T.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  return T;
}

std::vector<FaultSpec> faultCampaign(const codegen::UFEnvironment &Env,
                                     unsigned SeedsPerPair) {
  std::vector<FaultSpec> Specs;
  for (const auto &[Name, Span] : Env.Spans) {
    if (!Span || Span->size() < 2)
      continue;
    for (FaultKind K : allFaultKinds())
      for (unsigned Seed = 0; Seed < SeedsPerPair; ++Seed)
        Specs.push_back({Name, K, Seed});
  }
  return Specs;
}

unsigned CampaignResult::injected() const {
  unsigned N = 0;
  for (const FaultTrial &T : Trials)
    N += T.Injected ? 1 : 0;
  return N;
}

unsigned CampaignResult::detected() const {
  unsigned N = 0;
  for (const FaultTrial &T : Trials)
    N += T.Injected && T.Detected ? 1 : 0;
  return N;
}

unsigned CampaignResult::tolerated() const {
  unsigned N = 0;
  for (const FaultTrial &T : Trials)
    N += T.Injected && !T.Detected && T.StillCorrect ? 1 : 0;
  return N;
}

unsigned CampaignResult::silentWrong() const {
  unsigned N = 0;
  for (const FaultTrial &T : Trials)
    N += T.silentWrong() ? 1 : 0;
  return N;
}

std::string CampaignResult::summary() const {
  return std::to_string(Trials.size()) + " trials: " +
         std::to_string(injected()) + " injected, " +
         std::to_string(detected()) + " detected, " +
         std::to_string(tolerated()) + " tolerated, " +
         std::to_string(silentWrong()) + " silent-wrong";
}

std::string InferTrial::str() const {
  std::string Out = std::string(faultKindName(Spec.Kind)) + "(" + Spec.Array +
                    ", seed=" + std::to_string(Spec.Seed) + "): ";
  if (!Injected)
    return Out + "no-op";
  Out += Description + " — ";
  if (RemedyTripped)
    Out += "remedy tripped, revoked " + std::to_string(DepsRevoked) +
           " dependence(s)";
  else
    Out += "no remedy tripped";
  return Out + (StillCorrect ? ", schedule correct"
                             : ", SILENT WRONG SCHEDULE");
}

unsigned InferCampaignResult::injected() const {
  unsigned N = 0;
  for (const InferTrial &T : Trials)
    N += T.Injected ? 1 : 0;
  return N;
}

unsigned InferCampaignResult::remedyTripped() const {
  unsigned N = 0;
  for (const InferTrial &T : Trials)
    N += T.Injected && T.RemedyTripped ? 1 : 0;
  return N;
}

unsigned InferCampaignResult::revokedDeps() const {
  unsigned N = 0;
  for (const InferTrial &T : Trials)
    N += T.DepsRevoked;
  return N;
}

unsigned InferCampaignResult::tolerated() const {
  unsigned N = 0;
  for (const InferTrial &T : Trials)
    N += T.Injected && !T.RemedyTripped && T.StillCorrect ? 1 : 0;
  return N;
}

unsigned InferCampaignResult::silentWrong() const {
  unsigned N = 0;
  for (const InferTrial &T : Trials)
    N += T.silentWrong() ? 1 : 0;
  return N;
}

std::string InferCampaignResult::summary() const {
  return std::to_string(Trials.size()) + " trials: " +
         std::to_string(injected()) + " injected, " +
         std::to_string(remedyTripped()) + " remedy-tripped (" +
         std::to_string(revokedDeps()) + " deps revoked), " +
         std::to_string(tolerated()) + " tolerated, " +
         std::to_string(silentWrong()) + " silent-wrong";
}

InferCampaignResult runInferCampaign(const kernels::Kernel &K,
                                     const codegen::UFEnvironment &Env, int N,
                                     unsigned SeedsPerPair, int Threads) {
  static obs::Counter &Trials = obs::counter("guard.infer_trials");
  static obs::Counter &Silent = obs::counter("guard.infer_silent_wrong");
  static obs::Counter &Revocations = obs::counter("guard.infer_revoked");

  InferCampaignResult R;

  // Speculate from a clean slate: no declarations, only what the profiler
  // confirms on the pristine arrays. Every downstream elimination then
  // carries a remedy, which is exactly the machinery under attack.
  kernels::Kernel Stripped = K;
  Stripped.Properties = ir::PropertySet{};
  infer::InferenceResult Inf = infer::inferProperties(Env);
  R.PropsConfirmed = Inf.ConfirmedCount;

  deps::PipelineOptions PO;
  PO.NumThreads = Threads;
  PO.Speculate = true;
  PO.InferredProps = Inf.Confirmed;
  deps::PipelineResult Analysis = deps::analyzeKernel(Stripped, PO);
  for (const deps::AnalyzedDependence &D : Analysis.Deps) {
    if (!D.Remediable)
      continue;
    ++R.SpeculativeDeps;
    R.EliminatedSpeculatively +=
        D.Status == deps::DepStatus::PropertyUnsat ? 1 : 0;
  }

  // Mode Off on purpose: inferred remedies are validated even with
  // guarding off, so any detection here is attributable to the remedy
  // path alone, not the declared-property validation ladder.
  GuardedOptions GO;
  GO.Mode = GuardMode::Off;
  GO.Verify = true;
  GO.VerifyThreads = std::max(2, Threads);
  GO.Inspect.NumThreads = Threads;

  for (const FaultSpec &S : faultCampaign(Env, SeedsPerPair)) {
    Trials.add();
    auto T0 = std::chrono::steady_clock::now();
    InferTrial T;
    T.Spec = S;
    codegen::UFEnvironment Bad;
    T.Injected = injectFault(Env, S, Bad, T.Description);
    if (T.Injected) {
      GuardedResult G =
          runGuarded(Analysis, Analysis.Kernel.Properties, Bad, N, GO);
      T.RemedyTripped = G.RemediesFailed > 0;
      T.DepsRevoked = G.DepsRevoked;
      T.UsedFallback = G.UsedFallback;
      T.StillCorrect = G.Verified && G.VerifyPassed;
      Revocations.add(T.DepsRevoked);
      if (T.silentWrong())
        Silent.add();
    }
    T.Seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
            .count();
    R.Trials.push_back(std::move(T));
  }
  return R;
}

CampaignResult runCampaign(const deps::PipelineResult &Analysis,
                           const ir::PropertySet &PS,
                           const codegen::UFEnvironment &Env, int N,
                           const std::vector<FaultSpec> &Specs,
                           int Threads) {
  CampaignResult R;
  R.Trials.reserve(Specs.size());
  for (const FaultSpec &S : Specs)
    R.Trials.push_back(runFaultTrial(Analysis, PS, Env, N, S, Threads));
  return R;
}

//===----------------------------------------------------------------------===//
// Serialized-artifact corruption.
//===----------------------------------------------------------------------===//

const char *blobFaultKindName(BlobFaultKind K) {
  switch (K) {
  case BlobFaultKind::FlipBit:
    return "flip_bit";
  case BlobFaultKind::SetByte:
    return "set_byte";
  case BlobFaultKind::DeleteByte:
    return "delete_byte";
  case BlobFaultKind::InsertByte:
    return "insert_byte";
  case BlobFaultKind::Truncate:
    return "truncate";
  }
  return "?";
}

std::vector<BlobFaultKind> allBlobFaultKinds() {
  return {BlobFaultKind::FlipBit, BlobFaultKind::SetByte,
          BlobFaultKind::DeleteByte, BlobFaultKind::InsertByte,
          BlobFaultKind::Truncate};
}

std::string mutateBlob(const std::string &Blob, BlobFaultKind Kind,
                       uint64_t Seed, std::string &Desc) {
  std::string Out = Blob;
  if (Out.size() < 2) {
    Desc = "blob too small";
    return Out;
  }
  uint64_t H = mix(Seed + 0x517cc1b727220a95ULL +
                   static_cast<uint64_t>(Kind) * 0x2545f4914f6cdd1dULL);
  auto Pick = [&](size_t Span) {
    H = mix(H);
    return static_cast<size_t>(H % static_cast<uint64_t>(Span));
  };
  // Printable, never equal to the byte it replaces or neighbours' quotes.
  auto PrintableChar = [&](char Avoid) {
    for (;;) {
      char C = static_cast<char>('0' + Pick(75)); // '0'..'z'
      if (C != Avoid)
        return C;
    }
  };

  switch (Kind) {
  case BlobFaultKind::FlipBit: {
    size_t I = Pick(Out.size());
    unsigned Bit = static_cast<unsigned>(Pick(8));
    Out[I] = static_cast<char>(Out[I] ^ (1u << Bit));
    Desc = "flip bit " + std::to_string(Bit) + " of byte " +
           std::to_string(I);
    break;
  }
  case BlobFaultKind::SetByte: {
    size_t I = Pick(Out.size());
    char C = PrintableChar(Out[I]);
    Desc = std::string("byte ") + std::to_string(I) + " '" + Out[I] +
           "' -> '" + C + "'";
    Out[I] = C;
    break;
  }
  case BlobFaultKind::DeleteByte: {
    size_t I = Pick(Out.size());
    Desc = std::string("delete byte ") + std::to_string(I) + " ('" +
           Out[I] + "')";
    Out.erase(I, 1);
    break;
  }
  case BlobFaultKind::InsertByte: {
    size_t I = Pick(Out.size() + 1);
    char C = PrintableChar('\0');
    Out.insert(Out.begin() + static_cast<ptrdiff_t>(I), C);
    Desc = std::string("insert '") + C + "' at byte " + std::to_string(I);
    break;
  }
  case BlobFaultKind::Truncate: {
    size_t Keep = Pick(Out.size()); // 0 .. size-1: always drops something
    Desc = "truncate to " + std::to_string(Keep) + " of " +
           std::to_string(Out.size()) + " bytes";
    Out.resize(Keep);
    break;
  }
  }
  return Out;
}

std::string BlobTrial::str() const {
  std::string Out = std::string(blobFaultKindName(Kind)) +
                    "(seed=" + std::to_string(Seed) + "): " + Description +
                    " — ";
  if (!Mutated)
    return Out + "no-op";
  if (Rejected)
    return Out + "rejected (" + Error + ")";
  if (Identical)
    return Out + "accepted, decoded bit-identical";
  return Out + "SILENT ACCEPT";
}

unsigned BlobCampaignResult::mutated() const {
  unsigned N = 0;
  for (const BlobTrial &T : Trials)
    N += T.Mutated ? 1 : 0;
  return N;
}

unsigned BlobCampaignResult::rejected() const {
  unsigned N = 0;
  for (const BlobTrial &T : Trials)
    N += T.Mutated && T.Rejected ? 1 : 0;
  return N;
}

unsigned BlobCampaignResult::tolerated() const {
  unsigned N = 0;
  for (const BlobTrial &T : Trials)
    N += T.Mutated && !T.Rejected && T.Identical ? 1 : 0;
  return N;
}

unsigned BlobCampaignResult::silentAccepts() const {
  unsigned N = 0;
  for (const BlobTrial &T : Trials)
    N += T.silentAccept() ? 1 : 0;
  return N;
}

std::string BlobCampaignResult::summary() const {
  return std::to_string(Trials.size()) + " trials: " +
         std::to_string(mutated()) + " mutated, " +
         std::to_string(rejected()) + " rejected, " +
         std::to_string(tolerated()) + " tolerated, " +
         std::to_string(silentAccepts()) + " silent-accept";
}

BlobCampaignResult runBlobCampaign(const artifact::CompiledKernel &CK,
                                   unsigned SeedsPerKind) {
  static obs::Counter &Trials = obs::counter("guard.blob_trials");
  static obs::Counter &Silent = obs::counter("guard.blob_silent_accept");
  const std::string Pristine = artifact::serialize(CK);

  BlobCampaignResult R;
  for (BlobFaultKind K : allBlobFaultKinds()) {
    for (unsigned Seed = 0; Seed < SeedsPerKind; ++Seed) {
      Trials.add();
      BlobTrial T;
      T.Kind = K;
      T.Seed = Seed;
      std::string Mutant = mutateBlob(Pristine, K, Seed, T.Description);
      T.Mutated = Mutant != Pristine;
      if (T.Mutated) {
        artifact::CompiledKernel Decoded;
        support::Status S = artifact::deserialize(Mutant, Decoded);
        T.Rejected = !S.ok();
        if (T.Rejected)
          T.Error = S.str();
        else
          T.Identical = artifact::serialize(Decoded) == Pristine;
        if (T.silentAccept())
          Silent.add();
      }
      R.Trials.push_back(std::move(T));
    }
  }
  return R;
}

} // namespace guard
} // namespace sds
