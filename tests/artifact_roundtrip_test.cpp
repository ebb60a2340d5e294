//===- artifact_roundtrip_test.cpp - Compile-once/run-many invariants ------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
// The tentpole contract of the artifact layer, asserted suite-wide:
//
//   1. save -> load -> inspect -> schedule is *bit-identical* to fresh
//      analysis on every kernel, at every thread count — the artifact is
//      the analysis, not an approximation of it;
//   2. the load path issues zero Presburger queries (asserted on the
//      always-on solver counters, which count even with tracing off);
//   3. corrupt, truncated, version-skewed, ABI-foreign, or core-less
//      blobs are rejected with a contextful Status and no partial state.
//
//===----------------------------------------------------------------------===//

#include "sds/artifact/Artifact.h"
#include "sds/driver/Driver.h"
#include "sds/guard/Guarded.h"
#include "sds/presburger/BasicSet.h"
#include "sds/store/Store.h"
#include "sds/support/Hash.h"
#include "sds/support/JSON.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string_view>

using namespace sds;
using namespace sds::rt;

namespace {

CSRMatrix randomSPD(int N, int Nnz, int Band, uint64_t Seed) {
  GeneratorConfig C;
  C.N = N;
  C.AvgNnzPerRow = Nnz;
  C.Bandwidth = Band;
  C.Seed = Seed;
  return generateSPDLike(C);
}

/// Heavy factorizations run with the proof stages off (see
/// driver_parallel_test.cpp): the round-trip property is about the codec
/// and the runtime, not the simplifier's minutes-long analyses.
deps::PipelineOptions reducedOptions() {
  deps::PipelineOptions Opts;
  Opts.UseProperties = false;
  Opts.UseEqualities = false;
  Opts.UseSubsets = false;
  Opts.Simp.SemanticPhase1 = false;
  Opts.Simp.InstantiationRounds = 1;
  Opts.Simp.MaxInstances = 2000;
  Opts.Simp.MaxPhase2Instances = 2;
  Opts.Simp.MaxPieces = 16;
  return Opts;
}

struct SuiteCase {
  std::string Key;
  kernels::Kernel K;
  deps::PipelineOptions Opts;
  int N;
};

std::vector<SuiteCase> suite() {
  return {
      {"fs_csr", kernels::forwardSolveCSR(), {}, 150},
      {"fs_csc", kernels::forwardSolveCSC(), {}, 150},
      {"gs_csr", kernels::gaussSeidelCSR(), {}, 150},
      {"spmv_csr", kernels::spmvCSR(), {}, 150},
      {"ilu0_csr", kernels::incompleteLU0CSR(), reducedOptions(), 60},
      {"ic0_csc", kernels::incompleteCholeskyCSC(), reducedOptions(), 60},
      {"lchol_csc", kernels::leftCholeskyCSC(), reducedOptions(), 60},
  };
}

/// Bind the right arrays for one kernel key on a random SPD-like matrix.
codegen::UFEnvironment wire(const std::string &Key, uint64_t Seed, int N,
                            int &OutN) {
  CSRMatrix A = randomSPD(N, 5, 12, Seed);
  if (Key == "gs_csr" || Key == "ilu0_csr") {
    OutN = A.N;
    return driver::bindCSR(A, A.diagonalPositions());
  }
  if (Key == "spmv_csr") {
    OutN = A.N;
    return driver::bindCSR(A);
  }
  if (Key == "fs_csr") {
    CSRMatrix Lower = lowerTriangle(A);
    OutN = Lower.N;
    return driver::bindCSR(Lower);
  }
  CSCMatrix L = toCSC(lowerTriangle(A));
  OutN = L.N;
  if (Key == "lchol_csc") {
    PruneSets Prune = buildPruneSets(L);
    return driver::bindCSC(L, &Prune);
  }
  return driver::bindCSC(L);
}

void expectGraphsEqual(const DependenceGraph &A, const DependenceGraph &B,
                       const std::string &Label) {
  ASSERT_EQ(A.numNodes(), B.numNodes()) << Label;
  EXPECT_EQ(A.numEdges(), B.numEdges()) << Label;
  for (int U = 0; U < A.numNodes(); ++U) {
    auto SA = A.successors(U);
    auto SB = B.successors(U);
    ASSERT_TRUE(std::equal(SA.begin(), SA.end(), SB.begin(), SB.end()))
        << Label << ": successor mismatch at node " << U;
  }
}

/// Replace the value after every occurrence of `Key` with `Mask`.
/// `ValueEnd(S, From)` returns the end of the value that starts at `From`,
/// or npos when no value of the expected shape starts there.
template <typename ValueEndFn>
std::string maskValues(const std::string &S, std::string_view Key,
                       std::string_view Mask, ValueEndFn ValueEnd) {
  std::string Out;
  size_t Pos = 0;
  for (size_t At; (At = S.find(Key, Pos)) != std::string::npos;) {
    size_t From = At + Key.size();
    Out.append(S, Pos, From - Pos);
    Pos = From;
    size_t End = ValueEnd(S, From);
    if (End != std::string::npos) {
      Out += Mask;
      Pos = End;
    }
  }
  Out.append(S, Pos);
  return Out;
}

/// End of the run of `Chars` that starts at `From`.
size_t runEnd(const std::string &S, size_t From, std::string_view Chars) {
  size_t End = S.find_first_not_of(Chars, From);
  return End == std::string::npos ? S.size() : End;
}

/// A serialized artifact with its wall-clock fields masked: each
/// dependence's `prov.seconds`, the `stage_seconds` object, and the
/// `checksum` that covers them. Two compiles of one kernel with the same
/// options serialize to the same masked bytes.
std::string maskTimings(const std::string &Blob) {
  // "stage_seconds":{...} -> "stage_seconds":{}
  std::string S = maskValues(Blob, R"("stage_seconds":{)", "}",
                             [](const std::string &S, size_t From) {
                               size_t Close = S.find('}', From);
                               return Close == std::string::npos ? Close
                                                                 : Close + 1;
                             });
  // "seconds":<number> -> "seconds":0
  S = maskValues(S, R"("seconds":)", "0",
                 [](const std::string &S, size_t From) {
                   size_t End = runEnd(S, From, "-+0123456789.eE");
                   return End == From ? std::string::npos : End;
                 });
  // "checksum":"<hex>" -> "checksum":""
  return maskValues(S, R"("checksum":")", R"(")",
                    [](const std::string &S, size_t From) {
                      size_t End = runEnd(S, From, "0123456789abcdef");
                      return End < S.size() && S[End] == '"'
                                 ? End + 1
                                 : std::string::npos;
                    });
}

uint64_t presburgerQueries() {
  presburger::QueryCacheStats Q = presburger::queryCacheStats();
  presburger::PrefilterStats P = presburger::prefilterStats();
  return Q.Hits + Q.Misses + P.rejects() + P.SyntacticSubsetHits + P.Misses;
}

} // namespace

// Serialization is deterministic and self-inverse: decode(encode(x))
// re-encodes to the same bytes, for every kernel of the suite.
TEST(ArtifactRoundTrip, SerializationIsIdempotent) {
  for (const SuiteCase &C : suite()) {
    artifact::CompiledKernel CK = artifact::compile(C.K, C.Opts);
    std::string Blob = artifact::serialize(CK);
    artifact::CompiledKernel Loaded;
    support::Status S = artifact::deserialize(Blob, Loaded);
    ASSERT_TRUE(S.ok()) << C.Key << ": " << S.str();
    EXPECT_EQ(Blob, artifact::serialize(Loaded)) << C.Key;
    EXPECT_EQ(CK.Deps.size(), Loaded.Deps.size()) << C.Key;
    EXPECT_EQ(CK.summary(), Loaded.summary()) << C.Key;
    for (size_t I = 0; I < CK.Deps.size(); ++I) {
      EXPECT_EQ(CK.Deps[I].Status, Loaded.Deps[I].Status) << C.Key;
      EXPECT_EQ(CK.Deps[I].Simplified.str(), Loaded.Deps[I].Simplified.str())
          << C.Key;
      EXPECT_EQ(CK.Deps[I].Plan.Valid, Loaded.Deps[I].Plan.Valid) << C.Key;
      if (CK.Deps[I].Plan.Valid) {
        EXPECT_EQ(CK.Deps[I].Plan.emitC("f"), Loaded.Deps[I].Plan.emitC("f"))
            << C.Key;
      }
    }
  }
}

// The recorded timings ride inside the checksummed payload (the warm-vs-
// cold report reads them back), so only a masked comparison can show that
// two compiles agree: at 1 and at 4 threads every other byte is the same.
TEST(ArtifactRoundTrip, CompilesAgreeOnceTimingsAreMasked) {
  for (const SuiteCase &C : suite()) {
    if (C.Key != "fs_csr" && C.Key != "fs_csc" && C.Key != "gs_csr")
      continue;
    deps::PipelineOptions Serial = C.Opts, Parallel = C.Opts;
    Serial.NumThreads = 1;
    Parallel.NumThreads = 4;
    std::string Masked =
        maskTimings(artifact::serialize(artifact::compile(C.K, Serial)));
    EXPECT_NE(Masked.find(R"("stage_seconds":{})"), std::string::npos);
    EXPECT_NE(Masked.find(R"("checksum":"")"), std::string::npos);
    EXPECT_EQ(Masked, maskTimings(artifact::serialize(
                          artifact::compile(C.K, Parallel))))
        << C.Key;
  }
}

// The headline invariant: on all 7 kernels, a loaded artifact drives the
// inspectors and the scheduler to bit-identical results vs the fresh
// analysis, at 1 and 4 threads, with zero Presburger queries after the
// decode starts.
TEST(ArtifactRoundTrip, BitIdenticalGraphAndScheduleZeroQueries) {
  for (const SuiteCase &C : suite()) {
    deps::PipelineResult Fresh = deps::analyzeKernel(C.K, C.Opts);
    int N = 0;
    codegen::UFEnvironment Env = wire(C.Key, 11, C.N, N);
    std::string Blob =
        artifact::serialize(artifact::fromAnalysis(Fresh, C.Opts));

    uint64_t Before = presburgerQueries();
    artifact::CompiledKernel Loaded;
    support::Status S = artifact::deserialize(Blob, Loaded);
    ASSERT_TRUE(S.ok()) << C.Key << ": " << S.str();

    for (int Threads : {1, 4}) {
      driver::InspectorOptions IOpts;
      IOpts.NumThreads = Threads;
      std::string Label = C.Key + " threads=" + std::to_string(Threads);
      driver::InspectionResult FromLoaded =
          driver::runInspectors(Loaded, Env, N, IOpts);
      rt::WavefrontSchedule SchedLoaded =
          rt::scheduleLevelSets(FromLoaded.Graph, 4);
      // Everything above this line is the serving path; it must not have
      // touched the Presburger layer at all.
      EXPECT_EQ(presburgerQueries(), Before) << Label;

      driver::InspectionResult FromFresh =
          driver::runInspectors(Fresh, Env, N, IOpts);
      rt::WavefrontSchedule SchedFresh =
          rt::scheduleLevelSets(FromFresh.Graph, 4);
      expectGraphsEqual(FromFresh.Graph, FromLoaded.Graph, Label);
      EXPECT_EQ(FromFresh.InspectorVisits, FromLoaded.InspectorVisits)
          << Label;
      EXPECT_EQ(SchedFresh.Waves, SchedLoaded.Waves) << Label;
      Before = presburgerQueries(); // fresh leg may query; re-baseline
    }
  }
}

// The guard consumes artifacts too: validation verdicts and the resulting
// graph match the fresh-analysis guarded run.
TEST(ArtifactRoundTrip, GuardedRunFromArtifactMatchesFresh) {
  SuiteCase C = suite()[1]; // fs_csc
  deps::PipelineResult Fresh = deps::analyzeKernel(C.K, C.Opts);
  int N = 0;
  codegen::UFEnvironment Env = wire(C.Key, 29, C.N, N);

  artifact::CompiledKernel Loaded;
  ASSERT_TRUE(
      artifact::deserialize(
          artifact::serialize(artifact::fromAnalysis(
              deps::analyzeKernel(C.K, C.Opts), C.Opts)),
          Loaded)
          .ok());

  guard::GuardedOptions GOpts;
  GOpts.Verify = true;
  guard::GuardedResult FromFresh =
      guard::runGuarded(Fresh, C.K.Properties, Env, N, GOpts);
  guard::GuardedResult FromLoaded = guard::runGuarded(Loaded, Env, N, GOpts);
  EXPECT_EQ(FromFresh.Trusted, FromLoaded.Trusted);
  EXPECT_EQ(FromFresh.UsedFallback, FromLoaded.UsedFallback);
  EXPECT_TRUE(FromLoaded.VerifyPassed);
  expectGraphsEqual(FromFresh.Inspection.Graph, FromLoaded.Inspection.Graph,
                    "guarded " + C.Key);
}

// Per-dependence unsat cores are part of the artifact: they round-trip
// bit-identically, so a warm process inherits the compile-time trust base
// without re-proving anything.
TEST(ArtifactCore, CoresSurviveRoundTripBitIdentical) {
  artifact::CompiledKernel CK =
      artifact::compile(kernels::forwardSolveCSR(), {});
  bool AnyCited = false;
  for (const deps::AnalyzedDependence &D : CK.Deps) {
    AnyCited = AnyCited || !D.Core.Assertions.empty();
  }
  EXPECT_TRUE(AnyCited);

  artifact::CompiledKernel Loaded;
  support::Status S = artifact::deserialize(artifact::serialize(CK), Loaded);
  ASSERT_TRUE(S.ok()) << S.str();
  ASSERT_EQ(Loaded.Deps.size(), CK.Deps.size());
  for (size_t I = 0; I < CK.Deps.size(); ++I) {
    EXPECT_EQ(Loaded.Deps[I].Core.Assertions, CK.Deps[I].Core.Assertions);
    EXPECT_EQ(Loaded.Deps[I].Core.Minimized, CK.Deps[I].Core.Minimized);
    EXPECT_EQ(Loaded.Deps[I].Core.FromFarkas, CK.Deps[I].Core.FromFarkas);
  }
}

TEST(ArtifactRoundTrip, SaveLoadFile) {
  SuiteCase C = suite()[0];
  artifact::CompiledKernel CK = artifact::compile(C.K, C.Opts);
  std::string Path = ::testing::TempDir() + "sds_artifact_test.json";
  ASSERT_TRUE(artifact::save(CK, Path).ok());
  artifact::CompiledKernel Loaded;
  support::Status S = artifact::load(Path, Loaded);
  ASSERT_TRUE(S.ok()) << S.str();
  EXPECT_EQ(artifact::serialize(CK), artifact::serialize(Loaded));
  std::remove(Path.c_str());

  support::Status Missing =
      artifact::load(Path + ".does-not-exist", Loaded);
  EXPECT_FALSE(Missing.ok());
  EXPECT_EQ(Missing.code(), support::StatusCode::IOError);
  EXPECT_NE(Missing.message().find("does-not-exist"), std::string::npos);
}

namespace {

/// A sentinel artifact used to prove no-partial-state: any rejected
/// deserialize must leave every field of this exactly as constructed.
artifact::CompiledKernel sentinel() {
  artifact::CompiledKernel CK;
  CK.KernelName = "sentinel";
  CK.Format = "CSR";
  CK.StageSeconds["extraction"] = 42.0;
  return CK;
}

void expectRejected(const std::string &Blob, const std::string &MsgSubstr,
                    const std::string &Label) {
  artifact::CompiledKernel Out = sentinel();
  support::Status S = artifact::deserialize(Blob, Out);
  EXPECT_FALSE(S.ok()) << Label;
  EXPECT_NE(S.message().find(MsgSubstr), std::string::npos)
      << Label << ": message was '" << S.message() << "'";
  // No partial state: the sentinel survives rejection untouched.
  EXPECT_EQ(Out.KernelName, "sentinel") << Label;
  EXPECT_EQ(Out.Format, "CSR") << Label;
  EXPECT_EQ(Out.StageSeconds.at("extraction"), 42.0) << Label;
  EXPECT_TRUE(Out.Deps.empty()) << Label;
}

/// The envelope's payload checksum: FNV-1a 64 over the payload's canonical
/// text, as 16 lowercase hex digits.
std::string payloadChecksum(const json::Value &Payload) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(
                    support::fnv1a64(Payload.str())));
  return Buf;
}

/// Re-emit `Blob` with its first dependence passed through `Edit` and the
/// payload checksum re-stamped, so decoding gets past the integrity check
/// and reaches the edited dependence.
std::string editFirstDep(const std::string &Blob,
                         const std::function<void(json::Object &)> &Edit) {
  json::ParseResult P = json::parse(Blob);
  EXPECT_TRUE(P.Ok) << P.Error;
  json::Object Root = P.Val.asObject();
  json::Object Payload = Root.at("payload").asObject();
  json::Array Deps = Payload.at("deps").asArray();
  json::Object Dep = Deps.at(0).asObject();
  Edit(Dep);
  Deps[0] = json::Value(std::move(Dep));
  Payload.insert_or_assign("deps", json::Value(std::move(Deps)));
  json::Value Sealed(std::move(Payload));
  Root.insert_or_assign("checksum", json::Value(payloadChecksum(Sealed)));
  Root.insert_or_assign("payload", std::move(Sealed));
  return json::Value(std::move(Root)).str();
}

} // namespace

TEST(ArtifactRejection, CorruptTruncatedSkewedBlobs) {
  std::string Blob =
      artifact::serialize(artifact::compile(kernels::forwardSolveCSC()));

  expectRejected("", "artifact", "empty");
  expectRejected("not json at all", "artifact", "garbage");
  expectRejected(Blob.substr(0, Blob.size() / 2), "artifact", "truncated");
  expectRejected("{}", "magic", "missing magic");
  expectRejected("{\"magic\":\"sds.compiled_kernel\"}", "schema_version",
                 "missing version");

  // Version skew: bump the envelope's schema_version only. The checksum
  // still matches (it covers the payload), so this exercises the version
  // check specifically.
  {
    std::string Skew = Blob;
    std::string Tag = "\"schema_version\":";
    size_t Pos = Skew.find(Tag);
    ASSERT_NE(Pos, std::string::npos);
    Skew.insert(Pos + Tag.size(), "9");
    expectRejected(Skew, "schema version", "version skew");
  }

  // ABI skew: a blob from a build with different enum tables.
  {
    std::string Foreign = Blob;
    std::string Tag = "\"abi\":\"";
    size_t Pos = Foreign.find(Tag);
    ASSERT_NE(Pos, std::string::npos);
    Foreign[Pos + Tag.size()] = 'x';
    expectRejected(Foreign, "ABI fingerprint", "abi skew");
  }

  // Content corruption that still parses as JSON: flip a character inside
  // the payload. The canonical-text checksum must catch it.
  {
    std::string Corrupt = Blob;
    size_t Pos = Corrupt.find("\"status\":\"");
    ASSERT_NE(Pos, std::string::npos);
    Corrupt[Pos + 11] = Corrupt[Pos + 11] == 'x' ? 'y' : 'x';
    expectRejected(Corrupt, "checksum", "payload bit flip");
  }

  // Wrong magic: an unrelated JSON document of the right shape.
  {
    std::string Wrong = Blob;
    size_t Pos = Wrong.find("sds.compiled_kernel");
    ASSERT_NE(Pos, std::string::npos);
    Wrong.replace(Pos, 3, "xds");
    expectRejected(Wrong, "not a compiled-kernel blob", "wrong magic");
  }

  // Removed schedule kinds: a current-ABI blob naming one, resealed with a
  // matching checksum so the payload decoder itself must reject it.
  for (const char *Removed : {"vector", "p2p"}) {
    json::ParseResult P = json::parse(Blob);
    ASSERT_TRUE(P.Ok) << P.Error;
    json::Object Root = P.Val.asObject();
    json::Object Payload = Root.at("payload").asObject();
    json::Object Sched = Payload.at("schedule").asObject();
    Sched.insert_or_assign("kind", json::Value(std::string(Removed)));
    Payload.insert_or_assign("schedule", json::Value(std::move(Sched)));
    json::Value Sealed(std::move(Payload));
    Root.insert_or_assign("checksum", json::Value(payloadChecksum(Sealed)));
    Root.insert_or_assign("payload", std::move(Sealed));
    expectRejected(json::Value(std::move(Root)).str(), "schedule.kind",
                   std::string("removed ") + Removed + " kind");
  }
}

TEST(ArtifactRejection, StatusCarriesFieldContext) {
  // Corrupt a known-good blob's payload via a field rename that keeps the
  // JSON valid but breaks decoding *and* the checksum. The checksum
  // rejects first — the desired order: integrity before structure.
  std::string Blob = artifact::serialize(artifact::CompiledKernel{});
  size_t Pos = Blob.find("\"deps\":");
  ASSERT_NE(Pos, std::string::npos);
  std::string Renamed = Blob;
  Renamed.replace(Pos, 7, "\"dePs\":");
  artifact::CompiledKernel Out;
  support::Status S = artifact::deserialize(Renamed, Out);
  EXPECT_FALSE(S.ok());
  EXPECT_NE(S.message().find("checksum"), std::string::npos) << S.str();
}

// Every dependence carries its unsat core — the guard's trust base — so a
// blob whose dependence has no "core", or cites the analysis's internal
// unattributed sentinel, is malformed input: decoding fails with field
// context, and a store quarantines the blob and reports a clean miss (the
// caller recompiles).
TEST(ArtifactCore, CorelessBlobIsRejected) {
  artifact::CompiledKernel CK =
      artifact::compile(kernels::forwardSolveCSR(), {});
  std::string Blob = artifact::serialize(CK);

  // The re-stamping itself is faithful: an identity edit still decodes.
  artifact::CompiledKernel Same;
  ASSERT_TRUE(
      artifact::deserialize(editFirstDep(Blob, [](json::Object &) {}), Same)
          .ok());

  std::string Coreless =
      editFirstDep(Blob, [](json::Object &Dep) { Dep.erase("core"); });
  expectRejected(Coreless, "deps[0]: missing field 'core'", "coreless dep");

  std::string Sentinel = editFirstDep(Blob, [](json::Object &Dep) {
    json::Object Core = Dep.at("core").asObject();
    json::Array Labels;
    Labels.push_back(json::Value(std::string(ir::OriginMap::unattributed())));
    Core.insert_or_assign("assertions", json::Value(std::move(Labels)));
    Dep.insert_or_assign("core", json::Value(std::move(Core)));
  });
  expectRejected(Sentinel, "deps[0]: core: field 'assertions'",
                 "sentinel core label");

  for (const std::string *Bad : {&Coreless, &Sentinel}) {
    std::filesystem::path Root =
        std::filesystem::path(::testing::TempDir()) / "sds_artifact_coreless";
    std::filesystem::remove_all(Root);
    store::Store St({Root.string(), 0, false});
    ASSERT_TRUE(St.status().ok()) << St.status().str();
    ASSERT_TRUE(St.put(CK).ok());
    std::string Key = store::Store::keyFor(CK);
    std::ofstream(St.blobPath(Key), std::ios::binary | std::ios::trunc)
        << *Bad;

    artifact::CompiledKernel Out;
    bool Found = true;
    support::Status S = St.get(Key, Out, Found);
    ASSERT_TRUE(S.ok()) << S.str();
    EXPECT_FALSE(Found);
    EXPECT_EQ(St.stats().Quarantined, 1u);
    EXPECT_EQ(St.listQuarantined().size(), 1u);
    EXPECT_FALSE(std::filesystem::exists(St.blobPath(Key)));
    std::filesystem::remove_all(Root);
  }
}

TEST(ArtifactOptions, KeyAndEquality) {
  artifact::AnalysisOptions A; // defaults: P E S on, approx/infer off
  EXPECT_EQ(A.key(), "PES--");
  deps::PipelineOptions Reduced = reducedOptions();
  artifact::AnalysisOptions B = artifact::AnalysisOptions::of(Reduced);
  EXPECT_EQ(B.key(), "-----");
  EXPECT_FALSE(A == B);
  EXPECT_TRUE(A == artifact::AnalysisOptions::of(deps::PipelineOptions{}));
  artifact::AnalysisOptions Spec = A;
  Spec.Speculate = true;
  EXPECT_EQ(Spec.key(), "PES-I");
  EXPECT_FALSE(A == Spec); // speculation is a distinct plan dimension
}

TEST(ArtifactSchema, PipelineToJSONSharesSchema) {
  deps::PipelineResult R = deps::analyzeKernel(kernels::forwardSolveCSC());
  json::ParseResult P = json::parse(R.toJSON());
  ASSERT_TRUE(P.Ok) << P.Error;
  const json::Value *Ver = P.Val.get("schema_version");
  ASSERT_NE(Ver, nullptr);
  EXPECT_EQ(Ver->asInt(), schema::kVersion);
  const json::Value *Stages = P.Val.get("stage_seconds");
  ASSERT_NE(Stages, nullptr);
  for (size_t I = 0; I < schema::kNumStageKeys; ++I)
    EXPECT_NE(Stages->get(schema::kStageKeys[I]), nullptr)
        << schema::kStageKeys[I];

  // The artifact payload spells the same stage keys.
  artifact::CompiledKernel CK =
      artifact::compile(kernels::forwardSolveCSC());
  json::ParseResult Blob = json::parse(artifact::serialize(CK));
  ASSERT_TRUE(Blob.Ok);
  const json::Value *Payload = Blob.Val.get("payload");
  ASSERT_NE(Payload, nullptr);
  const json::Value *ArtStages = Payload->get("stage_seconds");
  ASSERT_NE(ArtStages, nullptr);
  for (size_t I = 0; I < schema::kNumStageKeys; ++I)
    EXPECT_NE(ArtStages->get(schema::kStageKeys[I]), nullptr)
        << schema::kStageKeys[I];
}
