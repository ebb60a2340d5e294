//===- FaultInjection.h - Index-array corruption harness --------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Deliberately corrupts the index arrays of a bound environment and checks
// the guard's end-to-end contract: every corruption is either *detected*
// by property validation or *harmless* (the schedule derived from the
// simplified inspectors still respects the baseline dependence graph of
// the corrupted input). A trial where neither holds is a silent wrong
// schedule — the failure class this subsystem exists to rule out.
//
// Corruptions are deterministic (seed-derived positions, no global RNG)
// so any failing trial replays exactly. Injected out-of-range values are
// always *positive*: a huge negative value in a pointer array would turn
// inspector loop lower bounds into ~-2^60 and the trial into an effective
// hang rather than a verdict.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_GUARD_FAULT_INJECTION_H
#define SDS_GUARD_FAULT_INJECTION_H

#include "sds/guard/Guarded.h"

#include <string>
#include <vector>

namespace sds {
namespace guard {

/// The corruption classes applied to one array.
enum class FaultKind {
  SwapAdjacent,  ///< swap two adjacent entries (breaks sortedness)
  SwapDistant,   ///< swap two entries far apart
  DuplicateEntry,///< overwrite an entry with its neighbour's value
  OffByOne,      ///< increment one entry
  OutOfRange,    ///< set one entry to a large positive out-of-range value
  Truncate,      ///< drop the trailing entries (short read / bad nnz)
};

const char *faultKindName(FaultKind K);

/// All kinds, in declaration order (the campaign iterates this).
std::vector<FaultKind> allFaultKinds();

/// One planned corruption: which array, what kind, and a seed that
/// deterministically picks the position(s).
struct FaultSpec {
  std::string Array;
  FaultKind Kind;
  uint64_t Seed = 0;
};

/// Apply `S` to a copy of `Env`. `Desc` receives a human-readable record
/// of what changed (e.g. "col[17] 3 -> 9"). Returns false when the fault
/// could not change the data (array too small, swap of equal values...);
/// the environment copy is then unchanged.
bool injectFault(const codegen::UFEnvironment &Env, const FaultSpec &S,
                 codegen::UFEnvironment &Out, std::string &Desc);

/// Outcome of one injected-fault trial.
struct FaultTrial {
  FaultSpec Spec;
  std::string Description; ///< what was corrupted
  bool Injected = false;   ///< the fault actually altered data
  bool Detected = false;   ///< validation reported non-trusted
  bool StillCorrect = false; ///< simplified-graph schedule respects baseline
  double Seconds = 0;

  /// The contract violation: data changed, validation passed, and the
  /// schedule breaks real dependences.
  bool silentWrong() const { return Injected && !Detected && !StillCorrect; }

  std::string str() const;
};

/// Run one trial: inject, validate, and — when undetected — cross-check
/// the simplified inspectors' schedule against the baseline inspectors on
/// the corrupted arrays. `N` is the outer iteration count (as for
/// runInspectors); `Threads` sizes both inspector runs and the schedule.
FaultTrial runFaultTrial(const deps::PipelineResult &Analysis,
                         const ir::PropertySet &PS,
                         const codegen::UFEnvironment &Env, int N,
                         const FaultSpec &S, int Threads = 1);

/// Enumerate the full campaign for an environment: every bound span array
/// crossed with every fault kind, `SeedsPerPair` seeds each.
std::vector<FaultSpec> faultCampaign(const codegen::UFEnvironment &Env,
                                     unsigned SeedsPerPair = 1);

/// Aggregate of a campaign run.
struct CampaignResult {
  std::vector<FaultTrial> Trials;

  unsigned injected() const;
  unsigned detected() const;
  unsigned tolerated() const; ///< injected, undetected, but still correct
  unsigned silentWrong() const;

  std::string summary() const;
};

/// Run every spec of a campaign against one analyzed kernel.
CampaignResult runCampaign(const deps::PipelineResult &Analysis,
                           const ir::PropertySet &PS,
                           const codegen::UFEnvironment &Env, int N,
                           const std::vector<FaultSpec> &Specs,
                           int Threads = 1);

//===----------------------------------------------------------------------===//
// Misspeculation campaign (the speculative-inference analogue of the
// declared-property campaign above). Property inference runs on the
// *pristine* environment; the arrays are corrupted afterwards, so every
// profiler-confirmed property is a potential lie at bind time. The
// contract under test is the remedy path: every elimination citing an
// inferred assertion must either see its remedy validated on the
// corrupted arrays or be individually revoked (per dependence) — and the
// schedule ultimately served must always respect the baseline dependence
// graph of the corrupted input. A wrong schedule is the misspeculation
// disaster this layer exists to rule out.
//===----------------------------------------------------------------------===//

/// Outcome of one misspeculation trial.
struct InferTrial {
  FaultSpec Spec;
  std::string Description; ///< what was corrupted
  bool Injected = false;   ///< the fault actually altered data
  bool RemedyTripped = false; ///< >= 1 inferred-tier remedy failed validation
  unsigned DepsRevoked = 0;   ///< dependences individually reverted
  bool UsedFallback = false;  ///< at least one dependence was revoked
  bool StillCorrect = false;  ///< served schedule respects corrupted baseline
  double Seconds = 0;

  /// The contract violation: data changed and the schedule served from the
  /// speculated analysis breaks real dependences of the corrupted input.
  bool silentWrong() const { return Injected && !StillCorrect; }

  std::string str() const;
};

/// Aggregate of a misspeculation campaign.
struct InferCampaignResult {
  std::vector<InferTrial> Trials;

  unsigned PropsConfirmed = 0;  ///< profiler-confirmed candidates
  unsigned SpeculativeDeps = 0; ///< dependences whose core cites speculation
  /// Of those, the ones refuted before runtime (PropertyUnsat) — the
  /// eliminations that exist only because of speculation.
  unsigned EliminatedSpeculatively = 0;

  unsigned injected() const;
  unsigned remedyTripped() const; ///< trials where a remedy failed
  unsigned revokedDeps() const;   ///< per-dependence revocations, summed
  unsigned tolerated() const; ///< injected, no remedy tripped, still correct
  unsigned silentWrong() const;

  std::string summary() const;
};

/// Run the misspeculation campaign for one kernel: strip the declared
/// properties, profile the pristine `Env` (sds::infer), analyze
/// speculatively against the confirmed set, then replay every
/// (array, kind, seed) corruption with the guard in Mode Off — inferred
/// remedies are validated even there — and cross-check the resulting
/// schedule against the corrupted input's baseline graph.
InferCampaignResult runInferCampaign(const kernels::Kernel &K,
                                     const codegen::UFEnvironment &Env, int N,
                                     unsigned SeedsPerPair = 1,
                                     int Threads = 1);

//===----------------------------------------------------------------------===//
// Serialized-artifact corruption (the storage analogue of the index-array
// campaign above). A compiled kernel that sits on disk between compile and
// serve time can rot: bit flips, short reads, concatenated writes, stray
// edits. The contract mirrors the guard's: every mutation of the blob text
// is either *rejected* by artifact::deserialize, or *harmless* — the
// accepted artifact re-serializes to exactly the pristine blob, i.e. the
// mutation did not change a single decoded bit. A "silent accept" (blob
// changed, load succeeded, contents differ) would poison every run-many
// process started from that file.
//===----------------------------------------------------------------------===//

/// The byte-level corruption classes applied to a serialized blob.
enum class BlobFaultKind {
  FlipBit,    ///< flip one bit of one byte
  SetByte,    ///< overwrite one byte with a seed-derived printable char
  DeleteByte, ///< remove one byte (shifts the rest)
  InsertByte, ///< insert one printable byte
  Truncate,   ///< keep only a prefix (short read / partial write)
};

const char *blobFaultKindName(BlobFaultKind K);
std::vector<BlobFaultKind> allBlobFaultKinds();

/// Mutate `Blob` per (Kind, Seed); deterministic. Returns the mutated text
/// and describes the edit in `Desc`. Guaranteed to differ from the input
/// for any blob of >= 2 bytes.
std::string mutateBlob(const std::string &Blob, BlobFaultKind Kind,
                       uint64_t Seed, std::string &Desc);

/// Outcome of one blob-corruption trial.
struct BlobTrial {
  BlobFaultKind Kind = BlobFaultKind::FlipBit;
  uint64_t Seed = 0;
  std::string Description; ///< what byte(s) changed
  bool Mutated = false;    ///< the text actually changed
  bool Rejected = false;   ///< deserialize returned a non-OK Status
  bool Identical = false;  ///< accepted AND re-serializes to the pristine blob
  std::string Error;       ///< the rejection Status text, when rejected

  /// The contract violation: text changed, load succeeded, decoded
  /// contents differ from the pristine artifact.
  bool silentAccept() const { return Mutated && !Rejected && !Identical; }

  std::string str() const;
};

/// Aggregate of a blob campaign.
struct BlobCampaignResult {
  std::vector<BlobTrial> Trials;

  unsigned mutated() const;
  unsigned rejected() const;
  unsigned tolerated() const; ///< accepted but decoded bit-identical
  unsigned silentAccepts() const;

  std::string summary() const;
};

/// Corrupt serialize(CK) `SeedsPerKind` times per fault kind and check the
/// detect-or-reject contract on every mutant.
BlobCampaignResult runBlobCampaign(const artifact::CompiledKernel &CK,
                                   unsigned SeedsPerKind = 8);

//===----------------------------------------------------------------------===//
// Persistent-store corruption (the sds::store analogue of the blob
// campaign above, run against a live on-disk store rather than an
// in-memory string). Each trial publishes a pristine artifact, applies a
// storage-level fault — torn write, bit rot, schema skew, a blocked
// quarantine path, the debris of a writer killed mid-save — and then
// drives the normal read path. The contract is detect-or-tolerate: every
// trial must end with either a bit-identical artifact served or a clean
// miss (quarantine / recovery + transparent fallback to recompilation).
// Serving an artifact that differs from the pristine one is the silent
// wrong-plan failure this layer exists to rule out; so is any crash.
//===----------------------------------------------------------------------===//

/// The storage-level corruption classes applied to a live store.
enum class StoreFaultKind {
  TornWrite,         ///< published blob truncated mid-file (disk rot / torn IO)
  BitFlipAtRest,     ///< one bit of the published blob flipped
  StaleSchema,       ///< blob rewritten with a skewed schema/ABI envelope
  QuarantineBlocked, ///< blob corrupted AND the quarantine move made impossible
  KillMidWrite,      ///< orphaned *.tmp debris of a writer killed mid-save
};

const char *storeFaultKindName(StoreFaultKind K);
std::vector<StoreFaultKind> allStoreFaultKinds();

/// Outcome of one store-corruption trial.
struct StoreTrial {
  StoreFaultKind Kind = StoreFaultKind::TornWrite;
  uint64_t Seed = 0;
  std::string Description;    ///< what was done to the store
  bool Injected = false;      ///< the fault actually altered on-disk state
  bool ServedPristine = false;///< get() Found a bit-identical artifact
  bool FellBack = false;      ///< get() reported a clean miss (recompile path)
  bool Quarantined = false;   ///< the store moved the bad blob aside
  bool RecoveredTmp = false;  ///< the startup scan removed orphaned tmp files
  bool WrongServe = false;    ///< get() Found an artifact differing from pristine
  std::string Error;          ///< non-OK Status text, when the read errored

  /// The contract violation: the read path handed back a plan that is not
  /// the one that was written.
  bool silentWrong() const { return WrongServe; }
  /// Detect-or-tolerate: the trial ended in one of the two allowed states.
  bool contractHeld() const {
    return !WrongServe && (ServedPristine || FellBack);
  }

  std::string str() const;
};

/// Aggregate of a store campaign.
struct StoreCampaignResult {
  std::vector<StoreTrial> Trials;

  unsigned injected() const;
  unsigned servedPristine() const;
  unsigned fellBack() const;
  unsigned quarantined() const;
  unsigned silentWrongs() const;
  /// contractHeld() on every injected trial.
  bool allHeld() const;

  std::string summary() const;
};

/// Run `SeedsPerKind` trials of every StoreFaultKind against stores rooted
/// under `RootDir` (one fresh subdirectory per trial, left behind for
/// post-mortem only when the trial fails). `CK` is the pristine artifact
/// each trial publishes and then attacks.
StoreCampaignResult runStoreCampaign(const artifact::CompiledKernel &CK,
                                     const std::string &RootDir,
                                     unsigned SeedsPerKind = 4);

} // namespace guard
} // namespace sds

#endif // SDS_GUARD_FAULT_INJECTION_H
