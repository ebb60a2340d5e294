//===- Store.h - Crash-safe persistent artifact store -----------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The on-disk tier of the compile-once/run-many split: a content-addressed
// directory of serialized CompiledKernel blobs that survives process
// restarts and is shared across processes. One blob per store key — the
// kernel name, the analysis option key, the schedule-config key, and the
// codec's ABI fingerprint, so a blob can never be served to a reader whose
// enum tables or analysis switches differ from the writer's.
//
// Robustness contract (DESIGN.md §16):
//
//  * Atomic writes. put() serializes into `<blob>.tmp<pid>`, flushes it to
//    the device (fsync), and publishes it with rename(2); readers can
//    never observe a torn blob at the final path. A crash mid-write
//    leaves only a *.tmp file, which the next startup's recovery scan
//    removes (counted + flight-recorded, never silently).
//
//  * Verified reads. get() decodes through artifact::deserialize, which
//    checks the envelope magic, schema version, ABI fingerprint, and the
//    payload checksum; the decoded identity is additionally matched back
//    against the requested key. A blob that fails any check is
//    *quarantined* — moved aside into `<root>/quarantine/`, never deleted
//    — and get() reports a miss so the caller transparently falls back to
//    recompilation. If even the quarantine move fails, the corrupt blob
//    stays in place (still never silently deleted) and the failure is
//    flight-recorded; the read still degrades to a miss.
//
//  * Byte-budgeted LRU sweep. Every hit touches the blob's mtime, so
//    least-recently-used order persists across processes; sweep() (run
//    automatically after put() when MaxBytes is set) evicts oldest-read
//    blobs until the store fits the budget.
//
// Every decision is counted once, in the always-on StoreStats fields
// (tests assert on these); the metrics snapshot shows each field as a
// "store.*" gauge summed over live stores, and the flight recorder keeps
// the rare events (quarantine, recovery, eviction).
//
// Thread safety: all public members are safe to call concurrently from one
// process (a mutex serializes metadata updates); cross-process safety
// rests on rename(2) atomicity — two writers race benignly (last rename
// wins, both blobs are complete), and a reader sees either the old or the
// new complete blob.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_STORE_STORE_H
#define SDS_STORE_STORE_H

#include "sds/artifact/Artifact.h"
#include "sds/runtime/Schedule.h"
#include "sds/support/Status.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sds {
namespace store {

/// Store-wide knobs, fixed at construction.
struct StoreOptions {
  /// Directory holding the blobs (created, along with `quarantine/`, if
  /// missing). Must be non-empty.
  std::string Root;
  /// Byte budget for the LRU sweep; 0 = unbounded (sweep never evicts).
  uint64_t MaxBytes = 0;
  /// Decode-verify every blob during the startup recovery scan (quarantine
  /// failures immediately) instead of lazily on first read. Costs a full
  /// decode per blob, so it is off by default; the read path verifies
  /// either way.
  bool VerifyOnRecovery = false;
};

/// Always-on accounting for one store. Each field is also a gauge source
/// ("store.hit", "store.miss", ...), summed over live stores.
struct StoreStats {
  uint64_t Hits = 0;             ///< get() decoded + verified a blob
  uint64_t Misses = 0;           ///< get() found no blob for the key
  uint64_t Puts = 0;             ///< put() published a new/changed blob
  uint64_t PutIdentical = 0;     ///< put() skipped: on-disk bytes already equal
  uint64_t Quarantined = 0;      ///< corrupt blobs moved to quarantine/
  uint64_t QuarantineFailed = 0; ///< corrupt blob could not be moved aside
  uint64_t SweepEvicted = 0;     ///< blobs removed by the LRU byte budget
  uint64_t RecoveredTmp = 0;     ///< orphaned *.tmp files removed at startup
};

/// Crash-safe persistent artifact store. See the file comment for the
/// atomicity/recovery contract.
class Store {
public:
  /// Opens (creating if needed) the store at Opts.Root and runs the
  /// startup recovery scan. Check status() before use: a store whose root
  /// cannot be created is dead (every get misses, every put fails).
  explicit Store(StoreOptions Opts);
  ~Store();
  Store(const Store &) = delete;
  Store &operator=(const Store &) = delete;

  /// Construction outcome (directory creation + recovery scan).
  const support::Status &status() const;

  /// The store key an artifact is addressed by: kernel name + analysis
  /// option key + schedule-config key + codec ABI fingerprint.
  static std::string keyFor(const std::string &KernelName,
                            const artifact::AnalysisOptions &Options,
                            const rt::ScheduleConfig &Schedule);
  static std::string keyFor(const artifact::CompiledKernel &CK);

  /// Blob file path for a key (deterministic; exists only after a put).
  std::string blobPath(const std::string &Key) const;

  /// Atomically publish `CK` under keyFor(CK). Identical on-disk bytes are
  /// left untouched (and counted as PutIdentical). Runs the LRU sweep when
  /// a byte budget is configured.
  [[nodiscard]] support::Status put(const artifact::CompiledKernel &CK);

  /// Look up `Key`. Returns OK with Found=true and a fully verified
  /// artifact in `Out`; OK with Found=false on a miss *or* a corrupt blob
  /// (which is quarantined — the caller recompiles either way); non-OK
  /// only for environmental failures (dead store, unreadable directory).
  [[nodiscard]] support::Status get(const std::string &Key,
                                    artifact::CompiledKernel &Out,
                                    bool &Found);

  /// True when a blob exists for `Key` (no verification).
  bool contains(const std::string &Key) const;

  /// Evict least-recently-used blobs until the store fits MaxBytes.
  /// No-op when MaxBytes == 0.
  [[nodiscard]] support::Status sweep();

  /// Total bytes of published blobs (excludes quarantine and tmp files).
  uint64_t totalBytes() const;

  /// Filenames currently sitting in quarantine/, sorted.
  std::vector<std::string> listQuarantined() const;

  StoreStats stats() const;
  const std::string &root() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace store
} // namespace sds

#endif // SDS_STORE_STORE_H
