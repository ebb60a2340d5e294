//===- Store.cpp - Crash-safe persistent artifact store -------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/store/Store.h"

#include "sds/obs/FlightRecorder.h"
#include "sds/obs/Metrics.h"
#include "sds/support/Hash.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

namespace fs = std::filesystem;

namespace sds {
namespace store {

namespace {

std::string hex16(uint64_t H) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

/// Filesystem-safe kernel-name prefix so `ls` on the store is readable;
/// the hash carries the actual identity.
std::string sanitize(const std::string &Name) {
  std::string Out;
  for (char C : Name) {
    if (std::isalnum(static_cast<unsigned char>(C)))
      Out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(C))));
    else if (!Out.empty() && Out.back() != '_')
      Out.push_back('_');
    if (Out.size() >= 24)
      break;
  }
  while (!Out.empty() && Out.back() == '_')
    Out.pop_back();
  return Out.empty() ? "kernel" : Out;
}

/// Deliberate crash points for the CI kill-mid-write recovery test:
/// SDS_STORE_CRASH_POINT=mid-blob   _exit(137) with half the bytes written
/// SDS_STORE_CRASH_POINT=before-rename  _exit(137) after fsync, pre-publish
const char *crashPoint() { return std::getenv("SDS_STORE_CRASH_POINT"); }

/// Write `Bytes` to `Path` and flush them to the device. Exception-free.
support::Status writeDurable(const std::string &Path,
                             const std::string &Bytes) {
  const char *Crash = crashPoint();
  bool CrashMid = Crash && !std::strcmp(Crash, "mid-blob");
  int FD = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (FD < 0)
    return support::ioError("cannot open for writing")
        .withContext("write '" + Path + "'");
  size_t Want = CrashMid ? Bytes.size() / 2 : Bytes.size();
  size_t Done = 0;
  while (Done < Want) {
    ssize_t W = ::write(FD, Bytes.data() + Done, Want - Done);
    if (W < 0) {
      ::close(FD);
      return support::ioError("write failed").withContext("write '" + Path +
                                                          "'");
    }
    Done += static_cast<size_t>(W);
  }
  if (CrashMid)
    ::_exit(137); // simulate a crash with a torn tmp file on disk
  bool Synced = ::fsync(FD) == 0;
  ::close(FD);
  if (!Synced)
    return support::ioError("fsync failed").withContext("write '" + Path +
                                                        "'");
  if (Crash && !std::strcmp(Crash, "before-rename"))
    ::_exit(137); // simulate a crash with a complete but unpublished tmp
  return {};
}

/// Flush a directory entry change (the rename) to the device. Best-effort:
/// some filesystems refuse directory fsync; the rename is still atomic.
void syncDir(const std::string &Dir) {
  int FD = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (FD >= 0) {
    (void)::fsync(FD);
    ::close(FD);
  }
}

bool isTmpName(const std::string &Name) {
  return Name.find(".tmp") != std::string::npos;
}

bool isBlobName(const std::string &Name) {
  return Name.size() > 5 && !isTmpName(Name) &&
         Name.compare(Name.size() - 5, 5, ".json") == 0;
}

} // namespace

struct Store::Impl {
  StoreOptions Opts;
  support::Status St; ///< construction outcome
  fs::path Root;
  fs::path Quarantine;

  mutable std::mutex Mu;
  StoreStats Stats;

  void bump(uint64_t StoreStats::*F) {
    std::lock_guard<std::mutex> Lock(Mu);
    ++(Stats.*F);
  }

  /// Move a failed blob aside, never deleting it. Returns whether the
  /// move succeeded; either way the event is flight-recorded.
  bool quarantine(const fs::path &Blob, const std::string &Reason) {
    std::error_code EC;
    fs::create_directories(Quarantine, EC);
    fs::path Dest;
    for (unsigned Seq = 0; Seq < 10000; ++Seq) {
      Dest = Quarantine / (Blob.filename().string() + "." +
                           std::to_string(Seq));
      if (!fs::exists(Dest, EC))
        break;
    }
    fs::rename(Blob, Dest, EC);
    if (EC) {
      bump(&StoreStats::QuarantineFailed);
      obs::flightRecord(obs::FlightSeverity::Error, "store",
                        "corrupt blob could not be quarantined (left in "
                        "place)",
                        {{"blob", Blob.string()},
                         {"reason", Reason},
                         {"error", EC.message()}});
      return false;
    }
    bump(&StoreStats::Quarantined);
    obs::flightRecord(obs::FlightSeverity::Warn, "store",
                      "corrupt blob quarantined",
                      {{"blob", Blob.string()},
                       {"quarantined_as", Dest.string()},
                       {"reason", Reason}});
    return true;
  }

  /// Startup recovery: remove orphaned tmp files (torn or unpublished
  /// writes from a crashed process) and optionally decode-verify every
  /// published blob.
  void recover() {
    std::error_code EC;
    std::vector<fs::path> Tmp, Blobs;
    for (const fs::directory_entry &E : fs::directory_iterator(Root, EC)) {
      if (!E.is_regular_file(EC))
        continue;
      std::string Name = E.path().filename().string();
      if (isTmpName(Name))
        Tmp.push_back(E.path());
      else if (Opts.VerifyOnRecovery && isBlobName(Name))
        Blobs.push_back(E.path());
    }
    for (const fs::path &P : Tmp) {
      fs::remove(P, EC);
      if (EC)
        continue;
      bump(&StoreStats::RecoveredTmp);
      obs::flightRecord(obs::FlightSeverity::Info, "store",
                        "recovery removed orphaned tmp file (torn write)",
                        {{"file", P.string()}});
    }
    for (const fs::path &P : Blobs) {
      std::ifstream In(P, std::ios::binary);
      std::stringstream SS;
      SS << In.rdbuf();
      artifact::CompiledKernel CK;
      if (support::Status S = artifact::deserialize(SS.str(), CK); !S.ok())
        quarantine(P, "recovery verification: " + S.message());
    }
  }

  /// Last member, so its gauge sources unregister before the state they
  /// read is destroyed.
  obs::GaugeSources Gauges;
};

Store::Store(StoreOptions Opts) : I(std::make_unique<Impl>()) {
  I->Opts = std::move(Opts);
  if (I->Opts.Root.empty()) {
    I->St = support::invalidArgument("store root must be non-empty");
    return;
  }
  I->Root = I->Opts.Root;
  I->Quarantine = I->Root / "quarantine";
  std::error_code EC;
  fs::create_directories(I->Root, EC);
  if (EC || !fs::is_directory(I->Root, EC)) {
    I->St = support::ioError("cannot create store root '" + I->Opts.Root +
                             "': " + EC.message());
    obs::flightRecord(obs::FlightSeverity::Error, "store",
                      "store root unusable; store is dead",
                      {{"root", I->Opts.Root}, {"error", EC.message()}});
    return;
  }
  I->recover();
  Impl *Raw = I.get();
  I->Gauges.add("store.bytes", [Raw] {
    std::error_code E;
    uint64_t Total = 0;
    for (const fs::directory_entry &D : fs::directory_iterator(Raw->Root, E))
      if (D.is_regular_file(E) && isBlobName(D.path().filename().string()))
        Total += D.file_size(E);
    return static_cast<double>(Total);
  });
  I->Gauges.addFields<StoreStats>(
      {{"store.hit", &StoreStats::Hits},
       {"store.miss", &StoreStats::Misses},
       {"store.put", &StoreStats::Puts},
       {"store.put_identical", &StoreStats::PutIdentical},
       {"store.quarantined", &StoreStats::Quarantined},
       {"store.quarantine_failed", &StoreStats::QuarantineFailed},
       {"store.sweep_evicted", &StoreStats::SweepEvicted},
       {"store.recovered_tmp", &StoreStats::RecoveredTmp}},
      [Raw] {
        std::lock_guard<std::mutex> Lock(Raw->Mu);
        return Raw->Stats;
      });
}

Store::~Store() = default;

const support::Status &Store::status() const { return I->St; }

std::string Store::keyFor(const std::string &KernelName,
                          const artifact::AnalysisOptions &Options,
                          const rt::ScheduleConfig &Schedule) {
  // NumThreads is a deployment property: it is not serialized into the
  // artifact (decode leaves the in-memory default), so it must not be part
  // of the blob identity either — otherwise the post-decode identity check
  // in get() would reject every blob written at a different thread count.
  rt::ScheduleConfig Shape = Schedule;
  Shape.NumThreads = 0;
  return KernelName + "|" + Options.key() + "|" + Shape.key() + "|" +
         artifact::abiFingerprint();
}

std::string Store::keyFor(const artifact::CompiledKernel &CK) {
  return keyFor(CK.KernelName, CK.Options, CK.Schedule);
}

std::string Store::blobPath(const std::string &Key) const {
  std::string Name;
  size_t Bar = Key.find('|');
  Name = sanitize(Bar == std::string::npos ? Key : Key.substr(0, Bar));
  return (I->Root / (Name + "-" + hex16(support::fnv1a64(Key)) + ".json"))
      .string();
}

support::Status Store::put(const artifact::CompiledKernel &CK) {
  static obs::Histogram &PutNs = obs::histogram("store.put_ns");
  if (!I->St.ok())
    return I->St.withContext("store put");
  obs::ScopedLatency Lat(PutNs);
  std::string Key = keyFor(CK);
  std::string Final = blobPath(Key);
  std::string Bytes = artifact::serialize(CK) + "\n";

  // Identical bytes already published: nothing to do (and no tmp churn).
  {
    std::ifstream In(Final, std::ios::binary);
    if (In) {
      std::stringstream SS;
      SS << In.rdbuf();
      if (SS.str() == Bytes) {
        I->bump(&StoreStats::PutIdentical);
        return {};
      }
    }
  }

  std::string Tmp =
      Final + ".tmp" + std::to_string(static_cast<long>(::getpid()));
  if (support::Status S = writeDurable(Tmp, Bytes); !S.ok()) {
    std::error_code EC;
    fs::remove(Tmp, EC); // best effort; recovery sweeps stragglers
    return S.withContext("store put '" + CK.KernelName + "'");
  }
  std::error_code EC;
  fs::rename(Tmp, Final, EC);
  if (EC) {
    fs::remove(Tmp, EC);
    return support::ioError("publish rename failed: " + EC.message())
        .withContext("store put '" + CK.KernelName + "'");
  }
  syncDir(I->Root.string());
  I->bump(&StoreStats::Puts);
  obs::flightRecord(obs::FlightSeverity::Info, "store", "blob published",
                    {{"kernel", CK.KernelName},
                     {"blob", Final},
                     {"bytes", std::to_string(Bytes.size())}});
  if (I->Opts.MaxBytes)
    return sweep();
  return {};
}

support::Status Store::get(const std::string &Key,
                           artifact::CompiledKernel &Out, bool &Found) {
  static obs::Histogram &GetNs = obs::histogram("store.get_ns");
  Found = false;
  if (!I->St.ok())
    return I->St.withContext("store get");
  obs::ScopedLatency Lat(GetNs);
  fs::path Blob = blobPath(Key);
  std::ifstream In(Blob, std::ios::binary);
  if (!In) {
    I->bump(&StoreStats::Misses);
    return {};
  }
  std::stringstream SS;
  SS << In.rdbuf();
  if (In.bad()) {
    I->quarantine(Blob, "read failed");
    I->bump(&StoreStats::Misses);
    return {};
  }
  artifact::CompiledKernel CK;
  if (support::Status S = artifact::deserialize(SS.str(), CK); !S.ok()) {
    // Corrupt / torn / version-skewed / ABI-mismatched blob: move it
    // aside and report a miss — the caller recompiles; nothing is ever
    // silently deleted or silently served.
    I->quarantine(Blob, S.message());
    I->bump(&StoreStats::Misses);
    return {};
  }
  if (keyFor(CK) != Key) {
    // A decodable blob for the wrong identity (renamed file, hash
    // collision, stray copy): treat exactly like corruption.
    I->quarantine(Blob, "decoded identity does not match requested key");
    I->bump(&StoreStats::Misses);
    return {};
  }
  // Touch the blob so the LRU sweep order survives restarts.
  std::error_code EC;
  fs::last_write_time(Blob, fs::file_time_type::clock::now(), EC);
  Out = std::move(CK);
  Found = true;
  I->bump(&StoreStats::Hits);
  return {};
}

bool Store::contains(const std::string &Key) const {
  if (!I->St.ok())
    return false;
  std::error_code EC;
  return fs::exists(blobPath(Key), EC);
}

support::Status Store::sweep() {
  if (!I->St.ok())
    return I->St.withContext("store sweep");
  if (!I->Opts.MaxBytes)
    return {};
  std::lock_guard<std::mutex> Lock(I->Mu);
  struct Entry {
    fs::path Path;
    uint64_t Bytes;
    fs::file_time_type MTime;
  };
  std::vector<Entry> Blobs;
  uint64_t Total = 0;
  std::error_code EC;
  for (const fs::directory_entry &E : fs::directory_iterator(I->Root, EC)) {
    if (!E.is_regular_file(EC) || !isBlobName(E.path().filename().string()))
      continue;
    Entry B{E.path(), E.file_size(EC), E.last_write_time(EC)};
    Total += B.Bytes;
    Blobs.push_back(std::move(B));
  }
  if (Total <= I->Opts.MaxBytes)
    return {};
  std::sort(Blobs.begin(), Blobs.end(),
            [](const Entry &A, const Entry &B) { return A.MTime < B.MTime; });
  // Oldest-read first; the most recently touched blob is never evicted,
  // so a budget smaller than one blob cannot turn put() into a no-op.
  for (size_t J = 0; J + 1 < Blobs.size() && Total > I->Opts.MaxBytes; ++J) {
    fs::remove(Blobs[J].Path, EC);
    if (EC)
      continue;
    Total -= Blobs[J].Bytes;
    ++I->Stats.SweepEvicted;
    obs::flightRecord(obs::FlightSeverity::Info, "store",
                      "LRU sweep evicted blob (byte budget)",
                      {{"blob", Blobs[J].Path.string()},
                       {"bytes", std::to_string(Blobs[J].Bytes)},
                       {"budget", std::to_string(I->Opts.MaxBytes)}});
  }
  return {};
}

uint64_t Store::totalBytes() const {
  if (!I->St.ok())
    return 0;
  uint64_t Total = 0;
  std::error_code EC;
  for (const fs::directory_entry &E : fs::directory_iterator(I->Root, EC))
    if (E.is_regular_file(EC) && isBlobName(E.path().filename().string()))
      Total += E.file_size(EC);
  return Total;
}

std::vector<std::string> Store::listQuarantined() const {
  std::vector<std::string> Out;
  if (!I->St.ok())
    return Out;
  std::error_code EC;
  for (const fs::directory_entry &E :
       fs::directory_iterator(I->Quarantine, EC))
    if (E.is_regular_file(EC))
      Out.push_back(E.path().filename().string());
  std::sort(Out.begin(), Out.end());
  return Out;
}

StoreStats Store::stats() const {
  std::lock_guard<std::mutex> Lock(I->Mu);
  return I->Stats;
}

const std::string &Store::root() const { return I->Opts.Root; }

} // namespace store
} // namespace sds
