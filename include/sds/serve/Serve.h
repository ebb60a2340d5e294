//===- Serve.h - Admission-controlled concurrent serving --------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The long-running-service spine over engine::Engine (DESIGN.md §16): a
// bounded work queue, N worker threads, an optional persistent artifact
// store (sds::store) that survives restarts, and graceful degradation
// instead of collapse when the Presburger pipeline is slower than the
// offered load. Request flow per tier:
//
//   plan tier    engine matrix cache (warm hit: microseconds)
//   kernel tier  engine kernel cache -> persistent store (zero Presburger
//                queries, bit-identical plans across restarts) -> cold
//                compile under the request's analysis budget
//
// Robustness machinery, in the order a request meets it:
//
//  * Admission control. submit() sheds immediately — with an explicit
//    ResourceExhausted Status, never a hang or a dropped promise — when
//    the queue is at MaxQueueDepth. A request whose deadline has already
//    passed when a worker picks it up is shed the same way (it would only
//    waste a worker on an answer nobody is waiting for).
//
//  * Singleflight. Identical in-flight cold work (same plan key) is
//    deduplicated: one leader computes, followers block on its result and
//    report Outcome::Coalesced. A thundering herd on a cold key costs one
//    compile + one inspection, not N.
//
//  * Graceful degradation. Cold compiles run under the PR 4 budget
//    machinery (PipelineOptions::AnalysisBudgetMs from the request's
//    remaining deadline or explicit AnalysisBudgetMs). When the budget
//    expires mid-analysis the partially simplified result is *not*
//    cached (it is timing-dependent); instead the request is served the
//    guard layer's baseline plan — every simplification except
//    affine-unsat revoked, correct by construction — marked
//    Outcome::Degraded. The request succeeds late rather than failing.
//
// Every outcome is counted once, in the always-on ServerStats fields
// (tests assert exact accounting); the metrics snapshot shows each field
// as a "serve.*" gauge summed over live servers, beside the serve.*
// latency histograms and flight events.
//
// Shutdown contract: the destructor stops admissions, fails every queued
// request with an explicit shed Status (zero lost promises), and joins
// the workers.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_SERVE_SERVE_H
#define SDS_SERVE_SERVE_H

#include "sds/engine/Engine.h"
#include "sds/store/Store.h"

#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace sds {
namespace serve {

/// Server-wide knobs, fixed at construction.
struct ServerOptions {
  engine::EngineOptions Engine;
  /// Persistent artifact store root; empty disables the on-disk tier.
  std::string StoreRoot;
  /// Byte budget for the store's LRU sweep (0 = unbounded).
  uint64_t StoreMaxBytes = 0;
  /// Queued (not yet executing) requests past this are shed.
  size_t MaxQueueDepth = 64;
  int NumWorkers = 4;
  /// Admission-control test hook: start with the workers idle so a test
  /// or bench can fill the queue deterministically, then resume().
  bool StartPaused = false;
};

/// How one request was ultimately served (or refused).
enum class Outcome {
  Warm,         ///< plan tier hit (engine matrix cache)
  Cold,         ///< full cold fill: compile + inspect + schedule
  StoreWarm,    ///< kernel tier filled from the persistent store
  Degraded,     ///< analysis budget expired; baseline plan served
  Coalesced,    ///< waited on an identical in-flight request's result
  ShedQueue,    ///< refused: queue at capacity (or server shutting down)
  ShedDeadline, ///< refused: deadline already passed at dequeue
  Error,        ///< environmental failure (Status carries it)
};

const char *outcomeName(Outcome O);

/// One plan request: a kernel bound to a concrete environment.
struct ServeRequest {
  kernels::Kernel Kernel;
  codegen::UFEnvironment Env;
  int N = 0;
  /// Wall-clock deadline relative to submit(), milliseconds; 0 = none.
  /// Expired-in-queue requests are shed; a deadline that expires during
  /// a cold compile degrades the request instead of failing it.
  double DeadlineMs = 0;
  /// Explicit analysis budget for a cold compile; 0 derives it from the
  /// remaining deadline (or leaves it unbudgeted when DeadlineMs == 0).
  double AnalysisBudgetMs = 0;
  /// Per-request opt-in to speculative property inference: the plan is
  /// built against declared ∪ inferred properties through the engine's
  /// speculated tiers, keyed separately from declared-only plans (the
  /// two can never alias). Speculated artifacts are environment-
  /// dependent, so the persistent store and budget degradation do not
  /// apply on this path.
  bool Speculate = false;
};

/// One environment of a batch submission: shares the batch's kernel,
/// deadline, and speculation flag.
struct BatchItem {
  codegen::UFEnvironment Env;
  int N = 0;
};

/// What the caller gets back. On success `Plan` is non-null and its
/// schedule is certified against its graph.
struct ServeResponse {
  support::Status St;
  Outcome O = Outcome::Error;
  bool Degraded = false; ///< also true for a Coalesced-onto-degraded wait
  std::shared_ptr<const engine::MatrixPlan> Plan;
  double QueueMs = 0;   ///< submit -> worker pickup
  double ServiceMs = 0; ///< worker pickup -> response
};

/// Always-on accounting for one server. Completed + Shed* sums to
/// Submitted once the queue drains; nothing is ever lost. Each field is
/// also a gauge source ("serve.submitted", ...), summed over live servers.
struct ServerStats {
  uint64_t Submitted = 0;
  uint64_t Completed = 0; ///< responses with a plan (any non-shed outcome)
  uint64_t Warm = 0;
  uint64_t Cold = 0;
  uint64_t StoreWarm = 0;
  uint64_t Degraded = 0;
  uint64_t Coalesced = 0;
  uint64_t ShedQueue = 0;
  uint64_t ShedDeadline = 0;
  uint64_t Errors = 0;
  /// Cold requests that waited on another request's in-flight kernel-tier
  /// fill (kernel-level singleflight) instead of compiling themselves —
  /// how a batch over N environments pays one compile, not N.
  uint64_t KernelCoalesced = 0;
  uint64_t Speculated = 0; ///< completed requests served speculatively
  uint64_t Batches = 0;    ///< submitBatch() calls
  uint64_t BatchItems = 0; ///< items across all batches
};

class Server {
public:
  explicit Server(ServerOptions Opts = {});
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Enqueue a request. The future always completes: with a plan, or
  /// with an explicit shed/error Status. Sheds synchronously when the
  /// queue is full.
  std::future<ServeResponse> submit(ServeRequest R);

  /// Batch submission: one kernel bound to many environments. Every item
  /// becomes a normal queued request (same shedding rules, per-item
  /// outcomes in the returned futures, same order as `Items`), but the
  /// kernel tier is resolved once: concurrent cold items of one kernel
  /// coalesce on a kernel-level singleflight (ServerStats::
  /// KernelCoalesced) instead of compiling N times.
  std::vector<std::future<ServeResponse>>
  submitBatch(const kernels::Kernel &K, std::vector<BatchItem> Items,
              double DeadlineMs = 0, bool Speculate = false);

  /// Synchronous serving path (what the workers run). Public so tests
  /// and single-threaded callers can use the policy without the queue.
  /// `AbsDeadlineNs` is on the obs::nowNs() clock; 0 = none.
  ServeResponse handle(const ServeRequest &R, uint64_t AbsDeadlineNs = 0);

  /// Admission-control test hooks: while paused, workers do not dequeue
  /// (submissions still shed past MaxQueueDepth).
  void pause();
  void resume();

  /// Block until the queue is empty and no worker is mid-request.
  void drain();

  ServerStats stats() const;
  engine::Engine &engine();
  /// The persistent store, or nullptr when disabled (no StoreRoot, or
  /// the root was unusable — construction flight-records that).
  store::Store *persistentStore();

private:
  /// Kernel-tier resolution + plan build for a singleflight leader:
  /// engine cache -> persistent store -> budgeted cold compile (degrading
  /// to the baseline plan on budget exhaustion). Speculated requests
  /// route through the engine's speculated tiers instead. `EnvFp` is the
  /// request's fingerprintEnvironment(R.Env), computed once in handle().
  ServeResponse serveCold(const ServeRequest &R, uint64_t AbsDeadlineNs,
                          uint64_t EnvFp);

  /// The store-lookup + budgeted-compile miss path (the body a kernel-
  /// level singleflight leader runs). On success `CK`/`FromStore` are
  /// set and nullopt returns; a degraded or failed resolution returns
  /// the response to serve instead.
  std::optional<ServeResponse>
  resolveKernelCold(const ServeRequest &R, uint64_t AbsDeadlineNs,
                    std::shared_ptr<const artifact::CompiledKernel> &CK,
                    bool &FromStore);

  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace serve
} // namespace sds

#endif // SDS_SERVE_SERVE_H
