//===- BasicSet.cpp - Integer polyhedra over named dimensions ------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/presburger/BasicSet.h"

#include "sds/obs/Metrics.h"
#include "sds/obs/Trace.h"
#include "sds/presburger/Budget.h"
#include "sds/presburger/Simplex.h"
#include "sds/support/Hash.h"
#include "sds/support/MathExtras.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <unordered_map>

namespace sds {
namespace presburger {

void BasicSet::addEquality(std::vector<int64_t> Row) {
  assert(Row.size() == NumVars + 1 && "bad row width");
  Eqs.push_back(std::move(Row));
}

void BasicSet::addInequality(std::vector<int64_t> Row) {
  assert(Row.size() == NumVars + 1 && "bad row width");
  Ineqs.push_back(std::move(Row));
}

/// GCD-reduce one row; returns the gcd of the variable coefficients.
static int64_t variableGcd(const std::vector<int64_t> &Row, unsigned NumVars) {
  int64_t G = 0;
  for (unsigned J = 0; J < NumVars; ++J)
    G = gcd64(G, Row[J]);
  return G;
}

/// Friend of BasicSet (declared in the header): grants the emptiness
/// machinery in this file direct access to the constraint storage so row
/// tags can be kept parallel to the rows through normalization.
class EmptinessChecker {
public:
  static std::vector<std::vector<int64_t>> &eqs(BasicSet &S) { return S.Eqs; }
  static std::vector<std::vector<int64_t>> &ineqs(BasicSet &S) {
    return S.Ineqs;
  }
};

namespace {

/// Tag of a row introduced by branch-and-bound case splits rather than by
/// the caller. Such rows never enter a reported core: the left/right
/// split (x <= f) v (x >= f+1) covers all integers, so a case analysis
/// citing them refutes the original rows alone.
constexpr uint32_t kBranchTag = ~0u;

/// A normalized BasicSet with one tag per row, tags riding along through
/// deduplication and branching so a Farkas certificate over the solved
/// rows maps back to the caller's original row ids. Rows are numbered
/// equalities first, as in EmptinessCore.
struct TaggedSet {
  BasicSet S{0};
  std::vector<uint32_t> EqTags, IneqTags;
  /// The normalized rows in content order: inequalities, then equalities,
  /// each sorted lexicographically. The solver reads the rows in storage
  /// order; the cache key, the core index and the conflicting-equality
  /// rung read them in this order. Branch rows are not listed.
  std::vector<uint32_t> Sorted;

  bool isEq(size_t R) const { return R < EqTags.size(); }
  const std::vector<int64_t> &row(size_t R) const {
    return isEq(R) ? S.equalities()[R]
                   : S.inequalities()[R - EqTags.size()];
  }
  uint32_t tag(size_t R) const {
    return isEq(R) ? EqTags[R] : IneqTags[R - EqTags.size()];
  }
};

/// Sort `Rows` into `Order`, then drop every row equal to an earlier one,
/// keeping the first occurrence (and its tag) in storage order.
void sortAndDedup(std::vector<std::vector<int64_t>> &Rows,
                  std::vector<uint32_t> &Tags, std::vector<uint32_t> &Order) {
  auto Sort = [&] {
    Order.resize(Rows.size());
    std::iota(Order.begin(), Order.end(), 0u);
    // Equal rows sort by index, so the first occurrence sorts first.
    std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
      auto Cmp = Rows[A] <=> Rows[B];
      return Cmp != 0 ? Cmp < 0 : A < B;
    });
  };
  Sort();
  std::vector<bool> Drop(Rows.size());
  bool Any = false;
  for (size_t I = 1; I < Order.size(); ++I)
    if (Rows[Order[I]] == Rows[Order[I - 1]])
      Drop[Order[I]] = Any = true;
  if (!Any)
    return;
  size_t Kept = 0;
  for (size_t I = 0; I < Rows.size(); ++I) {
    if (Drop[I])
      continue;
    if (Kept != I)
      Rows[Kept] = std::move(Rows[I]);
    Tags[Kept++] = Tags[I];
  }
  Rows.resize(Kept);
  Tags.resize(Kept);
  Sort();
}

/// Normalization with tag bookkeeping (BasicSet::normalize drops the
/// tags): GCD-reduce, tighten inequality constants toward -inf, drop
/// trivially true rows, sign-canonicalize equalities, deduplicate keeping
/// the first occurrence (and its tag). `In`'s rows are tagged in storage
/// order, equalities first. Returns false when a row alone is
/// unsatisfiable, reporting that row's tag in `BadTag`; `T` is then
/// unspecified.
bool normalizeInto(const BasicSet &In, TaggedSet &T, uint32_t &BadTag) {
  unsigned NumVars = In.numVars();
  T.S = BasicSet(NumVars);
  auto &Eqs = EmptinessChecker::eqs(T.S);
  auto &Ineqs = EmptinessChecker::ineqs(T.S);
  uint32_t Tag = 0;
  for (const auto &Row : In.equalities()) {
    uint32_t RowTag = Tag++;
    int64_t G = variableGcd(Row, NumVars);
    // 0 == c with c != 0, or a gcd that misses the constant: no integer
    // solution.
    if (G == 0 ? Row[NumVars] != 0 : Row[NumVars] % G != 0) {
      BadTag = RowTag;
      return false;
    }
    if (G == 0)
      continue;
    std::vector<int64_t> R(Row.size());
    for (size_t J = 0; J < R.size(); ++J)
      R[J] = Row[J] / G;
    // Canonical sign: first nonzero variable coefficient positive.
    for (unsigned J = 0; J < NumVars; ++J) {
      if (R[J] == 0)
        continue;
      if (R[J] < 0)
        for (auto &C : R)
          C = -C;
      break;
    }
    Eqs.push_back(std::move(R));
    T.EqTags.push_back(RowTag);
  }
  for (const auto &Row : In.inequalities()) {
    uint32_t RowTag = Tag++;
    int64_t G = variableGcd(Row, NumVars);
    if (G == 0 && Row[NumVars] < 0) {
      BadTag = RowTag;
      return false; // 0 >= -c with c > 0
    }
    if (G == 0)
      continue;
    std::vector<int64_t> R(Row.size());
    for (unsigned J = 0; J < NumVars; ++J)
      R[J] = Row[J] / G;
    // Integer tightening: constant rounds toward -inf.
    R[NumVars] = floorDiv64(Row[NumVars], G);
    Ineqs.push_back(std::move(R));
    T.IneqTags.push_back(RowTag);
  }
  std::vector<uint32_t> EqOrder;
  sortAndDedup(Eqs, T.EqTags, EqOrder);
  sortAndDedup(Ineqs, T.IneqTags, T.Sorted);
  for (uint32_t &R : T.Sorted)
    R += static_cast<uint32_t>(Eqs.size());
  T.Sorted.insert(T.Sorted.end(), EqOrder.begin(), EqOrder.end());
  return true;
}

/// Add a branch-and-bound split row to a normalized set, keeping it
/// normalized: the row has a unit coefficient, so normalizing it changes
/// nothing, and it is dropped when an equal inequality is already there.
void addBranchRow(TaggedSet &T, std::vector<int64_t> Row) {
  for (const auto &R : T.S.inequalities())
    if (R == Row)
      return;
  EmptinessChecker::ineqs(T.S).push_back(std::move(Row));
  T.IneqTags.push_back(kBranchTag);
}

void sortUniqueTags(std::vector<uint32_t> &Tags) {
  std::sort(Tags.begin(), Tags.end());
  Tags.erase(std::unique(Tags.begin(), Tags.end()), Tags.end());
}

/// Shared implementation of the integer emptiness test (rational simplex +
/// branch-and-bound), also used for integer sampling.
class EmptinessCheckerImpl {
public:
  explicit EmptinessCheckerImpl(unsigned NodeBudget) : Budget(NodeBudget) {}

  /// Returns the emptiness verdict of the normalized set `T`; on False
  /// (non-empty), `Point` holds an integer point. On True with `CoreTags`
  /// non-null, `CoreTags` receives the tags of the rows the proof cited
  /// (branch rows stripped); when a node could not attribute (overflow
  /// inside the Farkas read-out), the node conservatively cites all of its
  /// rows. The search branches in place: on return `T` holds its own rows
  /// followed by branch rows, so callers can still read the original rows.
  Ternary run(TaggedSet &T, std::vector<int64_t> &Point,
              std::vector<uint32_t> *CoreTags) {
    static obs::Counter &Nodes = obs::counter("basicset.bnb_nodes");
    Nodes.add();
    // Wall-clock deadline (Budget.h): one clock read per node. Unknown is
    // the conservative answer — the caller keeps the dependence.
    if (deadlineExpired()) {
      noteDeadlineExhaustion();
      return Ternary::Unknown;
    }
    const BasicSet &S = T.S;
    Simplex Sx(S.numVars());
    for (const auto &R : S.equalities())
      Sx.addEquality(R);
    for (const auto &R : S.inequalities())
      Sx.addInequality(R);
    LPStatus St = Sx.checkFeasible();
    if (St == LPStatus::Infeasible) {
      if (CoreTags) {
        // An unattributable certificate (overflow) cites every row.
        const std::vector<unsigned> &C = Sx.infeasibleCore();
        size_t NumCited = C.empty() ? S.numConstraints() : C.size();
        for (size_t I = 0; I < NumCited; ++I)
          if (uint32_t Tag = T.tag(C.empty() ? I : C[I]); Tag != kBranchTag)
            CoreTags->push_back(Tag);
      }
      return Ternary::True;
    }
    if (St == LPStatus::Error)
      return Ternary::Unknown;

    // Rationally feasible: is the sample integral?
    const std::vector<Fraction> &Sample = Sx.samplePoint();
    unsigned FracVar = S.numVars();
    for (unsigned J = 0; J < S.numVars(); ++J) {
      if (!Sample[J].isIntegral()) {
        FracVar = J;
        break;
      }
    }
    if (FracVar == S.numVars()) {
      Point.resize(S.numVars());
      for (unsigned J = 0; J < S.numVars(); ++J) {
        Int128 V = Sample[J].num();
        if (V > INT64_MAX || V < INT64_MIN)
          return Ternary::Unknown;
        Point[J] = static_cast<int64_t>(V);
      }
      return Ternary::False;
    }

    if (Budget == 0)
      return Ternary::Unknown;
    --Budget;

    // Branch on the fractional coordinate.
    Int128 Floor = Sample[FracVar].floor();
    if (Floor > INT64_MAX - 1 || Floor < INT64_MIN + 1)
      return Ternary::Unknown;
    int64_t F = static_cast<int64_t>(Floor);

    TaggedSet Left = T; // x <= floor(v)
    {
      std::vector<int64_t> Row(S.numVars() + 1, 0);
      Row[FracVar] = -1;
      Row[S.numVars()] = F;
      addBranchRow(Left, std::move(Row));
    }
    // Right branch (x >= floor(v) + 1) reuses T itself: the left branch
    // already holds its own copy, so the node needs one clone, not two.
    {
      std::vector<int64_t> Row(S.numVars() + 1, 0);
      Row[FracVar] = 1;
      Row[S.numVars()] = -(F + 1);
      addBranchRow(T, std::move(Row));
    }

    // The split covers all integers, so when both branches refute, the
    // union of the original rows they cite is itself an unsat core: any
    // point of that union satisfies one branch literal and would land in
    // the corresponding (refuted) subtree.
    Ternary A = run(Left, Point, CoreTags);
    if (A == Ternary::False)
      return Ternary::False;
    Ternary B = run(T, Point, CoreTags);
    if (B == Ternary::False)
      return Ternary::False;
    if (A == Ternary::True && B == Ternary::True)
      return Ternary::True;
    return Ternary::Unknown;
  }

private:
  unsigned Budget;
};

//===----------------------------------------------------------------------===//
// Query memoization
//===----------------------------------------------------------------------===//

/// Hash of one normalized row and its kind: the currency of the core
/// index, always confirmed by an exact compare of the row.
uint64_t rowHash(bool IsEq, const int64_t *Row, size_t Width) {
  return support::xxh64(Row, Width * sizeof(int64_t), IsEq ? 1 : 2);
}

/// A normalized query's row hashes, per row (equalities-first numbering)
/// and as (hash, row) pairs sorted by hash.
struct RowHashes {
  std::vector<uint64_t> Of;
  std::vector<std::pair<uint64_t, uint32_t>> Sorted;

  explicit RowHashes(const TaggedSet &T) {
    for (uint32_t R = 0; R < T.EqTags.size() + T.IneqTags.size(); ++R) {
      Of.push_back(rowHash(T.isEq(R), T.row(R).data(), T.row(R).size()));
      Sorted.emplace_back(Of.back(), R);
    }
    std::sort(Sorted.begin(), Sorted.end());
  }
};

/// The row content of a proven unsat core, stored in the normalized form
/// queries are keyed on: inequalities, then equalities, each in
/// lexicographic order, so row 0 is the smallest row and the core index's
/// anchor. Shared immutably between the verdict cache and the core index.
struct CachedCore {
  size_t Width = 0;             ///< NumVars + 1
  size_t NumIneq = 0;           ///< rows [0, NumIneq) are inequalities
  std::vector<int64_t> Coeffs;  ///< Width entries per row
  std::vector<uint64_t> Hashes; ///< rowHash of each row

  /// The rows of `T` (cited by `Cited`, a sorted tag list) in core order.
  CachedCore(const TaggedSet &T, const RowHashes &H,
             const std::vector<uint32_t> &Cited)
      : Width(T.S.numVars() + 1) {
    // One row per cited tag; reserved exactly, as the core is kept.
    Coeffs.reserve(Cited.size() * Width);
    Hashes.reserve(Cited.size());
    for (uint32_t R : T.Sorted) {
      if (!std::binary_search(Cited.begin(), Cited.end(), T.tag(R)))
        continue;
      NumIneq += !T.isEq(R);
      Coeffs.insert(Coeffs.end(), T.row(R).begin(), T.row(R).end());
      Hashes.push_back(H.Of[R]);
    }
  }
  size_t numRows() const { return Hashes.size(); }
  bool isEq(size_t R) const { return R >= NumIneq; }
  const int64_t *row(size_t R) const { return Coeffs.data() + R * Width; }
  size_t bytes() const {
    return sizeof(*this) + (Coeffs.size() + Hashes.size()) * sizeof(int64_t);
  }
  bool operator==(const CachedCore &O) const {
    return Width == O.Width && NumIneq == O.NumIneq && Coeffs == O.Coeffs;
  }
};

/// Does `T` have a row equal to core row `CR` (same kind, same content)?
/// Looked up by hash in `H`; the matching row's number goes to `R`.
bool findRow(const TaggedSet &T, const RowHashes &H, const CachedCore &Core,
             size_t CR, uint32_t &R) {
  auto It = std::lower_bound(H.Sorted.begin(), H.Sorted.end(),
                             std::make_pair(Core.Hashes[CR], uint32_t(0)));
  for (; It != H.Sorted.end() && It->first == Core.Hashes[CR]; ++It) {
    const std::vector<int64_t> &Row = T.row(It->second);
    if (T.isEq(It->second) == Core.isEq(CR) && Row.size() == Core.Width &&
        std::equal(Row.begin(), Row.end(), Core.row(CR))) {
      R = It->second;
      return true;
    }
  }
  return false;
}

/// Map a content core back onto a query's rows: when every core row
/// matches one of the query's normalized rows, `Out` receives their tags.
void mapCore(const TaggedSet &T, const RowHashes &H, const CachedCore &Core,
             EmptinessCore &Out) {
  std::vector<uint32_t> Tags;
  for (size_t CR = 0; CR < Core.numRows(); ++CR) {
    uint32_t R;
    if (!findRow(T, H, Core, CR, R))
      return;
    Tags.push_back(T.tag(R));
  }
  sortUniqueTags(Tags);
  Out.Rows = std::move(Tags);
  Out.Valid = true;
}

/// The verdict-cache and prefilter-ladder tallies, one always-on
/// obs::Counter per event: queryCacheStats() and prefilterStats() read
/// them and clearQueryCache() zeroes them, so the metrics snapshot and
/// the Stats views can never disagree.
struct Tallies {
  obs::Counter &CacheHits = obs::counter("basicset.cache_hits");
  obs::Counter &CacheMisses = obs::counter("basicset.cache_misses");
  /// Misses rescued by the core index (also counted in CacheHits).
  obs::Counter &CoreSubsume = obs::counter("basicset.cache_core_subsume");
  obs::Counter &Gcd = obs::counter("basicset.prefilter_gcd");
  obs::Counter &EqConflict = obs::counter("basicset.prefilter_eq_conflict");
  obs::Counter &Interval = obs::counter("basicset.prefilter_interval");
  obs::Counter &SynSubset =
      obs::counter("basicset.prefilter_subset_syntactic");
  obs::Counter &PrefilterMiss = obs::counter("basicset.prefilter_miss");

  void reset() {
    for (obs::Counter *C : {&CacheHits, &CacheMisses, &CoreSubsume, &Gcd,
                            &EqConflict, &Interval, &SynSubset,
                            &PrefilterMiss})
      C->reset();
  }
};

Tallies &tallies() {
  static Tallies T;
  return T;
}

/// The bytes both cache levels hold. An entry is charged its key, verdict
/// and core payload when it is stored; one that would pass
/// kQueryCacheBudgetBytes is dropped, and nothing is ever evicted for it.
std::atomic<uint64_t> CacheBytes{0};

bool chargeCacheBytes(size_t N) {
  uint64_t Cur = CacheBytes.load(std::memory_order_relaxed);
  do {
    if (Cur + N > kQueryCacheBudgetBytes)
      return false;
  } while (!CacheBytes.compare_exchange_weak(Cur, Cur + N,
                                             std::memory_order_relaxed));
  return true;
}

/// A query in canonical form: its kind, node budget and dimension, then
/// for each normalized system its equality and inequality counts and its
/// rows in content order (TaggedSet::Sorted). The hash is computed once;
/// equality is an exact compare of the whole key.
struct QueryKey {
  std::vector<int64_t> Words;
  uint64_t Hash = 0;

  QueryKey(char Kind, unsigned NodeBudget, const TaggedSet &T,
           const TaggedSet *T2 = nullptr) {
    // Reserved exactly: a stored key keeps its capacity.
    auto Size = [](const TaggedSet &X) {
      return 2 + X.Sorted.size() * (X.S.numVars() + 1);
    };
    Words.reserve(3 + Size(T) + (T2 ? Size(*T2) : 0));
    Words = {Kind, NodeBudget, T.S.numVars()};
    for (const TaggedSet *X : {&T, T2}) {
      if (!X)
        continue;
      Words.push_back(static_cast<int64_t>(X->EqTags.size()));
      Words.push_back(static_cast<int64_t>(X->IneqTags.size()));
      for (uint32_t R : X->Sorted)
        Words.insert(Words.end(), X->row(R).begin(), X->row(R).end());
    }
    Hash = support::xxh64(Words.data(), Words.size() * sizeof(int64_t), 0);
  }
  bool operator==(const QueryKey &O) const {
    return Hash == O.Hash && Words == O.Words;
  }
  struct Hasher {
    size_t operator()(const QueryKey &K) const { return K.Hash; }
  };
};

/// What the exact-key cache stores: the verdict plus, for True emptiness
/// verdicts, the proof's core rows (null for subset entries and for
/// verdicts whose core could not be attributed or indexed).
struct CacheValue {
  Ternary V = Ternary::Unknown;
  std::shared_ptr<const CachedCore> Core;
};

/// Process-wide canonical-system -> verdict cache. Definitive verdicts are
/// mathematical facts about the (budget, constraint-system) pair, so there
/// is no invalidation; the map is bounded by the shared byte budget.
///
/// The map is split into independently-locked shards selected by the
/// key's hash so concurrent queries from the task-parallel pipeline do
/// not serialize on one mutex; hits and misses are counted in tallies(),
/// outside any lock.
struct QueryCache {
  static constexpr size_t ShardBits = 4;
  static constexpr size_t NumShards = size_t(1) << ShardBits;

  struct alignas(64) Shard {
    std::mutex M;
    std::unordered_map<QueryKey, CacheValue, QueryKey::Hasher> Map;
  };
  std::array<Shard, NumShards> Shards;

  Shard &shardFor(const QueryKey &Key) {
    return Shards[Key.Hash >> (64 - ShardBits)];
  }

  /// Raw map probe; counts nothing. Callers decide whether a miss is
  /// final (CacheMisses) or rescued by the subsumption index (CacheHits +
  /// CoreSubsume).
  std::optional<CacheValue> lookupRaw(const QueryKey &Key) {
    Shard &S = shardFor(Key);
    std::lock_guard<std::mutex> Lock(S.M);
    auto It = S.Map.find(Key);
    if (It != S.Map.end())
      return It->second;
    return std::nullopt;
  }

  /// Store a definitive verdict, charging its key and value; `Core` is
  /// owned by the core index, which charged it.
  void store(QueryKey Key, Ternary V,
             std::shared_ptr<const CachedCore> Core = nullptr) {
    if (V == Ternary::Unknown)
      return; // budget-dependent; another query may still resolve it
    Shard &S = shardFor(Key);
    std::lock_guard<std::mutex> Lock(S.M);
    if (!S.Map.count(Key) &&
        chargeCacheBytes(sizeof(QueryKey) + sizeof(CacheValue) +
                         Key.Words.size() * sizeof(int64_t)))
      S.Map.emplace(std::move(Key), CacheValue{V, std::move(Core)});
  }
};

QueryCache &queryCache() {
  static QueryCache C;
  return C;
}

/// Second-level core-keyed index over proven emptiness cores. A query
/// whose canonical row set is a *superset* of any stored core is empty a
/// fortiori — more constraints can only shrink the point set — so it can
/// be answered True without touching the solver, independent of node
/// budget. Cores are anchored by the hash of their smallest row (row 0):
/// since core rows are a subset of any subsuming query's rows, scanning
/// the query's own rows as anchors finds every candidate.
struct CoreIndex {
  std::mutex M;
  std::unordered_map<uint64_t, std::vector<std::shared_ptr<const CachedCore>>>
      ByAnchor;
  size_t Entries = 0;

  /// Index `Core` unless an equal core is already indexed. Returns the
  /// indexed core (the earlier one on a duplicate), `Core` itself when it
  /// has no row to anchor on, and null when the byte budget has no room.
  std::shared_ptr<const CachedCore>
  insert(std::shared_ptr<const CachedCore> Core) {
    if (Core->numRows() == 0)
      return Core;
    std::lock_guard<std::mutex> Lock(M);
    auto &Bucket = ByAnchor[Core->Hashes[0]];
    for (const auto &Existing : Bucket)
      if (*Existing == *Core)
        return Existing;
    if (!chargeCacheBytes(Core->bytes() + sizeof(Core)))
      return nullptr;
    Bucket.push_back(Core);
    ++Entries;
    return Core;
  }

  /// A stored core all of whose rows are rows of the normalized query `T`
  /// (so T is empty), or null. Anchors are visited in content order
  /// (inequalities first), and each anchor's cores in insertion order; the
  /// first core found is returned.
  std::shared_ptr<const CachedCore> subsuming(const TaggedSet &T,
                                              const RowHashes &H) {
    std::lock_guard<std::mutex> Lock(M);
    if (Entries == 0)
      return nullptr;
    for (uint32_t R : T.Sorted) {
      auto It = ByAnchor.find(H.Of[R]);
      if (It == ByAnchor.end())
        continue;
      for (const auto &Core : It->second) {
        uint32_t Match;
        size_t CR = 0;
        while (CR < Core->numRows() && findRow(T, H, *Core, CR, Match) &&
               (CR > 0 || Match == R))
          ++CR;
        if (CR == Core->numRows())
          return Core;
      }
    }
    return nullptr;
  }

  void clear() {
    std::lock_guard<std::mutex> Lock(M);
    ByAnchor.clear();
    Entries = 0;
  }

  size_t size() {
    std::lock_guard<std::mutex> Lock(M);
    return Entries;
  }
};

CoreIndex &coreIndex() {
  static CoreIndex C;
  return C;
}

/// The verdict cache's levels as live gauges (its hit/miss counts are
/// counters, exported as such), registered once at static-init time
/// (both registries are leaked singletons, so no lifetime ordering to
/// respect). Polled only at snapshot time; costs nothing on the query
/// path.
[[maybe_unused]] const bool RegisteredCacheGauges = [] {
  obs::registerGaugeSource("presburger.query_cache.entries", [] {
    return static_cast<double>(queryCacheStats().Entries);
  });
  obs::registerGaugeSource("presburger.query_cache.hit_rate",
                           [] { return queryCacheStats().hitRate(); });
  obs::registerGaugeSource("presburger.query_cache.core_entries", [] {
    return static_cast<double>(queryCacheStats().CoreEntries);
  });
  obs::registerGaugeSource("presburger.query_cache.bytes", [] {
    return static_cast<double>(queryCacheStats().Bytes);
  });
  return true;
}();

//===----------------------------------------------------------------------===//
// Prefilter ladder
//===----------------------------------------------------------------------===//

/// Bounded single-variable interval propagation with conflict detection.
/// Derives [lo, hi] bounds per variable from rows whose other terms are
/// already bounded, and rejects when some row cannot reach its required
/// sign or a variable's interval empties. Sound: every deduction is a
/// consequence of the constraint system over the integers; `true` means
/// proven empty. All arithmetic is overflow-checked 128-bit; anything
/// that overflows is treated as unbounded.
///
/// A row costs O(nonzeros): each term's maximum is read once, and the
/// maximum of the other terms is the row's sum less the term. A row with
/// a term large enough that a partial sum might overflow instead sums the
/// other terms one by one in column order, so exactly the partial sums of a
/// term-by-term loop overflow and every deduction is that loop's.
bool intervalConflict(const BasicSet &N) {
  unsigned NumVars = N.numVars();
  struct Bound {
    bool HasLo = false, HasHi = false;
    Int128 Lo = 0, Hi = 0;
  };
  std::vector<Bound> B(NumVars);

  // One scan target per inequality, plus both directions of equalities,
  // each with its nonzero columns Cols[Begin, End).
  struct RowRef {
    const std::vector<int64_t> *Row;
    bool Negate;
    uint32_t Begin, End;
  };
  std::vector<RowRef> Rows;
  std::vector<uint32_t> Cols;
  auto AddRow = [&](const std::vector<int64_t> &R, bool Negate) {
    uint32_t Begin = static_cast<uint32_t>(Cols.size());
    for (unsigned J = 0; J < NumVars; ++J)
      if (R[J] != 0)
        Cols.push_back(J);
    Rows.push_back({&R, Negate, Begin, static_cast<uint32_t>(Cols.size())});
  };
  for (const auto &R : N.inequalities())
    AddRow(R, false);
  for (const auto &R : N.equalities()) {
    AddRow(R, false);
    AddRow(R, true);
  }

  // Below this magnitude no sum of a constant and NumVars terms overflows.
  const Int128 SmallTerm = Int128(1) << 100;
  std::vector<Int128> Term(NumVars);
  std::vector<char> HasTerm(NumVars);
  const unsigned MaxRounds = 4;
  for (unsigned Round = 0; Round < MaxRounds; ++Round) {
    bool Changed = false;
    for (const RowRef &RR : Rows) {
      // Row means sum_j a_j x_j + c >= 0 (after optional negation).
      auto Coeff = [&](unsigned J) {
        return RR.Negate ? -(*RR.Row)[J] : (*RR.Row)[J];
      };
      Int128 C = Coeff(NumVars);
      // Each term's maximum over the intervals, or none when a bound is
      // missing or the product overflows. Tightening x_j from this row
      // moves the bound the maximum of a_j*x_j does not read (a_j > 0
      // raises lo, the maximum reads hi), so the maxima hold for the row.
      unsigned Unbounded = 0;
      bool Small = NumVars < (1u << 26);
      Int128 Sum = C;
      for (uint32_t P = RR.Begin; P < RR.End; ++P) {
        unsigned J = Cols[P];
        int64_t A = Coeff(J);
        const Bound &Bd = B[J];
        HasTerm[J] = (A > 0 ? Bd.HasHi : Bd.HasLo) &&
                     !mulOverflow128(Int128(A), A > 0 ? Bd.Hi : Bd.Lo,
                                     Term[J]);
        if (!HasTerm[J])
          ++Unbounded;
        else if (Term[J] >= SmallTerm || Term[J] <= -SmallTerm)
          Small = false;
        else
          Sum += Term[J];
      }
      // The maximum of c plus every term but column Skip's (NumVars: all
      // terms); false when a term is unbounded or a partial sum overflows.
      auto MaxWithout = [&](unsigned Skip, Int128 &Out) {
        bool SkipUnbounded = Skip < NumVars && !HasTerm[Skip];
        if (Small) {
          Out = Skip < NumVars && HasTerm[Skip] ? Sum - Term[Skip] : Sum;
          return Unbounded == (SkipUnbounded ? 1u : 0u);
        }
        Out = C;
        for (uint32_t P = RR.Begin; P < RR.End; ++P) {
          unsigned K = Cols[P];
          if (K != Skip &&
              (!HasTerm[K] || addOverflow128(Out, Term[K], Out)))
            return false;
        }
        return true;
      };
      // Tighten each variable of the row by the maximum of the others:
      // a_j * x_j >= -MaxRest.
      for (uint32_t P = RR.Begin; P < RR.End; ++P) {
        unsigned J = Cols[P];
        int64_t AJ = Coeff(J);
        Int128 MaxRest;
        if (!MaxWithout(J, MaxRest))
          continue;
        Bound &Bd = B[J];
        if (AJ > 0) {
          Int128 Lo = ceilDiv128(-MaxRest, AJ);
          if (!Bd.HasLo || Lo > Bd.Lo) {
            Bd.HasLo = true;
            Bd.Lo = Lo;
            Changed = true;
          }
        } else {
          Int128 Hi = floorDiv128(-MaxRest, AJ);
          if (!Bd.HasHi || Hi < Bd.Hi) {
            Bd.HasHi = true;
            Bd.Hi = Hi;
            Changed = true;
          }
        }
        if (Bd.HasLo && Bd.HasHi && Bd.Lo > Bd.Hi)
          return true; // empty interval
      }
      // Whole-row reachability: if every term is bounded above and the row
      // maximum is still negative, the constraint is unsatisfiable.
      Int128 RowMax;
      if (MaxWithout(NumVars, RowMax) && RowMax < 0)
        return true;
    }
    if (!Changed)
      break;
  }
  return false;
}

/// The emptiness prefilter ladder over an already-normalized set. Counts
/// each rung's hits; does NOT count misses (callers decide whether a miss
/// proceeds to the full solver). A conflicting-equality reject reports
/// its two equalities in `EqPair`; interval propagation derives bounds
/// through arbitrarily many rows, so its rejects cite the whole system.
Ternary prefilterNormalized(const TaggedSet &T,
                            std::vector<size_t> *EqPair = nullptr) {
  // Two equalities with an identical variable part but different constants
  // are contradictory. Normalized equalities are GCD-reduced and
  // sign-canonical, so equal variable parts are equal prefixes, adjacent
  // in content order, and (rows being deduplicated) differ in constant.
  const std::vector<uint32_t> &Rs = T.Sorted;
  for (size_t I = Rs.size() - T.EqTags.size() + 1; I < Rs.size(); ++I) {
    const auto &A = T.row(Rs[I - 1]), &B = T.row(Rs[I]);
    if (!std::equal(A.begin(), A.end() - 1, B.begin()))
      continue;
    tallies().EqConflict.add();
    if (EqPair)
      *EqPair = {Rs[I - 1], Rs[I]};
    return Ternary::True;
  }
  if (intervalConflict(T.S)) {
    tallies().Interval.add();
    return Ternary::True;
  }
  return Ternary::Unknown;
}

void recordCoreSize(size_t N) {
  static obs::Histogram &H = obs::histogram("presburger.core_size");
  H.record(static_cast<uint64_t>(N));
}

} // namespace

bool BasicSet::normalize() {
  TaggedSet T;
  uint32_t BadTag;
  if (!normalizeInto(*this, T, BadTag))
    return false; // *this unchanged
  *this = std::move(T.S);
  return true;
}

QueryCacheStats queryCacheStats() {
  QueryCache &C = queryCache();
  uint64_t Entries = 0;
  for (QueryCache::Shard &S : C.Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    Entries += S.Map.size();
  }
  Tallies &T = tallies();
  return {T.CacheHits.value(),  T.CacheMisses.value(),
          Entries,              T.CoreSubsume.value(),
          coreIndex().size(),   CacheBytes.load(std::memory_order_relaxed)};
}

void clearQueryCache() {
  QueryCache &C = queryCache();
  for (QueryCache::Shard &S : C.Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    S.Map.clear();
  }
  coreIndex().clear();
  CacheBytes = 0;
  tallies().reset();
  resetBudgetCounters();
}

PrefilterStats prefilterStats() {
  Tallies &T = tallies();
  PrefilterStats Out;
  Out.GcdRejects = T.Gcd.value();
  Out.EqConflictRejects = T.EqConflict.value();
  Out.IntervalRejects = T.Interval.value();
  Out.SyntacticSubsetHits = T.SynSubset.value();
  Out.Misses = T.PrefilterMiss.value();
  return Out;
}

Ternary prefilterEmptiness(const BasicSet &S) {
  TaggedSet T;
  uint32_t BadTag;
  if (!normalizeInto(S, T, BadTag)) {
    tallies().Gcd.add();
    return Ternary::True;
  }
  return prefilterNormalized(T);
}

Ternary BasicSet::isEmpty(unsigned NodeBudget) const {
  return isEmpty(NodeBudget, /*Core=*/nullptr);
}

Ternary BasicSet::isEmpty(unsigned NodeBudget, EmptinessCore *Core,
                          std::vector<int64_t> *Witness) const {
  static obs::Counter &Checks = obs::counter("basicset.emptiness_checks");
  Checks.add();
  if (Core) {
    Core->Rows.clear();
    Core->Valid = false;
  }
  if (Witness)
    Witness->clear();
  // Normalize once, carrying a tag per row; the prefilter ladder, the
  // cache key, the core index, the solver, and core attribution all reuse
  // the result.
  TaggedSet T;
  uint32_t BadTag = kBranchTag;
  if (!normalizeInto(*this, T, BadTag)) {
    tallies().Gcd.add();
    if (Core && BadTag != kBranchTag) {
      Core->Rows = {BadTag};
      Core->Valid = true;
      recordCoreSize(1);
    }
    return Ternary::True;
  }
  std::vector<size_t> EqPair;
  if (prefilterNormalized(T, &EqPair) == Ternary::True) {
    std::vector<uint32_t> Cited;
    for (size_t R = 0; R < T.S.numConstraints(); ++R)
      if (EqPair.empty() || std::count(EqPair.begin(), EqPair.end(), R))
        Cited.push_back(T.tag(R));
    // Two conflicting equalities: a two-row core worth indexing.
    if (!EqPair.empty())
      coreIndex().insert(
          std::make_shared<CachedCore>(T, RowHashes(T), Cited));
    if (Core) {
      Core->Rows = std::move(Cited);
      Core->Valid = true;
      recordCoreSize(Core->Rows.size());
    }
    return Ternary::True;
  }
  tallies().PrefilterMiss.add();
  QueryKey Key('E', NodeBudget, T);
  QueryCache &QC = queryCache();
  std::optional<CacheValue> Hit = QC.lookupRaw(Key);
  RowHashes H(T);
  // Exact-key miss: a previously proven core whose rows all appear in
  // this query refutes it outright (more constraints, fewer points) —
  // budget-independent, so it rescues queries across budget settings too.
  std::shared_ptr<const CachedCore> Sub;
  if (!Hit && (Sub = coreIndex().subsuming(T, H))) {
    tallies().CoreSubsume.add();
    Hit = CacheValue{Ternary::True, Sub};
    QC.store(std::move(Key), Ternary::True, std::move(Sub));
  }
  if (Hit) {
    tallies().CacheHits.add();
    if (Core && Hit->V == Ternary::True && Hit->Core)
      mapCore(T, H, *Hit->Core, *Core);
    return Hit->V;
  }
  tallies().CacheMisses.add();
  // Past the analysis deadline, skip the solver outright (the cache may
  // still serve proven facts above — they stay valid forever).
  if (deadlineExpired()) {
    noteDeadlineExhaustion();
    return Ternary::Unknown;
  }
  std::vector<int64_t> Point;
  std::vector<uint32_t> CoreTags;
  Ternary R = EmptinessCheckerImpl(NodeBudget).run(T, Point, &CoreTags);
  if (R == Ternary::False && Witness)
    *Witness = std::move(Point);
  std::shared_ptr<const CachedCore> CC;
  if (R == Ternary::True) {
    sortUniqueTags(CoreTags);
    recordCoreSize(CoreTags.size());
    // Every cited tag names a row of T, so the proof is attributed and
    // the content core holds one row per tag.
    CC = coreIndex().insert(std::make_shared<CachedCore>(T, H, CoreTags));
    if (Core) {
      Core->Rows = std::move(CoreTags);
      Core->Valid = true;
    }
  }
  QC.store(std::move(Key), R, std::move(CC));
  return R;
}

std::optional<std::vector<int64_t>>
BasicSet::sampleIntegerPoint(unsigned NodeBudget) const {
  static obs::Counter &Samples = obs::counter("basicset.samples");
  Samples.add();
  TaggedSet T;
  uint32_t BadTag;
  std::vector<int64_t> Point;
  if (normalizeInto(*this, T, BadTag) &&
      EmptinessCheckerImpl(NodeBudget).run(T, Point, /*CoreTags=*/nullptr) ==
          Ternary::False)
    return Point;
  return std::nullopt;
}

namespace {

/// Does `P` satisfy `Row` (`Row . (P, 1) == 0` or `>= 0`)? Checked 128-bit
/// arithmetic; an overflowing sum counts as not satisfied.
bool satisfiesRow(const std::vector<int64_t> &Row,
                  const std::vector<int64_t> &P, bool IsEq) {
  Int128 V = Row.back();
  for (size_t J = 0; J < P.size(); ++J)
    if (Row[J] != 0 && addOverflow128(V, Int128(Row[J]) * P[J], V))
      return false;
  return IsEq ? V == 0 : V >= 0;
}

} // namespace

bool liesIn(const BasicSet &S, const std::vector<int64_t> &P) {
  if (P.size() != S.numVars())
    return false;
  for (const auto &R : S.equalities())
    if (!satisfiesRow(R, P, /*IsEq=*/true))
      return false;
  for (const auto &R : S.inequalities())
    if (!satisfiesRow(R, P, /*IsEq=*/false))
      return false;
  return true;
}

Ternary WitnessPool::probe(const BasicSet &Base, std::vector<int64_t> Row,
                           unsigned NodeBudget, EmptinessCore *Core) {
  static obs::Counter &Skips = obs::counter("basicset.witness_skips");
  for (const std::vector<int64_t> &P : Points) {
    if (!satisfiesRow(Row, P, /*IsEq=*/false))
      continue;
    Skips.add();
    if (Core) {
      Core->Rows.clear();
      Core->Valid = false;
    }
    return Ternary::False;
  }
  BasicSet Probe = Base;
  Probe.addInequality(std::move(Row));
  std::vector<int64_t> Witness;
  Ternary R = Probe.isEmpty(NodeBudget, Core, &Witness);
  // Checked against every row before pooling, so the pool's exactness
  // never rests on the solver's sample point.
  if (R == Ternary::False && liesIn(Probe, Witness))
    Points.push_back(std::move(Witness));
  return R;
}

void WitnessPool::remap(const std::vector<unsigned> &OldColumn,
                        const BasicSet &NewBase) {
  assert(OldColumn.size() == NewBase.numVars() && "bad column map");
  std::vector<std::vector<int64_t>> Kept;
  for (const std::vector<int64_t> &P : Points) {
    std::vector<int64_t> Q(OldColumn.size());
    bool Mapped = true;
    for (size_t J = 0; J < Q.size() && Mapped; ++J) {
      Mapped = OldColumn[J] < P.size();
      if (Mapped)
        Q[J] = P[OldColumn[J]];
    }
    if (Mapped && liesIn(NewBase, Q))
      Kept.push_back(std::move(Q));
  }
  Points = std::move(Kept);
}

unsigned BasicSet::detectImplicitEqualities(unsigned NodeBudget) {
  if (!normalize())
    return 0;
  // Promoting a row never changes the set's integer points (the probe
  // proved the row tight on all of them), so pooled points stay inside.
  WitnessPool Pool;
  unsigned Promoted = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 0; I < Ineqs.size(); ++I) {
      // Is (row >= 1) infeasible within the set? Then row == 0 everywhere.
      std::vector<int64_t> Strict = Ineqs[I];
      Strict[NumVars] -= 1;
      if (Pool.probe(*this, std::move(Strict), NodeBudget) != Ternary::True)
        continue;
      Eqs.push_back(Ineqs[I]);
      Ineqs.erase(Ineqs.begin() + static_cast<std::ptrdiff_t>(I));
      --I;
      ++Promoted;
      Changed = true;
    }
  }
  return Promoted;
}

BasicSet BasicSet::substitute(unsigned Var,
                              const std::vector<int64_t> &Expr) const {
  assert(Expr.size() == NumVars + 1 && "bad expression width");
  assert(Expr[Var] == 0 && "self-referential substitution");
  BasicSet Out(NumVars - 1);
  auto Rewrite = [&](const std::vector<int64_t> &Row) {
    // Clear the Var column by adding Var's coefficient times (Expr - Var).
    std::vector<int64_t> Full(NumVars + 1, 0);
    int64_t A = Row[Var];
    for (unsigned J = 0; J <= NumVars; ++J)
      Full[J] = Row[J] + A * Expr[J];
    Full[Var] = 0;
    std::vector<int64_t> Compact;
    Compact.reserve(NumVars);
    for (unsigned J = 0; J <= NumVars; ++J)
      if (J != Var)
        Compact.push_back(Full[J]);
    return Compact;
  };
  for (const auto &R : Eqs)
    Out.addEquality(Rewrite(R));
  for (const auto &R : Ineqs)
    Out.addInequality(Rewrite(R));
  return Out;
}

BasicSet BasicSet::insertVars(unsigned Pos, unsigned Count) const {
  assert(Pos <= NumVars && "insert position out of range");
  BasicSet Out(NumVars + Count);
  auto Widen = [&](const std::vector<int64_t> &Row) {
    std::vector<int64_t> R;
    R.reserve(NumVars + Count + 1);
    R.insert(R.end(), Row.begin(), Row.begin() + Pos);
    R.insert(R.end(), Count, 0);
    R.insert(R.end(), Row.begin() + Pos, Row.end());
    return R;
  };
  for (const auto &R : Eqs)
    Out.addEquality(Widen(R));
  for (const auto &R : Ineqs)
    Out.addInequality(Widen(R));
  return Out;
}

/// Is every normalized row of `Sub` syntactically implied by a row of
/// `Super`? (Both must be normalized.) Equalities need an exact match;
/// an inequality a.x + c >= 0 is implied by a same-variable-part
/// inequality with a smaller-or-equal constant, or by an equality pinning
/// the variable part to a compatible value. Purely structural: no solver,
/// no allocation beyond two index tables.
static bool syntacticallyContains(const BasicSet &Super, const BasicSet &Sub) {
  unsigned NumVars = Super.numVars();
  auto VarPart = [NumVars](const std::vector<int64_t> &R) {
    return std::vector<int64_t>(R.begin(), R.begin() + NumVars);
  };
  // Super's equalities by variable part, and its minimum inequality
  // constant by variable part.
  std::map<std::vector<int64_t>, int64_t> EqConst;
  for (const auto &R : Super.equalities())
    EqConst.emplace(VarPart(R), R[NumVars]);
  std::map<std::vector<int64_t>, int64_t> IneqMinConst;
  for (const auto &R : Super.inequalities()) {
    auto [It, New] = IneqMinConst.emplace(VarPart(R), R[NumVars]);
    if (!New && R[NumVars] < It->second)
      It->second = R[NumVars];
  }
  for (const auto &R : Sub.equalities()) {
    auto It = EqConst.find(VarPart(R));
    if (It == EqConst.end() || It->second != R[NumVars])
      return false;
  }
  for (const auto &R : Sub.inequalities()) {
    std::vector<int64_t> VP = VarPart(R);
    auto It = IneqMinConst.find(VP);
    if (It != IneqMinConst.end() && It->second <= R[NumVars])
      continue;
    // An equality a.x == -c0 implies a.x + c >= 0 iff c >= c0; check both
    // sign orientations since equalities are sign-canonicalized.
    auto EqIt = EqConst.find(VP);
    if (EqIt != EqConst.end() && R[NumVars] >= EqIt->second)
      continue;
    for (auto &V : VP)
      V = -V;
    EqIt = EqConst.find(VP);
    if (EqIt != EqConst.end() && R[NumVars] >= -EqIt->second)
      continue;
    return false;
  }
  return true;
}

Ternary BasicSet::isSubsetOf(const BasicSet &Other,
                             unsigned NodeBudget) const {
  static obs::Counter &Tests = obs::counter("basicset.subset_tests");
  Tests.add();
  assert(NumVars == Other.NumVars && "dimension mismatch");
  // Prefilters: a proven-empty left side is contained in anything; a
  // trivially-unsat right side reduces the test to emptiness of the left;
  // and syntactic row containment proves the subset without any solver.
  TaggedSet NThis, NOther;
  uint32_t BadTag;
  if (!normalizeInto(*this, NThis, BadTag)) {
    tallies().Gcd.add();
    return Ternary::True;
  }
  if (!normalizeInto(Other, NOther, BadTag))
    return isEmpty(NodeBudget);
  if (syntacticallyContains(NThis.S, NOther.S)) {
    tallies().SynSubset.add();
    return Ternary::True;
  }
  // Memoized on (canonical this, canonical other, budget); the per-
  // halfspace emptiness probes below additionally hit the emptiness cache.
  QueryKey Key('S', NodeBudget, NThis, &NOther);
  if (std::optional<CacheValue> Hit = queryCache().lookupRaw(Key)) {
    tallies().CacheHits.add();
    return Hit->V;
  }
  tallies().CacheMisses.add();
  // this ⊆ {row >= 0}  iff  this ∧ (row <= -1) is empty, and an equality
  // is two halfspaces. One probe set is reused across all halfspaces: push
  // the negated row, query, pop. The first refuted halfspace ends the test.
  BasicSet Probe = *this;
  Ternary Verdict = Ternary::True;
  auto Contained = [&](const std::vector<int64_t> &Row, int64_t Sign) {
    std::vector<int64_t> Neg(NumVars + 1);
    for (unsigned J = 0; J <= NumVars; ++J)
      Neg[J] = -Sign * Row[J];
    Neg[NumVars] -= 1;
    Probe.addInequality(std::move(Neg));
    Ternary T = Probe.isEmpty(NodeBudget);
    Probe.Ineqs.pop_back();
    if (T == Ternary::Unknown)
      Verdict = Ternary::Unknown;
    return T != Ternary::False;
  };
  bool AllContained = true;
  for (const auto &Row : Other.Ineqs)
    AllContained = AllContained && Contained(Row, 1);
  for (const auto &Row : Other.Eqs)
    AllContained = AllContained && Contained(Row, 1) && Contained(Row, -1);
  if (!AllContained)
    Verdict = Ternary::False;
  queryCache().store(std::move(Key), Verdict);
  return Verdict;
}

//===----------------------------------------------------------------------===//
// Projection (Fourier–Motzkin with exactness tracking)
//===----------------------------------------------------------------------===//

namespace {

/// Eliminate variable `Var` from `S` in place (column becomes zero).
/// Returns false when the elimination had to over-approximate.
bool eliminateVar(BasicSet &S, unsigned Var, unsigned FMPairCap) {
  unsigned N = S.numVars();

  // Preferred: substitution through an equality with a ±1 coefficient.
  const std::vector<std::vector<int64_t>> &Eqs = S.equalities();
  for (size_t I = 0; I < Eqs.size(); ++I) {
    int64_t C = Eqs[I][Var];
    if (C != 1 && C != -1)
      continue;
    // Var = -(sign) * (rest of row).
    std::vector<int64_t> Expr(N + 1, 0);
    for (unsigned J = 0; J <= N; ++J) {
      if (J == Var)
        continue;
      Expr[J] = (C == 1) ? -Eqs[I][J] : Eqs[I][J];
    }
    BasicSet Out(N);
    auto RewriteInto = [&](const std::vector<int64_t> &Row, bool IsEq) {
      std::vector<int64_t> R(N + 1);
      int64_t A = Row[Var];
      for (unsigned J = 0; J <= N; ++J)
        R[J] = Row[J] + A * Expr[J];
      R[Var] = 0;
      if (IsEq)
        Out.addEquality(std::move(R));
      else
        Out.addInequality(std::move(R));
    };
    for (size_t K = 0; K < Eqs.size(); ++K)
      if (K != I)
        RewriteInto(Eqs[K], /*IsEq=*/true);
    for (const auto &Row : S.inequalities())
      RewriteInto(Row, /*IsEq=*/false);
    S = std::move(Out);
    return true;
  }

  // Equality with a non-unit coefficient: scaled elimination loses the
  // divisibility constraint; mark inexact.
  for (size_t I = 0; I < Eqs.size(); ++I) {
    int64_t C = Eqs[I][Var];
    if (C == 0)
      continue;
    int64_t AbsC = C < 0 ? -C : C;
    int64_t SignC = C < 0 ? -1 : 1;
    BasicSet Out(N);
    std::vector<int64_t> EqRow = Eqs[I];
    auto RewriteInto = [&](const std::vector<int64_t> &Row, bool IsEq) {
      int64_t A = Row[Var];
      std::vector<int64_t> R(N + 1);
      bool Ovf = false;
      for (unsigned J = 0; J <= N; ++J) {
        int64_t T1, T2;
        Ovf |= mulOverflow64(AbsC, Row[J], T1);
        Ovf |= mulOverflow64(A * SignC, EqRow[J], T2);
        Ovf |= addOverflow64(T1, -T2, R[J]);
      }
      if (Ovf)
        return false;
      R[Var] = 0;
      if (IsEq)
        Out.addEquality(std::move(R));
      else
        Out.addInequality(std::move(R));
      return true;
    };
    bool OK = true;
    for (size_t K = 0; K < Eqs.size() && OK; ++K)
      if (K != I)
        OK = RewriteInto(Eqs[K], /*IsEq=*/true);
    for (const auto &Row : S.inequalities())
      if (OK)
        OK = RewriteInto(Row, /*IsEq=*/false);
    if (OK) {
      S = std::move(Out);
      return false; // over-approximate (divisibility dropped)
    }
    break; // overflow: fall through to the relaxation path
  }

  // Fourier–Motzkin over the inequalities.
  std::vector<std::vector<int64_t>> Lowers, Uppers, Others;
  for (const auto &Row : S.inequalities()) {
    if (Row[Var] > 0)
      Lowers.push_back(Row);
    else if (Row[Var] < 0)
      Uppers.push_back(Row);
    else
      Others.push_back(Row);
  }
  // If any equality still involves Var here, there were no equalities with
  // nonzero coefficient (handled above), so none do.
  bool Exact = true;
  BasicSet Out(N);
  for (const auto &Row : S.equalities())
    Out.addEquality(Row);
  for (auto &Row : Others)
    Out.addInequality(std::move(Row));

  if (Lowers.size() * Uppers.size() > FMPairCap) {
    // Too many combinations: drop all constraints on Var (pure relaxation).
    S = std::move(Out);
    return false;
  }

  for (const auto &L : Lowers) {
    for (const auto &U : Uppers) {
      int64_t AL = L[Var];        // > 0
      int64_t AU = -U[Var];       // > 0
      bool PairExact = (AL == 1 || AU == 1);
      Exact &= PairExact;
      std::vector<int64_t> R(N + 1);
      bool Ovf = false;
      for (unsigned J = 0; J <= N; ++J) {
        int64_t T1, T2;
        Ovf |= mulOverflow64(AU, L[J], T1);
        Ovf |= mulOverflow64(AL, U[J], T2);
        Ovf |= addOverflow64(T1, T2, R[J]);
      }
      if (Ovf) {
        // Skip the combined constraint: still a relaxation, but inexact.
        Exact = false;
        continue;
      }
      R[Var] = 0;
      if (!PairExact) {
        // Integer (dark-shadow style) tightening is not applied; the pure
        // FM result over-approximates the integer shadow.
      }
      Out.addInequality(std::move(R));
    }
  }
  S = std::move(Out);
  return Exact;
}

} // namespace

ProjectResult
BasicSet::projectOut(std::vector<unsigned> Positions) const {
  static obs::Counter &Projections = obs::counter("basicset.projections");
  Projections.add();
  BasicSet Work = *this;
  bool Exact = true;
  std::sort(Positions.begin(), Positions.end());
  Positions.erase(std::unique(Positions.begin(), Positions.end()),
                  Positions.end());
  std::vector<bool> Eliminated(NumVars, false);

  if (!Work.normalize()) {
    unsigned OutWidth = NumVars - static_cast<unsigned>(Positions.size());
    BasicSet Out(OutWidth);
    std::vector<int64_t> False(OutWidth + 1, 0);
    False[OutWidth] = -1;
    Out.addInequality(std::move(False));
    return {std::move(Out), true};
  }

  // Eliminate cheapest-first: prefer unit-equality substitutions, then the
  // variable with the fewest FM pair combinations.
  std::vector<unsigned> Pending = Positions;
  while (!Pending.empty()) {
    unsigned BestIdx = 0;
    long BestScore = -1;
    for (unsigned I = 0; I < Pending.size(); ++I) {
      unsigned V = Pending[I];
      bool HasUnitEq = false;
      for (const auto &E : Work.equalities())
        if (E[V] == 1 || E[V] == -1) {
          HasUnitEq = true;
          break;
        }
      long Score;
      if (HasUnitEq) {
        Score = 0;
      } else {
        long NumLow = 0, NumUp = 0;
        for (const auto &R : Work.inequalities()) {
          if (R[V] > 0)
            ++NumLow;
          else if (R[V] < 0)
            ++NumUp;
        }
        Score = 1 + NumLow * NumUp;
      }
      if (BestScore < 0 || Score < BestScore) {
        BestScore = Score;
        BestIdx = I;
      }
    }
    unsigned Var = Pending[BestIdx];
    Pending.erase(Pending.begin() + BestIdx);
    Exact &= eliminateVar(Work, Var, /*FMPairCap=*/2048);
    Eliminated[Var] = true;
    if (!Work.normalize()) {
      // Proven empty during elimination: produce an empty set of the right
      // output width; that is exact regardless of earlier approximations.
      unsigned OutWidth = NumVars - static_cast<unsigned>(Positions.size());
      BasicSet Out(OutWidth);
      std::vector<int64_t> False(OutWidth + 1, 0);
      False[OutWidth] = -1;
      Out.addInequality(std::move(False));
      return {std::move(Out), true};
    }
  }

  // Compress the eliminated columns away.
  unsigned OutWidth = NumVars - static_cast<unsigned>(Positions.size());
  BasicSet Out(OutWidth);
  auto Compress = [&](const std::vector<int64_t> &Row) {
    std::vector<int64_t> R;
    R.reserve(OutWidth + 1);
    for (unsigned J = 0; J < NumVars; ++J)
      if (!Eliminated[J])
        R.push_back(Row[J]);
    R.push_back(Row[NumVars]);
    return R;
  };
  for (const auto &Row : Work.equalities())
    Out.addEquality(Compress(Row));
  for (const auto &Row : Work.inequalities())
    Out.addInequality(Compress(Row));
  Out.normalize();
  return {std::move(Out), Exact};
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

std::string formatConstraintRow(const std::vector<int64_t> &Row, bool IsEq,
                                const std::vector<std::string> &Names) {
  unsigned NumVars = static_cast<unsigned>(Row.size()) - 1;
  std::string Out;
  bool First = true;
  for (unsigned J = 0; J < NumVars; ++J) {
    int64_t C = Row[J];
    if (C == 0)
      continue;
    std::string Name =
        J < Names.size() ? Names[J] : ("x" + std::to_string(J));
    if (First) {
      if (C == -1)
        Out += "-";
      else if (C != 1)
        Out += std::to_string(C) + " ";
    } else {
      Out += C > 0 ? " + " : " - ";
      int64_t A = C < 0 ? -C : C;
      if (A != 1)
        Out += std::to_string(A) + " ";
    }
    Out += Name;
    First = false;
  }
  int64_t K = Row[NumVars];
  if (First) {
    Out += std::to_string(K);
  } else if (K != 0) {
    Out += K > 0 ? " + " : " - ";
    Out += std::to_string(K < 0 ? -K : K);
  }
  Out += IsEq ? " == 0" : " >= 0";
  return Out;
}

std::string BasicSet::str(const std::vector<std::string> &Names) const {
  std::string Out = "{ [";
  for (unsigned J = 0; J < NumVars; ++J) {
    if (J)
      Out += ", ";
    if (J < Names.size()) {
      Out += Names[J];
    } else {
      // Built via append, not operator+: the latter trips a GCC 12
      // -Wrestrict false positive (PR105329) under -Werror.
      Out += 'x';
      Out += std::to_string(J);
    }
  }
  Out += "] : ";
  bool First = true;
  for (const auto &Row : Eqs) {
    if (!First)
      Out += " && ";
    Out += formatConstraintRow(Row, /*IsEq=*/true, Names);
    First = false;
  }
  for (const auto &Row : Ineqs) {
    if (!First)
      Out += " && ";
    Out += formatConstraintRow(Row, /*IsEq=*/false, Names);
    First = false;
  }
  if (First)
    Out += "true";
  Out += " }";
  return Out;
}

} // namespace presburger
} // namespace sds
