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
#include "sds/support/MathExtras.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <functional>
#include <map>
#include <mutex>
#include <set>
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

/// A BasicSet with one tag per row, tags riding along through
/// normalization, deduplication, and branching so a Farkas certificate
/// over the solved rows maps back to the caller's original row ids.
struct TaggedSet {
  BasicSet S;
  std::vector<uint32_t> EqTags, IneqTags;

  explicit TaggedSet(BasicSet Set) : S(std::move(Set)) {
    uint32_t Next = 0;
    EqTags.resize(S.equalities().size());
    for (auto &T : EqTags)
      T = Next++;
    IneqTags.resize(S.inequalities().size());
    for (auto &T : IneqTags)
      T = Next++;
  }
};

/// Normalization with tag bookkeeping (BasicSet::normalize drops the
/// tags): GCD-reduce, tighten inequality constants toward -inf, drop
/// trivially true rows, sign-canonicalize equalities, deduplicate keeping
/// the first occurrence (and its tag). Returns false when a row alone is
/// unsatisfiable, reporting that row's tag in `BadTag`; the set is then
/// left unchanged.
bool normalizeTagged(TaggedSet &T, uint32_t &BadTag) {
  unsigned NumVars = T.S.numVars();
  std::vector<std::vector<int64_t>> NewEqs, NewIneqs;
  std::vector<uint32_t> NewEqTags, NewIneqTags;
  std::set<std::vector<int64_t>> SeenEq, SeenIneq;

  auto &Eqs = EmptinessChecker::eqs(T.S);
  for (size_t I = 0; I < Eqs.size(); ++I) {
    auto &Row = Eqs[I];
    int64_t G = variableGcd(Row, NumVars);
    if (G == 0) {
      if (Row[NumVars] != 0) {
        BadTag = T.EqTags[I];
        return false; // 0 == c, c != 0
      }
      continue;
    }
    if (Row[NumVars] % G != 0) {
      BadTag = T.EqTags[I];
      return false; // no integer solution for this equality
    }
    std::vector<int64_t> R = Row;
    for (auto &C : R)
      C /= G;
    // Canonical sign: first nonzero variable coefficient positive.
    for (unsigned J = 0; J < NumVars; ++J) {
      if (R[J] == 0)
        continue;
      if (R[J] < 0)
        for (auto &C : R)
          C = -C;
      break;
    }
    if (SeenEq.insert(R).second) {
      NewEqs.push_back(std::move(R));
      NewEqTags.push_back(T.EqTags[I]);
    }
  }

  auto &Ineqs = EmptinessChecker::ineqs(T.S);
  for (size_t I = 0; I < Ineqs.size(); ++I) {
    auto &Row = Ineqs[I];
    int64_t G = variableGcd(Row, NumVars);
    if (G == 0) {
      if (Row[NumVars] < 0) {
        BadTag = T.IneqTags[I];
        return false; // 0 >= -c with c > 0
      }
      continue;
    }
    std::vector<int64_t> R = Row;
    for (unsigned J = 0; J < NumVars; ++J)
      R[J] /= G;
    // Integer tightening: constant rounds toward -inf.
    R[NumVars] = floorDiv64(R[NumVars], G);
    if (SeenIneq.insert(R).second) {
      NewIneqs.push_back(std::move(R));
      NewIneqTags.push_back(T.IneqTags[I]);
    }
  }

  EmptinessChecker::eqs(T.S) = std::move(NewEqs);
  EmptinessChecker::ineqs(T.S) = std::move(NewIneqs);
  T.EqTags = std::move(NewEqTags);
  T.IneqTags = std::move(NewIneqTags);
  return true;
}

/// Merge a child node's core tags into the parent's accumulator, skipping
/// branch rows.
void mergeCoreTags(std::vector<uint32_t> &Into,
                   const std::vector<uint32_t> &From) {
  for (uint32_t Tag : From)
    if (Tag != kBranchTag)
      Into.push_back(Tag);
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

  /// Returns the emptiness verdict; on False (non-empty), `Point` holds an
  /// integer point. On True with `CoreTags` non-null, `CoreTags` receives
  /// the tags of the rows the proof cited (branch rows stripped) and
  /// `CoreValid` stays true iff every node produced an attributable
  /// certificate; when a node could not attribute (overflow inside the
  /// Farkas read-out), the node conservatively cites all of its rows.
  Ternary run(TaggedSet T, std::vector<int64_t> &Point,
              std::vector<uint32_t> *CoreTags) {
    static obs::Counter &Nodes = obs::counter("basicset.bnb_nodes");
    Nodes.add();
    // Wall-clock deadline (Budget.h): one clock read per node. Unknown is
    // the conservative answer — the caller keeps the dependence.
    if (deadlineExpired()) {
      noteDeadlineExhaustion();
      return Ternary::Unknown;
    }
    uint32_t BadTag = kBranchTag;
    if (!normalizeTagged(T, BadTag)) {
      if (CoreTags && BadTag != kBranchTag)
        CoreTags->push_back(BadTag);
      return Ternary::True;
    }
    BasicSet &S = T.S;

    Simplex Sx(S.numVars());
    for (const auto &R : S.equalities())
      Sx.addEquality(R);
    for (const auto &R : S.inequalities())
      Sx.addInequality(R);
    LPStatus St = Sx.checkFeasible();
    if (St == LPStatus::Infeasible) {
      if (CoreTags) {
        size_t NumEq = S.equalities().size();
        const std::vector<unsigned> &C = Sx.infeasibleCore();
        if (C.empty()) {
          // Unattributable certificate (overflow): cite everything.
          mergeCoreTags(*CoreTags, T.EqTags);
          mergeCoreTags(*CoreTags, T.IneqTags);
        } else {
          for (unsigned RI : C) {
            uint32_t Tag = RI < NumEq ? T.EqTags[RI]
                                      : T.IneqTags[RI - NumEq];
            if (Tag != kBranchTag)
              CoreTags->push_back(Tag);
          }
        }
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
      Left.S.addInequality(std::move(Row));
      Left.IneqTags.push_back(kBranchTag);
    }
    // Right branch (x >= floor(v) + 1) reuses T itself: the left branch
    // already holds its own copy, so the node needs one clone, not two.
    {
      std::vector<int64_t> Row(S.numVars() + 1, 0);
      Row[FracVar] = 1;
      Row[S.numVars()] = -(F + 1);
      T.S.addInequality(std::move(Row));
      T.IneqTags.push_back(kBranchTag);
    }

    // The split covers all integers, so when both branches refute, the
    // union of the original rows they cite is itself an unsat core: any
    // point of that union satisfies one branch literal and would land in
    // the corresponding (refuted) subtree.
    Ternary A = run(std::move(Left), Point, CoreTags);
    if (A == Ternary::False)
      return Ternary::False;
    Ternary B = run(std::move(T), Point, CoreTags);
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

/// The row content of a proven unsat core, stored in the normalized form
/// the cache keys on (so it can be matched back against any query whose
/// canonical rows contain it). Shared immutably between the exact-key
/// cache and the subsumption index.
struct CachedCore {
  /// (IsEq, normalized row) pairs, sorted.
  std::vector<std::pair<bool, std::vector<int64_t>>> Rows;
};

/// What the exact-key cache stores: the verdict plus, for True emptiness
/// verdicts, the proof's core rows (null for subset entries and for
/// verdicts whose proof predates core support).
struct CacheValue {
  Ternary V = Ternary::Unknown;
  std::shared_ptr<const CachedCore> Core;
};

/// Canonical bytes of one (IsEq, row) pair — the currency of the
/// subsumption index.
std::string rowKeyBytes(bool IsEq, const std::vector<int64_t> &Row) {
  std::string Out;
  Out.reserve((Row.size() + 1) * 8);
  Out.push_back(IsEq ? 1 : 2);
  for (int64_t V : Row)
    for (int B = 0; B < 8; ++B)
      Out.push_back(
          static_cast<char>((static_cast<uint64_t>(V) >> (8 * B)) & 0xff));
  return Out;
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

/// Process-wide canonical-system -> verdict cache. Definitive verdicts are
/// mathematical facts about the (budget, constraint-system) pair, so there
/// is no invalidation; each shard's map is simply bounded.
///
/// The map is split into independently-locked shards selected by the
/// key's hash so concurrent queries from the task-parallel pipeline do
/// not serialize on one mutex; hits and misses are counted in tallies(),
/// outside any lock.
struct QueryCache {
  static constexpr size_t ShardBits = 4;
  static constexpr size_t NumShards = size_t(1) << ShardBits;
  static constexpr size_t MaxEntriesPerShard = (size_t(1) << 20) >> ShardBits;

  struct alignas(64) Shard {
    std::mutex M;
    std::unordered_map<std::string, CacheValue> Map;
  };
  std::array<Shard, NumShards> Shards;

  Shard &shardFor(const std::string &Key) {
    return Shards[std::hash<std::string>{}(Key) & (NumShards - 1)];
  }

  /// Raw map probe; counts nothing. Callers decide whether a miss is
  /// final (CacheMisses) or rescued by the subsumption index (CacheHits +
  /// CoreSubsume).
  std::optional<CacheValue> lookupRaw(const std::string &Key) {
    Shard &S = shardFor(Key);
    std::lock_guard<std::mutex> Lock(S.M);
    auto It = S.Map.find(Key);
    if (It != S.Map.end())
      return It->second;
    return std::nullopt;
  }

  void store(const std::string &Key, Ternary V,
             std::shared_ptr<const CachedCore> Core = nullptr) {
    if (V == Ternary::Unknown)
      return; // budget-dependent; another query may still resolve it
    Shard &S = shardFor(Key);
    std::lock_guard<std::mutex> Lock(S.M);
    if (S.Map.size() < MaxEntriesPerShard)
      S.Map.emplace(Key, CacheValue{V, std::move(Core)});
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
/// budget. Cores are anchored by their lexicographically smallest row:
/// since core rows are a subset of any subsuming query's rows, scanning
/// the query's own rows as anchors finds every candidate.
struct CoreIndex {
  static constexpr size_t MaxEntries = size_t(1) << 16;

  std::mutex M;
  std::unordered_map<std::string,
                     std::vector<std::shared_ptr<const CachedCore>>>
      ByAnchor;
  size_t Entries = 0;

  void insert(const std::shared_ptr<const CachedCore> &Core) {
    if (!Core || Core->Rows.empty())
      return;
    std::string Anchor =
        rowKeyBytes(Core->Rows.front().first, Core->Rows.front().second);
    std::lock_guard<std::mutex> Lock(M);
    if (Entries >= MaxEntries)
      return;
    auto &Bucket = ByAnchor[Anchor];
    for (const auto &Existing : Bucket)
      if (Existing->Rows == Core->Rows)
        return;
    Bucket.push_back(Core);
    ++Entries;
  }

  /// All integer points of `N` (normalized) satisfy every row of some
  /// stored core? Then N is empty; return that core.
  std::shared_ptr<const CachedCore> subsuming(const BasicSet &N) {
    std::set<std::pair<bool, std::vector<int64_t>>> QueryRows;
    for (const auto &R : N.equalities())
      QueryRows.emplace(true, R);
    for (const auto &R : N.inequalities())
      QueryRows.emplace(false, R);
    std::lock_guard<std::mutex> Lock(M);
    if (Entries == 0)
      return nullptr;
    for (const auto &Row : QueryRows) {
      auto It = ByAnchor.find(rowKeyBytes(Row.first, Row.second));
      if (It == ByAnchor.end())
        continue;
      for (const auto &Core : It->second) {
        bool AllPresent = true;
        for (const auto &CR : Core->Rows)
          if (!QueryRows.count(CR)) {
            AllPresent = false;
            break;
          }
        if (AllPresent)
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
  return true;
}();

//===----------------------------------------------------------------------===//
// Prefilter ladder
//===----------------------------------------------------------------------===//

/// Two equalities with an identical variable part but different constants
/// are contradictory. normalize() GCD-reduces rows and canonicalizes the
/// sign of each equality's leading coefficient, so identical variable
/// parts compare bitwise-equal here.
bool hasConflictingEqualities(const BasicSet &N,
                              std::pair<size_t, size_t> *Pair = nullptr) {
  const auto &Eqs = N.equalities();
  if (Eqs.size() < 2)
    return false;
  unsigned NumVars = N.numVars();
  std::vector<size_t> Sorted;
  Sorted.reserve(Eqs.size());
  for (size_t I = 0; I < Eqs.size(); ++I)
    Sorted.push_back(I);
  auto VarPartLess = [&](size_t A, size_t B) {
    return std::lexicographical_compare(Eqs[A].begin(),
                                        Eqs[A].begin() + NumVars,
                                        Eqs[B].begin(),
                                        Eqs[B].begin() + NumVars);
  };
  std::sort(Sorted.begin(), Sorted.end(), VarPartLess);
  for (size_t I = 1; I < Sorted.size(); ++I) {
    const auto &A = Eqs[Sorted[I - 1]], &B = Eqs[Sorted[I]];
    if (std::equal(A.begin(), A.begin() + NumVars, B.begin()) &&
        A[NumVars] != B[NumVars]) {
      if (Pair)
        *Pair = {Sorted[I - 1], Sorted[I]};
      return true;
    }
  }
  return false;
}

/// Bounded single-variable interval propagation with conflict detection.
/// Derives [lo, hi] bounds per variable from rows whose other terms are
/// already bounded, and rejects when some row cannot reach its required
/// sign or a variable's interval empties. Sound: every deduction is a
/// consequence of the constraint system over the integers; `true` means
/// proven empty. All arithmetic is overflow-checked 128-bit; anything
/// that overflows is treated as unbounded.
bool intervalConflict(const BasicSet &N) {
  unsigned NumVars = N.numVars();
  struct Bound {
    bool HasLo = false, HasHi = false;
    Int128 Lo = 0, Hi = 0;
  };
  std::vector<Bound> B(NumVars);

  // One scan target per inequality, plus both directions of equalities.
  struct RowRef {
    const std::vector<int64_t> *Row;
    bool Negate;
  };
  std::vector<RowRef> Rows;
  Rows.reserve(N.inequalities().size() + 2 * N.equalities().size());
  for (const auto &R : N.inequalities())
    Rows.push_back({&R, false});
  for (const auto &R : N.equalities()) {
    Rows.push_back({&R, false});
    Rows.push_back({&R, true});
  }

  auto Coeff = [&](const RowRef &RR, unsigned J) {
    int64_t C = (*RR.Row)[J];
    return RR.Negate ? -C : C;
  };

  // max over the interval of a*x, as a checked 128-bit value; false when
  // unbounded (missing bound) or overflowing.
  auto MaxTerm = [&](int64_t A, const Bound &Bd, Int128 &Out) {
    if (A > 0) {
      if (!Bd.HasHi)
        return false;
      return !mulOverflow128(Int128(A), Bd.Hi, Out);
    }
    if (!Bd.HasLo)
      return false;
    return !mulOverflow128(Int128(A), Bd.Lo, Out);
  };

  const unsigned MaxRounds = 4;
  for (unsigned Round = 0; Round < MaxRounds; ++Round) {
    bool Changed = false;
    for (const RowRef &RR : Rows) {
      // Row means sum_j a_j x_j + c >= 0 (after optional negation).
      Int128 C = Coeff(RR, NumVars);
      // Try to tighten each variable with a nonzero coefficient, using the
      // maximum the *other* terms can contribute.
      for (unsigned J = 0; J < NumVars; ++J) {
        int64_t AJ = Coeff(RR, J);
        if (AJ == 0)
          continue;
        Int128 MaxRest = C;
        bool RestBounded = true;
        for (unsigned K = 0; K < NumVars && RestBounded; ++K) {
          if (K == J)
            continue;
          int64_t AK = Coeff(RR, K);
          if (AK == 0)
            continue;
          Int128 T;
          RestBounded = MaxTerm(AK, B[K], T) &&
                        !addOverflow128(MaxRest, T, MaxRest);
        }
        if (!RestBounded)
          continue;
        // a_j * x_j >= -MaxRest.
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
      Int128 RowMax = C;
      bool AllBounded = true;
      for (unsigned J = 0; J < NumVars && AllBounded; ++J) {
        int64_t AJ = Coeff(RR, J);
        if (AJ == 0)
          continue;
        Int128 T;
        AllBounded = MaxTerm(AJ, B[J], T) &&
                     !addOverflow128(RowMax, T, RowMax);
      }
      if (AllBounded && RowMax < 0)
        return true;
    }
    if (!Changed)
      break;
  }
  return false;
}

/// Which rows a prefilter reject cited, in N's (normalized) row-index
/// space. Interval propagation derives bounds through arbitrarily many
/// rows, so it cannot attribute and cites everything.
struct PrefilterCore {
  std::vector<size_t> EqRows; ///< conflicting equality indices
  bool AllRows = false;       ///< unattributable: cite the whole system
};

/// The emptiness prefilter ladder over an already-normalized set. Counts
/// each rung's hits; does NOT count misses (callers decide whether a miss
/// proceeds to the full solver).
Ternary prefilterNormalized(const BasicSet &N, PrefilterCore *Core = nullptr) {
  std::pair<size_t, size_t> Conflict;
  if (hasConflictingEqualities(N, &Conflict)) {
    tallies().EqConflict.add();
    if (Core)
      Core->EqRows = {Conflict.first, Conflict.second};
    return Ternary::True;
  }
  if (intervalConflict(N)) {
    tallies().Interval.add();
    if (Core)
      Core->AllRows = true;
    return Ternary::True;
  }
  return Ternary::Unknown;
}

void appendInt(std::string &Out, int64_t V) {
  for (int B = 0; B < 8; ++B)
    Out.push_back(static_cast<char>((static_cast<uint64_t>(V) >> (8 * B)) &
                                    0xff));
}

/// Canonical byte string of one *already-normalized* set: rows in sorted
/// order. Two syntactically different but normalize-identical systems
/// share a key; semantically equal systems with different normal forms
/// simply miss (the cache stays sound either way). Callers normalize once
/// and reuse the result for the prefilters, the key, and the solve.
void appendCanonicalNormalized(std::string &Out, const BasicSet &N) {
  appendInt(Out, static_cast<int64_t>(N.numVars()));
  appendInt(Out, 1); // feasible-after-normalize marker (key-format compat)
  auto Rows = [&Out](std::vector<std::vector<int64_t>> Rs, int64_t Tag) {
    std::sort(Rs.begin(), Rs.end());
    appendInt(Out, Tag);
    appendInt(Out, static_cast<int64_t>(Rs.size()));
    for (const auto &R : Rs)
      for (int64_t V : R)
        appendInt(Out, V);
  };
  Rows(N.equalities(), /*Tag=*/1);
  Rows(N.inequalities(), /*Tag=*/2);
}

} // namespace

bool BasicSet::normalize() {
  TaggedSet T(std::move(*this));
  uint32_t BadTag;
  bool Ok = normalizeTagged(T, BadTag);
  *this = std::move(T.S); // unchanged when !Ok
  return Ok;
}

QueryCacheStats queryCacheStats() {
  QueryCache &C = queryCache();
  uint64_t Entries = 0;
  for (QueryCache::Shard &S : C.Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    Entries += S.Map.size();
  }
  Tallies &T = tallies();
  return {T.CacheHits.value(), T.CacheMisses.value(), Entries,
          T.CoreSubsume.value(), coreIndex().size()};
}

void clearQueryCache() {
  QueryCache &C = queryCache();
  for (QueryCache::Shard &S : C.Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    S.Map.clear();
  }
  coreIndex().clear();
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
  BasicSet N = S;
  if (!N.normalize()) {
    tallies().Gcd.add();
    return Ternary::True;
  }
  return prefilterNormalized(N);
}

Ternary BasicSet::isEmpty(unsigned NodeBudget) const {
  return isEmpty(NodeBudget, /*Core=*/nullptr);
}

namespace {

/// Build the shareable row-content core from cited tags, reading row
/// content out of the normalized tagged set.
std::shared_ptr<const CachedCore>
contentCoreFromTags(const TaggedSet &T, const std::vector<uint32_t> &Tags) {
  auto Core = std::make_shared<CachedCore>();
  Core->Rows.reserve(Tags.size());
  for (uint32_t Tag : Tags) {
    bool Found = false;
    for (size_t I = 0; I < T.EqTags.size() && !Found; ++I)
      if (T.EqTags[I] == Tag) {
        Core->Rows.emplace_back(true, T.S.equalities()[I]);
        Found = true;
      }
    for (size_t I = 0; I < T.IneqTags.size() && !Found; ++I)
      if (T.IneqTags[I] == Tag) {
        Core->Rows.emplace_back(false, T.S.inequalities()[I]);
        Found = true;
      }
    if (!Found)
      return nullptr; // cited row vanished in normalization (cannot happen)
  }
  std::sort(Core->Rows.begin(), Core->Rows.end());
  Core->Rows.erase(std::unique(Core->Rows.begin(), Core->Rows.end()),
                   Core->Rows.end());
  return Core;
}

/// Map a content core back onto a query's rows: every core row must match
/// one of the query's normalized rows by content; return its tag. False
/// when a row is missing (a cache entry written by a different canonical
/// form — impossible for exact-key hits, possible never in practice).
bool tagsFromContentCore(const TaggedSet &T, const CachedCore &Core,
                         std::vector<uint32_t> &Tags) {
  std::map<std::pair<bool, const std::vector<int64_t> *>, uint32_t,
           bool (*)(const std::pair<bool, const std::vector<int64_t> *> &,
                    const std::pair<bool, const std::vector<int64_t> *> &)>
      RowTag([](const std::pair<bool, const std::vector<int64_t> *> &A,
                const std::pair<bool, const std::vector<int64_t> *> &B) {
        if (A.first != B.first)
          return A.first < B.first;
        return *A.second < *B.second;
      });
  for (size_t I = 0; I < T.EqTags.size(); ++I)
    RowTag.emplace(std::make_pair(true, &T.S.equalities()[I]), T.EqTags[I]);
  for (size_t I = 0; I < T.IneqTags.size(); ++I)
    RowTag.emplace(std::make_pair(false, &T.S.inequalities()[I]),
                   T.IneqTags[I]);
  for (const auto &[IsEq, Row] : Core.Rows) {
    auto It = RowTag.find(std::make_pair(IsEq, &Row));
    if (It == RowTag.end())
      return false;
    Tags.push_back(It->second);
  }
  return true;
}

void recordCoreSize(size_t N) {
  static obs::Histogram &H = obs::histogram("presburger.core_size");
  H.record(static_cast<uint64_t>(N));
}

} // namespace

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
  // cache key, the solver, and core attribution all reuse the result.
  TaggedSet T(*this);
  uint32_t BadTag = kBranchTag;
  if (!normalizeTagged(T, BadTag)) {
    tallies().Gcd.add();
    if (Core && BadTag != kBranchTag) {
      Core->Rows = {BadTag};
      Core->Valid = true;
      recordCoreSize(1);
    }
    return Ternary::True;
  }
  const BasicSet &N = T.S;
  PrefilterCore PC;
  if (prefilterNormalized(N, &PC) == Ternary::True) {
    if (PC.EqRows.size() == 2) {
      // Two conflicting equalities: a two-row core worth indexing.
      auto CC = std::make_shared<CachedCore>();
      CC->Rows.emplace_back(true, N.equalities()[PC.EqRows[0]]);
      CC->Rows.emplace_back(true, N.equalities()[PC.EqRows[1]]);
      std::sort(CC->Rows.begin(), CC->Rows.end());
      coreIndex().insert(CC);
    }
    if (Core) {
      if (PC.AllRows) {
        Core->Rows.insert(Core->Rows.end(), T.EqTags.begin(), T.EqTags.end());
        Core->Rows.insert(Core->Rows.end(), T.IneqTags.begin(),
                          T.IneqTags.end());
      } else {
        for (size_t I : PC.EqRows)
          Core->Rows.push_back(T.EqTags[I]);
      }
      sortUniqueTags(Core->Rows);
      Core->Valid = true;
      recordCoreSize(Core->Rows.size());
    }
    return Ternary::True;
  }
  tallies().PrefilterMiss.add();
  std::string Key;
  Key.reserve(32 + (N.numConstraints() + 2) * (NumVars + 2) * 8);
  Key.push_back('E');
  appendInt(Key, NodeBudget);
  appendCanonicalNormalized(Key, N);
  QueryCache &QC = queryCache();
  if (std::optional<CacheValue> Hit = QC.lookupRaw(Key)) {
    tallies().CacheHits.add();
    if (Core && Hit->V == Ternary::True && Hit->Core) {
      std::vector<uint32_t> Tags;
      if (tagsFromContentCore(T, *Hit->Core, Tags)) {
        sortUniqueTags(Tags);
        Core->Rows = std::move(Tags);
        Core->Valid = true;
      }
    }
    return Hit->V;
  }
  // Exact-key miss: a previously proven core whose rows all appear in
  // this query refutes it outright (more constraints, fewer points) —
  // budget-independent, so it rescues queries across budget settings too.
  if (std::shared_ptr<const CachedCore> Sub = coreIndex().subsuming(N)) {
    tallies().CacheHits.add();
    tallies().CoreSubsume.add();
    QC.store(Key, Ternary::True, Sub);
    if (Core) {
      std::vector<uint32_t> Tags;
      if (tagsFromContentCore(T, *Sub, Tags)) {
        sortUniqueTags(Tags);
        Core->Rows = std::move(Tags);
        Core->Valid = true;
      }
    }
    return Ternary::True;
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
  if (R == Ternary::True) {
    sortUniqueTags(CoreTags);
    std::shared_ptr<const CachedCore> CC = contentCoreFromTags(T, CoreTags);
    QC.store(Key, R, CC);
    coreIndex().insert(CC);
    recordCoreSize(CoreTags.size());
    if (Core) {
      Core->Rows = std::move(CoreTags);
      Core->Valid = CC != nullptr;
    }
  } else {
    QC.store(Key, R);
  }
  return R;
}

std::optional<std::vector<int64_t>>
BasicSet::sampleIntegerPoint(unsigned NodeBudget) const {
  static obs::Counter &Samples = obs::counter("basicset.samples");
  Samples.add();
  std::vector<int64_t> Point;
  if (EmptinessCheckerImpl(NodeBudget).run(TaggedSet(*this), Point,
                                           /*CoreTags=*/nullptr) ==
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
  BasicSet NThis = *this;
  if (!NThis.normalize()) {
    tallies().Gcd.add();
    return Ternary::True;
  }
  BasicSet NOther = Other;
  if (!NOther.normalize())
    return isEmpty(NodeBudget);
  if (syntacticallyContains(NThis, NOther)) {
    tallies().SynSubset.add();
    return Ternary::True;
  }
  // Memoized on (canonical this, canonical other, budget); the per-
  // halfspace emptiness probes below additionally hit the emptiness cache.
  std::string Key;
  Key.reserve(32 +
              (NThis.numConstraints() + NOther.numConstraints() + 4) *
                  (NumVars + 2) * 8);
  Key.push_back('S');
  appendInt(Key, NodeBudget);
  appendCanonicalNormalized(Key, NThis);
  appendCanonicalNormalized(Key, NOther);
  if (std::optional<CacheValue> Hit = queryCache().lookupRaw(Key)) {
    tallies().CacheHits.add();
    return Hit->V;
  }
  tallies().CacheMisses.add();
  Ternary Verdict = [&] {
  // this ⊆ {row >= 0}  iff  this ∧ (row <= -1) is empty. One probe set
  // is reused across all halfspaces: push the negated row, query, pop.
  BasicSet Probe = *this;
  auto ContainedInHalfspace = [&](const std::vector<int64_t> &Row) {
    std::vector<int64_t> Neg(NumVars + 1);
    for (unsigned J = 0; J <= NumVars; ++J)
      Neg[J] = -Row[J];
    Neg[NumVars] -= 1;
    Probe.addInequality(std::move(Neg));
    Ternary T = Probe.isEmpty(NodeBudget);
    Probe.Ineqs.pop_back();
    return T;
  };
  bool SawUnknown = false;
  for (const auto &Row : Other.Ineqs) {
    Ternary T = ContainedInHalfspace(Row);
    if (T == Ternary::False)
      return Ternary::False;
    if (T == Ternary::Unknown)
      SawUnknown = true;
  }
  for (const auto &Row : Other.Eqs) {
    Ternary T = ContainedInHalfspace(Row);
    if (T == Ternary::False)
      return Ternary::False;
    if (T == Ternary::Unknown)
      SawUnknown = true;
    std::vector<int64_t> Neg(NumVars + 1);
    for (unsigned J = 0; J <= NumVars; ++J)
      Neg[J] = -Row[J];
    T = ContainedInHalfspace(Neg);
    if (T == Ternary::False)
      return Ternary::False;
    if (T == Ternary::Unknown)
      SawUnknown = true;
  }
  return SawUnknown ? Ternary::Unknown : Ternary::True;
  }();
  queryCache().store(Key, Verdict);
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
