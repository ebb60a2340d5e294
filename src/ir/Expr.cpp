//===- Expr.cpp - Affine expressions with uninterpreted functions --------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/ir/Expr.h"

#include "sds/obs/Metrics.h"
#include "sds/support/Hash.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <new>
#include <unordered_map>

namespace sds {
namespace ir {

namespace {

/// One interned term. Immutable once published.
struct Node {
  Atom::Kind K;
  std::string Name;
  std::vector<Expr> Args;
  std::string Str; ///< printed form
};

uint64_t mix(uint64_t H, uint64_t V) { return support::xxh::merge(H, V); }

uint64_t nodeHash(Atom::Kind K, std::string_view Name,
                  const std::vector<Expr> &Args) {
  uint64_t H = support::fnv1a64(Name, static_cast<uint64_t>(K) + 1);
  H = mix(H, Args.size());
  for (const Expr &A : Args)
    H = mix(H, A.hash());
  return H;
}

std::string printNode(Atom::Kind K, std::string_view Name,
                      const std::vector<Expr> &Args) {
  std::string Out(Name);
  if (K == Atom::Kind::Var)
    return Out;
  Out += "(";
  for (size_t I = 0; I < Args.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Args[I].str();
  }
  Out += ")";
  return Out;
}

/// The process-wide term table. Nodes live in fixed-size chunks that are
/// never moved or freed, so a node is read without a lock: whoever holds
/// an id obtained it through the lock that published the node, or through
/// whatever synchronization handed it an expression holding it. Interning
/// looks the node's structure (kind, name, argument terms by id) up in one
/// hash map under one mutex.
class TermTable {
public:
  static TermTable &get() {
    static TermTable *T = new TermTable; // leaked: atoms outlive statics
    return *T;
  }

  uint32_t intern(Atom::Kind K, std::string_view Name,
                  std::vector<Expr> &&Args) {
    uint64_t H = nodeHash(K, Name, Args);
    std::lock_guard<std::mutex> Lock(M);
    auto [First, Last] = Ids.equal_range(H);
    for (auto It = First; It != Last; ++It) {
      const Node &N = node(It->second);
      if (N.K == K && N.Name == Name && N.Args == Args)
        return It->second;
    }
    uint32_t Id = Next.load(std::memory_order_relaxed);
    if (Id == Atom::kMaxInterned) {
      std::fprintf(stderr, "sds: interned term table full (%zu atoms)\n",
                   Atom::kMaxInterned);
      std::abort();
    }
    Node *Chunk = Chunks[Id >> kChunkBits].load(std::memory_order_relaxed);
    if (!Chunk) {
      Chunk = static_cast<Node *>(::operator new(sizeof(Node) << kChunkBits));
      Chunks[Id >> kChunkBits].store(Chunk, std::memory_order_release);
    }
    std::string Str = printNode(K, Name, Args);
    new (Chunk + (Id & kChunkMask))
        Node{K, std::string(Name), std::move(Args), std::move(Str)};
    Ids.emplace(H, Id);
    Next.store(Id + 1, std::memory_order_relaxed);
    return Id;
  }

  const Node &node(uint32_t Id) const {
    assert(Id < Next.load(std::memory_order_relaxed) && "not an atom");
    return Chunks[Id >> kChunkBits].load(
        std::memory_order_acquire)[Id & kChunkMask];
  }

  size_t size() const { return Next.load(std::memory_order_relaxed); }

private:
  static constexpr unsigned kChunkBits = 12;
  static constexpr uint32_t kChunkMask = (1u << kChunkBits) - 1;

  /// Chunk storage is raw memory: a node is constructed only when interned.
  std::atomic<Node *> Chunks[Atom::kMaxInterned >> kChunkBits] = {};
  std::atomic<uint32_t> Next{0};
  std::mutex M;
  std::unordered_multimap<uint64_t, uint32_t> Ids; ///< node hash -> id
};

const Node &nodeOf(uint32_t Id) { return TermTable::get().node(Id); }

/// The table's size as a live gauge, polled only at snapshot time.
[[maybe_unused]] const bool RegisteredTableGauge = [] {
  obs::registerGaugeSource("ir.interned_atoms", [] {
    return static_cast<double>(Atom::internedCount());
  });
  return true;
}();

} // namespace

Atom Atom::var(std::string_view Name) {
  return Atom(TermTable::get().intern(Kind::Var, Name, {}));
}

Atom Atom::call(std::string_view Fn, std::vector<Expr> Args) {
  return Atom(TermTable::get().intern(Kind::Call, Fn, std::move(Args)));
}

Atom::Kind Atom::kind() const { return nodeOf(Id).K; }
const std::string &Atom::name() const { return nodeOf(Id).Name; }
const std::vector<Expr> &Atom::args() const { return nodeOf(Id).Args; }
const std::string &Atom::str() const { return nodeOf(Id).Str; }
size_t Atom::internedCount() { return TermTable::get().size(); }

int Atom::compare(const Atom &O) const {
  if (Id == O.Id)
    return 0;
  const Node &A = nodeOf(Id), &B = nodeOf(O.Id);
  if (A.K != B.K)
    return A.K == Kind::Var ? -1 : 1;
  if (int C = A.Name.compare(B.Name))
    return C < 0 ? -1 : 1;
  if (A.Args.size() != B.Args.size())
    return A.Args.size() < B.Args.size() ? -1 : 1;
  for (size_t I = 0; I < A.Args.size(); ++I)
    if (int C = A.Args[I].compare(B.Args[I]))
      return C;
  return 0;
}

Expr::Expr(int64_t Coeff, Atom A) : Const(0) {
  if (Coeff != 0)
    Terms.push_back({Coeff, A});
}

Expr Expr::operator+(const Expr &O) const {
  // Both sides are canonical, so a merge of the two sorted term lists is.
  Expr R(Const + O.Const);
  size_t I = 0, J = 0;
  while (I < Terms.size() && J < O.Terms.size()) {
    int C = Terms[I].A.compare(O.Terms[J].A);
    if (C < 0) {
      R.Terms.push_back(Terms[I++]);
    } else if (C > 0) {
      R.Terms.push_back(O.Terms[J++]);
    } else {
      if (int64_t Sum = Terms[I].Coeff + O.Terms[J].Coeff)
        R.Terms.push_back({Sum, Terms[I].A});
      ++I;
      ++J;
    }
  }
  for (; I < Terms.size(); ++I)
    R.Terms.push_back(Terms[I]);
  for (; J < O.Terms.size(); ++J)
    R.Terms.push_back(O.Terms[J]);
  return R;
}

Expr Expr::operator-() const { return *this * -1; }

Expr Expr::operator-(const Expr &O) const { return *this + (-O); }

Expr Expr::operator*(int64_t K) const {
  Expr R;
  if (K == 0)
    return R;
  R.Terms = Terms;
  for (Term &T : R.Terms)
    T.Coeff *= K;
  R.Const = Const * K;
  return R;
}

int Expr::compare(const Expr &O) const {
  if (Terms.size() != O.Terms.size())
    return Terms.size() < O.Terms.size() ? -1 : 1;
  for (size_t I = 0; I < Terms.size(); ++I) {
    if (Terms[I].Coeff != O.Terms[I].Coeff)
      return Terms[I].Coeff < O.Terms[I].Coeff ? -1 : 1;
    if (int C = Terms[I].A.compare(O.Terms[I].A))
      return C;
  }
  if (Const != O.Const)
    return Const < O.Const ? -1 : 1;
  return 0;
}

bool Expr::operator==(const Expr &O) const {
  if (Const != O.Const || Terms.size() != O.Terms.size())
    return false;
  for (size_t I = 0; I < Terms.size(); ++I)
    if (Terms[I].Coeff != O.Terms[I].Coeff || Terms[I].A != O.Terms[I].A)
      return false;
  return true;
}

uint64_t Expr::hash(int64_t Sign, bool WithConstant) const {
  uint64_t H = Terms.size();
  for (const Term &T : Terms) {
    H = mix(H, static_cast<uint64_t>(T.Coeff * Sign));
    H = mix(H, T.A.id());
  }
  if (WithConstant)
    H = mix(H, static_cast<uint64_t>(Const * Sign));
  return H;
}

Expr Expr::substitute(const std::map<std::string, Expr> &Map) const {
  Expr R(Const);
  for (const Term &T : Terms) {
    if (T.A.isVar()) {
      auto It = Map.find(T.A.name());
      R += It != Map.end() ? It->second * T.Coeff : Expr(T.Coeff, T.A);
      continue;
    }
    const std::vector<Expr> &Args = T.A.args();
    std::vector<Expr> NewArgs;
    NewArgs.reserve(Args.size());
    bool Changed = false;
    for (const Expr &Arg : Args) {
      NewArgs.push_back(Arg.substitute(Map));
      Changed = Changed || NewArgs.back() != Arg;
    }
    R += Expr(T.Coeff,
              Changed ? Atom::call(T.A.name(), std::move(NewArgs)) : T.A);
  }
  return R;
}

void Expr::collectCalls(std::vector<Atom> &Out) const {
  for (const Term &T : Terms) {
    if (!T.A.isCall())
      continue;
    Out.push_back(T.A);
    for (const Expr &Arg : T.A.args())
      Arg.collectCalls(Out);
  }
}

void Expr::collectVars(std::vector<std::string> &Out) const {
  for (const Term &T : Terms) {
    if (T.A.isVar()) {
      Out.push_back(T.A.name());
      continue;
    }
    for (const Expr &Arg : T.A.args())
      Arg.collectVars(Out);
  }
}

std::string Expr::str() const {
  if (Terms.empty())
    return std::to_string(Const);
  std::string Out;
  bool First = true;
  for (const Term &T : Terms) {
    int64_t C = T.Coeff;
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
    Out += T.A.str();
    First = false;
  }
  if (Const != 0) {
    Out += Const > 0 ? " + " : " - ";
    Out += std::to_string(Const < 0 ? -Const : Const);
  }
  return Out;
}

} // namespace ir
} // namespace sds
