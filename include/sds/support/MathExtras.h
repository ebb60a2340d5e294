//===- MathExtras.h - Exact integer arithmetic helpers ----------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project, a reproduction of
// "Sparse Computation Data Dependence Simplification for Efficient
// Compiler-Generated Inspectors" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
//
// Overflow-checked 64-bit integer arithmetic and 128-bit helpers used by the
// Presburger layer. All constraint coefficients are int64_t; the simplex
// works in int64 and, on overflow, 128-bit integers. Overflow in the
// 128-bit layer is reported so callers can degrade to a conservative
// "unknown" answer instead of silently producing wrong results.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_SUPPORT_MATHEXTRAS_H
#define SDS_SUPPORT_MATHEXTRAS_H

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace sds {

using Int128 = __int128;

/// Greatest common divisor of the absolute values; gcd(0, 0) == 0.
inline int64_t gcd64(int64_t A, int64_t B) {
  A = A < 0 ? -A : A;
  B = B < 0 ? -B : B;
  while (B != 0) {
    int64_t T = A % B;
    A = B;
    B = T;
  }
  return A;
}

inline Int128 gcd128(Int128 A, Int128 B) {
  A = A < 0 ? -A : A;
  B = B < 0 ? -B : B;
  while (B != 0) {
    Int128 T = A % B;
    A = B;
    B = T;
  }
  return A;
}

/// Floor division for integers (rounds toward negative infinity).
inline int64_t floorDiv64(int64_t Num, int64_t Den) {
  assert(Den != 0 && "division by zero");
  int64_t Q = Num / Den;
  int64_t R = Num % Den;
  if (R != 0 && ((R < 0) != (Den < 0)))
    --Q;
  return Q;
}

/// Ceiling division for integers (rounds toward positive infinity).
inline int64_t ceilDiv64(int64_t Num, int64_t Den) {
  assert(Den != 0 && "division by zero");
  int64_t Q = Num / Den;
  int64_t R = Num % Den;
  if (R != 0 && ((R < 0) == (Den < 0)))
    ++Q;
  return Q;
}

/// Floor division over 128-bit integers.
inline Int128 floorDiv128(Int128 Num, Int128 Den) {
  assert(Den != 0 && "division by zero");
  Int128 Q = Num / Den;
  Int128 R = Num % Den;
  if (R != 0 && ((R < 0) != (Den < 0)))
    --Q;
  return Q;
}

/// Ceiling division over 128-bit integers.
inline Int128 ceilDiv128(Int128 Num, Int128 Den) {
  assert(Den != 0 && "division by zero");
  Int128 Q = Num / Den;
  Int128 R = Num % Den;
  if (R != 0 && ((R < 0) == (Den < 0)))
    ++Q;
  return Q;
}

/// Checked int64 ops: return true on overflow, otherwise store the result
/// and return false.
inline bool addOverflow64(int64_t A, int64_t B, int64_t &Out) {
  return __builtin_add_overflow(A, B, &Out);
}
inline bool mulOverflow64(int64_t A, int64_t B, int64_t &Out) {
  return __builtin_mul_overflow(A, B, &Out);
}

/// Checked 128-bit ops used by the exact simplex.
inline bool addOverflow128(Int128 A, Int128 B, Int128 &Out) {
  return __builtin_add_overflow(A, B, &Out);
}
inline bool mulOverflow128(Int128 A, Int128 B, Int128 &Out) {
  return __builtin_mul_overflow(A, B, &Out);
}

/// Render a 128-bit integer as decimal (not provided by the standard
/// library on this toolchain).
std::string toString(Int128 V);

} // namespace sds

#endif // SDS_SUPPORT_MATHEXTRAS_H
