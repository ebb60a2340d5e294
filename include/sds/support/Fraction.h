//===- Fraction.h - Exact rationals over 128-bit integers -------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// A small exact-rational type backed by __int128: the type of the sample
// point the Presburger layer's simplex returns (the tableau itself is
// fraction-free integer rows, see Simplex.h). Values are kept in canonical
// form (positive denominator, reduced by gcd). Arithmetic that overflows
// the 128-bit range sets a sticky per-value flag which callers propagate
// into a conservative "unknown" result; the dependence-analysis pipeline
// treats "unknown" as "possibly satisfiable", which is the sound direction.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_SUPPORT_FRACTION_H
#define SDS_SUPPORT_FRACTION_H

#include "sds/support/MathExtras.h"

#include <string>

namespace sds {

/// Exact rational number with overflow tracking.
class Fraction {
public:
  Fraction() : Num(0), Den(1), Overflowed(false) {}
  /*implicit*/ Fraction(int64_t V) : Num(V), Den(1), Overflowed(false) {}
  Fraction(Int128 N, Int128 D) : Num(N), Den(D), Overflowed(false) {
    normalize();
  }

  Int128 num() const { return Num; }
  Int128 den() const { return Den; }
  bool overflowed() const { return Overflowed; }

  bool isZero() const { return !Overflowed && Num == 0; }
  bool isIntegral() const { return Den == 1; }

  /// Floor/ceil to the nearest integer (undefined if overflowed).
  Int128 floor() const { return floorDiv128(Num, Den); }
  Int128 ceil() const { return ceilDiv128(Num, Den); }

  Fraction operator-() const {
    Fraction R;
    R.Num = -Num;
    R.Den = Den;
    R.Overflowed = Overflowed;
    return R;
  }

  Fraction operator+(const Fraction &O) const;
  Fraction operator-(const Fraction &O) const;
  Fraction operator*(const Fraction &O) const;
  Fraction operator/(const Fraction &O) const;

  Fraction &operator+=(const Fraction &O) { return *this = *this + O; }
  Fraction &operator-=(const Fraction &O) { return *this = *this - O; }
  Fraction &operator*=(const Fraction &O) { return *this = *this * O; }
  Fraction &operator/=(const Fraction &O) { return *this = *this / O; }

  /// Three-way compare; asserts neither side overflowed.
  int compare(const Fraction &O) const;

  bool operator==(const Fraction &O) const { return compare(O) == 0; }
  bool operator!=(const Fraction &O) const { return compare(O) != 0; }
  bool operator<(const Fraction &O) const { return compare(O) < 0; }
  bool operator<=(const Fraction &O) const { return compare(O) <= 0; }
  bool operator>(const Fraction &O) const { return compare(O) > 0; }
  bool operator>=(const Fraction &O) const { return compare(O) >= 0; }

  std::string str() const;

  /// A fraction marked as overflowed, for propagating failure.
  static Fraction makeOverflowed() {
    Fraction F;
    F.Overflowed = true;
    return F;
  }

private:
  void normalize();

  Int128 Num;
  Int128 Den; // > 0 in canonical form
  bool Overflowed;
};

} // namespace sds

#endif // SDS_SUPPORT_FRACTION_H
