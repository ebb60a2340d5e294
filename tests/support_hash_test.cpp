//===- support_hash_test.cpp - Pinned hash values -------------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//
//
// fnv1a64 outputs are persisted (artifact checksums, store file names,
// inference fingerprints) and xxh64 keys the engine's plan cache; pin both
// so a change to either hash fails here first.
//
//===----------------------------------------------------------------------===//

#include "sds/support/Hash.h"

#include <gtest/gtest.h>

#include <string>

using namespace sds::support;

TEST(SupportHash, Fnv1aPinnedValues) {
  EXPECT_EQ(fnv1a64(""), 0x14650fb0739d0383ull);
  EXPECT_EQ(fnv1a64("a"), 0x44bd8ad473cd9906ull);
  EXPECT_EQ(fnv1a64("foobar"), 0x88fad7c0a8ff07f2ull);
  // The repo's (non-standard) offset basis is the empty string's hash.
  EXPECT_EQ(fnv1a64(""), kFnv1aOffset);
}

TEST(SupportHash, Fnv1aChainsLikeConcatenation) {
  EXPECT_EQ(fnv1a64("bar", fnv1a64("foo")), fnv1a64("foobar"));
  EXPECT_EQ(fnv1a64(std::string_view("\xff", 1)),
            (kFnv1aOffset ^ 0xffu) * 1099511628211ull);
}

TEST(SupportHash, Xxh64MatchesReferenceVectors) {
  // Published xxHash64 values (seed 0): the empty input, a short tail-only
  // input, and a 39-byte input that takes the 32-byte stripe loop.
  EXPECT_EQ(xxh64("", 0, 0), 0xef46db3751d8e999ull);
  EXPECT_EQ(xxh64("abc", 3, 0), 0x44bc2cf5ad770999ull);
  const std::string Long = "Nobody inspects the spammish repetition";
  EXPECT_EQ(xxh64(Long.data(), Long.size(), 0), 0xfbcea83c8a378bf1ull);
}

TEST(SupportHash, Xxh64DependsOnSeedAndEveryByte) {
  std::string S(100, 'x');
  uint64_t Base = xxh64(S.data(), S.size(), 7);
  EXPECT_NE(Base, xxh64(S.data(), S.size(), 8));
  for (size_t I = 0; I < S.size(); ++I) {
    std::string T = S;
    T[I] ^= 1;
    EXPECT_NE(Base, xxh64(T.data(), T.size(), 7)) << "byte " << I;
  }
}
