//===- Hash.h - Non-cryptographic 64-bit hashes -----------------*- C++ -*-===//
//
// Part of the sparse-dep-simplify project, a reproduction of
// "Sparse Computation Data Dependence Simplification for Efficient
// Compiler-Generated Inspectors" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
//
// fnv1a64 hashes short strings whose values are persisted (artifact
// checksums, store file names, inference fingerprints), so its output is
// frozen. xxh64 is the xxHash64 algorithm: it reads 32-byte stripes as four
// independent 64-bit lanes, which makes it the hash for bulk data such as
// the index arrays behind the engine's plan-cache fingerprint.
//
//===----------------------------------------------------------------------===//

#ifndef SDS_SUPPORT_HASH_H
#define SDS_SUPPORT_HASH_H

#include <cstdint>
#include <cstring>
#include <string_view>

namespace sds {
namespace support {

/// The repo's FNV-1a offset basis. It is one digit short of the standard
/// 14695981039346656037; every persisted hash was made with this value, so
/// it stays.
inline constexpr uint64_t kFnv1aOffset = 1469598103934665603ull;

/// FNV-1a 64 over `S`, continuing from `H` (chain calls to hash a sequence).
inline uint64_t fnv1a64(std::string_view S, uint64_t H = kFnv1aOffset) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

namespace xxh {
inline constexpr uint64_t P1 = 0x9E3779B185EBCA87ull;
inline constexpr uint64_t P2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr uint64_t P3 = 0x165667B19E3779F9ull;
inline constexpr uint64_t P4 = 0x85EBCA77C2B2AE63ull;
inline constexpr uint64_t P5 = 0x27D4EB2F165667C5ull;
inline uint64_t rotl(uint64_t X, int R) { return (X << R) | (X >> (64 - R)); }
inline uint64_t lane(uint64_t Acc, uint64_t In) {
  return rotl(Acc + In * P2, 31) * P1;
}
inline uint64_t merge(uint64_t H, uint64_t V) {
  return (H ^ lane(0, V)) * P1 + P4;
}
template <typename T> T load(const unsigned char *P) {
  T V;
  std::memcpy(&V, P, sizeof(V));
  return V;
}
} // namespace xxh

/// xxHash64 of `Len` bytes at `Data` under `Seed` (little-endian reads, so
/// values match the reference implementation on little-endian hosts).
inline uint64_t xxh64(const void *Data, size_t Len, uint64_t Seed) {
  using namespace xxh;
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  const unsigned char *End = P + Len;
  uint64_t H = Seed + P5;
  if (Len >= 32) {
    uint64_t V1 = Seed + P1 + P2, V2 = Seed + P2, V3 = Seed, V4 = Seed - P1;
    for (; End - P >= 32; P += 32) {
      V1 = lane(V1, load<uint64_t>(P));
      V2 = lane(V2, load<uint64_t>(P + 8));
      V3 = lane(V3, load<uint64_t>(P + 16));
      V4 = lane(V4, load<uint64_t>(P + 24));
    }
    H = rotl(V1, 1) + rotl(V2, 7) + rotl(V3, 12) + rotl(V4, 18);
    H = merge(merge(merge(merge(H, V1), V2), V3), V4);
  }
  H += Len;
  for (; End - P >= 8; P += 8)
    H = rotl(H ^ lane(0, load<uint64_t>(P)), 27) * P1 + P4;
  if (End - P >= 4) {
    H = rotl(H ^ (load<uint32_t>(P) * P1), 23) * P2 + P3;
    P += 4;
  }
  for (; P < End; ++P)
    H = rotl(H ^ (*P * P5), 11) * P1;
  H = (H ^ (H >> 33)) * P2;
  H = (H ^ (H >> 29)) * P3;
  return H ^ (H >> 32);
}

} // namespace support
} // namespace sds

#endif // SDS_SUPPORT_HASH_H
