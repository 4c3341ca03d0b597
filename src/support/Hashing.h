//===- support/Hashing.h - Hash combinators -------------------------------===//
//
// Part of the P-language reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small deterministic hashing utilities used by the model checker's state
/// fingerprinting. FNV-1a over bytes, a multiply fold over words, and a
/// 64-bit mix-based combiner.
/// Determinism across runs matters: explored-state counts reported by the
/// benchmarks must be reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef P_SUPPORT_HASHING_H
#define P_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace p {

/// 64-bit FNV-1a over a byte range.
inline uint64_t hashBytes(const void *Data, size_t Len,
                          uint64_t Seed = 0xcbf29ce484222325ULL) {
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  uint64_t Hash = Seed;
  for (size_t I = 0; I != Len; ++I) {
    Hash ^= Bytes[I];
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

/// Mixes a new 64-bit value into an accumulated hash (splitmix64 finalizer).
inline uint64_t hashCombine(uint64_t Hash, uint64_t Value) {
  uint64_t X = Hash ^ (Value + 0x9e3779b97f4a7c15ULL + (Hash << 6) +
                       (Hash >> 2));
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ULL;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebULL;
  X ^= X >> 31;
  return X;
}

/// Folds one 64-bit word into a running hash: the 128-bit product of
/// (hash ^ word) with a fixed odd constant, its halves xored. One
/// multiply per word, so a field walk can hash as it goes instead of
/// first serializing bytes for hashBytes.
inline uint64_t hashFold(uint64_t Hash, uint64_t Word) {
  const unsigned __int128 P =
      static_cast<unsigned __int128>(Hash ^ Word) * 0x9fb21c651e98df25ULL;
  return static_cast<uint64_t>(P) ^ static_cast<uint64_t>(P >> 64);
}

/// Convenience overload hashing a string's contents.
inline uint64_t hashString(const std::string &S, uint64_t Seed = 0) {
  return hashBytes(S.data(), S.size(),
                   Seed ? Seed : 0xcbf29ce484222325ULL);
}

} // namespace p

#endif // P_SUPPORT_HASHING_H
