//===- support/Hash.cpp - Content hashing ---------------------------------===//
//
// The algorithm docs/FORMAT.md specifies under "Checksum and key hash".
// Every artifact checksum and cache key depends on it bit for bit: any
// change here is a format-version bump.
//
//===----------------------------------------------------------------------===//

#include "support/Hash.h"

#include <cstring>

using namespace dnnfusion;

namespace {

constexpr uint64_t P1 = 0x9e3779b185ebca87ull;
constexpr uint64_t P2 = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t P3 = 0x165667b19e3779f9ull;
constexpr uint64_t P4 = 0x85ebca77c2b2ae63ull;
constexpr uint64_t P5 = 0x27d4eb2f165667c5ull;

uint64_t rotl(uint64_t X, int R) { return (X << R) | (X >> (64 - R)); }

/// The little-endian 64-bit word at \p P, at any alignment.
uint64_t loadLe64(const unsigned char *P) {
  uint64_t W;
  std::memcpy(&W, P, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  W = __builtin_bswap64(W);
#endif
  return W;
}

/// One lane step. The multipliers are odd, so it is a bijection of \p W
/// for a fixed \p L, and of \p L for a fixed \p W.
uint64_t laneStep(uint64_t L, uint64_t W) { return rotl(L + W * P2, 31) * P1; }

} // namespace

uint64_t dnnfusion::hash64(const void *Data, size_t Size) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  const unsigned char *End = P + Size;

  // Four lanes, one word of each 32-byte stripe apiece.
  uint64_t L0 = P1 + P2, L1 = P2, L2 = 0, L3 = 0 - P1;
  for (; End - P >= 32; P += 32) {
    L0 = laneStep(L0, loadLe64(P));
    L1 = laneStep(L1, loadLe64(P + 8));
    L2 = laneStep(L2, loadLe64(P + 16));
    L3 = laneStep(L3, loadLe64(P + 24));
  }

  // Fold the lanes, the words after the last stripe and the tail bytes
  // into one state. Each step is a bijection of its input for a fixed
  // state, and of the state for a fixed input.
  uint64_t S = P5 + static_cast<uint64_t>(Size);
  for (uint64_t L : {L0, L1, L2, L3})
    S = (S ^ laneStep(0, L)) * P1 + P4;
  for (; End - P >= 8; P += 8)
    S = rotl(S ^ laneStep(0, loadLe64(P)), 27) * P1 + P4;
  for (; P < End; ++P)
    S = rotl(S ^ (*P * P5), 11) * P1;

  S ^= S >> 33;
  S *= P2;
  S ^= S >> 29;
  S *= P3;
  S ^= S >> 32;
  return S;
}
