//===- support/Hash.h - Content hashing --------------------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 64-bit content hash of the persistence layer: the integrity
/// checksum of serialized artifacts and the content key of the on-disk
/// compilation cache (hash of format version + serialized graph + compile
/// options). docs/FORMAT.md specifies it exactly, with known-answer
/// vectors.
///
/// It reads the input eight bytes at a time, as little-endian words on
/// every host, into four independent lanes over 32-byte stripes, so the
/// value is host-independent and the multiplies pipeline. Every step that
/// folds a word or byte into the result is a bijection of that input, so
/// two inputs of equal length that differ in one byte never hash alike.
/// Not cryptographic: it detects corruption and drift, it does not defend
/// against deliberate collisions.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_SUPPORT_HASH_H
#define DNNFUSION_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace dnnfusion {

/// The content hash of \p Size bytes at \p Data (any alignment).
uint64_t hash64(const void *Data, size_t Size);

/// The content hash of a string's bytes.
inline uint64_t hash64(const std::string &S) {
  return hash64(S.data(), S.size());
}

} // namespace dnnfusion

#endif // DNNFUSION_SUPPORT_HASH_H
