//===- serialize/ByteStream.h - Bounds-checked binary IO ---------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The primitive layer of the persistence subsystem: a little-endian byte
/// writer over a growable buffer and a bounds-checked reader over a byte
/// span. Serialized artifacts are untrusted input, so the reader never
/// aborts: the first out-of-bounds or implausible read latches a sticky
/// DataLoss Status (with the failing offset), every subsequent read
/// returns a zero value, and callers check ok() once at the end of a
/// decode — straight-line decode code with no per-read branching.
///
/// Encoding is explicitly little-endian byte-by-byte, so artifacts are
/// byte-identical across hosts regardless of native endianness (see
/// docs/FORMAT.md).
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_SERIALIZE_BYTESTREAM_H
#define DNNFUSION_SERIALIZE_BYTESTREAM_H

#include "support/Status.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dnnfusion {

/// Appends little-endian encoded primitives to a byte buffer.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  void u16(uint16_t V) { writeLe(V, 2); }
  void u32(uint32_t V) { writeLe(V, 4); }
  void u64(uint64_t V) { writeLe(V, 8); }
  void i32(int32_t V) { writeLe(static_cast<uint32_t>(V), 4); }
  void i64(int64_t V) { writeLe(static_cast<uint64_t>(V), 8); }
  void f32(float V);
  void f64(double V);
  /// Length-prefixed (u32) byte string.
  void str(const std::string &S);
  /// Raw bytes, no length prefix.
  void raw(const void *Data, size_t Size);

  /// Overwrites the 8 bytes at \p Offset (already written) with \p V —
  /// how a container backfills its section lengths and checksum.
  void patchU64(size_t Offset, uint64_t V);

  /// Makes room for \p Bytes in total, so a writer sized up front fills
  /// one allocation.
  void reserve(size_t Bytes) { Buf.reserve(Bytes); }

  size_t size() const { return Buf.size(); }
  const std::string &buffer() const { return Buf; }
  std::string take() { return std::move(Buf); }

private:
  void writeLe(uint64_t V, int Bytes) {
    for (int I = 0; I < Bytes; ++I)
      Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  }
  std::string Buf;
};

/// Reads little-endian primitives from a byte span with sticky failure.
class ByteReader {
public:
  ByteReader(const void *Data, size_t Size)
      : Data(static_cast<const uint8_t *>(Data)), Size(Size) {}
  explicit ByteReader(const std::string &Bytes)
      : ByteReader(Bytes.data(), Bytes.size()) {}

  uint8_t u8() { return static_cast<uint8_t>(readLe(1)); }
  uint16_t u16() { return static_cast<uint16_t>(readLe(2)); }
  uint32_t u32() { return static_cast<uint32_t>(readLe(4)); }
  uint64_t u64() { return readLe(8); }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  float f32();
  double f64();
  /// Length-prefixed byte string (prefix bounds-checked against the
  /// remaining bytes before any allocation).
  std::string str();
  /// Copies \p Count raw bytes into \p Out (zero-fills after failure).
  void raw(void *Out, size_t Count);

  /// Reads a u32 element count for a sequence whose elements occupy at
  /// least \p MinBytesPerElement each. A count that could not possibly fit
  /// in the remaining bytes fails immediately — this is what keeps a
  /// hostile length prefix from driving a multi-gigabyte allocation.
  uint32_t count(size_t MinBytesPerElement);

  /// Skips \p Count bytes.
  void skip(size_t Count);

  size_t position() const { return Pos; }
  size_t remaining() const { return Size - Pos; }
  bool atEnd() const { return Pos == Size; }

  bool ok() const { return Err.ok(); }
  const Status &status() const { return Err; }

  /// Latches a decode failure at the current offset (first failure wins).
  void fail(const std::string &Why);

private:
  uint64_t readLe(int Bytes);

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  Status Err;
};

} // namespace dnnfusion

#endif // DNNFUSION_SERIALIZE_BYTESTREAM_H
