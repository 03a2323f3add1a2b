//===- serialize/ByteStream.cpp - Bounds-checked binary IO ----------------------===//

#include "serialize/ByteStream.h"

#include "support/StringUtils.h"

#include <cstring>

using namespace dnnfusion;

void ByteWriter::f32(float V) {
  uint32_t Bits;
  std::memcpy(&Bits, &V, 4);
  u32(Bits);
}

void ByteWriter::f64(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, 8);
  u64(Bits);
}

void ByteWriter::str(const std::string &S) {
  u32(static_cast<uint32_t>(S.size()));
  raw(S.data(), S.size());
}

void ByteWriter::raw(const void *Data, size_t Size) {
  Buf.append(static_cast<const char *>(Data), Size);
}

void ByteWriter::patchU64(size_t Offset, uint64_t V) {
  DNNF_CHECK(Offset + 8 <= Buf.size(), "patchU64 past end");
  for (int I = 0; I < 8; ++I)
    Buf[Offset + static_cast<size_t>(I)] =
        static_cast<char>((V >> (8 * I)) & 0xff);
}

uint64_t ByteReader::readLe(int Bytes) {
  if (!Err.ok())
    return 0;
  if (remaining() < static_cast<size_t>(Bytes)) {
    fail(formatString("need %d bytes, %zu remain", Bytes, remaining()));
    return 0;
  }
  uint64_t V = 0;
  for (int I = 0; I < Bytes; ++I)
    V |= static_cast<uint64_t>(Data[Pos + static_cast<size_t>(I)]) << (8 * I);
  Pos += static_cast<size_t>(Bytes);
  return V;
}

float ByteReader::f32() {
  uint32_t Bits = u32();
  float V;
  std::memcpy(&V, &Bits, 4);
  return V;
}

double ByteReader::f64() {
  uint64_t Bits = u64();
  double V;
  std::memcpy(&V, &Bits, 8);
  return V;
}

std::string ByteReader::str() {
  uint32_t Len = count(1);
  if (!ok())
    return std::string();
  std::string S(reinterpret_cast<const char *>(Data + Pos),
                static_cast<size_t>(Len));
  Pos += Len;
  return S;
}

void ByteReader::raw(void *Out, size_t Count) {
  if (Err.ok() && remaining() < Count)
    fail(formatString("need %zu raw bytes, %zu remain", Count, remaining()));
  if (!Err.ok()) {
    std::memset(Out, 0, Count);
    return;
  }
  std::memcpy(Out, Data + Pos, Count);
  Pos += Count;
}

uint32_t ByteReader::count(size_t MinBytesPerElement) {
  uint32_t N = u32();
  if (Err.ok() && MinBytesPerElement > 0 &&
      static_cast<uint64_t>(N) * MinBytesPerElement > remaining()) {
    fail(formatString("count %u x %zu bytes exceeds the %zu remaining",
                      static_cast<unsigned>(N), MinBytesPerElement,
                      remaining()));
    return 0;
  }
  return Err.ok() ? N : 0;
}

void ByteReader::skip(size_t Count) {
  if (Err.ok() && remaining() < Count) {
    fail(formatString("cannot skip %zu bytes, %zu remain", Count, remaining()));
    return;
  }
  if (Err.ok())
    Pos += Count;
}

void ByteReader::fail(const std::string &Why) {
  if (Err.ok())
    Err = Status::errorf(ErrorCode::DataLoss,
                         "malformed artifact at byte %zu: %s", Pos,
                         Why.c_str());
}
