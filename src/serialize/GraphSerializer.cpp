//===- serialize/GraphSerializer.cpp - Graph persistence ------------------------===//

#include "serialize/GraphSerializer.h"

#include "ops/OpKind.h"
#include "support/StringUtils.h"

using namespace dnnfusion;

namespace {

/// Node flag bits.
constexpr uint8_t FlagDead = 1;

/// Attribute payload tags (also the variant index order of AttrValue).
constexpr uint8_t AttrInt = 0;
constexpr uint8_t AttrFloat = 1;
constexpr uint8_t AttrIntList = 2;
constexpr uint8_t AttrString = 3;

/// Caps a decoded shape at 2^34 elements (64 GiB of floats): anything
/// larger in a persisted artifact is corruption, not a model.
constexpr int64_t MaxDecodedElements = int64_t(1) << 34;
constexpr int MaxDecodedRank = 32;

/// graphEncodingReserve's allowance for one node record besides its
/// constant payload (name, inputs, shape, attributes).
constexpr size_t NodeRecordAllowance = 128;

void writeShape(ByteWriter &W, const Shape &S) {
  W.u8(static_cast<uint8_t>(S.rank()));
  for (int64_t D : S.dims())
    W.i64(D);
}

Shape readShape(ByteReader &R) {
  int Rank = R.u8();
  if (R.ok() && Rank > MaxDecodedRank) {
    R.fail(formatString("shape rank %d exceeds the cap of %d", Rank,
                        MaxDecodedRank));
    return Shape();
  }
  std::vector<int64_t> Dims;
  int64_t Elements = 1;
  for (int I = 0; I < Rank && R.ok(); ++I) {
    int64_t D = R.i64();
    if (D < 0 || (D > 0 && Elements > MaxDecodedElements / D)) {
      R.fail(formatString("implausible shape dimension %lld",
                          static_cast<long long>(D)));
      return Shape();
    }
    Elements *= D;
    Dims.push_back(D);
  }
  return Shape(std::move(Dims));
}

void writeAttrs(ByteWriter &W, const AttrMap &Attrs) {
  const auto &Entries = Attrs.entries();
  W.u32(static_cast<uint32_t>(Entries.size()));
  for (const auto &[Name, Value] : Entries) {
    W.str(Name);
    if (const int64_t *I = std::get_if<int64_t>(&Value)) {
      W.u8(AttrInt);
      W.i64(*I);
    } else if (const double *F = std::get_if<double>(&Value)) {
      W.u8(AttrFloat);
      W.f64(*F);
    } else if (const auto *L = std::get_if<std::vector<int64_t>>(&Value)) {
      W.u8(AttrIntList);
      W.u32(static_cast<uint32_t>(L->size()));
      for (int64_t V : *L)
        W.i64(V);
    } else {
      W.u8(AttrString);
      W.str(std::get<std::string>(Value));
    }
  }
}

AttrMap readAttrs(ByteReader &R) {
  AttrMap Attrs;
  uint32_t Count = R.count(/*MinBytesPerElement=*/6);
  for (uint32_t I = 0; I < Count && R.ok(); ++I) {
    std::string Name = R.str();
    uint8_t Tag = R.u8();
    switch (Tag) {
    case AttrInt:
      Attrs.set(Name, R.i64());
      break;
    case AttrFloat:
      Attrs.set(Name, R.f64());
      break;
    case AttrIntList: {
      uint32_t N = R.count(/*MinBytesPerElement=*/8);
      std::vector<int64_t> L;
      L.reserve(N);
      for (uint32_t J = 0; J < N && R.ok(); ++J)
        L.push_back(R.i64());
      Attrs.set(Name, std::move(L));
      break;
    }
    case AttrString:
      Attrs.set(Name, R.str());
      break;
    default:
      R.fail(formatString("unknown attribute tag %d", Tag));
      break;
    }
  }
  return Attrs;
}

} // namespace

void dnnfusion::serializeGraph(const Graph &G, ByteWriter &W) {
  W.u32(static_cast<uint32_t>(G.numNodes()));
  W.u32(static_cast<uint32_t>(G.outputs().size()));
  for (NodeId Out : G.outputs())
    W.i32(Out);
  for (NodeId Id = 0; Id < G.numNodes(); ++Id) {
    const Node &N = G.node(Id);
    // Dead slots persist as tombstones so live node ids keep their value
    // across the round trip (plans reference nodes by id).
    if (N.Dead) {
      W.u8(FlagDead);
      continue;
    }
    W.u8(0);
    W.u16(static_cast<uint16_t>(N.Kind));
    W.str(N.Name);
    W.u32(static_cast<uint32_t>(N.Inputs.size()));
    for (NodeId In : N.Inputs)
      W.i32(In);
    writeShape(W, N.OutShape);
    writeAttrs(W, N.Attrs);
    if (N.Kind == OpKind::Constant) {
      W.u8(static_cast<uint8_t>(N.ConstValue.dtype()));
      W.u64(static_cast<uint64_t>(N.ConstValue.numElements()));
      W.raw(N.ConstValue.data(), N.ConstValue.byteSize());
    }
  }
}

size_t dnnfusion::graphEncodingReserve(const Graph &G) {
  size_t Bytes = 8 + 4 * G.outputs().size();
  for (NodeId Id = 0; Id < G.numNodes(); ++Id) {
    const Node &N = G.node(Id);
    Bytes += NodeRecordAllowance;
    if (!N.Dead && N.Kind == OpKind::Constant)
      Bytes += N.ConstValue.byteSize();
  }
  return Bytes;
}

Expected<Graph> dnnfusion::deserializeGraph(ByteReader &R) {
  uint32_t NumNodes = R.count(/*MinBytesPerElement=*/1);
  uint32_t NumOutputs = R.count(/*MinBytesPerElement=*/4);
  std::vector<NodeId> Outputs;
  for (uint32_t I = 0; I < NumOutputs && R.ok(); ++I)
    Outputs.push_back(R.i32());
  std::vector<Node> Nodes;
  Nodes.reserve(R.ok() ? NumNodes : 0);
  for (uint32_t I = 0; I < NumNodes && R.ok(); ++I) {
    Node N;
    uint8_t Flags = R.u8();
    if (Flags & FlagDead) {
      N.Dead = true;
      Nodes.push_back(std::move(N));
      continue;
    }
    uint16_t Kind = R.u16();
    if (R.ok() && Kind >= static_cast<uint16_t>(NumOpKinds)) {
      R.fail(formatString("unknown operator kind %d", Kind));
      break;
    }
    N.Kind = static_cast<OpKind>(Kind);
    N.Name = R.str();
    uint32_t NumInputs = R.count(/*MinBytesPerElement=*/4);
    for (uint32_t J = 0; J < NumInputs && R.ok(); ++J)
      N.Inputs.push_back(R.i32());
    N.OutShape = readShape(R);
    N.Attrs = readAttrs(R);
    if (N.Kind == OpKind::Constant && R.ok()) {
      uint8_t Ty = R.u8();
      if (R.ok() && Ty > static_cast<uint8_t>(DType::Int32)) {
        R.fail(formatString("unknown dtype %d", Ty));
        break;
      }
      uint64_t Elements = R.u64();
      if (R.ok() &&
          (Elements != static_cast<uint64_t>(N.OutShape.numElements()) ||
           Elements * sizeof(float) > R.remaining())) {
        R.fail(formatString(
            "constant payload of %llu elements does not match shape %s",
            static_cast<unsigned long long>(Elements),
            N.OutShape.toString().c_str()));
        break;
      }
      if (R.ok()) {
        Tensor Value(N.OutShape, static_cast<DType>(Ty));
        R.raw(Value.data(), Value.byteSize());
        N.ConstValue = std::move(Value);
      }
    }
    Nodes.push_back(std::move(N));
  }
  if (!R.ok())
    return R.status();
  return Graph::fromParts(std::move(Nodes), std::move(Outputs));
}

Expected<Graph> dnnfusion::deserializeGraph(const std::string &Bytes) {
  ByteReader R(Bytes);
  Expected<Graph> G = deserializeGraph(R);
  if (G.ok() && !R.atEnd())
    return Status::errorf(ErrorCode::DataLoss,
                          "%zu trailing bytes after the graph encoding",
                          R.remaining());
  return G;
}
