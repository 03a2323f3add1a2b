//===- serialize/PlanSerializer.cpp - Fusion plan persistence -------------------===//

#include "serialize/PlanSerializer.h"

using namespace dnnfusion;

namespace {

void writeInt64Vector(ByteWriter &W, const std::vector<int64_t> &V) {
  W.u32(static_cast<uint32_t>(V.size()));
  for (int64_t X : V)
    W.i64(X);
}

std::vector<int64_t> readInt64Vector(ByteReader &R) {
  uint32_t N = R.count(/*MinBytesPerElement=*/8);
  std::vector<int64_t> V;
  V.reserve(N);
  for (uint32_t I = 0; I < N && R.ok(); ++I)
    V.push_back(R.i64());
  return V;
}

} // namespace

void dnnfusion::serializeFusionPlan(const FusionPlan &Plan, ByteWriter &W) {
  W.u32(static_cast<uint32_t>(Plan.Blocks.size()));
  for (const FusionBlock &B : Plan.Blocks) {
    W.u32(static_cast<uint32_t>(B.Members.size()));
    for (NodeId Id : B.Members)
      W.i32(Id);
    W.i32(B.Seed);
  }
}

DecodedPlanParts dnnfusion::readFusionPlanParts(ByteReader &R) {
  DecodedPlanParts Parts;
  uint32_t NumBlocks = R.count(/*MinBytesPerElement=*/8);
  Parts.Groups.reserve(R.ok() ? NumBlocks : 0);
  for (uint32_t I = 0; I < NumBlocks && R.ok(); ++I) {
    uint32_t NumMembers = R.count(/*MinBytesPerElement=*/4);
    std::vector<NodeId> Members;
    Members.reserve(NumMembers);
    for (uint32_t J = 0; J < NumMembers && R.ok(); ++J)
      Members.push_back(R.i32());
    Parts.Groups.push_back(std::move(Members));
    Parts.Seeds.push_back(R.i32());
  }
  return Parts;
}

void dnnfusion::serializeMemoryPlan(const MemoryPlan &M, ByteWriter &W) {
  writeInt64Vector(W, M.ArenaOffsetOfNode);
  writeInt64Vector(W, M.InputOffsetOfNode);
  writeInt64Vector(W, M.WeightOffsetOfNode);
  W.i64(M.ArenaBytes);
  W.i64(M.ScratchBytes);
  W.i64(M.WeightBytes);
  W.i64(M.InputBytes);
}

MemoryPlan dnnfusion::readMemoryPlan(ByteReader &R) {
  MemoryPlan M;
  M.ArenaOffsetOfNode = readInt64Vector(R);
  M.InputOffsetOfNode = readInt64Vector(R);
  M.WeightOffsetOfNode = readInt64Vector(R);
  M.ArenaBytes = R.i64();
  M.ScratchBytes = R.i64();
  M.WeightBytes = R.i64();
  M.InputBytes = R.i64();
  return M;
}

bool dnnfusion::memoryPlansEqual(const MemoryPlan &A, const MemoryPlan &B) {
  return A.ArenaOffsetOfNode == B.ArenaOffsetOfNode &&
         A.InputOffsetOfNode == B.InputOffsetOfNode &&
         A.WeightOffsetOfNode == B.WeightOffsetOfNode &&
         A.ArenaBytes == B.ArenaBytes && A.ScratchBytes == B.ScratchBytes &&
         A.WeightBytes == B.WeightBytes && A.InputBytes == B.InputBytes;
}
