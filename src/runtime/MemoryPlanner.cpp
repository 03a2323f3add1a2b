//===- runtime/MemoryPlanner.cpp - Liveness-based buffer planning ---------------===//

#include "runtime/MemoryPlanner.h"

#include "support/Error.h"

#include <algorithm>
#include <limits>

using namespace dnnfusion;

int64_t
dnnfusion::computePackScratchBytes(const Graph &G,
                                   const std::vector<CompiledBlock> &Blocks,
                                   const KernelConfig &Kernels) {
  int64_t MaxElems = 0;
  for (const CompiledBlock &B : Blocks) {
    for (const CompiledStep &S : B.Steps) {
      if (S.K != CompiledStep::Kind::RefKernel)
        continue;
      bool WeightIsConstant = false;
      if (S.InputSlots.size() >= 2 &&
          S.InputSlots[1] < static_cast<int>(B.ExternalInputs.size()))
        WeightIsConstant =
            G.node(B.ExternalInputs[static_cast<size_t>(S.InputSlots[1])])
                .Kind == OpKind::Constant;
      MaxElems = std::max(
          MaxElems, detail::packScratchElemsForStep(
                        S.Op, S.Attrs, S.InputShapes, S.OutShape, Kernels,
                        WeightIsConstant));
    }
  }
  return MaxElems * static_cast<int64_t>(sizeof(float));
}

MemoryPlan dnnfusion::planMemory(const Graph &G, const FusionPlan &Plan,
                                 const std::vector<CompiledBlock> &Blocks,
                                 const KernelConfig &Kernels) {
  MemoryPlan M;
  M.PackScratchBytes = computePackScratchBytes(G, Blocks, Kernels);
  size_t N = static_cast<size_t>(G.numNodes());
  M.ArenaOffsetOfNode.assign(N, -1);
  M.InputOffsetOfNode.assign(N, -1);
  M.WeightOffsetOfNode.assign(N, -1);

  // Inputs and weights get fixed offsets in their own regions.
  for (int Id = 0; Id < G.numNodes(); ++Id) {
    const Node &Nd = G.node(Id);
    if (Nd.Dead)
      continue;
    if (Nd.Kind == OpKind::Input) {
      M.InputOffsetOfNode[static_cast<size_t>(Id)] = M.InputBytes;
      M.InputBytes += Nd.outBytes();
    } else if (Nd.Kind == OpKind::Constant) {
      M.WeightOffsetOfNode[static_cast<size_t>(Id)] = M.WeightBytes;
      M.WeightBytes += Nd.outBytes();
    }
  }

  // Liveness of block outputs: the last block (by plan position) reading
  // them; graph outputs live past the last block.
  const int NumBlocks = static_cast<int>(Plan.Blocks.size());
  std::vector<int> LastUse(N, -1);
  for (int BI = 0; BI < NumBlocks; ++BI)
    for (NodeId Id : Plan.Blocks[static_cast<size_t>(BI)].Members)
      for (NodeId In : G.node(Id).Inputs)
        LastUse[static_cast<size_t>(In)] =
            std::max(LastUse[static_cast<size_t>(In)], BI);
  for (NodeId Out : G.outputs())
    LastUse[static_cast<size_t>(Out)] = NumBlocks;

  struct Allocation {
    int64_t Offset;
    int64_t Bytes;
    int FreeAfterBlock;
  };
  std::vector<Allocation> Live;

  auto allocate = [&](int64_t Bytes, int FreeAfterBlock) {
    // First-fit into gaps between live allocations (kept offset-sorted).
    int64_t Offset = 0;
    size_t InsertAt = 0;
    for (size_t I = 0; I <= Live.size(); ++I) {
      int64_t GapEnd = I < Live.size()
                           ? Live[I].Offset
                           : std::numeric_limits<int64_t>::max();
      if (GapEnd - Offset >= Bytes) {
        InsertAt = I;
        break;
      }
      Offset = Live[I].Offset + Live[I].Bytes;
      InsertAt = I + 1;
    }
    Live.insert(Live.begin() + static_cast<long>(InsertAt),
                Allocation{Offset, Bytes, FreeAfterBlock});
    M.ArenaBytes = std::max(M.ArenaBytes, Offset + Bytes);
    return Offset;
  };

  for (int BI = 0; BI < NumBlocks; ++BI) {
    // Release buffers whose last consumer has run.
    Live.erase(std::remove_if(Live.begin(), Live.end(),
                              [&](const Allocation &A) {
                                return A.FreeAfterBlock < BI;
                              }),
               Live.end());
    for (NodeId Out : Plan.Blocks[static_cast<size_t>(BI)].Outputs) {
      int Free = LastUse[static_cast<size_t>(Out)];
      DNNF_CHECK(Free >= BI,
                 "block output %d has no consumer and is not a graph output",
                 Out);
      M.ArenaOffsetOfNode[static_cast<size_t>(Out)] =
          allocate(G.node(Out).outBytes(), Free);
    }
    M.ScratchBytes = std::max(M.ScratchBytes,
                              Blocks[static_cast<size_t>(BI)].scratchBytes());
  }
  return M;
}

MemoryPlan dnnfusion::planMemory(const Graph &G, const FusionPlan &Plan,
                                 const std::vector<CompiledBlock> &Blocks,
                                 const BlockSchedule *,
                                 const KernelConfig &Kernels) {
  return planMemory(G, Plan, Blocks, Kernels);
}
