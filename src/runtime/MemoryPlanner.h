//===- runtime/MemoryPlanner.h - Liveness-based buffer planning ----*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assigns arena offsets to block-output tensors using lifetime analysis
/// with first-fit reuse. The resulting arena size is the "memory
/// consumption" metric of Figure 8, and the offsets give the cache
/// simulator its addresses.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_RUNTIME_MEMORYPLANNER_H
#define DNNFUSION_RUNTIME_MEMORYPLANNER_H

#include "core/BlockCompiler.h"
#include "core/FusionPlan.h"
#include "graph/Graph.h"

#include <cstdint>
#include <vector>

namespace dnnfusion {

/// All runtime buffers hold float elements. These two helpers replace the
/// raw `/ 4` byte-to-element arithmetic previously scattered through the
/// executor; they are shared by the memory planner and the execution
/// context so sizing and offset math can never disagree.
///
/// Float elements needed to back \p Bytes (rounds up).
inline constexpr int64_t elementsForBytes(int64_t Bytes) {
  return (Bytes + static_cast<int64_t>(sizeof(float)) - 1) /
         static_cast<int64_t>(sizeof(float));
}
/// Element index of the float at byte offset \p Bytes. Offsets handed out
/// by the planner are always element-aligned.
inline constexpr int64_t elementIndexForByteOffset(int64_t Bytes) {
  return Bytes / static_cast<int64_t>(sizeof(float));
}

/// Virtual address-space bases used by the instrumentation / cache
/// simulator (the executor itself uses real host pointers).
inline constexpr uint64_t InputRegionBase = 0x0000000000ull;
inline constexpr uint64_t WeightRegionBase = 0x4000000000ull;
inline constexpr uint64_t ArenaRegionBase = 0x8000000000ull;
inline constexpr uint64_t ScratchRegionBase = 0xC000000000ull;

/// Buffer assignment for one compiled model.
struct MemoryPlan {
  /// Arena byte offset per node id; -1 = value has no arena buffer
  /// (inputs, constants, fully fused intermediates).
  std::vector<int64_t> ArenaOffsetOfNode;
  /// Virtual offset per node id within the input/weight regions; -1 when
  /// not applicable.
  std::vector<int64_t> InputOffsetOfNode;
  std::vector<int64_t> WeightOffsetOfNode;

  int64_t ArenaBytes = 0;   ///< Peak arena footprint.
  int64_t ScratchBytes = 0; ///< Largest per-block scratch.
  /// Largest per-step packing scratch (packed-GEMM B panels / im2col
  /// tiles) any RefKernel step may need at run time; the execution context
  /// provisions one buffer of this size. Constant weights are excluded (the
  /// prepack store serves them).
  int64_t PackScratchBytes = 0;
  int64_t WeightBytes = 0;
  int64_t InputBytes = 0;
};

/// Plans buffers for \p Plan / \p Blocks over \p G. Liveness is tracked at
/// block granularity in plan order, the order the execution context runs
/// the blocks in: a buffer is reusable as soon as the last block reading
/// it has executed — the tightest (Figure 8) footprint. \p Kernels sizes
/// the packing scratch (PackScratchBytes) for the packed-GEMM engine; the
/// default config matches the default execution path.
MemoryPlan planMemory(const Graph &G, const FusionPlan &Plan,
                      const std::vector<CompiledBlock> &Blocks,
                      const KernelConfig &Kernels = {});

/// The planner above; \p Schedule is ignored. perfbench's compile-phase
/// replay (LayerTrace) is the only caller, so it times the planner
/// compileModel runs.
MemoryPlan planMemory(const Graph &G, const FusionPlan &Plan,
                      const std::vector<CompiledBlock> &Blocks,
                      const BlockSchedule *Schedule,
                      const KernelConfig &Kernels);

/// The node feeding RefKernel step \p S's second operand (MatMul/Gemm's
/// B, Conv's weight) when it is a Constant entering block \p B from
/// outside, else InvalidNodeId. The prepack store can serve such an
/// operand; any other packs at run time into the pack scratch.
NodeId constantWeightOf(const Graph &G, const CompiledBlock &B,
                        const CompiledStep &S);

/// Packing-scratch bytes the packed-GEMM engine may need for any single
/// RefKernel step of \p Blocks under \p Kernels (steps whose packed
/// operand is a constant weight are excluded — the prepack store serves
/// them). Shared by planMemory and the cache-hit path that re-adopts
/// caller kernel knobs.
int64_t computePackScratchBytes(const Graph &G,
                                const std::vector<CompiledBlock> &Blocks,
                                const KernelConfig &Kernels);

} // namespace dnnfusion

#endif // DNNFUSION_RUNTIME_MEMORYPLANNER_H
