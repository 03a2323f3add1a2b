//===- core/Dft.h - Data-flow trees for fused kernels -------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data-flow tree (DFT) of paper §4.4.1: the expression form of (part
/// of) a fusion block, rooted at a value to materialize, with leaves at
/// block inputs or previously materialized values. Elementwise operators
/// become interior nodes; Reorganize/Shuffle/Slice/Expand/Gather operators
/// vanish into the index chains on the edges (the intra-block data-movement
/// optimization); Concat becomes a router node. The tree is the input of
/// code generation: DftProgram lowers it to the instruction tape that runs
/// chunk-wise over the root's output index space — the fused kernel in
/// this reproduction — and CodeEmitter renders it as C-like source.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_CORE_DFT_H
#define DNNFUSION_CORE_DFT_H

#include "core/IndexMap.h"
#include "graph/Graph.h"
#include "ops/Scalars.h"

#include <vector>

namespace dnnfusion {

/// Maximum elements evaluated per chunk (compile-time bound for the
/// tape's chunk registers).
inline constexpr int DftMaxChunk = 512;

/// An edge to a child expression, with the index chain that converts
/// parent-space indices into child-space indices.
struct DftEdge {
  int Child = -1;
  IndexChain Maps;
};

/// One DFT node.
struct DftNode {
  enum class Kind {
    Leaf,     ///< Reads a buffer slot.
    Eltwise,  ///< Elementwise operator over child values.
    Router,   ///< Concat: selects a child by an axis coordinate.
  };

  Kind K = Kind::Leaf;
  /// Graph node this DFT node came from (diagnostics / emitter).
  NodeId Origin = InvalidNodeId;

  // Leaf.
  int BufferSlot = -1;

  // Eltwise.
  OpKind Op = OpKind::Identity;
  ScalarParams Params;
  std::vector<DftEdge> Children;

  // Router.
  Shape Domain;                      ///< Output shape (axis decode).
  int RouterAxis = -1;
  std::vector<int64_t> BranchStarts; ///< Axis start per child.
};

/// A complete expression tree.
class DftTree {
public:
  std::vector<DftNode> Nodes;
  int Root = -1;
  int64_t OutElems = 0;

  /// Number of interior (non-leaf) nodes — the fused operator count.
  int interiorNodeCount() const;
};

} // namespace dnnfusion

#endif // DNNFUSION_CORE_DFT_H
