//===- graph/Graph.h - Computational graph IR --------------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The computational-graph IR (paper §1): nodes are tensor operators, edges
/// are tensor values identified by the producing node (single output per
/// node; ONNX Split is modelled as per-output Slice nodes). The Extended
/// Computational Graph of the paper is this graph plus the annotations
/// computed in core/Ecg.h.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_GRAPH_GRAPH_H
#define DNNFUSION_GRAPH_GRAPH_H

#include "ops/Attributes.h"
#include "ops/OpKind.h"
#include "support/Status.h"
#include "tensor/Tensor.h"

#include <string>
#include <vector>

namespace dnnfusion {

/// Index of a node within its Graph. Stable across rewrites (dead nodes
/// keep their id and are skipped).
using NodeId = int;
inline constexpr NodeId InvalidNodeId = -1;

/// One operator application.
struct Node {
  NodeId Id = InvalidNodeId;
  OpKind Kind = OpKind::Input;
  AttrMap Attrs;
  std::vector<NodeId> Inputs;
  Shape OutShape;
  std::string Name;
  bool Dead = false;
  /// Weight payload; only meaningful when Kind == Constant.
  Tensor ConstValue;

  int64_t outBytes() const {
    return OutShape.numElements() * static_cast<int64_t>(sizeof(float));
  }
};

/// A single-output-per-node tensor data-flow graph.
class Graph {
public:
  /// Adds a model input placeholder.
  NodeId addInput(Shape S, std::string Name = "");

  /// Adds a weight/constant node owning \p Value.
  NodeId addConstant(Tensor Value, std::string Name = "");

  /// Adds an operator node; the output shape is inferred (and therefore
  /// checked) immediately.
  NodeId addOp(OpKind Kind, std::vector<NodeId> Inputs, AttrMap Attrs = {},
               std::string Name = "");

  /// Declares \p Id a model output (keeps it alive through DCE).
  void markOutput(NodeId Id);

  const Node &node(NodeId Id) const;
  Node &node(NodeId Id);

  /// Count of all slots including dead nodes; valid ids are [0, numNodes).
  int numNodes() const { return static_cast<int>(Nodes.size()); }

  const std::vector<NodeId> &outputs() const { return OutputIds; }

  /// Live node ids in topological order. The order is fixed: of the nodes
  /// whose live inputs are all placed, the smallest id comes next
  /// (persisted plans and toString() depend on it). Kahn's algorithm over a
  /// min-heap of ready ids, O(E log V).
  std::vector<NodeId> topologicalOrder() const;

  /// Ids of consumers of each node (indexed by producer id; live only).
  std::vector<std::vector<NodeId>> computeConsumers() const;

  /// Rewrites every use of \p Old (including the output list) to \p New.
  void replaceAllUses(NodeId Old, NodeId New);

  /// replaceAllUses() for a caller that keeps its own consumer index:
  /// \p Users must list every live node that reads \p Old (as
  /// computeConsumers()[Old] does); only they and the output list change.
  void replaceUses(NodeId Old, NodeId New, const std::vector<NodeId> &Users);

  /// Marks nodes unreachable from the outputs dead.
  void eraseDeadNodes();

  /// Assembles a graph directly from raw node slots and an output list —
  /// the reconstruction path used by deserializers and importers. Node ids
  /// are forced to slot order (Nodes[i].Id = i, dead slots included, so
  /// persisted node ids stay stable), duplicate outputs are collapsed, and
  /// the assembled graph is then validate()d in full; the parts are
  /// treated as untrusted and every violation comes back as a Status, not
  /// an abort.
  static Expected<Graph> fromParts(std::vector<Node> Nodes,
                                   std::vector<NodeId> Outputs);

  /// Checks arity, liveness, acyclicity, duplicate input names, the
  /// presence of at least one output, that every stored shape matches
  /// inference, and that every live Constant carries a payload matching
  /// its shape. Returns the first violation as a Status instead of
  /// aborting — this is what the compile boundary calls on user-supplied
  /// graphs.
  Status validate() const;

  /// validate(), but aborts with the diagnostic on failure. For internal
  /// invariant checks (e.g. after a rewrite pass).
  void verify() const;

  /// Multi-line text dump for debugging and golden tests.
  std::string toString() const;

  // --- Metrics used by the paper's tables -------------------------------

  /// Operator layer count (excludes Input/Constant), per Table 5.
  int64_t countLayers() const;

  /// Compute-intensive layer count (Table 5 "CIL").
  int64_t countComputeIntensiveLayers() const;

  /// Total bytes of intermediate results: outputs of operator nodes that
  /// feed another node (Table 5 "IRS size").
  int64_t intermediateBytes() const;

  /// Total FLOPs over all live operator nodes (Table 6 "#FLOPS").
  int64_t totalFlops() const;

  /// Shapes of a node's inputs, in order.
  std::vector<Shape> inputShapes(NodeId Id) const;

private:
  std::vector<Node> Nodes;
  std::vector<NodeId> OutputIds;
};

} // namespace dnnfusion

#endif // DNNFUSION_GRAPH_GRAPH_H
