//===- core/FusionPlan.h - Fusion blocks and plans ----------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The output of fusion plan exploration (paper §4.3): a partition of the
/// graph's operator nodes into fusion blocks, each later compiled into a
/// single fused kernel. Also declares the LatencyOracle interface through
/// which the planner resolves yellow (fuse-depend) decisions, and its one
/// implementation, the analytic CostModelOracle.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_CORE_FUSIONPLAN_H
#define DNNFUSION_CORE_FUSIONPLAN_H

#include "graph/Graph.h"
#include "ops/MappingType.h"

#include <string>
#include <vector>

namespace dnnfusion {

/// One fusion block: a convex set of operator nodes executed as one fused
/// kernel.
struct FusionBlock {
  /// Member operator nodes in a valid topological order.
  std::vector<NodeId> Members;
  /// The seed operator this block grew from (InvalidNodeId for leftover
  /// singleton blocks).
  NodeId Seed = InvalidNodeId;
  /// Mapping type of the fused operator (Table 3 composition).
  MappingType FusedType = MappingType::OneToOne;
  /// Producers outside the block (graph inputs, constants, other blocks'
  /// outputs), deduplicated, in first-use order.
  std::vector<NodeId> ExternalInputs;
  /// Members whose value is consumed outside the block or is a graph
  /// output.
  std::vector<NodeId> Outputs;

  bool contains(NodeId Id) const;
};

/// A full fusion plan for one graph.
struct FusionPlan {
  /// Blocks in a valid execution order.
  std::vector<FusionBlock> Blocks;
  /// Block index per node id; -1 for Input/Constant/dead nodes.
  std::vector<int> BlockOfNode;

  /// Fused layer count (Table 5: one launched kernel per block).
  int64_t fusedLayerCount() const {
    return static_cast<int64_t>(Blocks.size());
  }

  /// Bytes of intermediate results that survive fusion: block outputs
  /// consumed by other blocks (Table 5 "IRS size" after optimization).
  int64_t intermediateBytesAfterFusion(const Graph &G) const;

  /// Multi-line dump for debugging.
  std::string toString(const Graph &G) const;

  /// Checks the plan is a partition of live operator nodes and the block
  /// order respects data dependencies. Aborts on violation.
  void verify(const Graph &G) const;
};

/// The inter-block dependency DAG of a fusion plan and its level
/// partition. Level L holds every block whose longest dependency chain
/// from a source block has length L, so all blocks within one level are
/// mutually independent. Analysis only: execution runs the blocks in plan
/// order and neither compilation nor the artifact computes or stores a
/// schedule.
struct BlockSchedule {
  /// Number of distinct predecessor blocks per block (blocks whose outputs
  /// the block consumes). Zero = source block, ready immediately.
  std::vector<int> PredecessorCount;
  /// Distinct successor block indices per block, ascending.
  std::vector<std::vector<int>> Successors;
  /// Level per block: 0 for source blocks, otherwise
  /// 1 + max(level of predecessors).
  std::vector<int> LevelOfBlock;
  /// Block indices per level, ascending within each level.
  std::vector<std::vector<int>> Levels;

  int64_t numLevels() const { return static_cast<int64_t>(Levels.size()); }
  /// Widest level: the peak inter-block parallelism the plan exposes.
  int64_t maxWidth() const;

  /// Checks internal consistency against \p Plan: levels partition the
  /// blocks, every edge goes to a strictly higher level, and predecessor
  /// counts match the successor lists. Aborts on violation.
  void verify(const FusionPlan &Plan) const;
};

/// Computes the dependency DAG + level partition of \p Plan over \p G.
/// Requires a verified plan (BlockOfNode populated). perfbench's
/// compile-phase replay (LayerTrace, core.schedule_ms) is the only caller
/// outside the tests.
BlockSchedule computeBlockSchedule(const Graph &G, const FusionPlan &Plan);

/// Latency source for yellow fusion decisions (Listing 1, step 2.3).
class LatencyOracle {
public:
  virtual ~LatencyOracle();

  /// Estimated execution time, in milliseconds, of \p Members executed as
  /// a single fused block.
  virtual double blockLatencyMs(const Graph &G,
                                const std::vector<NodeId> &Members) = 0;
};

/// Analytic roofline-style oracle that decides every yellow fusion:
/// launch overhead + flops term + external-traffic term, with a
/// strided-access penalty when Shuffle/One-to-Many members share a block
/// with a Many-to-Many operator (the access-pattern damage §3.2 warns
/// about).
class CostModelOracle : public LatencyOracle {
public:
  /// The planner issues thousands of queries per run against the same
  /// (const) graph, so the consumer adjacency is computed once per graph
  /// and memoized. A caller that mutates the graph between queries must
  /// use a fresh oracle.
  double blockLatencyMs(const Graph &G,
                        const std::vector<NodeId> &Members) override;

private:
  /// Memoized consumer adjacency (see blockLatencyMs).
  const Graph *ConsumersFor = nullptr;
  std::vector<std::vector<NodeId>> Consumers;
};

} // namespace dnnfusion

#endif // DNNFUSION_CORE_FUSIONPLAN_H
