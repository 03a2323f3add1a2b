//===- core/GraphRewriter.h - Rewrite driver ----------------------*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mathematical-property graph-rewriting driver (paper §4.2): the ECG
/// is partitioned at operators carrying no algebraic properties; within the
/// reachable candidate set the rule with the largest #FLOPs reduction is
/// applied greedily until fixpoint.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_CORE_GRAPHREWRITER_H
#define DNNFUSION_CORE_GRAPHREWRITER_H

#include "core/RewriteRules.h"
#include "graph/Graph.h"

#include <string>

namespace dnnfusion {

/// Driver configuration. Every rule of the registry is always eligible.
struct RewriteOptions {
  /// Hard cap on rule applications (loop-safety backstop).
  int MaxApplications = 100000;
};

/// Statistics of one rewriteGraph run.
struct RewriteStats {
  int Applications = 0;
  int PerCategory[NumRuleCategories] = {0, 0, 0, 0, 0};
  int64_t FlopsBefore = 0;
  int64_t FlopsAfter = 0;
  int64_t LayersBefore = 0;
  int64_t LayersAfter = 0;
  /// Number of algebraic regions the partitioning step found.
  int NumRegions = 0;

  std::string toString() const;
};

/// Applies the rewrite rule registry to \p G until fixpoint. \p G is
/// verified before returning. One consumer table serves every match; each
/// application updates it, and removes dead code, from the nodes it
/// touched, so an application costs the size of its neighbourhood rather
/// than of the graph. The first application also drops whatever the input
/// graph left unreachable (Graph::eraseDeadNodes).
RewriteStats rewriteGraph(Graph &G, const RewriteOptions &Options = {});

/// Counts the algebraic regions of \p G: connected components of operators
/// with at least one associative/commutative/distributive-relevant
/// property (the paper's partitioning for pattern matching).
int countRewriteRegions(const Graph &G);

} // namespace dnnfusion

#endif // DNNFUSION_CORE_GRAPHREWRITER_H
