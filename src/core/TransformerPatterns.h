//===- core/TransformerPatterns.h - Attention/LayerNorm matching --*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural matchers for the transformer subgraphs the generic
/// mapping-type fusion cannot collapse (every ManyToMany -> ManyToMany
/// edge is a fusion break, so attention and layernorm shatter into 2-5
/// blocks), plus the plan-level carving that regroups matched subgraphs
/// into single fusion blocks.
///
/// The same matchers serve two layers:
///  - compileModel calls carveTransformerGroups after planning to claim
///    each matched subgraph as its own fusion block;
///  - compileBlock re-matches a block's exact member set to decide whether
///    to emit one FusedAttention / FusedLayerNorm step instead of the
///    generic step sequence. Persisted plans therefore recompile to fused
///    steps with no plan-format change, and compiling a carved plan with
///    the toggles off falls back to the ordinary (reference) steps.
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_CORE_TRANSFORMERPATTERNS_H
#define DNNFUSION_CORE_TRANSFORMERPATTERNS_H

#include "graph/Graph.h"

#include <functional>
#include <optional>
#include <vector>

namespace dnnfusion {

struct FusionPlan;

/// A matched attention core: Ctx = Softmax(Scale * MatMul(Q, Kt) [+ Mask])
/// MatMul V, softmax over the last axis.
struct AttentionMatch {
  /// Interior nodes, topologically ordered; the last one (the context
  /// MatMul) is the only value that escapes.
  std::vector<NodeId> Members;
  NodeId Root = InvalidNodeId; ///< The context MatMul (== Members.back()).
  NodeId QNode = InvalidNodeId;    ///< [B.., S, Dh]
  NodeId KtNode = InvalidNodeId;   ///< [B.., Dh, S] (pre-transposed K)
  NodeId VNode = InvalidNodeId;    ///< [B.., S, Dh]
  NodeId MaskNode = InvalidNodeId; ///< Additive [.., S, S] constant, or invalid.
  float Scale = 1.0f;
  /// True when MaskNode is exactly a causal mask (0 on and below the
  /// diagonal, <= -1e8 above): the kernel skips future keys instead of
  /// adding the mask.
  bool Causal = false;
  int64_t Batches = 1, S = 0, Dh = 0;
};

/// A matched decomposed LayerNorm rooted at its final affine Add.
struct LayerNormMatch {
  /// The nine interior nodes, topologically ordered (root last).
  std::vector<NodeId> Members;
  NodeId Root = InvalidNodeId;
  NodeId XNode = InvalidNodeId;
  NodeId GammaNode = InvalidNodeId; ///< [H] (modulo leading 1s)
  NodeId BetaNode = InvalidNodeId;  ///< [H]
  float Eps = 0.0f;
  int64_t Rows = 0, H = 0;
};

/// Number of distinct live nodes reading a value, as a matcher sees it.
/// A pattern's interior values must have exactly the uses the pattern
/// gives them (they must not escape), and that count is all the matchers
/// ask. carveTransformerGroups counts over the whole graph; compileBlock
/// counts over the block's members.
using UseCount = std::function<int(NodeId)>;

/// Matches an attention core whose context MatMul is \p Root.
std::optional<AttentionMatch> matchAttention(const Graph &G,
                                             const UseCount &Uses,
                                             NodeId Root);

/// Matches a decomposed LayerNorm whose final Add is \p Root.
std::optional<LayerNormMatch> matchLayerNorm(const Graph &G,
                                             const UseCount &Uses,
                                             NodeId Root);

/// Re-matches a fusion block's exact member set: succeeds only when the
/// match's interior nodes are precisely \p Members (any order).
std::optional<AttentionMatch>
matchAttentionBlock(const Graph &G, const UseCount &Uses,
                    const std::vector<NodeId> &Members);
std::optional<LayerNormMatch>
matchLayerNormBlock(const Graph &G, const UseCount &Uses,
                    const std::vector<NodeId> &Members);

/// Re-partitions \p Plan so every matched attention (\p Attention) and
/// layernorm (\p Norm) subgraph becomes its own block. Non-claimed
/// residues of broken-up blocks are split into weakly-connected
/// components (and, if that still leaves a cyclic block graph, into
/// singletons — matched subgraphs are convex, so singleton residues are
/// always acyclic). Returns the number of carved groups; 0 leaves the
/// plan untouched.
int carveTransformerGroups(const Graph &G, FusionPlan &Plan, bool Attention,
                           bool Norm);

} // namespace dnnfusion

#endif // DNNFUSION_CORE_TRANSFORMERPATTERNS_H
