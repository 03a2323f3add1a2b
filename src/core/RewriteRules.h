//===- core/RewriteRules.h - Mathematical-property rewrite rules --*- C++ -*-===//
//
// Part of the DNNFusion reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The rule registry for mathematical-property-based graph rewriting
/// (paper §4.2, Table 4). Each rule structurally matches a small pattern
/// rooted at a node and, when applied, builds a cheaper replacement
/// expression; the driver (GraphRewriter) greedily applies the rule with
/// the largest estimated #FLOPs reduction, the paper's metric.
///
/// Rules are grouped into the paper's three mathematical families
/// (associative, distributive, commutative) plus two supporting families
/// this reproduction separates out for ablation: canonicalization
/// (zero-FLOP normalizations that enable other rules) and constant folding
/// into weights (Conv+BatchNorm and friends).
///
//===----------------------------------------------------------------------===//

#ifndef DNNFUSION_CORE_REWRITERULES_H
#define DNNFUSION_CORE_REWRITERULES_H

#include "graph/Graph.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace dnnfusion {

/// The paper's rule families (plus two supporting ones).
enum class RuleCategory {
  Associative,
  Distributive,
  Commutative,
  Canonicalization,
  Folding,
};
inline constexpr int NumRuleCategories = 5;

const char *ruleCategoryName(RuleCategory C);

/// A matched, ready-to-apply rewrite.
struct RuleApplication {
  /// The node whose value the replacement recomputes.
  NodeId Root = InvalidNodeId;
  /// Estimated #FLOPs removed from the graph (>= 0 by construction).
  int64_t FlopsSaved = 0;
  /// Builds the replacement expression and returns its result node, which
  /// is never Root itself. The caller moves Root's uses to the result and
  /// removes dead code.
  std::function<NodeId(Graph &)> Build;
};

/// One rewrite rule: a named structural matcher.
class RewriteRule {
public:
  using MatchFn = std::function<std::optional<RuleApplication>(
      const Graph &, NodeId, const std::vector<std::vector<NodeId>> &)>;

  RewriteRule(std::string Name, RuleCategory Category, int Priority,
              MatchFn Match)
      : Name(std::move(Name)), Category(Category), Priority(Priority),
        Match(std::move(Match)) {}

  const std::string &name() const { return Name; }
  RuleCategory category() const { return Category; }
  /// Tie-breaker when FLOPs savings are equal (folding > algebra > canon).
  int priority() const { return Priority; }

  /// Attempts to match this rule rooted at \p Root. \p Consumers is the
  /// graph's current consumer index (for one-use checks).
  std::optional<RuleApplication>
  match(const Graph &G, NodeId Root,
        const std::vector<std::vector<NodeId>> &Consumers) const {
    return Match(G, Root, Consumers);
  }

private:
  std::string Name;
  RuleCategory Category;
  int Priority;
  MatchFn Match;
};

/// The full rule registry, built once.
const std::vector<RewriteRule> &allRewriteRules();

/// Number of registered rules in \p Category.
int countRules(RuleCategory Category);

} // namespace dnnfusion

#endif // DNNFUSION_CORE_REWRITERULES_H
