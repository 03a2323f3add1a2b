//===- core/GraphRewriter.cpp - Rewrite driver ---------------------------------===//

#include "core/GraphRewriter.h"

#include "ops/OpSchema.h"
#include "support/Error.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <iterator>

using namespace dnnfusion;

std::string RewriteStats::toString() const {
  return formatString(
      "applications=%d (assoc=%d dist=%d comm=%d canon=%d fold=%d) "
      "flops %lld -> %lld, layers %lld -> %lld, regions=%d",
      Applications, PerCategory[0], PerCategory[1], PerCategory[2],
      PerCategory[3], PerCategory[4], static_cast<long long>(FlopsBefore),
      static_cast<long long>(FlopsAfter), static_cast<long long>(LayersBefore),
      static_cast<long long>(LayersAfter), NumRegions);
}

namespace {

struct Candidate {
  const RewriteRule *Rule;
  RuleApplication App;
};

/// Graph::computeConsumers() of the graph being rewritten, kept current
/// across rule applications by updating only the nodes an application
/// touches. Every list stays ascending and duplicate-free, as
/// computeConsumers() builds it.
class ConsumerTable {
public:
  explicit ConsumerTable(const Graph &G) : Lists(G.computeConsumers()) {}

  const std::vector<std::vector<NodeId>> &lists() const { return Lists; }

  void rebuild(const Graph &G) { Lists = G.computeConsumers(); }

  /// Commits one rule application to \p G and the table: registers the
  /// nodes Build added (ids from \p FirstNew on), moves every use of
  /// \p Root to \p Replacement, and marks dead what that leaves
  /// unreachable — provided every live node was reachable before.
  void apply(Graph &G, NodeId FirstNew, NodeId Root, NodeId Replacement) {
    // New nodes carry the largest ids, so appending keeps lists ascending.
    Lists.resize(static_cast<size_t>(G.numNodes()));
    for (NodeId Id = FirstNew; Id < G.numNodes(); ++Id)
      for (NodeId In : G.node(Id).Inputs) {
        std::vector<NodeId> &List = Lists[static_cast<size_t>(In)];
        if (List.empty() || List.back() != Id)
          List.push_back(Id);
      }

    std::vector<NodeId> &Users = Lists[static_cast<size_t>(Root)];
    G.replaceUses(Root, Replacement, Users);
    std::vector<NodeId> &Into = Lists[static_cast<size_t>(Replacement)];
    std::vector<NodeId> Merged;
    std::set_union(Into.begin(), Into.end(), Users.begin(), Users.end(),
                   std::back_inserter(Merged));
    Into = std::move(Merged);
    Users.clear();

    // In a DAG whose live nodes are all reachable from the outputs and
    // model inputs, a node becomes unreachable exactly when it is left
    // with no live consumer while being neither an output nor an input.
    // Only the old root and the new nodes can start such a chain.
    std::vector<NodeId> Work = {Root};
    for (NodeId Id = FirstNew; Id < G.numNodes(); ++Id)
      Work.push_back(Id);
    const std::vector<NodeId> &Outputs = G.outputs();
    while (!Work.empty()) {
      NodeId Id = Work.back();
      Work.pop_back();
      Node &N = G.node(Id);
      if (N.Dead || N.Kind == OpKind::Input ||
          !Lists[static_cast<size_t>(Id)].empty() ||
          std::find(Outputs.begin(), Outputs.end(), Id) != Outputs.end())
        continue;
      N.Dead = true;
      for (NodeId In : N.Inputs) {
        std::vector<NodeId> &List = Lists[static_cast<size_t>(In)];
        auto It = std::lower_bound(List.begin(), List.end(), Id);
        if (It != List.end() && *It == Id) {
          List.erase(It);
          Work.push_back(In);
        }
      }
    }
  }

private:
  std::vector<std::vector<NodeId>> Lists;
};

} // namespace

int dnnfusion::countRewriteRegions(const Graph &G) {
  // Union-find over live rewrite-region operators connected by data edges.
  std::vector<int> Parent(static_cast<size_t>(G.numNodes()), -1);
  std::function<int(int)> find = [&](int X) {
    while (Parent[static_cast<size_t>(X)] != X)
      X = Parent[static_cast<size_t>(X)] =
          Parent[static_cast<size_t>(Parent[static_cast<size_t>(X)])];
    return X;
  };
  for (int Id = 0; Id < G.numNodes(); ++Id) {
    const Node &N = G.node(Id);
    if (!N.Dead && isRewriteRegionOp(N.Kind))
      Parent[static_cast<size_t>(Id)] = Id;
  }
  for (int Id = 0; Id < G.numNodes(); ++Id) {
    const Node &N = G.node(Id);
    if (N.Dead || !isRewriteRegionOp(N.Kind))
      continue;
    for (NodeId In : N.Inputs) {
      if (Parent[static_cast<size_t>(In)] < 0)
        continue;
      int Ra = find(Id), Rb = find(In);
      if (Ra != Rb)
        Parent[static_cast<size_t>(Ra)] = Rb;
    }
  }
  int Regions = 0;
  for (int Id = 0; Id < G.numNodes(); ++Id)
    if (Parent[static_cast<size_t>(Id)] == Id)
      ++Regions;
  return Regions;
}

RewriteStats dnnfusion::rewriteGraph(Graph &G, const RewriteOptions &Options) {
  RewriteStats Stats;
  Stats.FlopsBefore = G.totalFlops();
  Stats.LayersBefore = G.countLayers();
  Stats.NumRegions = countRewriteRegions(G);

  const std::vector<RewriteRule> &Rules = allRewriteRules();

  ConsumerTable Consumers(G);
  bool Progress = true;
  while (Progress && Stats.Applications < Options.MaxApplications) {
    Progress = false;

    // One scan: collect all candidates under the current graph.
    std::vector<Candidate> Candidates;
    for (int Id = 0; Id < G.numNodes(); ++Id) {
      if (G.node(Id).Dead)
        continue;
      for (const RewriteRule &Rule : Rules)
        if (auto App = Rule.match(G, Id, Consumers.lists()))
          Candidates.push_back(Candidate{&Rule, std::move(*App)});
    }
    if (Candidates.empty())
      break;

    // Greedy: largest estimated #FLOPs reduction first (the paper's
    // metric), priority and node id as deterministic tie-breakers.
    std::stable_sort(Candidates.begin(), Candidates.end(),
                     [](const Candidate &A, const Candidate &B) {
                       if (A.App.FlopsSaved != B.App.FlopsSaved)
                         return A.App.FlopsSaved > B.App.FlopsSaved;
                       if (A.Rule->priority() != B.Rule->priority())
                         return A.Rule->priority() > B.Rule->priority();
                       return A.App.Root < B.App.Root;
                     });

    for (const Candidate &Cand : Candidates) {
      if (Stats.Applications >= Options.MaxApplications)
        break;
      if (G.node(Cand.App.Root).Dead)
        continue;
      // The graph may have changed since the scan: re-validate at the root.
      auto Fresh = Cand.Rule->match(G, Cand.App.Root, Consumers.lists());
      if (!Fresh)
        continue;
      NodeId FirstNew = G.numNodes();
      NodeId Replacement = Fresh->Build(G);
      DNNF_CHECK(Replacement != Fresh->Root, "rule %s replaced %d by itself",
                 Cand.Rule->name().c_str(), Fresh->Root);
      Consumers.apply(G, FirstNew, Fresh->Root, Replacement);
      if (Stats.Applications == 0) {
        // The input graph may hold nodes no output reaches (the scans so
        // far counted them as consumers). The first application drops
        // them; from then on every live node is reachable, which the
        // table's incremental dead-code removal relies on.
        G.eraseDeadNodes();
        Consumers.rebuild(G);
      }
      ++Stats.Applications;
      ++Stats.PerCategory[static_cast<int>(Cand.Rule->category())];
      Progress = true;
    }
  }

  G.verify();
  Stats.FlopsAfter = G.totalFlops();
  Stats.LayersAfter = G.countLayers();
  return Stats;
}
