//===- core/FusionPlanner.cpp - Fusion plan exploration ------------------------===//

#include "core/FusionPlanner.h"

#include "core/Ecg.h"
#include "core/FusionAnalysis.h"
#include "ops/OpSchema.h"
#include "support/Error.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>

using namespace dnnfusion;

namespace {

/// Shared planning state.
struct Planner {
  const Graph &G;
  const Ecg &E;
  LatencyOracle &Oracle;
  const PlannerOptions &Opt;
  PlannerStats &Stats;
  std::vector<std::vector<NodeId>> Consumers;
  /// Block index per node; -1 = unassigned.
  std::vector<int> Assigned;
  /// DFS stamp buffer for cycle queries.
  std::vector<int> Stamp;
  int CurrentStamp = 0;
  /// Topological position per live node. Edges always point from a lower
  /// position to a higher one, so a backward cycle query strictly decreases
  /// position and a forward one strictly increases it — anything outside
  /// the queried block's position span can be pruned without changing the
  /// answer. This bounds each query to the block's neighborhood instead of
  /// the whole graph (the planner was superlinear on 3000-layer models).
  std::vector<int> Pos;
  /// Position span of each block's members, maintained on assignment.
  std::vector<int> BlockMinPos, BlockMaxPos;
  /// The current seed round's eligible operators, best first, and the
  /// index before which all of them are assigned (see beginSeedRound).
  std::vector<NodeId> SeedOrder;
  size_t NextSeed = 0;

  Planner(const Graph &G, const Ecg &E, LatencyOracle &Oracle,
          const PlannerOptions &Opt, PlannerStats &Stats)
      : G(G), E(E), Oracle(Oracle), Opt(Opt), Stats(Stats),
        Consumers(G.computeConsumers()),
        Assigned(static_cast<size_t>(G.numNodes()), -1),
        Stamp(static_cast<size_t>(G.numNodes()), 0),
        Pos(static_cast<size_t>(G.numNodes()), -1) {
    std::vector<NodeId> Order = G.topologicalOrder();
    for (size_t I = 0; I < Order.size(); ++I)
      Pos[static_cast<size_t>(Order[I])] = static_cast<int>(I);
  }

  /// Assigns \p Id to \p Block and widens the block's position span.
  void assign(NodeId Id, int Block) {
    Assigned[static_cast<size_t>(Id)] = Block;
    if (Block >= static_cast<int>(BlockMinPos.size())) {
      BlockMinPos.resize(static_cast<size_t>(Block) + 1,
                         std::numeric_limits<int>::max());
      BlockMaxPos.resize(static_cast<size_t>(Block) + 1,
                         std::numeric_limits<int>::min());
    }
    int P = Pos[static_cast<size_t>(Id)];
    BlockMinPos[static_cast<size_t>(Block)] =
        std::min(BlockMinPos[static_cast<size_t>(Block)], P);
    BlockMaxPos[static_cast<size_t>(Block)] =
        std::max(BlockMaxPos[static_cast<size_t>(Block)], P);
  }

  bool isOperator(NodeId Id) const {
    const Node &N = G.node(Id);
    return !N.Dead && N.Kind != OpKind::Input && N.Kind != OpKind::Constant;
  }

  bool inBlock(NodeId Id, int Block) const {
    return Assigned[static_cast<size_t>(Id)] == Block;
  }

  /// True when a member of \p Block can reach \p From by following inputs
  /// backward (i.e. \p From transitively depends on the block).
  bool dependsOnBlock(NodeId From, int Block) {
    int MinPos = BlockMinPos[static_cast<size_t>(Block)];
    ++CurrentStamp;
    std::vector<NodeId> Stack = {From};
    while (!Stack.empty()) {
      NodeId Id = Stack.back();
      Stack.pop_back();
      if (Stamp[static_cast<size_t>(Id)] == CurrentStamp)
        continue;
      Stamp[static_cast<size_t>(Id)] = CurrentStamp;
      // Everything backward-reachable from here sits at a strictly smaller
      // position; below the block's lowest member nothing can match.
      if (Pos[static_cast<size_t>(Id)] < MinPos)
        continue;
      if (inBlock(Id, Block))
        return true;
      for (NodeId In : G.node(Id).Inputs)
        Stack.push_back(In);
    }
    return false;
  }

  /// True when \p From can reach a member of \p Block by following
  /// consumers forward (i.e. the block transitively depends on \p From).
  bool blockDependsOn(NodeId From, int Block) {
    int MaxPos = BlockMaxPos[static_cast<size_t>(Block)];
    ++CurrentStamp;
    std::vector<NodeId> Stack = {From};
    while (!Stack.empty()) {
      NodeId Id = Stack.back();
      Stack.pop_back();
      if (Stamp[static_cast<size_t>(Id)] == CurrentStamp)
        continue;
      Stamp[static_cast<size_t>(Id)] = CurrentStamp;
      // Forward reachability strictly increases position; above the
      // block's highest member nothing can match.
      if (Pos[static_cast<size_t>(Id)] > MaxPos)
        continue;
      if (inBlock(Id, Block))
        return true;
      for (NodeId User : Consumers[static_cast<size_t>(Id)])
        Stack.push_back(User);
    }
    return false;
  }

  /// Constraint analysis (Listing 1 step 2.2): rejects candidates whose
  /// addition would exceed the block-size or block-input budget — the
  /// paper's empirically-thresholded proxy for register spills.
  bool checkConstraint(std::vector<NodeId> &Members, NodeId Candidate) {
    if (static_cast<int>(Members.size()) + 1 > Opt.MaxOpsPerBlock) {
      ++Stats.ConstraintRejected;
      return false;
    }
    std::vector<NodeId> Inputs;
    auto NoteInputs = [&](NodeId Id) {
      for (NodeId In : G.node(Id).Inputs) {
        bool Internal = Assigned[static_cast<size_t>(In)] >= 0 &&
                        In != Candidate &&
                        std::find(Members.begin(), Members.end(), In) !=
                            Members.end();
        Internal |= In == Candidate;
        if (!Internal &&
            std::find(Inputs.begin(), Inputs.end(), In) == Inputs.end())
          Inputs.push_back(In);
      }
    };
    for (NodeId Id : Members)
      NoteInputs(Id);
    NoteInputs(Candidate);
    if (static_cast<int>(Inputs.size()) > Opt.MaxBlockInputs) {
      ++Stats.ConstraintRejected;
      return false;
    }
    return true;
  }

  /// Yellow decision (Listing 1 step 2.3): fuse only when the fused block
  /// is no slower than executing the candidate separately.
  bool oracleApproves(std::vector<NodeId> &Members, NodeId Candidate) {
    if (!Opt.EnableYellowFusion) {
      ++Stats.YellowRejected;
      return false;
    }
    std::vector<NodeId> Fused = Members;
    Fused.push_back(Candidate);
    double FusedMs = Oracle.blockLatencyMs(G, Fused);
    double SplitMs = Oracle.blockLatencyMs(G, Members) +
                     Oracle.blockLatencyMs(G, {Candidate});
    if (FusedMs > SplitMs) {
      ++Stats.YellowRejected;
      return false;
    }
    ++Stats.YellowAccepted;
    return true;
  }

  /// Tries to admit \p Candidate into block \p Block. \p AsSuccessor
  /// selects the verdict orientation (block feeding candidate vs candidate
  /// feeding block). Returns true when admitted.
  bool tryAdmit(int Block, std::vector<NodeId> &Members, MappingType &Type,
                NodeId Candidate, bool AsSuccessor) {
    if (!isOperator(Candidate) || Assigned[static_cast<size_t>(Candidate)] >= 0)
      return false;
    MappingType CandType = E.mappingType(Candidate);
    FusionVerdict V = AsSuccessor ? fusionVerdict(Type, CandType)
                                  : fusionVerdict(CandType, Type);
    if (V == FusionVerdict::FuseBreak) {
      ++Stats.RedRejected;
      return false;
    }
    if (!checkConstraint(Members, Candidate))
      return false;
    // Legality: admitting the candidate must not create a cycle between
    // this block and the rest of the graph.
    if (AsSuccessor) {
      for (NodeId In : G.node(Candidate).Inputs)
        if (!inBlock(In, Block) && dependsOnBlock(In, Block)) {
          ++Stats.CycleRejected;
          return false;
        }
    } else {
      for (NodeId User : Consumers[static_cast<size_t>(Candidate)])
        if (!inBlock(User, Block) && blockDependsOn(User, Block)) {
          ++Stats.CycleRejected;
          return false;
        }
    }
    if (V == FusionVerdict::FuseDepend) {
      if (!oracleApproves(Members, Candidate))
        return false;
    } else {
      ++Stats.GreenFusions;
    }
    Members.push_back(Candidate);
    assign(Candidate, Block);
    Type = AsSuccessor ? fusedMappingType(Type, CandType)
                       : fusedMappingType(CandType, Type);
    return true;
  }

  /// Listing 1 fuse_successor, with the exploration generalized to a
  /// bidirectional flood: once an operator joins the block, both its
  /// consumers and its producers become candidates (Figure 3's example
  /// reaches Mul/Sub through exactly such sideways edges). Termination and
  /// boundedness come from the assignment marks, the red verdicts, and the
  /// constraint check.
  void fuseSuccessor(int Block, std::vector<NodeId> &Members,
                     MappingType &Type, NodeId Succ) {
    if (!tryAdmit(Block, Members, Type, Succ, /*AsSuccessor=*/true))
      return;
    exploreFrom(Block, Members, Type, Succ);
  }

  /// Listing 1 fuse_predecessor (same generalization).
  void fusePredecessor(int Block, std::vector<NodeId> &Members,
                       MappingType &Type, NodeId Pred) {
    if (!tryAdmit(Block, Members, Type, Pred, /*AsSuccessor=*/false))
      return;
    exploreFrom(Block, Members, Type, Pred);
  }

  void exploreFrom(int Block, std::vector<NodeId> &Members, MappingType &Type,
                   NodeId Id) {
    for (NodeId Prev : G.node(Id).Inputs)
      fusePredecessor(Block, Members, Type, Prev);
    for (NodeId Next : Consumers[static_cast<size_t>(Id)])
      fuseSuccessor(Block, Members, Type, Next);
  }

  /// Seed selection (Listing 1 generate_seed). The primary round seeds on
  /// One-to-One operators (the paper's policy); once those are exhausted a
  /// secondary round seeds on broadcast elementwise operators (classified
  /// One-to-Many by Table 2 solely because one operand broadcasts) so
  /// MatMul+bias-Add style chains — ubiquitous in transformer exports —
  /// still anchor a block. A round orders its eligible operators once, by
  /// the policy's key (intermediate-result size) and then by id; each seed
  /// is the first of them not yet assigned to a block.
  void beginSeedRound(bool AllowBroadcastElementwise) {
    SeedOrder.clear();
    NextSeed = 0;
    for (int Id = 0; Id < G.numNodes(); ++Id) {
      if (!isOperator(Id) || Assigned[static_cast<size_t>(Id)] >= 0)
        continue;
      MappingType MT = E.mappingType(Id);
      if (MT == MappingType::OneToOne ||
          (AllowBroadcastElementwise && MT == MappingType::OneToMany &&
           isElementwise(G.node(Id).Kind)))
        SeedOrder.push_back(Id);
    }
    auto Irs = [&](NodeId Id) { return E.info(Id).IrsBytes; };
    switch (Opt.Seeds) {
    case PlannerOptions::SeedPolicy::MinIntermediateResult:
      std::stable_sort(SeedOrder.begin(), SeedOrder.end(),
                       [&](NodeId A, NodeId B) { return Irs(A) < Irs(B); });
      break;
    case PlannerOptions::SeedPolicy::MaxIntermediateResult:
      std::stable_sort(SeedOrder.begin(), SeedOrder.end(),
                       [&](NodeId A, NodeId B) { return Irs(A) > Irs(B); });
      break;
    case PlannerOptions::SeedPolicy::FirstTopological:
      break;
    }
  }

  /// The next seed of the current round, or InvalidNodeId when every
  /// eligible operator is assigned.
  NodeId pickSeed() {
    while (NextSeed < SeedOrder.size() &&
           Assigned[static_cast<size_t>(SeedOrder[NextSeed])] >= 0)
      ++NextSeed;
    return NextSeed < SeedOrder.size() ? SeedOrder[NextSeed] : InvalidNodeId;
  }
};

/// Group index per node id (-1 = in no group) — the node->block map both
/// the ordering step and the assembly step key on.
std::vector<int> blockOfTable(const Graph &G,
                              const std::vector<std::vector<NodeId>> &Groups) {
  std::vector<int> BlockOf(static_cast<size_t>(G.numNodes()), -1);
  for (size_t BI = 0; BI < Groups.size(); ++BI)
    for (NodeId Id : Groups[BI])
      BlockOf[static_cast<size_t>(Id)] = static_cast<int>(BI);
  return BlockOf;
}

/// Shared tail of plan construction: sorts each group's members
/// topologically, derives the per-block metadata (FusedType,
/// ExternalInputs, Outputs, BlockOfNode), and verifies the result. The
/// given group order IS the block execution order — callers either
/// computed a valid order (finalizePlan) or are handing in a persisted one
/// (planFromOrderedGroups), and verify() rejects a wrong one.
FusionPlan assembleOrderedPlan(const Graph &G,
                               std::vector<std::vector<NodeId>> Groups,
                               std::vector<NodeId> Seeds) {
  // Topological position of every node.
  std::vector<int> Pos(static_cast<size_t>(G.numNodes()), -1);
  std::vector<NodeId> Order = G.topologicalOrder();
  for (size_t I = 0; I < Order.size(); ++I)
    Pos[static_cast<size_t>(Order[I])] = static_cast<int>(I);

  std::vector<int> BlockOf = blockOfTable(G, Groups);
  for (std::vector<NodeId> &Group : Groups)
    std::sort(Group.begin(), Group.end(), [&](NodeId A, NodeId B) {
      return Pos[static_cast<size_t>(A)] < Pos[static_cast<size_t>(B)];
    });

  // Assemble the plan in the given order.
  std::vector<std::vector<NodeId>> Consumers = G.computeConsumers();
  const std::vector<NodeId> &GraphOuts = G.outputs();
  FusionPlan Plan;
  Plan.BlockOfNode.assign(static_cast<size_t>(G.numNodes()), -1);
  for (size_t GI = 0; GI < Groups.size(); ++GI) {
    int OldIndex = static_cast<int>(GI);
    FusionBlock B;
    B.Members = std::move(Groups[GI]);
    B.Seed = Seeds.empty() ? InvalidNodeId : Seeds[GI];
    // Fused mapping type: fold members in topological order (Table 3).
    bool First = true;
    for (NodeId Id : B.Members) {
      const Node &N = G.node(Id);
      MappingType MT = mappingType(N.Kind, N.Attrs, G.inputShapes(Id));
      B.FusedType = First ? MT : fusedMappingType(B.FusedType, MT);
      First = false;
    }
    for (NodeId Id : B.Members) {
      for (NodeId In : G.node(Id).Inputs)
        if (BlockOf[static_cast<size_t>(In)] != OldIndex &&
            std::find(B.ExternalInputs.begin(), B.ExternalInputs.end(), In) ==
                B.ExternalInputs.end())
          B.ExternalInputs.push_back(In);
      bool Escapes =
          std::find(GraphOuts.begin(), GraphOuts.end(), Id) != GraphOuts.end();
      for (NodeId User : Consumers[static_cast<size_t>(Id)])
        Escapes |= BlockOf[static_cast<size_t>(User)] != OldIndex;
      if (Escapes)
        B.Outputs.push_back(Id);
    }
    for (NodeId Id : B.Members)
      Plan.BlockOfNode[static_cast<size_t>(Id)] =
          static_cast<int>(Plan.Blocks.size());
    Plan.Blocks.push_back(std::move(B));
  }
  Plan.verify(G);
  return Plan;
}

/// Builds a verified FusionPlan from raw member groups (+ optional
/// per-group seed/type metadata), computing a valid block execution order
/// first.
FusionPlan finalizePlan(const Graph &G,
                        std::vector<std::vector<NodeId>> Groups,
                        std::vector<NodeId> Seeds) {
  std::vector<int> BlockOf = blockOfTable(G, Groups);

  // Order blocks topologically (Kahn over the block DAG).
  size_t NumBlocks = Groups.size();
  std::vector<std::vector<int>> BlockUsers(NumBlocks);
  std::vector<int> Pending(NumBlocks, 0);
  for (size_t BI = 0; BI < NumBlocks; ++BI)
    for (NodeId Id : Groups[BI])
      for (NodeId In : G.node(Id).Inputs) {
        int PB = BlockOf[static_cast<size_t>(In)];
        if (PB < 0 || static_cast<size_t>(PB) == BI)
          continue;
        BlockUsers[static_cast<size_t>(PB)].push_back(static_cast<int>(BI));
        ++Pending[BI];
      }
  // The smallest ready block index goes next.
  std::priority_queue<int, std::vector<int>, std::greater<int>> Ready;
  std::vector<int> BlockOrder;
  for (size_t BI = 0; BI < NumBlocks; ++BI)
    if (Pending[BI] == 0)
      Ready.push(static_cast<int>(BI));
  while (!Ready.empty()) {
    int BI = Ready.top();
    Ready.pop();
    BlockOrder.push_back(BI);
    for (int User : BlockUsers[static_cast<size_t>(BI)])
      if (--Pending[static_cast<size_t>(User)] == 0)
        Ready.push(User);
  }
  DNNF_CHECK(BlockOrder.size() == NumBlocks,
             "fusion blocks form a cycle (%zu of %zu ordered)",
             BlockOrder.size(), NumBlocks);

  std::vector<std::vector<NodeId>> OrderedGroups;
  std::vector<NodeId> OrderedSeeds;
  OrderedGroups.reserve(NumBlocks);
  for (int OldIndex : BlockOrder) {
    OrderedGroups.push_back(std::move(Groups[static_cast<size_t>(OldIndex)]));
    if (!Seeds.empty())
      OrderedSeeds.push_back(Seeds[static_cast<size_t>(OldIndex)]);
  }
  return assembleOrderedPlan(G, std::move(OrderedGroups),
                             std::move(OrderedSeeds));
}

} // namespace

FusionPlan dnnfusion::planFusion(const Graph &G, LatencyOracle *Oracle,
                                 const PlannerOptions &Options,
                                 PlannerStats *StatsOut) {
  Ecg E(G);
  CostModelOracle Fallback;
  PlannerStats LocalStats;
  PlannerStats &Stats = StatsOut ? *StatsOut : LocalStats;
  Planner P(G, E, Oracle ? *Oracle : Fallback, Options, Stats);

  std::vector<std::vector<NodeId>> Groups;
  std::vector<NodeId> Seeds;

  // Listing 1 main loop: seed, grow through predecessors and successors.
  for (bool AllowBroadcastSeeds : {false, true}) {
    P.beginSeedRound(AllowBroadcastSeeds);
    for (NodeId Seed = P.pickSeed(); Seed != InvalidNodeId;
         Seed = P.pickSeed()) {
      int Block = static_cast<int>(Groups.size());
      std::vector<NodeId> Members = {Seed};
      P.assign(Seed, Block);
      MappingType Type = E.mappingType(Seed);
      ++Stats.SeedsUsed;
      // Listing 1 presents successors first but notes Steps II and III
      // "can be swapped"; predecessor-first keeps a seed from absorbing the
      // *next* Many-to-Many operator downstream and thereby stranding its
      // own producer (the Figure 3 GEMM situation), which measurably
      // improves fusion rates on transformer attention.
      for (NodeId Pred : G.node(Seed).Inputs)
        P.fusePredecessor(Block, Members, Type, Pred);
      for (NodeId Succ : P.Consumers[static_cast<size_t>(Seed)])
        P.fuseSuccessor(Block, Members, Type, Succ);
      Groups.push_back(std::move(Members));
      Seeds.push_back(Seed);
    }
  }

  // Remaining operators (no One-to-One seed reached them) run unfused.
  for (int Id = 0; Id < G.numNodes(); ++Id)
    if (P.isOperator(Id) && P.Assigned[static_cast<size_t>(Id)] < 0) {
      P.Assigned[static_cast<size_t>(Id)] = static_cast<int>(Groups.size());
      Groups.push_back({Id});
      Seeds.push_back(InvalidNodeId);
    }

  return finalizePlan(G, std::move(Groups), std::move(Seeds));
}

FusionPlan dnnfusion::planNoFusion(const Graph &G) {
  std::vector<std::vector<NodeId>> Groups;
  for (int Id = 0; Id < G.numNodes(); ++Id) {
    const Node &N = G.node(Id);
    if (!N.Dead && N.Kind != OpKind::Input && N.Kind != OpKind::Constant)
      Groups.push_back({Id});
  }
  return finalizePlan(G, std::move(Groups), {});
}

FusionPlan dnnfusion::planFromGroups(
    const Graph &G, const std::vector<std::vector<NodeId>> &Groups) {
  return finalizePlan(G, Groups, {});
}

FusionPlan dnnfusion::planFromOrderedGroups(
    const Graph &G, std::vector<std::vector<NodeId>> Groups,
    std::vector<NodeId> Seeds) {
  // Range-check before assembly indexes per-node tables; everything
  // semantic (liveness, partition, block order) is caught by the
  // verify() inside assembleOrderedPlan. All diagnostics are DNNF_CHECKs,
  // so a caller decoding an untrusted plan runs this under a
  // ScopedFatalErrorTrap.
  DNNF_CHECK(Seeds.empty() || Seeds.size() == Groups.size(),
             "seed list covers %zu of %zu groups", Seeds.size(),
             Groups.size());
  for (const std::vector<NodeId> &Group : Groups)
    for (NodeId Id : Group)
      DNNF_CHECK(Id >= 0 && Id < G.numNodes(),
                 "plan group references node %d outside the graph", Id);
  for (NodeId Seed : Seeds)
    DNNF_CHECK(Seed >= InvalidNodeId && Seed < G.numNodes(),
               "plan seed %d outside the graph", Seed);
  return assembleOrderedPlan(G, std::move(Groups), std::move(Seeds));
}
