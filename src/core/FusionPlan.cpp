//===- core/FusionPlan.cpp - Fusion blocks and plans ---------------------------===//

#include "core/FusionPlan.h"

#include "core/Ecg.h"
#include "ops/OpSchema.h"
#include "support/Error.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <set>

using namespace dnnfusion;

bool FusionBlock::contains(NodeId Id) const {
  return std::find(Members.begin(), Members.end(), Id) != Members.end();
}

int64_t FusionPlan::intermediateBytesAfterFusion(const Graph &G) const {
  std::vector<std::vector<NodeId>> Consumers = G.computeConsumers();
  int64_t Bytes = 0;
  for (const FusionBlock &B : Blocks)
    for (NodeId Out : B.Outputs) {
      // Count outputs that feed another block (true intermediates).
      bool FeedsOtherBlock = false;
      for (NodeId User : Consumers[static_cast<size_t>(Out)])
        if (BlockOfNode[static_cast<size_t>(User)] >= 0 &&
            &Blocks[static_cast<size_t>(
                BlockOfNode[static_cast<size_t>(User)])] != &B)
          FeedsOtherBlock = true;
      if (FeedsOtherBlock)
        Bytes += G.node(Out).outBytes();
    }
  return Bytes;
}

std::string FusionPlan::toString(const Graph &G) const {
  std::string Out;
  for (size_t I = 0; I < Blocks.size(); ++I) {
    const FusionBlock &B = Blocks[I];
    Out += formatString("block %zu [%s, seed=%d]:", I,
                        mappingTypeName(B.FusedType), B.Seed);
    for (NodeId Id : B.Members)
      Out += formatString(" %s%%%d", opKindName(G.node(Id).Kind), Id);
    Out += '\n';
  }
  return Out;
}

void FusionPlan::verify(const Graph &G) const {
  std::vector<int> Seen(static_cast<size_t>(G.numNodes()), -1);
  for (size_t BI = 0; BI < Blocks.size(); ++BI) {
    DNNF_CHECK(!Blocks[BI].Members.empty(), "empty fusion block %zu", BI);
    for (NodeId Id : Blocks[BI].Members) {
      const Node &N = G.node(Id);
      DNNF_CHECK(!N.Dead && N.Kind != OpKind::Input &&
                     N.Kind != OpKind::Constant,
                 "block %zu contains non-operator node %d", BI, Id);
      DNNF_CHECK(Seen[static_cast<size_t>(Id)] < 0,
                 "node %d assigned to two blocks", Id);
      Seen[static_cast<size_t>(Id)] = static_cast<int>(BI);
    }
  }
  for (int Id = 0; Id < G.numNodes(); ++Id) {
    const Node &N = G.node(Id);
    if (N.Dead || N.Kind == OpKind::Input || N.Kind == OpKind::Constant)
      continue;
    DNNF_CHECK(Seen[static_cast<size_t>(Id)] >= 0,
               "operator node %d not covered by any block", Id);
    DNNF_CHECK(Seen[static_cast<size_t>(Id)] ==
                   BlockOfNode[static_cast<size_t>(Id)],
               "BlockOfNode inconsistent for node %d", Id);
  }
  // Execution order: every external producer of block i must live in an
  // earlier block (or be an Input/Constant).
  for (size_t BI = 0; BI < Blocks.size(); ++BI)
    for (NodeId Id : Blocks[BI].Members)
      for (NodeId In : G.node(Id).Inputs) {
        int ProducerBlock = Seen[static_cast<size_t>(In)];
        if (ProducerBlock < 0)
          continue; // Input/Constant.
        DNNF_CHECK(static_cast<size_t>(ProducerBlock) <= BI,
                   "block order violates dependency: block %zu needs node %d "
                   "from block %d",
                   BI, In, ProducerBlock);
        if (static_cast<size_t>(ProducerBlock) == BI)
          continue;
      }
}

int64_t BlockSchedule::maxWidth() const {
  size_t Width = 0;
  for (const std::vector<int> &Level : Levels)
    Width = std::max(Width, Level.size());
  return static_cast<int64_t>(Width);
}

void BlockSchedule::verify(const FusionPlan &Plan) const {
  size_t NumBlocks = Plan.Blocks.size();
  DNNF_CHECK(PredecessorCount.size() == NumBlocks &&
                 Successors.size() == NumBlocks &&
                 LevelOfBlock.size() == NumBlocks,
             "schedule arrays do not cover all %zu blocks", NumBlocks);
  std::vector<int> SeenAtLevel(NumBlocks, -1);
  for (size_t L = 0; L < Levels.size(); ++L) {
    DNNF_CHECK(!Levels[L].empty(), "empty level %zu", L);
    for (int BI : Levels[L]) {
      DNNF_CHECK(BI >= 0 && static_cast<size_t>(BI) < NumBlocks,
                 "level %zu references block %d out of range", L, BI);
      DNNF_CHECK(SeenAtLevel[static_cast<size_t>(BI)] < 0,
                 "block %d assigned to two levels", BI);
      SeenAtLevel[static_cast<size_t>(BI)] = static_cast<int>(L);
      DNNF_CHECK(LevelOfBlock[static_cast<size_t>(BI)] ==
                     static_cast<int>(L),
                 "LevelOfBlock inconsistent for block %d", BI);
    }
  }
  int64_t Edges = 0;
  for (size_t BI = 0; BI < NumBlocks; ++BI) {
    DNNF_CHECK(SeenAtLevel[BI] >= 0, "block %zu not assigned a level", BI);
    for (int Succ : Successors[BI]) {
      DNNF_CHECK(LevelOfBlock[static_cast<size_t>(Succ)] >
                     LevelOfBlock[BI],
                 "edge %zu -> %d does not increase the level", BI, Succ);
      ++Edges;
    }
  }
  int64_t Preds = 0;
  for (int C : PredecessorCount)
    Preds += C;
  DNNF_CHECK(Preds == Edges, "predecessor counts (%lld) != edges (%lld)",
             static_cast<long long>(Preds), static_cast<long long>(Edges));
}

BlockSchedule dnnfusion::computeBlockSchedule(const Graph &G,
                                              const FusionPlan &Plan) {
  size_t NumBlocks = Plan.Blocks.size();
  BlockSchedule S;
  S.PredecessorCount.assign(NumBlocks, 0);
  S.Successors.resize(NumBlocks);
  S.LevelOfBlock.assign(NumBlocks, 0);

  // One forward sweep: distinct predecessor blocks (via the plan's
  // node->block map) and longest-path levels. Plan order is topological
  // (verify() checks), so every predecessor's level is already settled;
  // successors come out ascending because BI grows monotonically.
  int MaxLevel = -1;
  for (size_t BI = 0; BI < NumBlocks; ++BI) {
    std::set<int> Preds;
    for (NodeId Id : Plan.Blocks[BI].Members)
      for (NodeId In : G.node(Id).Inputs) {
        int PB = Plan.BlockOfNode[static_cast<size_t>(In)];
        if (PB >= 0 && PB != static_cast<int>(BI))
          Preds.insert(PB);
      }
    S.PredecessorCount[BI] = static_cast<int>(Preds.size());
    int Level = 0;
    for (int PB : Preds) {
      S.Successors[static_cast<size_t>(PB)].push_back(static_cast<int>(BI));
      Level = std::max(Level, S.LevelOfBlock[static_cast<size_t>(PB)] + 1);
    }
    S.LevelOfBlock[BI] = Level;
    MaxLevel = std::max(MaxLevel, Level);
  }
  S.Levels.resize(static_cast<size_t>(MaxLevel + 1));
  for (size_t BI = 0; BI < NumBlocks; ++BI)
    S.Levels[static_cast<size_t>(S.LevelOfBlock[BI])].push_back(
        static_cast<int>(BI));
  return S;
}

LatencyOracle::~LatencyOracle() = default;

namespace {

/// CostModelOracle's fixed machine: per-block launch overhead, compute and
/// external-traffic rates, and the strided-access penalty.
constexpr double CostLaunchOverheadMs = 0.005;
constexpr double CostGFlops = 20.0;
constexpr double CostGBytesPerSec = 12.0;
constexpr double CostGatherPenalty = 0.08;

} // namespace

double CostModelOracle::blockLatencyMs(const Graph &G,
                                       const std::vector<NodeId> &Members) {
  std::set<NodeId> InBlock(Members.begin(), Members.end());
  if (ConsumersFor != &G) {
    Consumers = G.computeConsumers();
    ConsumersFor = &G;
  }

  int64_t Flops = 0;
  int64_t ExternalBytes = 0;
  bool HasManyToMany = false, HasGatherish = false;
  std::set<NodeId> CountedInputs;
  for (NodeId Id : Members) {
    const Node &N = G.node(Id);
    Flops += flopCount(N.Kind, N.Attrs, G.inputShapes(Id), N.OutShape);
    MappingType MT = mappingType(N.Kind, N.Attrs, G.inputShapes(Id));
    HasManyToMany |= MT == MappingType::ManyToMany;
    HasGatherish |=
        MT == MappingType::Shuffle || MT == MappingType::OneToMany;
    for (NodeId In : N.Inputs)
      if (!InBlock.count(In) && CountedInputs.insert(In).second)
        ExternalBytes += G.node(In).outBytes();
    bool Escapes = false;
    for (NodeId User : Consumers[static_cast<size_t>(Id)])
      Escapes |= !InBlock.count(User);
    const std::vector<NodeId> &Outs = G.outputs();
    Escapes |= std::find(Outs.begin(), Outs.end(), Id) != Outs.end();
    if (Escapes)
      ExternalBytes += N.outBytes();
  }

  double FlopsMs = static_cast<double>(Flops) / (CostGFlops * 1e6);
  if (HasManyToMany && HasGatherish)
    FlopsMs *= 1.0 + CostGatherPenalty;
  double BytesMs =
      static_cast<double>(ExternalBytes) / (CostGBytesPerSec * 1e6);
  return CostLaunchOverheadMs + FlopsMs + BytesMs;
}
