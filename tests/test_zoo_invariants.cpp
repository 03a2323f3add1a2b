//===- tests/test_zoo_invariants.cpp - whole-zoo compiler invariants ----------------===//
//
// Structural invariants the compiler must uphold on every real model, not
// just unit-test graphs: verified plans, the one-Many-to-Many-per-block
// property, Table 3 conformance of every adjacent fused pair, compiled
// block/slot consistency, memory-plan sanity, and deterministic
// compilation.
//
//===----------------------------------------------------------------------===//

#include "TestUtils.h"
#include "core/Ecg.h"
#include "core/FusionAnalysis.h"
#include "core/TransformerPatterns.h"
#include "models/ModelZoo.h"
#include "runtime/ExecutionContext.h"
#include "serialize/ModelSerializer.h"

#include <gtest/gtest.h>

#include <string>

using namespace dnnfusion;

namespace {

class ZooInvariants : public ::testing::TestWithParam<int> {
protected:
  const ModelZooEntry &entry() const {
    return modelZoo()[static_cast<size_t>(GetParam())];
  }
};

TEST_P(ZooInvariants, CompiledModelUpholdsPlannerInvariants) {
  CompiledModel M = cantFail(compileModel(entry().Build(), CompileOptions()));
  M.Plan.verify(M.G);
  EXPECT_LT(M.Plan.fusedLayerCount(), M.G.countLayers()) << entry().Info.Name;

  Ecg E(M.G);
  std::vector<std::vector<NodeId>> Consumers = M.G.computeConsumers();
  UseCount Uses = [&](NodeId Id) {
    return static_cast<int>(Consumers[static_cast<size_t>(Id)].size());
  };
  for (const FusionBlock &B : M.Plan.Blocks) {
    // Carved transformer blocks deliberately break the mapping-type rules:
    // they hold the whole matched subgraph (two MatMuls plus softmax, or a
    // nine-node layernorm) and compile to one fused step instead.
    if (matchAttentionBlock(M.G, Uses, B.Members) ||
        matchLayerNormBlock(M.G, Uses, B.Members))
      continue;
    // At most one Many-to-Many operator per block (red Table 3 cells).
    int Heavy = 0;
    for (NodeId Id : B.Members)
      Heavy += E.mappingType(Id) == MappingType::ManyToMany;
    EXPECT_LE(Heavy, 1);
    // Every adjacent producer/consumer pair inside a block must be a
    // non-red combination under Table 3.
    for (NodeId Id : B.Members)
      for (NodeId In : M.G.node(Id).Inputs)
        if (B.contains(In)) {
          EXPECT_NE(fusionVerdict(E.mappingType(In), E.mappingType(Id)),
                    FusionVerdict::FuseBreak)
              << entry().Info.Name << " node " << Id;
        }
  }
}

TEST_P(ZooInvariants, TransformerModelsCompileToFusedAttentionBlocks) {
  const std::string Name = entry().Info.Name;
  bool IsTransformer = Name.find("BERT") != std::string::npos ||
                       Name.find("GPT") != std::string::npos;
  CompiledModel M = cantFail(compileModel(entry().Build(), CompileOptions()));
  int Attention = 0, Norm = 0;
  for (const CompiledBlock &B : M.Blocks)
    for (const CompiledStep &S : B.Steps) {
      Attention += S.K == CompiledStep::Kind::FusedAttention;
      Norm += S.K == CompiledStep::Kind::FusedLayerNorm;
    }
  if (IsTransformer) {
    // Every transformer in the zoo decomposes attention the same way; all
    // of it must reach the single-pass kernels.
    EXPECT_GT(Attention, 0) << Name;
    EXPECT_GT(Norm, 0) << Name;
  } else {
    EXPECT_EQ(Attention, 0) << Name;
  }

  // The carving must be inert when the toggles are off: same graphs, only
  // generic blocks.
  CompileOptions Plain;
  Plain.Codegen.FuseAttention = false;
  Plain.Codegen.FuseNorm = false;
  CompiledModel U = cantFail(compileModel(entry().Build(), Plain));
  for (const CompiledBlock &B : U.Blocks)
    for (const CompiledStep &S : B.Steps)
      EXPECT_TRUE(S.K == CompiledStep::Kind::RefKernel ||
                  S.K == CompiledStep::Kind::Expression)
          << Name;
}

TEST_P(ZooInvariants, DifferentialMatrixHoldsWithFusedKernels) {
  // Zoo-wide enforcement of the fused configurations: every matrix config
  // (fused attention/layernorm on, each dimension toggled off, the
  // bit-identity pairings) must reproduce the unoptimized reference at
  // its own tolerance on the real models, not just on fuzzed graphs. The
  // transformer family is where the fused kernels actually fire; the rest
  // of the zoo pins the carving as a no-op.
  testutil::expectMatchesReferenceUnderMatrix(entry().Build(),
                                              4000 + GetParam());
}

TEST_P(ZooInvariants, CompiledBlocksHaveConsistentSlots) {
  CompiledModel M = cantFail(compileModel(entry().Build(), CompileOptions()));
  for (size_t BI = 0; BI < M.Blocks.size(); ++BI) {
    const CompiledBlock &CB = M.Blocks[BI];
    int NumSlots = CB.numSlots();
    ASSERT_EQ(CB.ExternalInputs.size(),
              M.Plan.Blocks[BI].ExternalInputs.size());
    for (const CompiledStep &S : CB.Steps) {
      ASSERT_GE(S.OutputSlot, static_cast<int>(CB.ExternalInputs.size()));
      ASSERT_LT(S.OutputSlot, NumSlots);
      for (int Slot : S.InputSlots)
        ASSERT_LT(Slot, NumSlots);
      for (const DftNode &N : S.Tree.Nodes)
        if (N.K == DftNode::Kind::Leaf) {
          ASSERT_GE(N.BufferSlot, 0);
          ASSERT_LT(N.BufferSlot, NumSlots);
        }
    }
    // Every block output has exactly one local buffer flagged for it.
    for (NodeId Out : M.Plan.Blocks[BI].Outputs) {
      int Found = 0;
      for (const CompiledBlock::LocalBuffer &L : CB.Locals)
        Found += L.IsBlockOutput && L.Node == Out;
      EXPECT_EQ(Found, 1) << entry().Info.Name << " block " << BI;
    }
  }
}

TEST_P(ZooInvariants, MemoryPlanCoversEveryBlockOutput) {
  CompiledModel M = cantFail(compileModel(entry().Build(), CompileOptions()));
  for (const FusionBlock &B : M.Plan.Blocks)
    for (NodeId Out : B.Outputs)
      EXPECT_GE(M.Memory.ArenaOffsetOfNode[static_cast<size_t>(Out)], 0);
  EXPECT_GT(M.Memory.ArenaBytes, 0);
  EXPECT_GT(M.Memory.WeightBytes, 0);
}

TEST_P(ZooInvariants, RewritingNeverIncreasesFlops) {
  Graph G = entry().Build();
  RewriteStats Stats = rewriteGraph(G);
  EXPECT_LE(Stats.FlopsAfter, Stats.FlopsBefore) << entry().Info.Name;
  EXPECT_LE(Stats.LayersAfter, Stats.LayersBefore) << entry().Info.Name;
  G.verify();
}

// The compilation cache keys an artifact by (graph, options, format
// version), which stands for the artifact only if compiling is a pure
// function of those inputs.
TEST_P(ZooInvariants, TwoColdCompilesWriteTheSameArtifact) {
  CompiledModel First = cantFail(compileModel(entry().Build()));
  CompiledModel Second = cantFail(compileModel(entry().Build()));
  EXPECT_TRUE(serializeCompiledModel(First) == serializeCompiledModel(Second))
      << entry().Info.Name;
}

INSTANTIATE_TEST_SUITE_P(
    All, ZooInvariants, ::testing::Range(0, 15),
    [](const ::testing::TestParamInfo<int> &Info) {
      std::string Name =
          modelZoo()[static_cast<size_t>(Info.param)].Info.Name;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

} // namespace
