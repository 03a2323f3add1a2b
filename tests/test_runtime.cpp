//===- tests/test_runtime.cpp - executor, memory planner, cache sim, devices ------===//

#include "TestUtils.h"

#include "graph/GraphBuilder.h"
#include "runtime/CacheSim.h"
#include "runtime/DeviceModel.h"
#include "runtime/ExecutionContext.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace dnnfusion;
using namespace dnnfusion::testutil;

namespace {

Graph smallCnn(uint64_t Seed) {
  GraphBuilder B(Seed);
  NodeId X = B.input(Shape({1, 3, 16, 16}));
  NodeId H = B.relu(B.batchNorm(B.conv(X, 8, {3, 3}, {1, 1}, {1, 1})));
  H = B.maxPool(H, {2, 2}, {2, 2});
  H = B.relu(B.conv(H, 8, {3, 3}, {1, 1}, {1, 1}));
  B.markOutput(B.softmax(B.op(OpKind::Flatten, {H},
                              AttrMap().set("axis", int64_t(1))),
                         -1));
  return B.take();
}

TEST(ExecutionContext, StatsAreConsistentWithThePlan) {
  Graph G = smallCnn(1);
  CompiledModel M = cantFail(compileModel(smallCnn(1), CompileOptions()));
  ExecutionContext E(M);
  std::vector<Tensor> Inputs = randomInputs(M.G, 3);
  ExecutionStats Stats;
  E.run(Inputs, &Stats);
  EXPECT_EQ(Stats.KernelLaunches, M.kernelLaunches());
  EXPECT_EQ(Stats.Flops, M.totalFlops());
  EXPECT_GT(Stats.MainBytesRead, 0);
  EXPECT_GT(Stats.MainBytesWritten, 0);
  EXPECT_EQ(Stats.PeakArenaBytes, M.Memory.ArenaBytes);
  EXPECT_GT(Stats.WallMs, 0.0);
}

TEST(ExecutionContext, RepeatedRunsAreDeterministic) {
  CompiledModel M = cantFail(compileModel(smallCnn(2), CompileOptions()));
  ExecutionContext E(M);
  std::vector<Tensor> Inputs = randomInputs(M.G, 5);
  std::vector<Tensor> A = E.run(Inputs);
  std::vector<Tensor> B = E.run(Inputs);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(maxAbsDiff(A[I], B[I]), 0.0f);
}

TEST(ExecutionContext, FusionReducesLaunchesTrafficAndFootprint) {
  CompileOptions Fused, Unfused;
  Unfused.EnableGraphRewriting = false;
  Unfused.EnableFusion = false;
  Unfused.EnableOtherOpts = false;
  CompiledModel MF = cantFail(compileModel(smallCnn(3), Fused));
  CompiledModel MU = cantFail(compileModel(smallCnn(3), Unfused));
  std::vector<Tensor> Inputs = randomInputs(MU.G, 7);
  ExecutionStats SF, SU;
  ExecutionContext(MF).run(Inputs, &SF);
  ExecutionContext(MU).run(Inputs, &SU);
  EXPECT_LT(SF.KernelLaunches, SU.KernelLaunches);
  EXPECT_LT(SF.MainBytesRead + SF.MainBytesWritten,
            SU.MainBytesRead + SU.MainBytesWritten);
  EXPECT_LE(SF.PeakArenaBytes, SU.PeakArenaBytes);
}

TEST(ExecutionContextDeath, WrongInputShapeAborts) {
  CompiledModel M = cantFail(compileModel(smallCnn(4), CompileOptions()));
  ExecutionContext E(M);
  std::vector<Tensor> Bad = {Tensor::zeros(Shape({1, 3, 8, 8}))};
  EXPECT_DEATH(E.run(Bad), "does not match");
}

TEST(MemoryPlanner, LiveBuffersNeverOverlap) {
  CompiledModel M = cantFail(compileModel(smallCnn(5), CompileOptions()));
  const MemoryPlan &Mem = M.Memory;
  // Recompute lifetimes and assert allocated intervals are disjoint when
  // their lifetimes intersect.
  struct Interval {
    int64_t Offset, Bytes;
    int Born, Dies;
  };
  std::vector<Interval> Buffers;
  std::vector<int> LastUse(static_cast<size_t>(M.G.numNodes()), -1);
  for (size_t BI = 0; BI < M.Plan.Blocks.size(); ++BI)
    for (NodeId Id : M.Plan.Blocks[BI].Members)
      for (NodeId In : M.G.node(Id).Inputs)
        LastUse[static_cast<size_t>(In)] =
            std::max(LastUse[static_cast<size_t>(In)], static_cast<int>(BI));
  for (NodeId Out : M.G.outputs())
    LastUse[static_cast<size_t>(Out)] =
        static_cast<int>(M.Plan.Blocks.size());
  for (size_t BI = 0; BI < M.Plan.Blocks.size(); ++BI)
    for (NodeId Out : M.Plan.Blocks[BI].Outputs)
      Buffers.push_back(
          Interval{Mem.ArenaOffsetOfNode[static_cast<size_t>(Out)],
                   M.G.node(Out).outBytes(), static_cast<int>(BI),
                   LastUse[static_cast<size_t>(Out)]});
  for (size_t I = 0; I < Buffers.size(); ++I)
    for (size_t J = I + 1; J < Buffers.size(); ++J) {
      const Interval &A = Buffers[I], &B = Buffers[J];
      bool LifetimesOverlap = A.Born <= B.Dies && B.Born <= A.Dies;
      bool SpaceOverlaps = A.Offset < B.Offset + B.Bytes &&
                           B.Offset < A.Offset + A.Bytes;
      if (LifetimesOverlap) {
        EXPECT_FALSE(SpaceOverlaps) << "buffers " << I << " and " << J;
      }
    }
  EXPECT_GT(Mem.ArenaBytes, 0);
}

TEST(MemoryPlanner, ArenaReusesDeadBuffers) {
  // A long chain must reuse space: the arena stays far below the sum of
  // all intermediate sizes.
  GraphBuilder B(6);
  NodeId H = B.input(Shape({1 << 12}));
  for (int I = 0; I < 20; ++I)
    H = B.unary(I % 2 ? OpKind::Sigmoid : OpKind::Relu, H);
  B.markOutput(H);
  CompileOptions Unfused;
  Unfused.EnableFusion = false;
  Unfused.EnableGraphRewriting = false;
  CompiledModel M = cantFail(compileModel(B.take(), Unfused));
  int64_t Sum = 20 * (1 << 12) * 4;
  EXPECT_LE(M.Memory.ArenaBytes, Sum / 5);
}

TEST(CacheSim, SmallWorkingSetHitsAfterWarmup) {
  CacheSim C({{"L1", 1024, 4, 64}});
  C.access(0, 512); // 8 lines, all cold.
  EXPECT_EQ(C.misses(0), 8);
  C.access(0, 512); // Warm now.
  EXPECT_EQ(C.misses(0), 8);
  EXPECT_EQ(C.accesses(0), 16);
}

TEST(CacheSim, CapacityEvictionAndHierarchy) {
  CacheSim C({{"L1", 1024, 4, 64}, {"L2", 65536, 8, 64}});
  C.access(0, 4096);  // 64 lines: exceeds L1 (16 lines), fits L2.
  C.access(0, 4096);  // L1 thrashes, L2 serves.
  EXPECT_GT(C.misses(0), 64);
  EXPECT_EQ(C.misses(1), 64); // Only the cold pass misses L2.
}

TEST(CacheSim, LruKeepsMostRecent) {
  // 1 set x 2 ways of 64B lines: A, B, A, C, A -> A survives.
  CacheSim C({{"L1", 128, 2, 64}});
  C.access(0, 1);        // A miss.
  C.access(1024, 1);     // B miss.
  C.access(0, 1);        // A hit.
  C.access(2048, 1);     // C miss, evicts B (LRU).
  C.access(0, 1);        // A hit.
  EXPECT_EQ(C.misses(0), 3);
}

TEST(CacheSim, FusionReducesSimulatedMisses) {
  CompileOptions Fused, Unfused;
  Unfused.EnableGraphRewriting = false;
  Unfused.EnableFusion = false;
  Unfused.EnableOtherOpts = false;
  CompiledModel MF = cantFail(compileModel(smallCnn(7), Fused));
  CompiledModel MU = cantFail(compileModel(smallCnn(7), Unfused));
  CacheSim CF(mobileCpuCacheConfig()), CU(mobileCpuCacheConfig());
  simulateModelTraffic(MF, CF);
  simulateModelTraffic(MU, CU);
  for (int L = 0; L < CF.numLevels(); ++L)
    EXPECT_LE(CF.misses(L), CU.misses(L)) << "level " << L;
  EXPECT_LT(CF.misses(0), CU.misses(0));
}

TEST(DeviceModel, FusionImprovesModeledLatencyAndUtilization) {
  CompileOptions Fused, Unfused;
  Unfused.EnableGraphRewriting = false;
  Unfused.EnableFusion = false;
  Unfused.EnableOtherOpts = false;
  CompiledModel MF = cantFail(compileModel(smallCnn(8), Fused));
  CompiledModel MU = cantFail(compileModel(smallCnn(8), Unfused));
  for (const DeviceProfile &D : allDeviceProfiles()) {
    EXPECT_LT(modelLatencyMs(MF, D), modelLatencyMs(MU, D)) << D.Name;
    EXPECT_GE(modelUtilizationPercent(MF, D),
              modelUtilizationPercent(MU, D))
        << D.Name;
    EXPECT_LE(modelUtilizationPercent(MF, D), 100.0);
  }
}

TEST(DeviceModel, OlderDevicesAreSlower) {
  CompiledModel M = cantFail(compileModel(smallCnn(9), CompileOptions()));
  EXPECT_LT(modelLatencyMs(M, snapdragon865Cpu()),
            modelLatencyMs(M, snapdragon855Cpu()));
  EXPECT_LT(modelLatencyMs(M, snapdragon855Cpu()),
            modelLatencyMs(M, kirin980Cpu()));
}

TEST(ModelCompiler, MovementBlockMergingFoldsBoundaryTranspose) {
  // MatMul -> Transpose -> MatMul: the transpose block merges into the
  // producer (inter-block data-format optimization).
  GraphBuilder B(10);
  NodeId X = B.input(Shape({8, 8}));
  NodeId M1 = B.op(OpKind::MatMul, {X, B.weight(Shape({8, 8}))});
  NodeId T = B.transpose(M1, {1, 0});
  NodeId M2 = B.op(OpKind::MatMul, {T, B.weight(Shape({8, 8}))});
  B.markOutput(M2);
  Graph G = B.take();
  FusionPlan Plan = planNoFusion(G);
  int64_t Before = Plan.fusedLayerCount();
  int Merges = mergeMovementBlocks(G, Plan);
  EXPECT_GE(Merges, 1);
  EXPECT_LT(Plan.fusedLayerCount(), Before);
  Plan.verify(G);
}

TEST(ModelCompiler, OptionTogglesChangeThePlan) {
  Graph G1 = smallCnn(11);
  CompileOptions Full, NoFuse, NoRewrite;
  NoFuse.EnableFusion = false;
  NoRewrite.EnableGraphRewriting = false;
  CompiledModel A = cantFail(compileModel(smallCnn(11), Full));
  CompiledModel B = cantFail(compileModel(smallCnn(11), NoFuse));
  CompiledModel C = cantFail(compileModel(smallCnn(11), NoRewrite));
  EXPECT_LT(A.kernelLaunches(), B.kernelLaunches());
  // Rewriting folds Conv+BatchNorm, shrinking the layer count.
  EXPECT_LT(A.G.countLayers(), C.G.countLayers());
}

/// Live non-input nodes of \p G that no output reaches.
std::vector<NodeId> unreachableNodes(const Graph &G) {
  std::vector<bool> Reached(static_cast<size_t>(G.numNodes()), false);
  std::vector<NodeId> Stack = G.outputs();
  while (!Stack.empty()) {
    NodeId Id = Stack.back();
    Stack.pop_back();
    if (Reached[static_cast<size_t>(Id)])
      continue;
    Reached[static_cast<size_t>(Id)] = true;
    for (NodeId In : G.node(Id).Inputs)
      Stack.push_back(In);
  }
  std::vector<NodeId> Out;
  for (NodeId Id = 0; Id < G.numNodes(); ++Id)
    if (!G.node(Id).Dead && !Reached[static_cast<size_t>(Id)] &&
        G.node(Id).Kind != OpKind::Input)
      Out.push_back(Id);
  return Out;
}

/// Compiles \p G, which holds unreachable chains, under \p Options: no
/// plan block may hold an unreachable node, and the outputs must match
/// the per-op reference walk of \p G as given.
void expectUnreachableNodesDropped(const Graph &G,
                                   const CompileOptions &Options) {
  std::vector<NodeId> Unreachable = unreachableNodes(G);
  ASSERT_FALSE(Unreachable.empty());
  CompiledModel M = cantFail(compileModel(G, Options));
  for (const FusionBlock &B : M.Plan.Blocks)
    for (NodeId Id : B.Members)
      EXPECT_EQ(std::count(Unreachable.begin(), Unreachable.end(), Id), 0)
          << "a plan block holds unreachable node " << Id;
  for (NodeId Id : Unreachable)
    EXPECT_TRUE(M.G.node(Id).Dead) << "node " << Id;

  std::vector<Tensor> Inputs = randomInputs(G, 5);
  std::vector<Tensor> Values = runPerOpWalker(G, Inputs);
  std::vector<Tensor> Want;
  for (NodeId Out : G.outputs())
    Want.push_back(Values[static_cast<size_t>(Out)]);
  ExecutionContext E(M);
  std::optional<std::string> Diff = compareOutputs(Want, E.run(Inputs));
  EXPECT_FALSE(Diff.has_value()) << *Diff;
}

TEST(ModelCompiler, UnreachableNodesAreDroppedWithRewritingOff) {
  // smallCnn plus a conv branch and a sigmoid no output reaches.
  GraphBuilder B(12);
  NodeId X = B.input(Shape({1, 3, 16, 16}));
  NodeId H = B.relu(B.batchNorm(B.conv(X, 8, {3, 3}, {1, 1}, {1, 1})));
  B.relu(B.conv(X, 4, {3, 3}, {1, 1}, {1, 1}));
  B.sigmoid(H);
  B.markOutput(B.maxPool(H, {2, 2}, {2, 2}));
  CompileOptions NoRewrite;
  NoRewrite.EnableGraphRewriting = false;
  expectUnreachableNodesDropped(B.take(), NoRewrite);
}

TEST(ModelCompiler, UnreachableNodesAreDroppedWhenNoRuleApplies) {
  GraphBuilder B(13);
  NodeId X = B.input(Shape({4, 16}));
  NodeId H = B.relu(B.op(OpKind::MatMul, {X, B.weight(Shape({16, 8}))}));
  B.tanhOp(B.sigmoid(X));
  B.op(OpKind::MatMul, {H, B.weight(Shape({8, 4}))});
  B.markOutput(H);
  Graph G = B.take();
  ASSERT_EQ(cantFail(compileModel(G)).RewriteInfo.Applications, 0)
      << "a rewrite rule applies, so this no longer tests the no-rule path";
  expectUnreachableNodesDropped(G, CompileOptions());
}

} // namespace
