//===- tests/test_session.cpp - contexts and multi-client serving --------===//
//
// BlockSchedule invariants, ExecutionContext reuse and per-block stats,
// and InferenceSession multi-client serving (concurrent clients, runBatch,
// the context cap).
//
//===----------------------------------------------------------------------===//

#include "TestUtils.h"

#include "models/ModelZoo.h"

#include <dnnfusion/dnnfusion.h>

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace dnnfusion;
using namespace dnnfusion::testutil;

namespace {

/// A diamond with two independent branches: guarantees a level of width 2.
Graph diamondGraph(uint64_t Seed) {
  GraphBuilder B(Seed);
  NodeId X = B.input(Shape({1, 4, 8, 8}));
  NodeId L = B.relu(B.conv(X, 4, {3, 3}, {1, 1}, {1, 1}));
  NodeId R = B.sigmoid(B.conv(X, 4, {3, 3}, {1, 1}, {1, 1}));
  B.markOutput(B.binary(OpKind::Add, L, R));
  return B.take();
}

//===----------------------------------------------------------------------===//
// BlockSchedule
//===----------------------------------------------------------------------===//

TEST(BlockSchedule, LevelsPartitionBlocksAndEdgesIncreaseLevels) {
  for (uint64_t Seed : {1ull, 2ull, 3ull}) {
    FuzzSpec Spec = generateSpec(Seed);
    CompiledModel M = cantFail(compileModel(buildGraph(Spec), CompileOptions()));
    BlockSchedule S = computeBlockSchedule(M.G, M.Plan);
    S.verify(M.Plan);
    EXPECT_GE(S.numLevels(), 1);
    EXPECT_LE(S.numLevels(), static_cast<int64_t>(M.Plan.Blocks.size()));
  }
}

TEST(BlockSchedule, ChainHasOneBlockPerLevel) {
  GraphBuilder B(1);
  NodeId H = B.input(Shape({1, 64}));
  for (int I = 0; I < 4; ++I)
    H = B.unary(OpKind::Relu, B.op(OpKind::MatMul, {H, B.weight(Shape({64, 64}))}));
  B.markOutput(H);
  CompiledModel M = cantFail(compileModel(B.take(), CompileOptions()));
  BlockSchedule S = computeBlockSchedule(M.G, M.Plan);
  // A pure chain admits no inter-block parallelism.
  EXPECT_EQ(S.maxWidth(), 1);
  EXPECT_EQ(S.numLevels(), static_cast<int64_t>(M.Plan.Blocks.size()));
  for (size_t BI = 0; BI + 1 < M.Plan.Blocks.size(); ++BI)
    EXPECT_EQ(S.Successors[BI].size(), 1u);
}

TEST(BlockSchedule, IndependentBranchesShareALevel) {
  // Two branches that never rejoin: each holds a Many-to-Many operator,
  // so the planner cannot merge them into one block (Table 3), and both
  // depend only on the graph input — a guaranteed level of width >= 2.
  GraphBuilder B(2);
  NodeId X = B.input(Shape({1, 4, 8, 8}));
  B.markOutput(B.relu(B.conv(X, 4, {3, 3}, {1, 1}, {1, 1})));
  B.markOutput(B.sigmoid(B.conv(X, 4, {3, 3}, {1, 1}, {1, 1})));
  CompileOptions Opt;
  Opt.EnableGraphRewriting = false;
  CompiledModel M = cantFail(compileModel(B.take(), Opt));
  BlockSchedule S = computeBlockSchedule(M.G, M.Plan);
  S.verify(M.Plan);
  EXPECT_GE(S.maxWidth(), 2) << M.Plan.toString(M.G);
  // Source blocks have no predecessors; level 0 holds all of them.
  for (int BI : S.Levels[0])
    EXPECT_EQ(S.PredecessorCount[static_cast<size_t>(BI)], 0);
}

TEST(BlockSchedule, WholeZooSchedulesVerify) {
  for (const ModelZooEntry &E : modelZoo()) {
    CompiledModel M = cantFail(compileModel(E.Build(), CompileOptions()));
    BlockSchedule S = computeBlockSchedule(M.G, M.Plan);
    S.verify(M.Plan);
    EXPECT_GE(S.maxWidth(), 1) << E.Info.Name;
  }
}

//===----------------------------------------------------------------------===//
// ExecutionContext
//===----------------------------------------------------------------------===//

TEST(ExecutionContext, PerBlockTimingCoversEveryBlock) {
  CompiledModel M =
      cantFail(compileModel(buildEfficientNetB0(), CompileOptions()));
  ExecutionStats Stats;
  ExecutionContext(M).run(randomInputs(M.G, 29), &Stats,
                          /*PerBlockTiming=*/true);
  EXPECT_EQ(Stats.KernelLaunches, static_cast<int64_t>(M.Blocks.size()));
  EXPECT_EQ(Stats.PeakArenaBytes, M.Memory.ArenaBytes);
  // Per-block timings are indexed by block and cover every block.
  ASSERT_EQ(Stats.PerBlockMs.size(), M.Blocks.size());
}

TEST(ExecutionContext, ContextIsReusableAcrossRuns) {
  CompiledModel M = cantFail(compileModel(diamondGraph(5), CompileOptions()));
  ExecutionContext Ctx(M);
  std::vector<Tensor> Inputs = randomInputs(M.G, 31);
  std::vector<Tensor> A = Ctx.run(Inputs);
  std::vector<Tensor> B = Ctx.run(Inputs);
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(maxAbsDiff(A[I], B[I]), 0.0f);
}

//===----------------------------------------------------------------------===//
// InferenceSession: multi-client serving
//===----------------------------------------------------------------------===//

TEST(InferenceSession, ServesConcurrentClientsCorrectly) {
  InferenceSession Session(
      cantFail(compileModel(buildEfficientNetB0(), CompileOptions())));
  std::vector<Tensor> Inputs = randomInputs(Session.model().G, 37);
  std::vector<Tensor> Golden = cantFail(Session.run(Inputs));

  // >= 4 genuinely simultaneous run() calls on one compiled model, each
  // from its own client thread, repeated to churn the context pool.
  const int Clients = 4, Rounds = 3;
  std::atomic<int> Mismatches{0};
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&] {
      for (int R = 0; R < Rounds; ++R) {
        std::vector<Tensor> Out = cantFail(Session.run(Inputs));
        if (Out.size() != Golden.size()) {
          ++Mismatches;
          continue;
        }
        for (size_t I = 0; I < Out.size(); ++I)
          if (maxAbsDiff(Out[I], Golden[I]) != 0.0f)
            ++Mismatches;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0);
  EXPECT_GE(Session.contextsCreated(), 1u);
  EXPECT_LE(Session.contextsCreated(), static_cast<unsigned>(Clients));
}

TEST(InferenceSession, RunBatchMatchesIndividualRuns) {
  InferenceSession Session(cantFail(compileModel(diamondGraph(6), CompileOptions())));
  std::vector<std::vector<Tensor>> Batch;
  for (uint64_t Seed = 0; Seed < 6; ++Seed)
    Batch.push_back(randomInputs(Session.model().G, 41 + Seed));
  std::vector<Expected<std::vector<Tensor>>> Results = Session.runBatch(Batch);
  ASSERT_EQ(Results.size(), Batch.size());
  for (size_t R = 0; R < Batch.size(); ++R) {
    ASSERT_TRUE(Results[R].ok()) << Results[R].status().toString();
    std::vector<Tensor> Solo = cantFail(Session.run(Batch[R]));
    ASSERT_EQ(Results[R].value().size(), Solo.size());
    for (size_t I = 0; I < Solo.size(); ++I)
      EXPECT_EQ(maxAbsDiff(Results[R].value()[I], Solo[I]), 0.0f)
          << "request " << R << " output " << I;
  }
}

TEST(InferenceSession, MaxContextsCapsPoolGrowth) {
  SessionOptions Opts;
  Opts.MaxContexts = 2;
  InferenceSession Session(cantFail(compileModel(diamondGraph(7), CompileOptions())),
                           Opts);
  std::vector<Tensor> Inputs = randomInputs(Session.model().G, 43);
  const int Clients = 6;
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&] {
      for (int R = 0; R < 4; ++R)
        cantFail(Session.run(Inputs));
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_LE(Session.contextsCreated(), 2u);
}

} // namespace
