//===- tests/test_session.cpp - contexts and multi-client serving --------===//
//
// BlockSchedule invariants, ExecutionContext reuse, per-block stats and
// bit-identity of pool-split kernels, and InferenceSession multi-client
// serving (concurrent clients, the context cap).
//
//===----------------------------------------------------------------------===//

#include "TestUtils.h"

#include "models/ModelZoo.h"
#include "ops/Kernels.h"
#include "ops/KernelsGemmPacked.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"

#include <dnnfusion/dnnfusion.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
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

/// A weight-stationary MLP: requests arrive as rows {Batch, 256} and every
/// dense layer is W[1024, K] @ x[K, Batch], a 1024-row narrow GEMM (the
/// shape of the serving MLP's hidden layers).
Graph wideGemvMlp(int64_t Batch) {
  GraphBuilder B(47);
  NodeId H = B.transpose(B.input(Shape({Batch, 256})), {1, 0});
  for (int64_t InF : {256, 1024}) {
    float Scale = 1.0f / std::sqrt(static_cast<float>(InF));
    NodeId W = B.weight(Shape({1024, InF}), Scale);
    NodeId Bias = B.weight(Shape({1024, 1}), Scale);
    H = B.relu(B.add(B.binary(OpKind::MatMul, W, H), Bias));
  }
  B.markOutput(B.transpose(H, {1, 0}));
  return B.take();
}

/// The same layer shape as a Gemm that reads the request rows directly:
/// Gemm(W[1024, 1024], X[Batch, 1024], bias[1024, 1], transB = 1) + relu,
/// a narrow-N problem whose B is transposed.
Graph wideGemvGemm(int64_t Batch) {
  GraphBuilder B(59);
  NodeId X = B.input(Shape({Batch, 1024}));
  NodeId W = B.weight(Shape({1024, 1024}), 1.0f / 32.0f);
  NodeId Bias = B.weight(Shape({1024, 1}), 1.0f / 32.0f);
  B.markOutput(B.relu(
      B.op(OpKind::Gemm, {W, X, Bias}, AttrMap().set("transB", 1))));
  return B.take();
}

/// Disarms every fault point when the scope ends, also after a failed
/// assertion.
struct FaultReset {
  ~FaultReset() { FaultInjection::instance().reset(); }
};

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

TEST(ExecutionContext, PoolSplitGemmsMatchInlineRunsBitForBit) {
  // The 1024-row layers' work grains split them on any pool of two or
  // more threads, except the K = 256 layer below batch 4: the narrow-rows
  // tile pads nothing, so at batch 1 and 2 its rows cost 256 and 512
  // multiply-adds. Without this, the runs below could all be inline.
  ThreadPool Two(2);
  for (int64_t Batch : {1, 2, 4, 8})
    for (int64_t K : {256, 1024}) {
      GemmRoute Route = gemmRoute(KernelConfig(), 1024, Batch, K,
                                  /*TransA=*/false, /*Prepacked=*/false);
      EXPECT_EQ(Route.Path, Batch <= GemmNarrowRowsMaxN ? GemmRoute::NarrowRows
                                                        : GemmRoute::Panel);
      std::mutex Mu;
      int Slices = 0;
      Two.parallelFor(
          1024,
          [&](int64_t, int64_t) {
            std::lock_guard<std::mutex> Lock(Mu);
            ++Slices;
          },
          detail::gemmRowGrain(Batch, K, Route.NR));
      EXPECT_EQ(Slices, K == 256 && Batch < 4 ? 1 : 2)
          << "batch " << Batch << ", K " << K;
    }

  // The MLP across the narrow routes, its layer as a transposed-B Gemm on
  // the narrow-rows route, and a transformer whose feed-forward GEMMs
  // (40 rows x 128 x 256) split. Each names the pool-split calls it makes
  // at least.
  struct Case {
    std::string Name;
    Graph G;
    int64_t MinSplits;
  };
  std::vector<Case> Models;
  Models.push_back({"mlp batch 1", wideGemvMlp(1), 1});
  Models.push_back({"mlp batch 2", wideGemvMlp(2), 1});
  Models.push_back({"mlp batch 4", wideGemvMlp(4), 2});
  Models.push_back({"mlp batch 8", wideGemvMlp(8), 2});
  Models.push_back({"gemm batch 3", wideGemvGemm(3), 1});
  Models.push_back({"BERT-base", buildBertBase(), 2});
  bool PoolSplits = ThreadPool::global().numThreads() >= 2;
  for (Case &C : Models) {
    SCOPED_TRACE(C.Name);
    CompiledModel M = cantFail(compileModel(std::move(C.G), CompileOptions()));
    ExecutionContext Ctx(M);
    std::vector<Tensor> Inputs = randomInputs(M.G, 53);
    std::vector<Tensor> Pooled = Ctx.run(Inputs);

    // threadpool.spawn sends every parallelFor that would split inline.
    FaultReset Reset;
    FaultInjection::instance().arm(faultpoints::ThreadPoolSpawn);
    std::vector<Tensor> Inline = Ctx.run(Inputs);
    int64_t Triggers =
        FaultInjection::instance().pointStats(faultpoints::ThreadPoolSpawn)
            .Triggers;
    // Only calls that would split check the point.
    if (PoolSplits) {
      EXPECT_GE(Triggers, C.MinSplits);
    }

    ASSERT_EQ(Pooled.size(), Inline.size());
    for (size_t I = 0; I < Pooled.size(); ++I) {
      ASSERT_EQ(Pooled[I].numElements(), Inline[I].numElements());
      EXPECT_EQ(std::memcmp(Pooled[I].data(), Inline[I].data(),
                            static_cast<size_t>(Pooled[I].numElements()) *
                                sizeof(float)),
                0)
          << "output " << I;
    }
  }
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
